"""RTLWorkerPool: fork workers, FIFO tickets, fault-plan hygiene."""

import os

import pytest

from repro.bridge.shared_library import SharedLibrary
from repro.bridge.structs import Field, StructSpec
from repro.resilience import FaultPlan, control
from repro.rtl.parallel.pool import (
    LibraryHost,
    PooledLibrary,
    RTLWorkerError,
    RTLWorkerPool,
    pool_available,
)

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="platform lacks the fork start method"
)


class _ProbeHost:
    """Worker-side probe: counters, echoes, errors, fault-plan state."""

    def __init__(self) -> None:
        self.count = 0

    def handle(self, op, *args):
        if op == "echo":
            return args
        if op == "count":
            self.count += 1
            return self.count
        if op == "pid":
            return os.getpid()
        if op == "plan":
            return control.pending_plan() is not None
        if op == "boom":
            raise ValueError("kaboom")
        raise ValueError(f"unknown op {op!r}")


def _make_pool(jobs=1, hosts=1, **kwargs):
    pool = RTLWorkerPool(jobs, **kwargs)
    hids = [pool.register(_ProbeHost()) for _ in range(hosts)]
    pool.start()
    return pool, hids


class TestPoolMechanics:
    def test_echo_roundtrip(self):
        with RTLWorkerPool(1) as pool:
            hid = pool.register(_ProbeHost())
            pool.start()
            assert pool.call(hid, "echo", 1, "two") == (1, "two")

    def test_worker_is_a_separate_process_with_persistent_state(self):
        pool, (hid,) = _make_pool()
        try:
            assert pool.call(hid, "pid") != os.getpid()
            assert [pool.call(hid, "count") for _ in range(3)] == [1, 2, 3]
        finally:
            pool.close()

    def test_tickets_resolve_out_of_submission_order(self):
        # Resolving the later ticket first must drain (and store) the
        # earlier reply, not skip it — per-worker FIFO discipline.
        pool, (hid,) = _make_pool()
        try:
            t1 = pool.submit(hid, "count")
            t2 = pool.submit(hid, "count")
            assert t2.result() == 2
            assert t1.result() == 1
        finally:
            pool.close()

    def test_hosts_spread_round_robin_and_keep_private_state(self):
        pool, hids = _make_pool(jobs=2, hosts=3)
        try:
            assert [pool.worker_of(h) for h in hids] == [0, 1, 0]
            pool.call(hids[0], "count")
            pool.call(hids[0], "count")
            assert pool.call(hids[1], "count") == 1   # own counter
            assert pool.call(hids[2], "count") == 1   # own counter, worker 0
            assert pool.call(hids[0], "count") == 3
        finally:
            pool.close()

    def test_worker_exception_raises_with_remote_traceback(self):
        pool, (hid,) = _make_pool()
        try:
            with pytest.raises(RTLWorkerError, match="kaboom"):
                pool.call(hid, "boom")
            # the worker survives its own exception
            assert pool.call(hid, "count") == 1
        finally:
            pool.close()

    def test_lifecycle_guards(self):
        with pytest.raises(ValueError):
            RTLWorkerPool(0)
        pool = RTLWorkerPool(1)
        with pytest.raises(RuntimeError):
            pool.submit(0, "echo")       # not started
        pool.register(_ProbeHost())
        pool.start()
        with pytest.raises(RuntimeError):
            pool.register(_ProbeHost())  # too late
        with pytest.raises(RuntimeError):
            pool.start()                 # already started
        pool.close()
        pool.close()                     # idempotent


class TestFaultPlanHygiene:
    """Satellite: a parked sweep-worker FaultPlan must not leak into RTL
    pool workers through fork (unless explicitly requested)."""

    @pytest.fixture(autouse=True)
    def _parked_plan(self):
        control.set_pending_plan(FaultPlan.parse(["dram-drop@100"], seed=0))
        try:
            yield
        finally:
            control.clear_pending()

    def test_worker_clears_inherited_plan_by_default(self):
        assert control.pending_plan() is not None  # parked in the parent
        pool, (hid,) = _make_pool()
        try:
            assert pool.call(hid, "plan") is False
        finally:
            pool.close()
        # the parent's parked plan is untouched
        assert control.pending_plan() is not None

    def test_inherit_fault_plan_keeps_it(self):
        pool, (hid,) = _make_pool(inherit_fault_plan=True)
        try:
            assert pool.call(hid, "plan") is True
        finally:
            pool.close()


# -- library hosting -------------------------------------------------------


class _CounterLib(SharedLibrary):
    """Minimal library: output = running sum of the input field."""

    input_spec = StructSpec("in", [Field("x", 32)])
    output_spec = StructSpec("out", [Field("acc", 32)])

    def __init__(self) -> None:
        self.acc = 0

    def tick(self, inputs: tuple) -> tuple:
        (x,) = inputs
        self.acc += x
        return self.output_spec.make(acc=self.acc)

    def reset(self) -> None:
        self.acc = 0

    def checkpoint_state(self) -> dict:
        return {"acc": self.acc}

    def load_checkpoint_state(self, state: dict) -> None:
        self.acc = state["acc"]


class TestPooledLibrary:
    @pytest.fixture
    def pooled(self):
        pool = RTLWorkerPool(1)
        hid = pool.register(LibraryHost(_CounterLib()))
        pool.start()
        lib = PooledLibrary(pool, hid, _CounterLib())
        try:
            yield lib
        finally:
            pool.close()

    def test_specs_come_from_the_local_twin(self, pooled):
        assert pooled.input_spec.size == _CounterLib.input_spec.size
        assert "acc" in pooled.output_spec

    def test_tick_and_batch_run_remotely(self, pooled):
        assert pooled.tick(pooled.input_spec.make(x=5)) == (5,)
        assert pooled.tick_batch(pooled.input_spec.make(x=2), 3) == (11,)
        # the local twin never saw any of it
        assert pooled.inner.acc == 0
        with pytest.raises(ValueError):
            pooled.tick_batch(pooled.input_spec.make(), 0)

    def test_submit_tick_is_asynchronous(self, pooled):
        t1 = pooled.submit_tick(pooled.input_spec.make(x=1), 1)
        t2 = pooled.submit_tick(pooled.input_spec.make(x=10), 1)
        assert [t.result() for t in (t1, t2)] == [(1,), (11,)]

    def test_reset_and_checkpoint_roundtrip(self, pooled):
        pooled.tick(pooled.input_spec.make(x=7))
        assert pooled.checkpoint_state() == {"acc": 7}
        pooled.reset()
        assert pooled.checkpoint_state() == {"acc": 0}
        pooled.load_checkpoint_state({"acc": 42})
        assert pooled.tick(pooled.input_spec.make(x=1)) == (43,)
