"""Persistent fork-based worker pool for parallel RTL execution.

``repro.parallel.runner`` fans *independent simulations* out to a
``ProcessPoolExecutor``; ticking RTL models inside one simulation needs
a different shape: workers that keep model state between calls (the
compiled kernel lives in the worker, only input/output struct tuples
cross the pipe) and a submit/barrier interface a bulk-synchronous
scheduler can drive.  This module provides that pool, reusing the
runner's discipline where it applies:

* **fork start method only** — workers inherit the compiled model
  (CodegenProgram closures, the elaborated module, behavioural cores)
  by address-space copy; nothing model-sized is ever pickled.  Where
  fork is unavailable :func:`pool_available` returns False and callers
  stay serial.
* **one duplex pipe per worker**, requests answered strictly in FIFO
  order per worker, results merged by the caller in submission (index)
  order — resolution is deterministic regardless of OS scheduling,
  mirroring the runner's index-ordered merge.
* **fault-plan hygiene** — ``repro.parallel.runner`` parks a
  :class:`~repro.resilience.faults.FaultPlan` in module state so *sweep*
  workers can apply worker-targeted faults after fork.  An RTL worker
  pool forked from the same process would silently inherit that parked
  plan and replay stale faults, so workers clear it on startup unless
  the pool is constructed with ``inherit_fault_plan=True``.
"""

from __future__ import annotations

import multiprocessing as mp
from collections import deque
from typing import Any, Optional

from ...bridge.shared_library import SharedLibrary
from ...bridge.structs import StructSpec


def pool_available() -> bool:
    """True when the platform supports fork-based worker pools."""
    return "fork" in mp.get_all_start_methods()


class RTLWorkerError(RuntimeError):
    """A pool worker raised; the message carries the remote traceback."""


class Ticket:
    """One in-flight request; :meth:`result` blocks until its reply.

    Replies arrive strictly in submission order per worker, so draining
    the pipe until this ticket resolves cannot skip or reorder anything.
    """

    __slots__ = ("_pool", "_worker", "_value", "_error", "_done")

    def __init__(self, pool: "RTLWorkerPool", worker: int) -> None:
        self._pool = pool
        self._worker = worker
        self._value: Any = None
        self._error: Optional[str] = None
        self._done = False

    def result(self) -> Any:
        while not self._done:
            self._pool._drain_one(self._worker)
        if self._error is not None:
            raise RTLWorkerError(self._error)
        return self._value


class RTLWorkerPool:
    """A fixed set of forked workers, each owning registered hosts.

    Hosts (objects with a ``handle(op, *args)`` method) are registered
    *before* :meth:`start`; the fork then copies them into their
    assigned worker, which becomes the authority for their state.
    Host *i* lives in worker ``i % jobs``.
    """

    def __init__(self, jobs: int, inherit_fault_plan: bool = False) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        if not pool_available():
            raise RuntimeError(
                "RTLWorkerPool requires the fork start method"
            )
        self.jobs = jobs
        self.inherit_fault_plan = inherit_fault_plan
        self._hosts: list[Any] = []
        self._procs: list[mp.Process] = []
        self._conns: list[Any] = []
        self._pending: list[deque[Ticket]] = []
        self._started = False

    # -- setup -----------------------------------------------------------

    def register(self, host: Any) -> int:
        """Adopt *host* (pre-fork); returns its host id."""
        if self._started:
            raise RuntimeError("register() must precede start()")
        self._hosts.append(host)
        return len(self._hosts) - 1

    def worker_of(self, hid: int) -> int:
        return hid % self.jobs

    def start(self) -> None:
        if self._started:
            raise RuntimeError("pool already started")
        ctx = mp.get_context("fork")
        for w in range(self.jobs):
            parent_conn, child_conn = ctx.Pipe()
            hosts = {
                hid: host
                for hid, host in enumerate(self._hosts)
                if hid % self.jobs == w
            }
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, hosts, self.inherit_fault_plan),
                name=f"rtl-worker-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._pending.append(deque())
        self._started = True

    # -- requests --------------------------------------------------------

    def submit(self, hid: int, op: str, *args: Any) -> Ticket:
        """Send a request to *hid*'s worker; returns its :class:`Ticket`."""
        if not self._started:
            raise RuntimeError("pool is not running")
        w = hid % self.jobs
        try:
            self._conns[w].send((op, hid, args))
        except (BrokenPipeError, OSError) as exc:
            raise RTLWorkerError(f"worker {w} is gone: {exc}") from exc
        ticket = Ticket(self, w)
        self._pending[w].append(ticket)
        return ticket

    def call(self, hid: int, op: str, *args: Any) -> Any:
        return self.submit(hid, op, *args).result()

    def _drain_one(self, worker: int) -> None:
        """Receive one reply from *worker*, resolving its oldest ticket."""
        try:
            status, payload = self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            # resolve the whole backlog as failed so callers don't hang
            while self._pending[worker]:
                t = self._pending[worker].popleft()
                t._error = f"worker {worker} died: {exc}"
                t._done = True
            return
        ticket = self._pending[worker].popleft()
        if status == "ok":
            ticket._value = payload
        else:
            ticket._error = payload
        ticket._done = True

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        """Stop all workers (idempotent)."""
        if not self._started:
            self._hosts.clear()
            return
        for conn in self._conns:
            try:
                conn.send(("__stop__", -1, ()))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self._pending = []
        self._hosts = []
        self._started = False

    def __enter__(self) -> "RTLWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass


def _worker_main(conn: Any, hosts: dict, inherit_fault_plan: bool) -> None:
    """Worker loop: serve ``(op, hid, args)`` requests until stopped."""
    if not inherit_fault_plan:
        # A parked sweep-worker fault plan inherited through fork must
        # not leak into an RTL pool (satellite fix; see module docs).
        from ...resilience import control

        control.clear_pending()
    while True:
        try:
            op, hid, args = conn.recv()
        except (EOFError, OSError):
            break
        if op == "__stop__":
            break
        try:
            result = hosts[hid].handle(op, *args)
            conn.send(("ok", result))
        except BaseException:
            import traceback

            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
    conn.close()


# -- shared-library hosting ------------------------------------------------


class LibraryHost:
    """Worker-side adapter: executes tick-protocol ops on a library."""

    def __init__(self, library: SharedLibrary) -> None:
        self.library = library

    def handle(self, op: str, *args: Any) -> Any:
        lib = self.library
        if op == "tick":
            inputs, n = args
            return lib.tick_batch(inputs, n) if n > 1 else lib.tick(inputs)
        if op == "reset":
            return lib.reset()
        if op == "checkpoint":
            return lib.checkpoint_state()
        if op == "load_checkpoint":
            return lib.load_checkpoint_state(args[0])
        raise ValueError(f"unknown library op {op!r}")


class PooledLibrary(SharedLibrary):
    """Parent-side proxy for a library living in a pool worker.

    Implements the full shared-library contract by round-tripping
    through the worker pipe — an input struct tuple in, an output
    struct tuple out, exactly the paper's tick protocol — plus the
    asynchronous
    :meth:`submit_tick` the barrier scheduler drives.  Struct specs are
    static metadata and come from the local twin (``inner``); only
    model *state* lives remotely.
    """

    def __init__(
        self, pool: RTLWorkerPool, hid: int, inner: SharedLibrary
    ) -> None:
        self.pool = pool
        self.hid = hid
        self.inner = inner

    @property
    def input_spec(self) -> StructSpec:  # type: ignore[override]
        return self.inner.input_spec

    @property
    def output_spec(self) -> StructSpec:  # type: ignore[override]
        return self.inner.output_spec

    def submit_tick(self, inputs: tuple, cycles: int) -> Ticket:
        """Dispatch a tick without waiting (the scheduler's barrier
        collects the tickets in group order)."""
        return self.pool.submit(self.hid, "tick", inputs, cycles)

    def tick(self, inputs: tuple) -> tuple:
        return self.pool.call(self.hid, "tick", inputs, 1)

    def tick_batch(self, inputs: tuple, cycles: int) -> tuple:
        if cycles < 1:
            raise ValueError(f"cannot batch {cycles} cycles")
        return self.pool.call(self.hid, "tick", inputs, cycles)

    def reset(self) -> None:
        self.pool.call(self.hid, "reset")

    def checkpoint_state(self) -> dict:
        return self.pool.call(self.hid, "checkpoint")

    def load_checkpoint_state(self, state: dict) -> None:
        self.pool.call(self.hid, "load_checkpoint", state)
