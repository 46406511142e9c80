"""Tier (a): tick independent RTLObjects of one timestamp in parallel.

When several RTLObject tick events land on the same event-queue
timestamp (the paper's 2/4-NVDLA configurations), their model calls are
independent by construction: each object's input phase reads only its
own queues, each output phase posts packets that are *delivered* by
future scheduled events, never by touching another RTL object directly
within the timestamp.  The scheduler exploits exactly that:

1. the first group member to fire peels the remaining members off the
   heap top (:meth:`~repro.soc.event.EventQueue.peel_group`);
2. every member's input phase runs (building its input struct), with all
   ``schedule()`` calls captured per phase;
3. the input struct tuples are dispatched to the worker pool and the
   scheduler **barriers** on the clock edge, collecting outputs in
   group (index) order;
4. every member's output phase runs, captured likewise;
5. the capture buffers are flushed in the serial interleaving
   (input₀, output₀, input₁, output₁, …) so event sequence numbers —
   which checkpoints serialize raw — are allocated exactly as a serial
   run would have allocated them.

Determinism contract: stats, coverage counters and checkpoint bytes are
bit-identical to serial execution.  Grouped members always run
single-cycle windows — in the serial schedule every member but the last
sees a later member still queued at the current tick, clamping its
batch window to one cycle.  The *last* member's serial window depends
on events the earlier members scheduled, so when it could batch
(``batch_cycles`` and the model's quiescence bound both exceed one) it
is replayed serially after the flush, where it observes exactly the
serial heap.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...bridge.rtl_object import RTLObject
from ...soc.event import EventPriority
from ...soc.simobject import Simulation
from .pool import LibraryHost, PooledLibrary, RTLWorkerPool, pool_available


class ParallelTickScheduler:
    """Groups same-timestamp RTLObject ticks onto a worker pool."""

    def __init__(
        self,
        sim: Simulation,
        objects: Iterable[RTLObject],
        pool: RTLWorkerPool,
    ) -> None:
        self.sim = sim
        self.objects = list(objects)
        self.pool = pool
        self._installed = False

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        """Move every object's library into a worker and take over the
        tick callbacks.  Must run before ``Simulation.startup`` (the
        tick events must not be scheduled yet — a scheduled event's
        handle has already snapshotted its callback)."""
        if self._installed:
            raise RuntimeError("scheduler already installed")
        for obj in self.objects:
            if obj._tick_event.scheduled:
                raise RuntimeError(
                    f"{obj.name}: install the parallel scheduler before "
                    "Simulation.startup"
                )
        for obj in self.objects:
            hid = self.pool.register(LibraryHost(obj.library))
            obj.library = PooledLibrary(self.pool, hid, obj.library)
        self.pool.start()
        for obj in self.objects:
            obj._tick_event.callback = (lambda o=obj: self._fire(o))
        self._installed = True

    def close(self) -> None:
        """Sync worker state back into the local libraries and shut the
        pool down; objects revert to plain serial ticking (idempotent)."""
        if not self._installed:
            self.pool.close()
            return
        for obj in self.objects:
            lib = obj.library
            if isinstance(lib, PooledLibrary):
                # the worker holds the authoritative model state; pull it
                # home so later checkpoints/inspection see the real thing
                try:
                    lib.inner.load_checkpoint_state(lib.checkpoint_state())
                except Exception:
                    pass  # worker already gone: keep the stale local copy
                obj.library = lib.inner
            obj._tick_event.callback = obj._tick
        self.pool.close()
        self._installed = False

    def __enter__(self) -> "ParallelTickScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the group tick --------------------------------------------------

    def _fire(self, lead: RTLObject) -> None:
        eq = self.sim.eventq
        # Current live handles -> objects (handles change on every
        # reschedule, so the map is rebuilt per group; the lead's handle
        # was already popped by the run loop).
        members: dict = {}
        for obj in self.objects:
            if obj is lead:
                continue
            entry = obj._tick_event._entry
            if entry is not None and entry.alive:
                members[entry] = obj
        peeled = (
            eq.peel_group(eq.cur_tick, EventPriority.CLOCK, members)
            if members else []
        )
        if not peeled:
            lead._tick()
            return
        group = [lead] + [members[h] for h in peeled]
        last = group[-1]
        # Members before the last provably run single-cycle windows in
        # the serial schedule; the last may batch, in which case it must
        # see the post-flush heap (see module docs).
        if min(last.batch_cycles, last.idle_cycles()) <= 1:
            par: list[RTLObject] = group
            tail: Optional[RTLObject] = None
        else:
            par, tail = group[:-1], last
        buffers: list[list] = []
        try:
            ins: list[tuple] = []
            for obj in par:
                eq.begin_capture()
                try:
                    ins.append(obj._tick_prologue(1))
                finally:
                    buffers.append([eq.end_capture(), ()])
            tickets = [
                obj.library.submit_tick(ins[i], 1)
                for i, obj in enumerate(par)
            ]
            outs = [t.result() for t in tickets]  # the barrier
            for i, obj in enumerate(par):
                eq.begin_capture()
                try:
                    obj._tick_epilogue(1, outs[i])
                finally:
                    buffers[i][1] = eq.end_capture()
        finally:
            # Serial interleaving: input then output phase per member,
            # members in firing order.  Flushing in a finally keeps the
            # queue coherent even when a model or consume hook raises.
            flat: list = []
            for pair in buffers:
                for buf in pair:
                    flat.extend(buf)
            eq.flush_captured(flat)
        if tail is not None:
            tail._tick()


def attach_parallel_rtl(
    sim: Simulation,
    objects: Iterable[RTLObject],
    jobs: int,
    inherit_fault_plan: bool = False,
) -> Optional[ParallelTickScheduler]:
    """Wire tier-(a) parallel ticking for *objects*; None = stay serial.

    Returns None (and touches nothing) when *jobs* <= 1, fewer than two
    objects are given, or the platform lacks fork — callers fall back to
    the serial path transparently.  The returned scheduler must be
    closed (``close()`` or context manager) when the run ends.
    """
    objs = list(objects)
    if jobs <= 1 or len(objs) < 2 or not pool_available():
        return None
    pool = RTLWorkerPool(
        min(jobs, len(objs)), inherit_fault_plan=inherit_fault_plan
    )
    sched = ParallelTickScheduler(sim, objs, pool)
    try:
        sched.install()
    except BaseException:
        pool.close()
        raise
    return sched
