"""RTLObject: the gem5-side half of the bridge (paper §3.4).

An :class:`RTLObject` is a SimObject that owns a shared library and
exposes the paper's connectivity surface:

* **four timing ports** — two CPU-side response ports (the SoC sends
  requests *to* the RTL block: configuration writes, counter reads) and
  two memory-side request ports (the RTL block masters the memory
  system: NVDLA's DBBIF and SRAMIF);
* **optional TLB hookup** for address translation of memory-side
  requests;
* **a tick event** running at the RTL model's own clock frequency,
  which may differ from the cores' (the PMU runs at 1 GHz under 2 GHz
  cores in the paper's Table 1);
* the **struct exchange**: every tick the object builds an input value
  tuple, calls ``library.tick`` with it, and consumes the output tuple
  (see :mod:`repro.bridge.structs`; nothing is packed to bytes).

Model-specific subclasses implement :meth:`build_input` and
:meth:`consume_output` — exactly the paper's "the gem5 RTLObject and the
shared library need to define these data structures and have the
necessary code to populate and consume their fields".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..soc.event import ClockDomain, Event, EventPriority
from ..soc.packet import MemCmd, Packet
from ..soc.ports import RequestPort, ResponsePort
from ..soc.simobject import SimObject, Simulation
from ..soc.tlb import TLB
from ..trace import packets as pkttrace
from ..trace.flags import debug_flag, get_chrome_tracer, tracepoint
from .shared_library import SharedLibrary

#: number of ports on each side, per the paper
CPU_SIDE_PORTS = 2
MEM_SIDE_PORTS = 2

FLAG_RTL = debug_flag(
    "RTL", "RTLObject: CPU-side traffic, memory-side requests, struct exchange"
)
FLAG_RTL_BATCH = debug_flag(
    "RTL.Batch", "RTLObject batching decisions and quiescence skips"
)


class RTLObject(SimObject):
    """Bridges one shared-library RTL model into the simulated SoC."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: SharedLibrary,
        clock: Optional[ClockDomain] = None,
        tlb: Optional[TLB] = None,
        max_inflight: Optional[int] = None,
        batch_cycles: int = 1,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent, clock=clock)
        self.library = library
        self.tlb = tlb
        self.max_inflight = max_inflight
        #: upper bound on RTL cycles advanced per event-queue pop when
        #: the model is quiescent (1 = batching off)
        self.batch_cycles = batch_cycles

        # CPU-side: the SoC masters us (config writes, register reads).
        self.cpu_side = [
            ResponsePort(
                f"{name}.cpu_side{i}",
                recv_timing_req=self._make_cpu_req_handler(i),
                recv_resp_retry=self._make_cpu_resp_retry(i),
                recv_functional=self._recv_functional,
            )
            for i in range(CPU_SIDE_PORTS)
        ]
        # Memory-side: we master the SoC memory system.
        self.mem_side = [
            RequestPort(
                f"{name}.mem_side{i}",
                recv_timing_resp=self._recv_mem_resp,
                recv_req_retry=self._make_mem_retry(i),
                recv_snoop=self.recv_snoop_mem,
            )
            for i in range(MEM_SIDE_PORTS)
        ]

        # Inbound CPU-side requests awaiting processing by the RTL model.
        self.cpu_req_queue: deque[Packet] = deque()
        # Responses we produced but whose port was busy.
        self._blocked_resps: list[deque[Packet]] = [
            deque() for _ in range(CPU_SIDE_PORTS)
        ]
        # Memory-side requests awaiting port acceptance, per port.
        self._mem_req_queue: list[deque[Packet]] = [
            deque() for _ in range(MEM_SIDE_PORTS)
        ]
        # Responses from memory, delivered into the next input struct.
        self.mem_resp_queue: deque[Packet] = deque()
        self.inflight = 0

        self._tick_event = Event(self._tick, f"{name}.tick")
        self._running = True
        # Coalesced busy/batched window for the Chrome tracer:
        # (kind, start_tick, end_tick) of the span being extended.
        self._span: Optional[tuple[str, int, int]] = None

        s = self.stats
        self.st_ticks = s.scalar("ticks", "RTL model clock ticks executed")
        self.st_mem_reads = s.scalar("mem_reads", "memory-side read requests")
        self.st_mem_writes = s.scalar("mem_writes", "memory-side write requests")
        self.st_mem_resps = s.scalar("mem_resps", "memory-side responses")
        self.st_cpu_reqs = s.scalar("cpu_reqs", "CPU-side requests received")
        self.st_stalled_reqs = s.scalar(
            "stalled_reqs", "memory-side requests delayed by port backpressure"
        )
        self.st_inflight_peak = s.scalar("inflight_peak", "max in-flight mem reqs")
        self.st_batched_ticks = s.scalar(
            "batched_ticks", "RTL cycles advanced through the batch fast path"
        )

    # -- lifecycle --------------------------------------------------------

    def startup(self) -> None:
        self.library.reset()
        self.schedule_cycles(self._tick_event, 1, EventPriority.CLOCK)

    def stop(self) -> None:
        """Stop ticking (end of workload)."""
        self._running = False
        self._flush_span()
        if self._tick_event.scheduled:
            self.sim.eventq.deschedule(self._tick_event)

    # -- the tick ----------------------------------------------------------

    def _tick(self) -> None:
        n = self._batch_window()
        inputs = self._tick_prologue(n)
        if n > 1:
            outputs = self.library.tick_batch(inputs, n)
        else:
            outputs = self.library.tick(inputs)
        self._tick_epilogue(n, outputs)

    def _tick_prologue(self, n: int) -> tuple:
        """Everything before the model call: tracing + the input tuple.

        Split from :meth:`_tick` so the bulk-synchronous scheduler
        (:mod:`repro.rtl.parallel.sched`) can run every group member's
        input phase before any model ticks; the serial path above is
        behaviourally identical to the pre-split code.
        """
        if n > 1:
            if FLAG_RTL_BATCH.enabled:
                tracepoint(
                    FLAG_RTL_BATCH, self.name,
                    "quiescent: advancing %d RTL cycles in one pop",
                    n, tick=self.now,
                )
        elif FLAG_RTL_BATCH.enabled and self.batch_cycles > 1:
            tracepoint(
                FLAG_RTL_BATCH, self.name,
                "batching off this pop (quiescence bound or event horizon)",
                tick=self.now,
            )
        self._note_window(
            "batched" if n > 1 else "busy",
            self.now, self.now + n * self.clock.period,
        )
        return self.build_input()

    def _tick_epilogue(self, n: int, outputs: tuple) -> None:
        """Everything after the model call: stats, output, reschedule."""
        if n > 1:
            self.st_batched_ticks.inc(n)
        self.st_ticks.inc(n)
        self.consume_output(outputs)
        if self._running:
            self.schedule_cycles(self._tick_event, n, EventPriority.CLOCK)

    # -- Chrome busy/idle windows ------------------------------------------

    def _note_window(self, kind: str, start: int, end: int) -> None:
        """Extend or flush the coalesced busy/batched span for Perfetto."""
        tracer = get_chrome_tracer()
        if tracer is None or not tracer.enabled:
            self._span = None
            return
        span = self._span
        if span is not None and span[0] == kind and span[2] == start:
            self._span = (kind, span[1], end)
            return
        self._flush_span()
        self._span = (kind, start, end)

    def _flush_span(self) -> None:
        span = self._span
        self._span = None
        if span is None:
            return
        tracer = get_chrome_tracer()
        if tracer is None:
            return
        kind, start, end = span
        tracer.span(
            f"rtl {kind}", f"rtl:{self.name}", start, end,
            args={"cycles": (end - start) // self.clock.period},
        )

    #: sentinel: _batch_window should ask the event queue for a horizon
    _QUEUE_HORIZON = object()

    def _batch_window(self, horizon: object = _QUEUE_HORIZON) -> int:
        """RTL cycles to advance on this event-queue pop.

        The window is the model's own quiescence bound
        (:meth:`idle_cycles`), clamped so no foreign event fires before
        the next sample: any event strictly before our next edge could
        change the inputs we would have sampled.  Events *at* the next
        edge are fine — clock-priority ticks run first at a given tick,
        exactly as in the unbatched schedule.  This keeps the paper's
        frequency-ratio semantics: batched or not, edge k is simulated
        at tick ``k * period``.

        *horizon* overrides the event-queue query (``None`` = unbounded)
        — the group scheduler passes the horizon a serial run would have
        observed, including entries it is still holding in a capture
        buffer.
        """
        limit = min(self.batch_cycles, self.idle_cycles())
        if limit <= 1:
            return 1
        if horizon is RTLObject._QUEUE_HORIZON:
            horizon = self.sim.eventq.next_event_tick()
        if horizon is not None:
            limit = min(limit, (horizon - self.now) // self.clock.period)
        return max(1, limit)

    # -- hooks for model-specific subclasses ----------------------------------

    def build_input(self) -> tuple:
        """The input value tuple for this tick (override per model with
        ``self.library.input_spec.make(...)``)."""
        return self.library.input_spec.make()

    def consume_output(self, outputs: tuple) -> None:
        """Act on the output value tuple from this tick (override per
        model)."""

    def idle_cycles(self) -> int:
        """Upper bound on cycles this model may advance per input struct.

        Override per model: return > 1 only when (a) the inputs built
        by :meth:`build_input` would be identical for that many
        cycles and (b) every intermediate output is ignorable — no
        response, interrupt or memory request pulse can be missed.  The
        default is the always-safe single cycle.
        """
        return 1

    # -- CPU-side plumbing ------------------------------------------------------

    def _make_cpu_req_handler(self, port_idx: int):
        def handler(pkt: Packet) -> bool:
            pkt.dest_port = port_idx
            if FLAG_RTL.enabled:
                tracepoint(
                    FLAG_RTL, self.name,
                    "cpu_side%d %s #%d addr=%#x queued (%d pending)",
                    port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr,
                    len(self.cpu_req_queue) + 1, tick=self.now,
                )
            self.cpu_req_queue.append(pkt)
            self.st_cpu_reqs.inc()
            return True  # the RTL object always sinks config traffic

        return handler

    def _make_cpu_resp_retry(self, port_idx: int):
        def handler() -> None:
            queue = self._blocked_resps[port_idx]
            while queue:
                pkt = queue.popleft()
                if not self.cpu_side[port_idx].send_timing_resp(pkt):
                    queue.appendleft(pkt)
                    return

        return handler

    def _recv_functional(self, pkt: Packet) -> None:
        raise NotImplementedError(
            f"{self.name}: functional access to RTL state is model-specific"
        )

    def respond_cpu(self, pkt: Packet, data: Optional[bytes] = None) -> None:
        """Turn an inbound CPU-side request around and send the response."""
        port_idx = pkt.dest_port
        if port_idx is None:
            raise RuntimeError("packet did not arrive via a cpu_side port")
        pkt.make_response(data)
        pkt.resp_tick = self.now
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "cpu_side%d respond %s #%d addr=%#x",
                port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now,
            )
        if self._blocked_resps[port_idx] or not self.cpu_side[
            port_idx
        ].send_timing_resp(pkt):
            self._blocked_resps[port_idx].append(pkt)

    # -- memory-side plumbing -------------------------------------------------------

    def can_issue_mem(self) -> bool:
        return self.max_inflight is None or self.inflight < self.max_inflight

    def send_mem_read(
        self, addr: int, size: int, port_idx: int = 0, translate: bool = False,
        **meta,
    ) -> bool:
        pkt = Packet(MemCmd.ReadReq, addr, size, requestor=self.name)
        pkt.meta.update(meta)
        return self._issue_mem(pkt, port_idx, translate)

    def send_mem_write(
        self,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        port_idx: int = 0,
        translate: bool = False,
        **meta,
    ) -> bool:
        pkt = Packet(MemCmd.WriteReq, addr, size, data=data, requestor=self.name)
        pkt.meta.update(meta)
        return self._issue_mem(pkt, port_idx, translate)

    def _issue_mem(self, pkt: Packet, port_idx: int, translate: bool) -> bool:
        """Issue a memory-side request; False iff the in-flight cap is hit."""
        if not self.can_issue_mem():
            return False
        if translate:
            if self.tlb is None:
                raise RuntimeError(f"{self.name}: no TLB configured")
            pkt.vaddr = pkt.addr
            pkt.addr, _walk = self.tlb.translate(pkt.addr)
        self.inflight += 1
        if self.inflight > self.st_inflight_peak.value():
            self.st_inflight_peak.set(self.inflight)
        if pkt.is_read:
            self.st_mem_reads.inc()
        else:
            self.st_mem_writes.inc()
        pkt.req_tick = self.now
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "mem_side%d issue %s #%d addr=%#x (inflight %d)",
                port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr,
                self.inflight, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        queue = self._mem_req_queue[port_idx]
        if queue or not self.mem_side[port_idx].send_timing_req(pkt):
            queue.append(pkt)
            self.st_stalled_reqs.inc()
        return True

    def _make_mem_retry(self, port_idx: int):
        def handler() -> None:
            queue = self._mem_req_queue[port_idx]
            while queue:
                pkt = queue.popleft()
                if not self.mem_side[port_idx].send_timing_req(pkt):
                    queue.appendleft(pkt)
                    return

        return handler

    def recv_snoop_mem(self, pkt: Packet) -> None:
        """Express coherence probe arriving on a mem-side port.

        Base RTLObjects are not coherence participants; subclasses that
        join a :class:`~repro.soc.interconnect.CoherentXbar` (e.g. the
        coherent RTL cache bridge) override this with their snoop
        translation.  Reaching it otherwise means a non-participant was
        wired to a coherent crossbar.
        """
        raise RuntimeError(
            f"{self.name}: received coherence snoop {pkt!r} but this "
            "RTLObject is not a coherence participant"
        )

    def _recv_mem_resp(self, pkt: Packet) -> bool:
        pkt.resp_tick = self.now
        self.inflight -= 1
        self.st_mem_resps.inc()
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "mem resp %s #%d addr=%#x (inflight %d)",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, self.inflight,
                tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled and pkt.hops:
            pkttrace.finish(pkt, self.sim, self.now, self.name)
        self.mem_resp_queue.append(pkt)
        return True

    # -- checkpointing ----------------------------------------------------

    def ckpt_named_events(self):
        return {"tick": self._tick_event}

    def serialize(self, ctx) -> dict:
        return {
            "cpu_req_queue": [ctx.pack(p) for p in self.cpu_req_queue],
            "blocked_resps": [
                [ctx.pack(p) for p in q] for q in self._blocked_resps
            ],
            "mem_req_queue": [
                [ctx.pack(p) for p in q] for q in self._mem_req_queue
            ],
            "mem_resp_queue": [ctx.pack(p) for p in self.mem_resp_queue],
            "inflight": self.inflight,
            "running": self._running,
            "library": self.library.checkpoint_state(),
        }

    def unserialize(self, state: dict, ctx) -> None:
        self.cpu_req_queue = deque(
            ctx.unpack(p) for p in state["cpu_req_queue"]
        )
        self._blocked_resps = [
            deque(ctx.unpack(p) for p in q) for q in state["blocked_resps"]
        ]
        self._mem_req_queue = [
            deque(ctx.unpack(p) for p in q) for q in state["mem_req_queue"]
        ]
        self.mem_resp_queue = deque(
            ctx.unpack(p) for p in state["mem_resp_queue"]
        )
        self.inflight = state["inflight"]
        self._running = state["running"]
        self._span = None
        self.library.load_checkpoint_state(state["library"])
