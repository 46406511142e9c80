"""PMU RTLObject: gem5-side integration of the PMU (paper §4.1).

Connects SoC event sources (committed instructions, L1D misses, the
clock itself) to the PMU's one-bit event inputs, forwards MMIO
configuration traffic from the cpu_side port onto the AXI channels, and
fans interrupt pulses out to registered handlers.

Event wiring follows the paper: the out-of-order core can commit up to
four instructions per cycle, so the commit event occupies *four* event
lanes; L1D misses occur at most once per cycle (one lane); the clock is
wired to its own lane to enable periodic threshold interrupts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ...bridge.rtl_object import RTLObject
from ...soc.cpu.core import EventWire
from ...soc.event import ClockDomain
from ...soc.packet import Packet
from ...soc.simobject import SimObject, Simulation
from .wrapper import PMUSharedLibrary


class _EventLane:
    """One PMU event input: either a wire tap or the free-running clock."""

    __slots__ = ("wire", "lanes", "base", "is_clock")

    def __init__(self, base: int, wire: Optional[EventWire],
                 lanes: int, is_clock: bool) -> None:
        self.base = base
        self.wire = wire
        self.lanes = lanes
        self.is_clock = is_clock


class PMURTLObject(RTLObject):
    """Bridges a :class:`PMUSharedLibrary` into the SoC."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: PMUSharedLibrary,
        mmio_base: int = 0x1000_0000,
        clock: Optional[ClockDomain] = None,
        batch_cycles: int = 64,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, library, clock=clock,
                         batch_cycles=batch_cycles, parent=parent)
        self.mmio_base = mmio_base
        self._lanes: list[_EventLane] = []
        self._pending_reads: deque[Packet] = deque()
        self._interrupt_handlers: list[Callable[[int], None]] = []
        self.st_interrupts = self.stats.scalar("interrupts", "PMU interrupts seen")
        self.st_events_dropped = self.stats.scalar(
            "events_deferred",
            "event pulses deferred to a later PMU tick (rate mismatch)",
        )

    # -- wiring ------------------------------------------------------------

    def connect_event(self, base_index: int, wire: EventWire,
                      lanes: int = 1) -> None:
        """Tap *wire* onto event inputs [base_index, base_index+lanes)."""
        self._check_lane_range(base_index, lanes)
        self._lanes.append(_EventLane(base_index, wire, lanes, False))

    def connect_clock_event(self, index: int) -> None:
        """Wire the PMU clock itself to event input *index*."""
        self._check_lane_range(index, 1)
        self._lanes.append(_EventLane(index, None, 1, True))

    def _check_lane_range(self, base: int, lanes: int) -> None:
        n = self.library.n_counters
        if base < 0 or base + lanes > n:
            raise ValueError(
                f"event lanes [{base}, {base + lanes}) exceed {n} counters"
            )
        for lane in self._lanes:
            if not (base + lanes <= lane.base or lane.base + lane.lanes <= base):
                raise ValueError(
                    f"event lanes [{base}, {base + lanes}) overlap existing wiring"
                )

    def on_interrupt(self, handler: Callable[[int], None]) -> None:
        """Register a callback fired (with the current tick) on IRQ."""
        self._interrupt_handlers.append(handler)

    def attach_core_handler(self, core, uops_factory=None) -> None:
        """Run an interrupt-service routine *on the core* per PMU IRQ.

        The paper's benchmark dumps counters from the interrupt handler,
        which costs core cycles; this models that perturbation.
        ``uops_factory()`` returns the handler's µop list (default: a
        representative save/read-counters/restore sequence).
        """
        from ...soc.cpu.uop import alu, load, store

        def default_factory():
            scratch = 0x00E0_0000
            uops = [store(scratch + 8 * i) for i in range(8)]   # save regs
            for i in range(6):                                   # read+log
                uops += [load(scratch + 64 + 8 * i), alu(1), alu(1)]
            uops += [load(scratch + 8 * i) for i in range(8)]   # restore
            return uops

        factory = uops_factory or default_factory
        self.on_interrupt(lambda _tick: core.raise_interrupt(factory()))

    # -- struct exchange ----------------------------------------------------------

    def idle_cycles(self) -> int:
        """Batch only when the PMU provably sits still.

        Counters move solely on event bits, and ``irq``/``rvalid`` are
        registered pulses, so with ``events == 0`` and no AXI traffic
        the model's outputs are zero for every skipped cycle.  A
        clock-wired lane pulses every cycle, so it pins us to
        single-step; so do queued wire pulses, pending MMIO requests
        and outstanding reads.
        """
        if self.cpu_req_queue or self._pending_reads:
            return 1
        for lane in self._lanes:
            if lane.is_clock or (lane.wire is not None and lane.wire.count):
                return 1
        return self.batch_cycles

    def build_input(self) -> tuple:
        events = 0
        for lane in self._lanes:
            if lane.is_clock:
                events |= 1 << lane.base
                continue
            assert lane.wire is not None
            pulses = lane.wire.drain(lane.lanes)
            if lane.wire.count:
                # more pulses arrived this PMU cycle than lanes exist;
                # they remain queued for the next tick
                self.st_events_dropped.inc(lane.wire.count)
            for i in range(pulses):
                events |= 1 << (lane.base + i)

        # One configuration write and one read may be in flight per cycle.
        write_pkt = None
        read_pkt = None
        for _ in range(len(self.cpu_req_queue)):
            pkt = self.cpu_req_queue[0]
            if pkt.is_write and write_pkt is None:
                write_pkt = self.cpu_req_queue.popleft()
            elif pkt.is_read and read_pkt is None:
                read_pkt = self.cpu_req_queue.popleft()
            else:
                break
        awvalid = awaddr = wdata = arvalid = araddr = 0
        if write_pkt is not None:
            awvalid = 1
            awaddr = (write_pkt.addr - self.mmio_base) & 0xFFF
            wdata = int.from_bytes(
                (write_pkt.data or b"\0\0\0\0")[:4], "little"
            )
            # writes complete at this edge
            self.respond_cpu(write_pkt)
        if read_pkt is not None:
            arvalid = 1
            araddr = (read_pkt.addr - self.mmio_base) & 0xFFF
            self._pending_reads.append(read_pkt)
        return self.library.input_spec.make(
            events, awvalid, awaddr, wdata, arvalid, araddr
        )

    def consume_output(self, outputs: tuple) -> None:
        rvalid, rdata, irq = outputs
        if rvalid:
            if not self._pending_reads:
                raise RuntimeError(f"{self.name}: rvalid with no pending read")
            pkt = self._pending_reads.popleft()
            data = rdata.to_bytes(4, "little")
            if pkt.size != 4:
                data = data[: pkt.size].ljust(pkt.size, b"\0")
            self.respond_cpu(pkt, data)
        if irq:
            self.st_interrupts.inc()
            for handler in self._interrupt_handlers:
                handler(self.now)

    # -- checkpointing ----------------------------------------------------

    def serialize(self, ctx) -> dict:
        state = super().serialize(ctx)
        state["pending_reads"] = [ctx.pack(p) for p in self._pending_reads]
        # pending pulse counts per wired lane, in wiring order (wires such
        # as the external L1D-miss tap have no other serialization owner)
        state["lane_counts"] = [
            lane.wire.count for lane in self._lanes if lane.wire is not None
        ]
        return state

    def unserialize(self, state: dict, ctx) -> None:
        super().unserialize(state, ctx)
        self._pending_reads = deque(
            ctx.unpack(p) for p in state["pending_reads"]
        )
        wired = [lane for lane in self._lanes if lane.wire is not None]
        counts = state["lane_counts"]
        if len(wired) != len(counts):
            raise ValueError(
                f"{self.name}: checkpoint has {len(counts)} wired lanes, "
                f"system has {len(wired)} — event wiring must match"
            )
        for lane, count in zip(wired, counts):
            lane.wire.count = count
