"""Batched ticking through the bridge: tick_batch, _batch_window and
model-level idle_cycles — all proven against the unbatched schedule."""

from __future__ import annotations

import pytest

from repro.bridge import BehavioralSharedLibrary, Field, StructSpec
from repro.models.pmu.rtl_object import PMURTLObject
from repro.models.pmu.wrapper import PMUSharedLibrary, threshold_addr, REG_ENABLE
from repro.models.rtlcache.wrapper import RTLCacheObject
from repro.soc.cpu.core import EventWire
from repro.soc.event import ClockDomain, Event, EventPriority, EventQueue
from repro.soc.mem import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort


class CountingLibrary(BehavioralSharedLibrary):
    input_spec = StructSpec("i", [Field("x", 8)])
    output_spec = StructSpec("o", [Field("ticks", 32)])

    def step(self, inputs):
        return self.output_spec.make(self.ticks)


class TestNextEventTick:
    def test_empty_queue(self):
        assert EventQueue().next_event_tick() is None

    def test_earliest_live_entry(self):
        q = EventQueue()
        q.schedule_fn(lambda: None, 500)
        q.schedule_fn(lambda: None, 100)
        assert q.next_event_tick() == 100

    def test_skips_lazily_cancelled_entries(self):
        q = EventQueue()
        ev = q.schedule(Event(lambda: None, "dead"), 100)
        q.schedule_fn(lambda: None, 700)
        q.deschedule(ev)
        assert q.next_event_tick() == 700


class TestSharedLibraryTickBatch:
    def test_default_implementation_loops(self):
        lib = CountingLibrary()
        out = lib.tick_batch(lib.input_spec.make(), 5)
        assert lib.ticks == 5
        # last output corresponds to the 5th tick (ticks was 4 going in)
        assert out == (4,)

    def test_rejects_non_positive_counts(self):
        lib = CountingLibrary()
        with pytest.raises(ValueError):
            lib.tick_batch(lib.input_spec.make(), 0)

    def test_rtl_fused_batch_equals_singles(self):
        """The fused RTL batch must reproduce n sequential ticks exactly."""
        batched = PMUSharedLibrary()
        stepped = PMUSharedLibrary()
        for lib in (batched, stepped):
            lib.reset()
            # enable all counters, count event 0
            lib.tick(lib.input_spec.make(awvalid=1, awaddr=REG_ENABLE,
                                         wdata=0xFFFFF))
        stim = batched.input_spec.make(events=1)
        out_b = batched.tick_batch(stim, 40)
        for _ in range(40):
            out_s = stepped.tick(stim)
        assert out_b == out_s
        assert batched.ticks == stepped.ticks == 41
        assert batched.sim.values == stepped.sim.values
        assert batched.sim.mems == stepped.sim.mems


def _cache_rig(sim_obj, batch):
    clk = ClockDomain(1e9)
    obj = RTLCacheObject(sim_obj, "cache", clock=clk, batch_cycles=batch)
    mem = IdealMemory(sim_obj, "mem", latency_cycles=5)
    obj.mem_side[0].connect(mem.port)
    obj.mem_side[1].connect(IdealMemory(sim_obj, "mem2").port)
    return obj


def _drive_cache(sim_obj, obj, addrs_and_ticks, until):
    got = []
    drv = RequestPort("drv",
                      recv_timing_resp=lambda p: (got.append(
                          (sim_obj.eventq.cur_tick, p.addr, p.data)), True)[1],
                      recv_req_retry=lambda: None)
    drv.connect(obj.cpu_side[0])
    for addr, tick in addrs_and_ticks:
        sim_obj.eventq.schedule_fn(
            lambda a=addr: drv.send_timing_req(Packet(MemCmd.ReadReq, a, 8)),
            tick)
    sim_obj.startup()
    sim_obj.run(until=until)
    return got


class TestRTLObjectBatching:
    REQS = [(0x1000, 5_000), (0x2040, 220_000), (0x1000, 700_000)]

    def _run(self, batch):
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = _cache_rig(sim, batch)
        got = _drive_cache(sim, obj, self.REQS, until=1_000_000)
        return got, obj

    def test_batched_run_matches_unbatched(self):
        """Same responses, same data, same response *ticks* — batching
        must be invisible to the rest of the SoC."""
        got1, obj1 = self._run(batch=1)
        gotN, objN = self._run(batch=64)
        assert len(got1) == len(self.REQS)
        assert got1 == gotN
        assert obj1.st_batched_ticks.value() == 0
        assert objN.st_batched_ticks.value() > 0
        # the third read re-hits the line filled by the first
        assert objN.library.sim.peek("hit_count") == 1

    def test_busy_cache_never_batches(self):
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = _cache_rig(sim, batch=64)
        obj._waiting_fill = True
        assert obj.idle_cycles() == 1

    def test_window_clamped_by_event_horizon(self):
        """With a foreign event 10 cycles out, the window cannot jump it."""
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = _cache_rig(sim, batch=64)
        sim.startup()
        sim.eventq.service_one()  # position time at the first tick
        sim.eventq.schedule_fn(lambda: None,
                               sim.eventq.cur_tick + 10 * obj.clock.period)
        assert obj._batch_window() == 10


class TestPMUIdleCycles:
    def _pmu(self, sim):
        return PMURTLObject(sim, "pmu", PMUSharedLibrary(), batch_cycles=32)

    def test_idle_pmu_batches(self, sim):
        assert self._pmu(sim).idle_cycles() == 32

    def test_clock_lane_pins_to_single_step(self, sim):
        obj = self._pmu(sim)
        obj.connect_clock_event(0)
        assert obj.idle_cycles() == 1

    def test_queued_wire_pulses_pin_to_single_step(self, sim):
        obj = self._pmu(sim)
        wire = EventWire("commit")
        obj.connect_event(1, wire, lanes=4)
        assert obj.idle_cycles() == 32
        wire.pulse()
        assert obj.idle_cycles() == 1

    def test_pending_mmio_pins_to_single_step(self, sim):
        obj = self._pmu(sim)
        obj.cpu_req_queue.append(Packet(MemCmd.ReadReq, 0x1000_0000, 4))
        assert obj.idle_cycles() == 1

    def test_batched_counters_match_unbatched(self, sim):
        """Threshold interrupts still fire identically when idle stretches
        between event bursts are batched."""
        from repro.soc.simobject import Simulation

        def run(batch):
            s = Simulation()
            obj = PMURTLObject(s, "pmu", PMUSharedLibrary(),
                               clock=ClockDomain(1e9), batch_cycles=batch)
            wire = EventWire("ev")
            obj.connect_event(0, wire)
            irqs = []
            obj.on_interrupt(lambda t: irqs.append(t))
            obj.respond_cpu = lambda pkt, data=None: None  # sink write acks

            def configure():
                # threshold 3 on counter 0, then enable it
                for addr, val in ((obj.mmio_base + threshold_addr(0), 3),
                                  (obj.mmio_base + REG_ENABLE, 1)):
                    pkt = Packet(MemCmd.WriteReq, addr, 4,
                                 data=val.to_bytes(4, "little"))
                    pkt.dest_port = 0
                    obj.cpu_req_queue.append(pkt)

            s.eventq.schedule_fn(configure, 100)
            for t in (10_000, 50_000, 400_000, 410_000, 420_000, 800_000):
                s.eventq.schedule_fn(wire.pulse, t)
            s.startup()
            s.run(until=1_000_000)
            return irqs, obj

        irqs1, _ = run(1)
        irqsN, objN = run(64)
        assert irqs1 == irqsN
        assert len(irqs1) == 2  # pulses 1-3 and 4-6 each cross threshold 3
        assert objN.st_batched_ticks.value() > 0
