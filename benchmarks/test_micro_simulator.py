"""Micro-benchmarks of the simulator substrate's hot paths.

Not a paper artifact — these track the raw speed of the pieces the
paper's overhead tables are built from: event dispatch, struct codec,
the generated PMU model's tick, cache lookups and the DRAM scheduler.
"""

from repro.bridge.structs import Field, StructSpec
from repro.models.pmu import PMUSharedLibrary
from repro.soc.cache import Cache
from repro.soc.event import EventQueue
from repro.soc.mem import DRAMController, IdealMemory, ddr4_2400
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation


def test_micro_event_queue_throughput(benchmark):
    """Dispatch through a *populated* heap — a real SoC run keeps
    hundreds of resident events (per-core clocks, DRAM timers, RTL
    ticks), so every push/pop pays O(log n) entry comparisons."""

    def run():
        q = EventQueue()
        count = 0

        def noop():
            pass

        for i in range(512):
            q.schedule_fn(noop, 10**9 + i)

        def cb():
            nonlocal count
            count += 1
            if count < 20_000:
                q.schedule_fn(cb, q.cur_tick + 10)

        q.schedule_fn(cb, 0)
        q.run(until=10**8)
        return count

    assert benchmark(run) == 20_000


def test_micro_event_queue_churn(benchmark):
    """reschedule/deschedule churn + empty()/len() polling — the
    pattern batching clients (RTLObject run_cycles) and retry loops
    produce.  Exercises the O(1) live counter and heap compaction."""

    def run():
        q = EventQueue()
        events = [q.schedule_fn(lambda: None, 10 + i) for i in range(200)]
        for i in range(10_000):
            q.reschedule(events[i % 200], 20 + i)
            q.empty()
            len(q)
        return len(q)

    assert benchmark(run) == 200


def test_micro_struct_codec(benchmark):
    spec = StructSpec("s", [
        Field("a", 1), Field("b", 12), Field("c", 32),
        Field("d", 48), Field("v", 32, count=4),
    ])

    def run():
        # the per-tick exchange: one generated make() per struct
        for i in range(2000):
            spec.make(1, i, i * 7, i * 31, [i, i, i, i])

    benchmark(run)


def test_micro_pmu_rtl_tick_rate(benchmark):
    lib = PMUSharedLibrary()
    lib.reset()
    inputs = lib.input_spec.make(events=0b111011)

    def run():
        for _ in range(2000):
            lib.tick(inputs)

    benchmark(run)


def test_micro_cache_hit_path(benchmark):
    sim = Simulation()
    cache = Cache(sim, "c", 64 * 1024, 4, 1, mshrs=16)
    mem = IdealMemory(sim, "m", latency_cycles=1)
    cache.mem_side.connect(mem.port)
    done = []
    port = RequestPort("d", recv_timing_resp=lambda p: (done.append(1), True)[1],
                       recv_req_retry=lambda: None)
    port.connect(cache.cpu_side)
    # warm one line
    port.send_timing_req(Packet(MemCmd.ReadReq, 0, 8))
    sim.run(until=sim.now + 10**6)

    def run():
        done.clear()
        for _ in range(2000):
            port.send_timing_req(Packet(MemCmd.ReadReq, 0, 8))
            sim.run(until=sim.now + 2000)
        return len(done)

    assert benchmark(run) == 2000


def test_micro_dram_scheduler(benchmark):
    def run():
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(2))
        served = []
        port = RequestPort("d", recv_timing_resp=lambda p: (served.append(1), True)[1],
                           recv_req_retry=lambda: None)
        port.connect(ctrl.port)
        issued = 0

        def pump():
            nonlocal issued
            while issued < 2000:
                if not port.send_timing_req(
                    Packet(MemCmd.ReadReq, (issued * 64) % (1 << 22), 64)
                ):
                    sim.eventq.schedule_fn(pump, sim.now + 20_000, name="p")
                    return
                issued += 1

        pump()
        while len(served) < 2000:
            sim.run(until=sim.now + 10**7)
        return len(served)

    assert benchmark(run) == 2000
