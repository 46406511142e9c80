"""Trace windows: one switch for flags, Chrome tracer and VCD writers."""

import pytest

from repro.soc.simobject import Simulation
from repro.trace import ChromeTracer, TraceWindow, register_vcd
from repro.trace.control import (
    attach_pending,
    clear_pending,
    registered_vcds,
    set_pending_window,
)
from repro.trace.flags import debug_flag, set_chrome_tracer


class FakeVCD:
    def __init__(self):
        self.calls = []

    def enable(self):
        self.calls.append("enable")

    def disable(self):
        self.calls.append("disable")


class TestTraceWindow:
    def test_immediate_open_when_no_start(self):
        sim = Simulation()
        flag = debug_flag("T.Win")
        TraceWindow(sim, ["T.Win"])
        assert flag.enabled

    def test_opens_and_closes_at_cycles(self):
        sim = Simulation()
        flag = debug_flag("T.WinSched")
        period = sim.default_clock.period
        TraceWindow(sim, ["T.WinSched"], start_cycle=100, end_cycle=200)
        sim.run(until=50 * period)
        assert not flag.enabled
        sim.run(until=150 * period)
        assert flag.enabled
        sim.run(until=250 * period)
        assert not flag.enabled

    def test_end_before_start_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            TraceWindow(sim, ["T.Bad"], start_cycle=100, end_cycle=100)

    def test_registers_unknown_flag_names_up_front(self):
        from repro.trace.flags import all_flags

        sim = Simulation()
        TraceWindow(sim, ["T.Fresh"], start_cycle=10)
        assert "T.Fresh" in all_flags()

    def test_flips_chrome_tracer(self):
        sim = Simulation()
        tracer = ChromeTracer()
        tracer.enabled = False
        set_chrome_tracer(tracer)
        period = sim.default_clock.period
        window = TraceWindow(sim, [], start_cycle=10, end_cycle=20)
        sim.run(until=15 * period)
        assert tracer.enabled and window.active
        markers = [e["name"] for e in tracer.events if e["ph"] == "i"]
        assert "trace window open" in markers
        sim.run(until=25 * period)
        assert not tracer.enabled and not window.active

    def test_flips_registered_vcd_writers(self):
        sim = Simulation()
        vcd = FakeVCD()
        register_vcd(vcd)
        assert vcd in registered_vcds()
        period = sim.default_clock.period
        TraceWindow(sim, [], start_cycle=10, end_cycle=20)
        sim.run(until=30 * period)
        assert vcd.calls == ["enable", "disable"]


class TestPendingWindow:
    def test_attached_on_simulation_startup(self):
        flag = debug_flag("T.Pending")
        set_pending_window(["T.Pending"], None, None)
        sim = Simulation()
        sim.startup()
        assert flag.enabled

    def test_one_shot(self):
        set_pending_window(["T.Once"], 5, None)
        sim = Simulation()
        assert attach_pending(sim) is not None
        assert attach_pending(sim) is None

    def test_clear_pending(self):
        set_pending_window(["T.Cleared"], None, None)
        clear_pending()
        assert attach_pending(Simulation()) is None

    def test_shared_library_registers_its_vcd(self):
        import io

        from repro.bridge import RTLSharedLibrary
        from repro.bridge.structs import Field, StructSpec
        from repro.rtl import RTLModule

        m = RTLModule("m")
        m.add_signal("clk", 1, is_input=True)
        m.add_signal("x", 1, is_input=True)

        class Lib(RTLSharedLibrary):
            input_spec = StructSpec("i", [Field("x", 1)])
            output_spec = StructSpec("o", [Field("x", 1)])

            def drive(self, inputs):
                self.sim.poke("x", inputs[0])

            def collect(self):
                return self.output_spec.make(self.sim.peek("x"))

        lib = Lib(m, trace_stream=io.StringIO(), trace_enabled=False)
        assert lib.sim.trace in registered_vcds()
