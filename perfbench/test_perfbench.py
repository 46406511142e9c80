"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layers import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import SMOKE_PARAMS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    leaf_span = tracer.span(("rtl", ""), leaf)

    def middle():
        clock.now += 2.0
        leaf_span()
        leaf_span()
        clock.now += 0.5

    middle_span = tracer.span(("bridge.structs", ""), middle)

    def outer():
        clock.now += 3.0
        middle_span()

    tracer.span(("soc.cpu", ""), outer)()
    totals = tracer.layer_totals()
    assert totals["rtl"] == [2.0, 2]
    assert totals["bridge.structs"] == [2.5, 1]
    assert totals["soc.cpu"] == [3.0, 1]
    assert tracer.open_spans == 0


def test_callbacks_are_charged_to_their_owner_minus_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer._event_keys.update({"cpu0.cycle": ("soc.cpu", "OoOCore"),
                               "mem.rd_done": ("soc.mem", "DRAMController")})
    pack = tracer.span(("bridge.structs", ""), lambda: setattr(
        clock, "now", clock.now + 0.25))

    def run_queue():
        # callback 1: 1.0 s, of which 0.25 s in a nested span
        t0 = clock.now
        clock.now += 0.75
        pack()
        tracer.host_event("cpu0.cycle", 0, t0, clock.now - t0)
        clock.now += 0.1  # dispatch between callbacks
        # callback 2: 2.0 s, no nested span
        t0 = clock.now
        clock.now += 2.0
        tracer.host_event("mem.rd_done", 0, t0, clock.now - t0)

    tracer.span(("soc.event", ""), run_queue)()
    totals = tracer.layer_totals()
    assert totals["soc.cpu"] == [0.75, 1]
    assert totals["bridge.structs"] == [0.25, 1]
    assert totals["soc.mem"] == [2.0, 1]
    assert totals["soc.event"][0] == pytest.approx(0.1)
    assert tracer.class_calls("DRAMController") == 1

    wall = 3.5  # 0.1 + 1.0 + 2.0 covered, 0.4 outside any span
    metrics = layer_metrics(totals, wall)
    shares = [metrics[f"{layer}.share"] for layer in LAYERS]
    assert metrics["unattributed.self_s"] == pytest.approx(0.4)
    assert sum(shares) + metrics["unattributed.share"] == pytest.approx(1.0)


def test_uninstall_restores_every_patched_attribute():
    from repro.bridge.structs import StructSpec
    from repro.soc.event import EventQueue
    from repro.trace.flags import get_default_profiler

    tracer = Tracer()
    tracer.install()
    patched = [(owner, attr, orig) for owner, attr, orig in tracer._patches]
    assert EventQueue.__dict__["run"] is not patched[0][2]
    assert get_default_profiler() is tracer
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    for owner, attr, orig in patched:
        assert owner.__dict__.get(attr, orig) is orig
        assert not hasattr(owner.__dict__.get(attr), "__wrapped__")
    assert get_default_profiler() is None
    assert StructSpec.pack.__qualname__ == "StructSpec.pack"


def test_metric_names_and_units_match_benchmark_json():
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.per_layer_units()
    for name in list(e2e) + list(layers):
        assert name_re.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_matches_direct_call(name, monkeypatch):
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    for trace in (False, True):
        result = run.measure(name, seed=5, seconds=0, trace=trace, smoke=True)
        assert result["correct"], result
        names = {m["name"] for m in BENCHMARK["per_layer" if trace
                                               else "end_to_end"]}
        assert set(result["metrics"]) == names

    one = run.run_one(name, 5, False, smoke=True)
    workload = WORKLOADS[name]
    direct = workload.run(dict(workload.params, **SMOKE_PARAMS[name]), 5)
    assert json.loads(json.dumps(direct)) == one["results"]
