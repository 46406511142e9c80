"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py`` (one process at a time); prints one JSON object as
its last line of standard output.  Usage::

    PYTHONPATH=src python3 perfbench/sample.py --workload nvdla_dse \\
        --seed 1 --trace 0 --t0 <time.monotonic() at spawn>

A fresh interpreter per run makes imports, HDL elaboration and code
generation (the in-process ``ElabCache``) cost the same on every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

from layers import Tracer, layer_metrics
from workloads import SMOKE_PARAMS, WORKLOADS

#: largest share of traced wall time that no layer span may cover
UNATTRIBUTED_BOUND = 0.10


def check_hygiene() -> None:
    """Debug flags, the Chrome tracer and any event profiler are off."""
    from repro.trace.flags import (
        enabled_flags, get_chrome_tracer, get_default_profiler,
    )

    on = enabled_flags()
    if on or get_chrome_tracer() is not None or get_default_profiler():
        raise RuntimeError(f"tracing is on in a measured run: flags={on}")


def measure(name: str, seed: int, trace: bool, t0: float,
            smoke: bool = False) -> dict:
    """Run *name* once; return timings, simulated results and checks.

    ``setup_s`` runs from *t0* to the first simulated event (the first
    ``Simulation.run`` call) and ``wall_s`` from there to the result.
    """
    from repro.soc.simobject import Simulation

    workload = WORKLOADS[name]
    params = dict(workload.params, **(SMOKE_PARAMS[name] if smoke else {}))
    check_hygiene()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    first: dict = {}
    original_run = Simulation.__dict__["run"]

    def first_run(sim, *args, **kwargs):
        Simulation.run = original_run
        first["t"] = time.monotonic()
        first["sim"] = sim
        if tracer is not None:
            tracer.bind(sim)
            tracer.reset()
        return original_run(sim, *args, **kwargs)

    Simulation.run = first_run
    try:
        results = workload.run(params, seed)
        t_end = time.monotonic()
    finally:
        Simulation.run = original_run
        if tracer is not None:
            tracer.uninstall()

    sim = first["sim"]
    wall_s = t_end - first["t"]
    stats = json.dumps(sim.stats_dump(), sort_keys=True, default=repr)
    out = {
        "workload": name,
        "seed": seed,
        "params": params,
        "traced": trace,
        "setup_s": first["t"] - t0,
        "wall_s": wall_s,
        "end_tick": sim.now,
        "sim_cycles": sim.now // sim.default_clock.period,
        "events_executed": sim.eventq.executed,
        "stats_sha256": hashlib.sha256(stats.encode()).hexdigest(),
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "errors": [],
    }
    if not smoke:
        for key, want in workload.pinned.items():
            if results[key] != want:
                out["errors"].append(f"{key}={results[key]}, pinned {want}")
    if tracer is not None:
        check_traced(tracer, workload, wall_s, out)
    return out


def check_traced(tracer: Tracer, workload, wall_s: float, out: dict) -> None:
    """Add the layer breakdown to *out* and check the traced run: no
    span left open, bypassed layers never called, and little time left
    unattributed."""
    totals = tracer.layer_totals()
    layers = layer_metrics(totals, wall_s)
    out["layers"] = layers
    out["scheduled"] = tracer.scheduled
    errors = out["errors"]
    if tracer.open_spans:
        errors.append(f"{tracer.open_spans} spans left open")
    for layer in workload.bypass_layers:
        if totals[layer][1]:
            errors.append(f"bypass broken: {totals[layer][1]} {layer} calls")
    for cls in workload.bypass_classes:
        if tracer.class_calls(cls):
            errors.append(f"bypass broken: {tracer.class_calls(cls)} "
                          f"{cls} calls")
    if not 0.0 <= layers["unattributed.share"] <= UNATTRIBUTED_BOUND:
        errors.append(f"unattributed share {layers['unattributed.share']:.4f}"
                      f" outside [0, {UNATTRIBUTED_BOUND}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, bool(args.trace), args.t0,
                      smoke=args.smoke)
    except Exception as exc:  # the run failed: report it, do not crash
        traceback.print_exc()
        out = {"workload": args.workload, "seed": args.seed,
               "errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
