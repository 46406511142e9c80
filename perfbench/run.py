"""The repo benchmark: paper scenarios timed end to end, and a traced run
that splits host time by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py       # every workload, untraced then traced
    python3 perfbench/run.py --workload nvdla_dse --seed 3 --seconds 30 --trace 0

Each measured run is a fresh interpreter (``sample.py``) started one at
a time.  Runs start while the next one is expected to end within
``--seconds`` (at least ``MIN_RUNS``); metrics are medians over them.  With ``--trace 0``
the last line of output is the JSON result with the end-to-end metrics;
with ``--trace 1`` runs come in pairs, one untraced and one traced, and
the result holds the per-layer metrics.  Every run is checked: pinned
simulated results, identical results, end tick and stats digest across
the runs of one invocation, and (traced) the bypass and coverage checks
in ``sample.py``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from layers import LAYERS
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fewest runs per invocation, whatever --seconds says
MIN_RUNS = 3
#: a run that takes longer than this is killed and counted as failed
RUN_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS + ("unattributed",):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        if layer != "unattributed":
            units[f"{layer}.calls"] = "count"
    units.update({
        "soc.event.executed": "count",
        "soc.event.scheduled": "count",
        "soc.event.useful_ratio": "ratio",
        "soc.event.events_per_s": "1/s",
        "bridge.structs.us_per_call": "us",
        "trace.overhead_share": "ratio",
    })
    return units


def provenance(workload: str, seed: int, seconds: float) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    w = WORKLOADS[workload]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "params": w.params,
        "fixed_inputs": w.fixed_inputs,
        "seed": seed,
        "seconds": seconds,
    }


def child_env() -> dict:
    """The parent environment minus every ``REPRO_*`` knob, with only
    the checkout's ``src`` on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_one(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    """One fresh-interpreter run; a crash or timeout becomes an error."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"run exceeded {RUN_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"run exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def check_repeats(runs: list[dict]) -> None:
    """Every run of one invocation must simulate the same thing: equal
    results, end tick and stats digest.  Mismatches become errors on
    the later run."""
    ref = next((r for r in runs if not r["errors"]), None)
    if ref is None:
        return
    for r in runs:
        if r is ref or r["errors"]:
            continue
        for key in ("results", "end_tick", "stats_sha256"):
            if r[key] != ref[key]:
                r["errors"].append(f"{key} differs between runs")


def collect(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> list[dict]:
    """Start runs while the next one is expected to end within *seconds*
    (and at least ``MIN_RUNS``).  With *trace*, each step is a pair
    (untraced, traced), alternating which goes first."""
    runs: list[dict] = []
    start = time.monotonic()
    steps: list[float] = []
    while len(steps) < MIN_RUNS or (
            time.monotonic() + statistics.median(steps) - start <= seconds):
        t_step = time.monotonic()
        order = [False] if not trace else (
            [False, True] if len(steps) % 2 == 0 else [True, False])
        for traced in order:
            r = run_one(workload, seed, traced, smoke)
            r.setdefault("traced", traced)
            runs.append(r)
            status = "FAILED " + "; ".join(r["errors"]) if r["errors"] else (
                f"setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
                f"end tick {r['end_tick']}, stats {r['stats_sha256'][:16]}")
            print(f"# run {len(runs)} ({'traced' if traced else 'untraced'}):"
                  f" {status}", flush=True)
        steps.append(time.monotonic() - t_step)
    check_repeats(runs)
    return runs


def end_to_end(ok: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median([r["wall_s"] for r in ok]),
        "setup_s": statistics.median([r["setup_s"] for r in ok]),
        "sim_cycles_per_s": statistics.median(
            [r["sim_cycles"] / r["wall_s"] for r in ok]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians of the traced runs' layer metrics, plus event counts and
    the tracing overhead against the untraced runs."""
    out = {key: statistics.median([r["layers"][key] for r in traced])
           for key in traced[0]["layers"]}
    wall = statistics.median([r["wall_s"] for r in plain])
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    executed = traced[0]["events_executed"]
    scheduled = traced[0]["scheduled"]
    calls = out["bridge.structs.calls"]
    out.update({
        "soc.event.executed": executed,
        "soc.event.scheduled": scheduled,
        "soc.event.useful_ratio": executed / scheduled,
        "soc.event.events_per_s": executed / wall,
        "bridge.structs.us_per_call":
            1e6 * out["bridge.structs.self_s"] / calls if calls else 0.0,
        "trace.overhead_share": (traced_wall - wall) / wall,
    })
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Runs, checks and metrics of one workload in one mode."""
    runs = collect(workload, seed, seconds, trace, smoke)
    ok = [r for r in runs if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics: dict[str, float] = {}
    units = per_layer_units() if trace else END_TO_END_UNITS
    if plain and (traced or not trace):
        metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    failed = len(runs) - len(ok)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def report(name: str, result: dict) -> None:
    n = result["attempted"]
    print(f"# {name}: {n} runs, failed_share {result['failed'] / n:.3f}")
    for key, m in result["metrics"].items():
        print(f"{name}.{key} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Time the paper scenarios end to end (untraced) and "
                    "split host time by layer (traced).")
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics; "
                         "default: both, untraced first")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so no measured run pays for it
    compileall.compile_dir(str(SRC), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results = {}
    for name in names:
        print("# provenance " + json.dumps(
            provenance(name, args.seed, args.seconds),
            sort_keys=True), flush=True)
        for trace in modes:
            result = measure(name, args.seed, args.seconds, trace)
            report(name, result)
            results[(name, trace)] = result

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m
                        for (name, _t), r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
