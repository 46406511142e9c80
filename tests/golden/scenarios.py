"""Golden behaviour pins: one small run per paper scenario, digested.

Each scenario runs through the public API at a size small enough for
the tier-1 suite and reduces to a digest dict.  Full-system scenarios
give the end tick and the sha256 of the sorted stats dump; the
standalone ones give the quantities they expose (library ticks, sorted
vectors, the waveform).  ``pins.json`` holds the digests the suite
compares against.

Print the current digests (and the diff against ``pins.json``)::

    PYTHONPATH=src python -m tests.golden.scenarios

Rewrite ``pins.json`` — only when a behaviour change is intended, and
say why in CHANGES.md::

    PYTHONPATH=src python -m tests.golden.scenarios --accept
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def captured_sims():
    """Record every Simulation whose ``run`` is called inside the block."""
    from repro.soc.simobject import Simulation

    sims: list = []
    original = Simulation.__dict__["run"]

    def run(sim, *args, **kwargs):
        if not sims or sims[-1] is not sim:
            sims.append(sim)
        return original(sim, *args, **kwargs)

    Simulation.run = run
    try:
        yield sims
    finally:
        Simulation.run = original


def sim_digest(sim) -> dict:
    stats = json.dumps(sim.stats_dump(), sort_keys=True, default=repr)
    return {"end_tick": int(sim.now), "stats_sha256": _sha(stats)}


def _one_sim(fn, *args, **kwargs) -> dict:
    with captured_sims() as sims:
        fn(*args, **kwargs)
    if len(sims) != 1:
        raise RuntimeError(f"expected one simulation, saw {len(sims)}")
    return sim_digest(sims[0])


def fig5_small() -> dict:
    from repro.dse.pmu_experiment import run_fig5

    return _one_sim(run_fig5, n_sort=12, interval_cycles=2_000,
                    sleep_cycles=2_000)


def fig6_point(n_nvdla: int) -> dict:
    from repro.dse.sweep import measure_exec_ticks

    return _one_sim(measure_exec_ticks, "googlenet", n_nvdla, "HBM", 64,
                    0.02)


def bitonic_sort() -> dict:
    """64 random vectors streamed through the VHDL sorter, waveform on."""
    from repro.models.bitonic import BitonicSharedLibrary

    stream = io.StringIO()
    lib = BitonicSharedLibrary(width=16, trace_stream=stream,
                               trace_enabled=True)
    lib.reset()
    rng = random.Random(1234)
    batches = [[rng.randrange(1 << 16) for _ in range(8)] for _ in range(64)]
    results = [lib.sort8(batch) for batch in batches]
    if results != [sorted(b) for b in batches]:
        raise AssertionError("bitonic sorter returned an unsorted vector")
    return {"ticks": lib.ticks,
            "results_sha256": _sha(json.dumps(results)),
            "vcd_sha256": _sha(stream.getvalue())}


def rtl_cache_rig(ecc: bool) -> dict:
    from repro.resilience.targets import get_target, normalize_params

    target = get_target("rtlcache_ecc" if ecc else "rtlcache")
    rig = target.build(normalize_params(target))
    rig.run(target.max_cycles)
    rig.finish()
    return dict(sim_digest(rig.sim), **rig.observables())


def coherence_rtl() -> dict:
    from repro.coherence.check import run_sharing_stress

    return _one_sim(run_sharing_stress, cores=2, ops=200, seed=3, rtl=1)


def nvdla_standalone() -> dict:
    """Table 3's standalone run: library ticks to each layer's IRQ."""
    from repro.dse import sweep
    from repro.models.nvdla import wrapper

    libs: list = []

    class Recorded(wrapper.NVDLASharedLibrary):
        def __init__(self) -> None:
            super().__init__()
            libs.append(self)

    original = wrapper.NVDLASharedLibrary
    wrapper.NVDLASharedLibrary = Recorded
    try:
        sweep.run_standalone("sanity3", 0.3)
    finally:
        wrapper.NVDLASharedLibrary = original
    (lib,) = libs
    return {"ticks": lib.ticks, "perf_cycles": lib.core.perf_cycles,
            "perf_stalls": lib.core.perf_stalls}


SCENARIOS = {
    "fig5_small": fig5_small,
    "fig6_1nvdla": lambda: fig6_point(1),
    "fig6_2nvdla": lambda: fig6_point(2),
    "fig6_4nvdla": lambda: fig6_point(4),
    "bitonic_vhdl": bitonic_sort,
    "rtlcache_rig": lambda: rtl_cache_rig(False),
    "rtlcache_ecc_rig": lambda: rtl_cache_rig(True),
    "coherence_2_rtl": coherence_rtl,
    "nvdla_standalone": nvdla_standalone,
}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    accept = "--accept" in argv
    pins = load_pins() if PINS_PATH.exists() else {}
    current = {name: fn() for name, fn in SCENARIOS.items()}
    changed = sorted(n for n in current if pins.get(n) != current[n])
    for name in changed:
        print(f"{name}: pinned {pins.get(name)}\n  now {current[name]}")
    if accept:
        PINS_PATH.write_text(json.dumps(current, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
        print(f"wrote {PINS_PATH}")
    elif changed:
        print("digests differ; rerun with --accept to rewrite the pins")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
