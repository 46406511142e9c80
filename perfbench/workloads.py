"""The benchmark's workloads: which public scenario each one calls, with
what parameters, and which results must repeat on every run.

Each workload runs one paper scenario through its public function,
serially in one process: no ``run_points`` pool, no ``ResultCache``,
``rtl_jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    #: keyword parameters of the scenario call (the seed is added by
    #: ``run`` where the scenario accepts one)
    params: dict
    #: ``run(params, seed) -> dict`` of simulated results to compare
    run: Callable[[dict, int], dict]
    #: inputs fixed inside the scenario, not reachable through its API
    fixed_inputs: dict = field(default_factory=dict)
    #: results that must equal these values at the full size (the size
    #: in ``params``); smaller smoke sizes only compare runs to each other
    pinned: dict = field(default_factory=dict)
    #: traced-run calls that must be zero: layers, then owner classes
    bypass_layers: tuple = ()
    bypass_classes: tuple = ()


def _pmu_fig5(params: dict, seed: int) -> dict:
    from repro.dse.pmu_experiment import run_fig5

    r = run_fig5(**params)
    return {"total_committed": r.total_committed,
            "lost_events": r.lost_events(),
            "windows": len(r.windows)}


def _nvdla_dse(params: dict, seed: int) -> dict:
    from repro.dse.sweep import measure_exec_ticks

    return {"exec_ticks": measure_exec_ticks(**params)}


def _coherence_stress(params: dict, seed: int) -> dict:
    from repro.coherence.check import run_sharing_stress

    # raises ProtocolError on a failed invariant audit or golden compare
    r = run_sharing_stress(seed=seed, **params)
    return {"ticks": r["ticks"], "memory": r["memory"],
            "checksums": r["checksums"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pmu_fig5",
            {"n_sort": 60, "memory": "DDR4-2ch"},
            _pmu_fig5,
            fixed_inputs={"sort_seed": 42},
            pinned={"total_committed": 52889, "lost_events": 56},
            bypass_layers=("models.nvdla.core",),
        ),
        Workload(
            "nvdla_dse",
            {"workload": "googlenet", "n_nvdla": 4, "memory": "HBM",
             "max_inflight": 64, "scale": 0.35, "rtl_jobs": 1},
            _nvdla_dse,
            fixed_inputs={"googlenet_image_seeds":
                          "inputs 0x9000+layer, weights 0x9100+layer"},
            pinned={"exec_ticks": 8378000},
            bypass_layers=("rtl", "soc.cpu"),
        ),
        Workload(
            "coherence_stress",
            {"cores": 4, "ops": 8000, "rtl": False, "paranoid": True,
             "rtl_jobs": 1},
            _coherence_stress,
            bypass_layers=("bridge.structs", "bridge.rtl_object",
                           "bridge.shared_library", "rtl"),
            bypass_classes=("DRAMController",),
        ),
    )
}

#: a tiny size per workload for smoke runs through the same code path
SMOKE_PARAMS = {
    "pmu_fig5": {"n_sort": 4, "sleep_cycles": 2000},
    "nvdla_dse": {"scale": 0.02},
    "coherence_stress": {"ops": 60},
}
