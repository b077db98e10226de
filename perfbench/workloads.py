"""The benchmark's workloads: which run specs each one computes and serves.

Every workload goes through the same pipeline (see ``README.md``): its specs
run through an explicitly built :class:`SweepExecutor` into a fresh store, the
results service answers a stream of hits on what was stored, and then computes
a burst of distinct, uncached specs.  The workloads differ in the specs they
compute, and therefore in the layers that do the work.

All inputs derive from the ``--seed`` argument.  Every config pins
``engine="array"``, so ``REPRO_ENGINE`` cannot change what is measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from repro.experiments.figures import ReproductionScale
from repro.experiments.parallel import RunSpec, sweep_specs
from repro.experiments.registry import get_preset
from repro.experiments.reporting import metrics_to_dict
from repro.experiments.sweeps import RURAL_DEVICE_RANGE_M, URBAN_DEVICE_RANGE_M

#: The seed the pinned digests below were taken at (the presets' own seed).
DEFAULT_SEED = 7

#: Simulated horizon of the paper-robc run.  The bus timetable compresses the
#: service day into the horizon, so all 960 buses still run.
PAPER_HORIZON_S = 600.0

#: Density-preserving shrink of megacity-10k (10,000 buses, 625 gateways).
MEGACITY_SCALE = 0.15

#: The density sweep behind Figs. 8/9/12/13 at reduced scale: 24 routes per
#: run, enough that the work varies little from seed to seed.
CAMPAIGN_SCALE = ReproductionScale(
    spatial_scale=0.2, duration_s=1200.0, gateway_counts=(40, 70, 100)
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``serial`` (one in-process run at a time) or ``process-pool``.
    backend: str
    build_specs: Callable[[int], List[RunSpec]]
    #: Digest of the computed RunMetrics at DEFAULT_SEED.
    pinned_digest: str

    def workers(self, nproc: int) -> int:
        return 1 if self.backend == "serial" else nproc


def _paper_robc(seed: int) -> List[RunSpec]:
    config = get_preset("urban-full").config
    config = replace(config, duration_s=PAPER_HORIZON_S, seed=seed).with_engine("array")
    return [RunSpec(config=config)]


def _megacity_plain(seed: int) -> List[RunSpec]:
    config = get_preset("megacity-10k").config.scaled(MEGACITY_SCALE)
    return [RunSpec(config=config.with_seed(seed).with_engine("array"))]


def _density_sweep(scale: ReproductionScale, seed: int, ranges: Sequence[float]) -> List[RunSpec]:
    scale = replace(scale, seed=seed)
    return sweep_specs(
        scale.base_config().with_engine("array"),
        gateway_counts=scale.gateway_counts,
        schemes=scale.schemes,
        device_ranges_m=ranges,
        gateway_scale=scale.spatial_scale,
    )


def _campaign(seed: int) -> List[RunSpec]:
    return _density_sweep(CAMPAIGN_SCALE, seed, (URBAN_DEVICE_RANGE_M, RURAL_DEVICE_RANGE_M))


def burst_specs(seed: int, round_index: int) -> List[RunSpec]:
    """Twelve tiny specs no earlier step stored, so each is a service miss
    whose cost is mostly the service's own.  Rounds differ only in
    ``replicate``: the same runs under distinct cache keys."""
    base = replace(get_preset("urban-smoke").config, seed=seed).with_engine("array")
    specs = sweep_specs(
        base, gateway_counts=(2, 4), schemes=CAMPAIGN_SCALE.schemes,
        device_ranges_m=(URBAN_DEVICE_RANGE_M, RURAL_DEVICE_RANGE_M),
    )
    return [replace(spec, replicate=round_index + 1) for spec in specs]


def warmup_spec() -> RunSpec:
    """A sub-second preset run before anything is timed."""
    return RunSpec(config=get_preset("urban-smoke").config.with_engine("array"))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's headline point: engine, routing and MAC do the work.
        Workload(
            "paper-robc", "serial", _paper_robc,
            "566a2c2509cd7cd5745d43d5cf2bb8934b69fefa30fb2175df60f2d5de285f04",
        ),
        # Mobility-heavy, and the control on which routing work must not
        # move: plain LoRaWAN skips the overhear fan-out.
        Workload(
            "megacity-plain", "serial", _megacity_plain,
            "cbf5bb18980270569bd12b7f9ccbc782c75f45370576f3e8c9f05a17ce3a5a76",
        ),
        # Many small runs: backends, store, serialization and the service.
        Workload(
            "campaign-serve", "process-pool", _campaign,
            "917a3c9a64b434ba3bdb713cc9504c6a25a5038594904639ee621c2e1ade0c1f",
        ),
    )
}


def metrics_digest(metrics_by_key: Dict[str, object]) -> str:
    """SHA-256 over every RunMetrics field, in cache-key order."""
    payload = [
        [key, metrics_to_dict(metrics_by_key[key], include_arrays=True)]
        for key in sorted(metrics_by_key)
    ]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
