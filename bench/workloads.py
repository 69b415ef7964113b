"""Workload inputs: which configs run, at which experiment seeds.

A sweep is the unit a workload repeats: every config of the workload at one
experiment seed. Experiment seeds come from a fixed pool, so the reference
hashes in `reference_sha256.json` cover every run the benchmark can make; the
workload seed only chooses the order in which a run visits the pool.
`desk_paired`'s pool is the acceptance sweep's seeds, 0-9, because its claim
check is the acceptance gate's rule over exactly those seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

POOL_SIZE = 16
POOLS = {"desk_paired": range(10)}

_DESK = {"defense": "cosine_filter", "data.alpha": "0.8", "grmp.gamma_blend": "2.0"}
_COHORT = {
    "attack": "naive_flip",
    "n_clients": "60",
    "n_attackers": "12",
    "defense.f": "12",
    "defense.m": "30",
    "defense.beta": "12",
}

# run name -> flat config, in the order a sweep runs them
CONFIGS: dict[str, dict[str, dict[str, str]]] = {
    "desk_paired": {a: {**_DESK, "attack": a} for a in ("none", "naive_flip", "grmp")},
    "defense_matrix": {
        d: {"attack": "naive_flip", "defense": d}
        for d in (
            "fedavg",
            "krum",
            "multi_krum",
            "trimmed_mean",
            "coord_median",
            "geometric_median",
            "cosine_filter",
        )
    },
    "large_cohort": {
        d: {**_COHORT, "defense": d}
        for d in ("krum", "multi_krum", "geometric_median", "trimmed_mean")
    },
}


@dataclass(frozen=True)
class Run:
    name: str
    config_path: str


@dataclass(frozen=True)
class Sweep:
    seed: int
    runs: tuple[Run, ...]


def write_configs(configs: dict[str, dict[str, str]], directory: str) -> tuple[Run, ...]:
    """Write each config as a flat `key = value` file, the CLI's input format."""
    runs = []
    for name, flat in configs.items():
        path = os.path.join(directory, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in flat.items())
        runs.append(Run(name, path))
    return tuple(runs)


def plan(workload: str, workload_seed: int, directory: str) -> list[Sweep]:
    """One pass over the seed pool, in an order fixed by the workload seed; a
    run cycles through it as time allows."""
    runs = write_configs(CONFIGS[workload], directory)
    pool = POOLS.get(workload, range(POOL_SIZE))
    return [Sweep(s, runs) for s in random.Random(workload_seed).sample(pool, len(pool))]
