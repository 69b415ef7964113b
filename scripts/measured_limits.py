#!/usr/bin/env python3
"""Measure where the desk claim holds: the cosine filter against grmp and
naive_flip over many seeds and several values of defense.lambda.

The desk config is scenario grmp_vs_cosine's at another attack, seed and
defense.lambda, which is that of the acceptance gate's criteria 4-6
(tests/test_acceptance.py::_desk_cfg). For each lambda it prints:

    grmp        the median accepted share, the seeds at 1.0, the median final ASR
    naive_flip  the median rejected share, the seeds at >= 0.8

with criterion 4's shares: a seed's accepted (rejected) share is the
fraction of exploit rounds in which every attacker was (was not) accepted.
The table is README's "Measured limits" section.

Usage:
    python scripts/measured_limits.py [--seeds 64] [--lambdas 0.5,1.0,1.5]
"""

import argparse
import statistics
import sys
import time

from fedpoison import cli, sim


def desk_cfg(attack: str, seed: int, lam: float) -> sim.ExperimentConfig:
    overrides = cli.SCENARIOS["grmp_vs_cosine"][""]
    return cli.parse_config(None, {**overrides, "attack": attack, "seed": str(seed), "defense.lambda": repr(lam)})


def all_accepted(result: sim.ExperimentResult, ids: list[int]) -> list[bool]:
    """Per exploit round: was every attacker accepted?"""
    switch = result.config.phase_switch_round
    return [all(r.accepted[i] for i in ids) for r in result.records if r.round >= switch]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=64, help="seeds 0..N-1 (default 64)")
    ap.add_argument("--lambdas", default="0.5,1.0,1.5", help="comma-separated defense.lambda values")
    args = ap.parse_args()
    lambdas = [float(v) for v in args.lambdas.split(",")]

    t0 = time.perf_counter()
    rows = {lam: {"acc": [], "asr": [], "rej": []} for lam in lambdas}
    for seed in range(args.seeds):
        for lam in lambdas:
            # the naive_flip run starts from the stealth prefix the grmp run records
            grmp = sim.run_experiment(desk_cfg("grmp", seed, lam))
            naive_cfg = desk_cfg("naive_flip", seed, lam)
            ids = sim._RunState(naive_cfg).attacker_ids
            naive = sim.run_experiment(naive_cfg)
            acc = all_accepted(grmp, ids)
            rows[lam]["acc"].append(sum(acc) / len(acc))
            rows[lam]["asr"].append(grmp.records[-1].asr)
            rej = [not a for a in all_accepted(naive, ids)]
            rows[lam]["rej"].append(sum(rej) / len(rej))
    elapsed = time.perf_counter() - t0

    n = args.seeds
    print(f"desk config, seeds 0-{n - 1}, cosine filter")
    print()
    print("| λ | grmp median accepted share | grmp seeds at 1.0 | grmp median final ASR "
          "| naive median rejected share | naive seeds at ≥ 0.8 |")
    print("|---|---|---|---|---|---|")
    for lam in lambdas:
        r = rows[lam]
        print(
            f"| {lam} | {statistics.median(r['acc']):.2f} | {sum(a == 1.0 for a in r['acc'])} of {n} "
            f"| {statistics.median(r['asr']):.2f} | {statistics.median(r['rej']):.2f} "
            f"| {sum(x >= 0.8 for x in r['rej'])} of {n} |"
        )
    print()
    print(f"{2 * n * len(lambdas)} runs in {elapsed:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
