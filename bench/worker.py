"""Run one workload in a fresh interpreter and print its result as one JSON line.

    python3 bench/worker.py --root DIR --workload NAME --seed N --tmp DIR --seconds S --trace 0|1
    python3 bench/worker.py --root DIR --workload NAME --seed N --tmp DIR --setup

fedpoison is imported from DIR/src and driven only through `fedpoison.cli.main`
(`run --config ... --seed ...`). `--setup` times a fresh interpreter's
`import fedpoison` plus parsing every config of the workload's plan, and exits.
bench/run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import workloads
from tracer import Tracer, layer_metrics

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_sha256.json")

# One BLAS/OpenMP thread, within any nproc: a shared two-core machine gives
# steadier times single-threaded, and the workloads' matrices are small.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the acceptance gate's median rule (tests/test_acceptance.py, criterion 4),
# applied over the gate's seeds: desk_paired's pool
CLAIM_ACCEPTED = 0.95
CLAIM_REJECTED = 0.80


def import_fedpoison(root: str):
    """Import fedpoison from the checkout's src, never from an installed copy."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import fedpoison
    import fedpoison.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.realpath(fedpoison.__file__).startswith(src + os.sep):
        raise ImportError(f"fedpoison imported from {fedpoison.__file__}, not from {src}")
    return fedpoison


def setup_seconds(root: str, sweeps: list[workloads.Sweep]) -> float:
    t0 = perf_counter()
    fp = import_fedpoison(root)
    for sweep in sweeps:
        for run in sweep.runs:
            fp.cli.parse_config(run.config_path, {"seed": str(sweep.seed)})
    return perf_counter() - t0


def run_once(cli, run: workloads.Run, seed: int, out_dir: str) -> str | None:
    """One `fedpoison run`; returns why it failed, or None."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", run.config_path, "--out", out_dir, "--seed", str(seed)])
    except (Exception, SystemExit) as exc:
        return f"raised {exc!r}"
    return f"exit code {code}" if code != 0 else None


def check_run_dir(out_dir: str) -> tuple[str | None, str | None]:
    """(why the run directory is wrong or None, sha256 of rounds.csv or None)."""
    import numpy as np

    try:
        with open(os.path.join(out_dir, "rounds.csv"), "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        params = np.fromfile(os.path.join(out_dir, "model.bin"), dtype="<f8", offset=8)
    except OSError as exc:
        return f"incomplete run directory: {exc}", None
    if params.size == 0 or not np.isfinite(params).all():
        return "non-finite parameters in model.bin", sha
    return None, sha


@dataclass
class SweepResult:
    wall: float
    dirs: dict[str, str]
    checks: dict[str, tuple[str | None, str | None]]  # run name -> (failure, sha)


def run_sweep(cli, sweep: workloads.Sweep, out_root: str) -> SweepResult:
    """Every run of the sweep, timed from the first run's start to the last
    run directory written; outputs are checked after the clock stops."""
    dirs = {r.name: os.path.join(out_root, r.name) for r in sweep.runs}
    t0 = perf_counter()
    errors = {r.name: run_once(cli, r, sweep.seed, dirs[r.name]) for r in sweep.runs}
    wall = perf_counter() - t0
    checks = {n: (e, None) if e else check_run_dir(dirs[n]) for n, e in errors.items()}
    return SweepResult(wall, dirs, checks)


def _read_rounds(run_dir: str) -> list[dict[str, str]]:
    with open(os.path.join(run_dir, "rounds.csv"), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def claim_fractions(dirs: dict[str, str]) -> tuple[float, float]:
    """For one desk seed: the share of exploit rounds in which every attacker's
    crafted grmp update was accepted, and the share in which the paired
    naive_flip run had an attacker rejected.

    The attackers are the clients whose cosine at the switch round differs
    between the clean and the grmp run: until then the runs are identical, so
    only the attackers' submissions differ.
    """
    with open(os.path.join(dirs["grmp"], "config.json"), encoding="utf-8") as fh:
        switch = int(json.load(fh)["phase_switch_round"])
    clean, naive, grmp = (_read_rounds(dirs[n]) for n in ("none", "naive_flip", "grmp"))
    cos_cols = [c for c in clean[0] if c.startswith("cosine_")]
    attackers = [c.split("_")[1] for c in cos_cols if clean[switch - 1][c] != grmp[switch - 1][c]]

    def all_accepted(row):
        return bool(attackers) and all(row[f"accepted_{i}"] == "1" for i in attackers)

    accepted = [all_accepted(r) for r in grmp if int(r["round"]) >= switch]
    rejected = [not all_accepted(r) for r in naive if int(r["round"]) >= switch]
    return sum(accepted) / len(accepted), sum(rejected) / len(rejected)


@dataclass
class Tally:
    reference: dict  # seed -> run name -> rounds.csv sha256
    attempted: int = 0
    failed: int = 0
    bytes_changed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, seed: int, res: SweepResult) -> None:
        for name, (failure, sha) in res.checks.items():
            self.attempted += 1
            if failure:
                self.failed += 1
                self.failures.append(f"seed {seed} {name}: {failure}")
            elif sha != self.reference.get(str(seed), {}).get(name):
                self.bytes_changed += 1

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def run_workload(fp, sweeps, seconds: float, trace: bool, out_root: str, reference=None, claim=False) -> dict:
    """Sweeps one after another, closed loop, for about `seconds` (at least
    one sweep). A warm-up run comes first and is not timed. With `claim`, the
    run makes at least one full pass over `sweeps`, so that the claim is
    checked over every seed of the pool, once each.

    With `trace`, each sweep runs twice, untraced and traced, in alternating
    order; the traced run's rounds.csv must equal the untraced one's.
    """
    cli = fp.cli
    tally = Tally(reference or {})
    warm = workloads.Sweep(sweeps[0].seed, sweeps[0].runs[:1])
    tally.add(warm.seed, run_sweep(cli, warm, os.path.join(out_root, "warmup")))

    tracer = Tracer()
    walls, traced_walls, layers = [], [], []
    claims: dict[int, tuple[float, float]] = {}  # seed -> claim_fractions
    mismatches = 0
    t_begin = perf_counter()
    i = 0
    while True:
        t_start = perf_counter()
        sweep = sweeps[i % len(sweeps)]
        out = os.path.join(out_root, f"sweep{i}")
        if trace:
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tracer.reset()
                    with tracer.installed(fp):
                        traced_res = run_sweep(cli, sweep, os.path.join(out, "traced"))
                    layers.append(layer_metrics(tracer))
                else:
                    res = run_sweep(cli, sweep, os.path.join(out, "plain"))
            traced_walls.append(traced_res.wall)
            tally.add(sweep.seed, traced_res)
            mismatches += sum(
                traced_res.checks[n][1] != res.checks[n][1] for n in res.checks if not res.checks[n][0]
            )
        else:
            res = run_sweep(cli, sweep, out)
        walls.append(res.wall)
        tally.add(sweep.seed, res)
        if claim and sweep.seed not in claims and not any(f for f, _ in res.checks.values()):
            claims[sweep.seed] = claim_fractions(res.dirs)
        shutil.rmtree(out)
        i += 1
        # stop where the window's end falls nearest: before an iteration that
        # would overrun it by more than half its own length
        now = perf_counter()
        if i >= (len(sweeps) if claim else 1) and now - t_begin + (now - t_start) / 2 >= seconds:
            break
    shutil.rmtree(os.path.join(out_root, "warmup"))

    result = {
        "sweeps": len(walls),
        "wall_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": _environment(),
    }
    if claim:
        med_acc = statistics.median(a for a, _ in claims.values()) if claims else 0.0
        med_rej = statistics.median(r for _, r in claims.values()) if claims else 0.0
        ok = med_acc >= CLAIM_ACCEPTED and med_rej >= CLAIM_REJECTED
        detail = (
            f"claim over seeds {sorted(claims)}: median grmp accepted {med_acc:.2f} >= {CLAIM_ACCEPTED}, "
            f"median naive rejected {med_rej:.2f} >= {CLAIM_REJECTED}"
        )
        tally.check("the paper's claim fails over the acceptance seeds", ok)
        result["claim"] = detail + (" PASS" if ok else " FAIL")
    if trace:
        tally.check(f"{mismatches} traced rounds.csv differ from the untraced run", mismatches == 0)
        result["traced_wall_s"] = traced_walls
        result["trace_mismatches"] = mismatches
        result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures[:20],
        bytes_changed=tally.bytes_changed,
    )
    return result


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)
    sweeps = workloads.plan(args.workload, args.seed, args.tmp)
    if args.setup:
        print(json.dumps({"setup_s": setup_seconds(args.root, sweeps)}))
        return 0
    fp = import_fedpoison(args.root)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    result = run_workload(
        fp,
        sweeps,
        args.seconds,
        bool(args.trace),
        os.path.join(args.tmp, "runs"),
        reference,
        claim=args.workload == "desk_paired",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
