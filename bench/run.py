"""fedpoison benchmark: run a workload, check its outputs, print its metrics.

    python3 bench/run.py --workload desk_paired --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1    # every workload, per-layer metrics
    python3 bench/run.py --write-spec                # regenerate BENCHMARK.json

The program is this checkout's `src/fedpoison`, used as source. Each workload
runs in a fresh worker interpreter (bench/worker.py), so `peak_rss_mb` is that
workload's alone; `setup_s` is the median of several more fresh interpreters
that only import fedpoison and parse the workload's configs. With `--trace 0`
the end-to-end metrics are printed, with `--trace 1` the per-layer ones. The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import spec
import workloads
from worker import THREAD_CAPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 10


def _child(args: list[str], tmp: str, timeout: float) -> dict:
    """Run bench/worker.py in a fresh interpreter; its last line is JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--tmp", tmp, *args],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **THREAD_CAPS},
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return "1 sweep"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"median of {len(xs)} sweeps, quartiles {q1:.4f}..{q3:.4f}"


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """Run one workload, print its report, and return its result object."""
    common = ["--workload", workload, "--seed", str(seed)]
    # set-up probes before and after the worker, so that a slow spell of the
    # machine does not fall on all of them
    probes = 0 if trace else SETUP_SAMPLES // 2
    setup = [_child(common + ["--setup"], tmp, 10)["setup_s"] for _ in range(probes)]
    # a hung program is killed in time for the whole command to end within 180 s
    # at the default window
    r = _child(common + ["--seconds", str(seconds), "--trace", str(int(trace))], tmp, 100 + 2 * seconds)
    setup += [_child(common + ["--setup"], tmp, 10)["setup_s"] for _ in range(probes)]
    if trace:
        values = {
            **r["layers"],
            "trace.overhead_ratio": statistics.median(r["traced_wall_s"]) / statistics.median(r["wall_s"]),
            "runs_bytes_changed": r["bytes_changed"],
        }
        names = [n for n, *_ in spec.PER_LAYER]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        names = [n for n, *_ in spec.END_TO_END]
    metrics = {n: {"value": values[n], "unit": spec.UNITS[n]} for n in names}

    env = " ".join(f"{k}={v}" for k, v in r["env"].items())
    print(f"# {workload} seed={seed} trace={int(trace)} sweeps={r['sweeps']} {env}")
    notes = {
        "wall_s": _quartiles(r["wall_s"]),
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "trace.overhead_ratio": f"traced {_quartiles(r.get('traced_wall_s', []))}",
    }
    for n, m in metrics.items():
        print(f"{n:<26}{m['value']:>14.6g} {m['unit']:<6} {notes.get(n, '')}")
    ratio = r["failed"] / r["attempted"]
    print(f"{'runs_failed_ratio':<26}{ratio:>14.6g} ratio  {r['failed']} of {r['attempted']} runs and checks")
    if not trace:
        print(f"{'runs_bytes_changed':<26}{r['bytes_changed']:>14d} count  rounds.csv differing from the reference")
    for line in [r.get("claim")] + r["failures"]:
        if line:
            print(f"# {line}")
    return {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*workloads.CONFIGS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "fedpoison", "__init__.py")):
        print(f"benchmark: no fedpoison source under {ROOT}/src", file=sys.stderr)
        return 2

    names = list(workloads.CONFIGS) if args.workload == "all" else [args.workload]
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace), tmp) for w in names}
    except (subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark: worker failed: {exc!r}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)
    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
