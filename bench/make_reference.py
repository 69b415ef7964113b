"""Write reference_sha256.json: the rounds.csv sha256 of every run the
benchmark can make (every workload, config and pool seed).

    python3 bench/make_reference.py

The committed file was made on the commit that introduced the benchmark; the
benchmark reports how many runs differ from it as `runs_bytes_changed`.
Regenerate it only to re-anchor that count, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    os.environ.update(worker.THREAD_CAPS)  # before numpy loads, as in a benchmark run
    fp = worker.import_fedpoison(ROOT)
    reference: dict[str, dict[str, dict[str, str]]] = {}
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        for name in workloads.CONFIGS:
            reference[name] = {}
            for sweep in sorted(workloads.plan(name, 0, tmp), key=lambda s: s.seed):
                res = worker.run_sweep(fp.cli, sweep, os.path.join(tmp, "runs"))
                failed = {n: f for n, (f, _) in res.checks.items() if f}
                if failed:
                    print(f"{name} seed {sweep.seed}: {failed}", file=sys.stderr)
                    return 1
                reference[name][str(sweep.seed)] = {n: sha for n, (_, sha) in res.checks.items()}
                note = ""
                if name == "desk_paired":
                    note = " grmp accepted %.2f, naive rejected %.2f" % worker.claim_fractions(res.dirs)
                print(f"{name} seed {sweep.seed}: {res.wall:.2f}s{note}", flush=True)
                shutil.rmtree(os.path.join(tmp, "runs"))
    finally:
        shutil.rmtree(tmp)
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
