"""The benchmark's contract: workloads, metrics, units and bounds.

`BENCHMARK.json` at the repository root is generated from this table
(`python3 bench/run.py --write-spec`), and the tests check that the two agree,
so a metric's unit and bound are stated in one place.
"""

from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

WORKLOADS = {
    "desk_paired": "the paper's traffic: clean, naive_flip and grmp at the acceptance seeds 0-9 under the "
    "cosine filter; the only workload where grmp runs",
    "defense_matrix": "naive_flip against each of the 7 rules at n=6; grmp never runs, "
    "so a grmp change must show no change here",
    "large_cohort": "naive_flip at 60 clients under krum, multi_krum, geometric_median and "
    "trimmed_mean; the only workload where the defense layer dominates",
}

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("data.synth_s", "s", "lower"),
    ("data.featurize_s", "s", "lower"),
    ("data.featurize_rows", "count", "lower"),
    ("model.local_train_s", "s", "lower"),
    ("model.local_train_calls", "count", "lower"),
    ("model.sgd_steps", "count", "lower"),
    ("model.poison_train_s", "s", "lower"),
    ("model.eval_s", "s", "lower"),
    ("model.eval_calls", "count", "lower"),
    ("defense.apply_s", "s", "lower"),
    ("defense.apply_calls", "count", "lower"),
    ("defense.rows_scored", "count", "lower"),
    ("defense.peak_alloc_mb", "MB", "lower"),
    ("defense.accept_ratio", "ratio", "higher"),
    ("defense.errors", "count", "lower"),
    ("grmp.fit_vgae_s", "s", "lower"),
    ("grmp.vgae_graph_epochs", "count", "lower"),
    ("grmp.dual_search_s", "s", "lower"),
    ("grmp.dual_steps", "count", "lower"),
    ("grmp.synthesize_s", "s", "lower"),
    ("grmp.synthesize_calls", "count", "lower"),
    ("grmp.craft_s", "s", "lower"),
    ("grmp.craft_self_s", "s", "lower"),
    ("grmp.build_graph_s", "s", "lower"),
    ("grmp.project_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.rounds", "count", "lower"),
    ("sim.round_self_s", "s", "lower"),
    ("sim.write_s", "s", "lower"),
    ("sim.write_bytes", "bytes", "lower"),
    ("cli.parse_config_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("runs_bytes_changed", "count", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
