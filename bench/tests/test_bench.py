"""Tests for the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spec  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

fp = worker.import_fedpoison(ROOT)

# a grmp run small enough for a unit test: every layer is called
TINY = {
    "attack": "grmp",
    "n_clients": "4",
    "n_attackers": "1",
    "rounds": "3",
    "phase_switch_round": "2",
    "data.train_per_class": "20",
    "data.test_per_class": "10",
    "data.trigger_rate": "0.5",
    "data.hash_dim": "64",
    "grmp.vgae_epochs": "3",
    "grmp.dual_steps": "3",
    "grmp.poison_epochs": "3",
    "grmp.hidden": "8",
    "grmp.latent": "4",
}


def test_wrapper_returns_what_it_wraps():
    mod = types.ModuleType("m")

    def f(x, y=2):
        return {"sum": x + y}

    def g():
        raise KeyError("boom")

    mod.f, mod.g = f, g
    t = Tracer()
    t.wrap(mod, "f", "layer.f")
    t.wrap(mod, "g", "layer.g")
    assert mod.f(1, y=5) == f(1, y=5)
    with pytest.raises(KeyError):
        mod.g()
    assert [s[0] for s in t.spans] == ["layer.f", "layer.g"]
    assert t.counts["layer.g.raised.KeyError"] == 1
    t.unwrap_all()
    assert mod.f is f and mod.g is g


def test_installed_restores_fedpoison():
    before = (fp.model.local_train, fp.defense.apply_defense, fp.sim.run_round, fp.cli.parse_config)
    with Tracer().installed(fp):
        assert fp.model.local_train is not before[0]
    assert (fp.model.local_train, fp.defense.apply_defense, fp.sim.run_round, fp.cli.parse_config) == before


def test_self_time_never_exceeds_span_time(tmp_path):
    (run,) = workloads.write_configs({"tiny": TINY}, str(tmp_path))
    t = Tracer()
    with t.installed(fp):
        assert worker.run_once(fp.cli, run, 3, str(tmp_path / "out")) is None
    durations = [end - start for _, start, end, _ in t.spans]
    for name, d, s in zip((s[0] for s in t.spans), durations, t.self_times()):
        assert -1e-9 <= s <= d + 1e-9, name
    names = {s[0] for s in t.spans}
    assert {"sim.run", "sim.round", "model.local_train", "model.poison_train", "grmp.fit_vgae",
            "grmp.dual_search", "grmp.synthesize", "grmp.craft", "defense.apply", "sim.write"} <= names
    # dual search runs inside crafting, which runs inside a round
    by_index = t.spans
    for name, _, _, parent in t.spans:
        if name == "grmp.dual_search":
            assert by_index[parent][0] == "grmp.craft"
            assert by_index[by_index[parent][3]][0] == "sim.round"


def test_traced_run_matches_untraced_bytes(tmp_path):
    runs = workloads.write_configs({"tiny": TINY}, str(tmp_path))
    res = worker.run_workload(fp, [workloads.Sweep(5, runs)], 0, True, str(tmp_path / "runs"))
    assert res["trace_mismatches"] == 0 and res["failed"] == 0
    assert res["layers"]["sim.rounds"] == 3 and res["layers"]["model.local_train_calls"] > 0


def test_every_metric_is_named_with_a_unit():
    names = {n for n, *_ in spec.PER_LAYER}
    assert set(layer_metrics(Tracer())) | {"trace.overhead_ratio", "runs_bytes_changed"} == names
    assert all(spec.UNITS[n] for n in names | {n for n, *_ in spec.END_TO_END})
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
    assert all(len(why) <= 200 for why in spec.WORKLOADS.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_metric(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "desk_paired",
         "--seed", "4", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert list(result["metrics"]) == [n for n, *_ in table]
    for name, m in result["metrics"].items():
        assert m["unit"] == spec.UNITS[name] and name in out.split("{", 1)[0]
    assert "runs_failed_ratio" in out
    assert "traced rounds.csv differ" not in out


def test_seeded_failure_is_counted_not_raised(tmp_path):
    runs = workloads.write_configs({"tiny": TINY, "bad": {"defense": "no_such_rule"}}, str(tmp_path))
    res = worker.run_workload(fp, [workloads.Sweep(1, runs)], 0, False, str(tmp_path / "runs"))
    # the warm-up run and both runs of the sweep were attempted; one failed
    assert (res["attempted"], res["failed"]) == (3, 1)
    assert "bad: exit code 1" in res["failures"][0]


def test_non_finite_parameters_fail_the_run(tmp_path):
    (tmp_path / "rounds.csv").write_text("round\n1\n")
    header = np.array([3], dtype="<i8").tobytes()
    (tmp_path / "model.bin").write_bytes(header + np.array([0.0, np.nan, 1.0], dtype="<f8").tobytes())
    failure, sha = worker.check_run_dir(str(tmp_path))
    assert failure == "non-finite parameters in model.bin" and sha
    (tmp_path / "model.bin").unlink()
    assert worker.check_run_dir(str(tmp_path))[0].startswith("incomplete run directory")


def test_desk_claim_covers_the_acceptance_seeds(tmp_path):
    # criterion 4 of the acceptance gate takes its medians over seeds 0-9
    sweeps = workloads.plan("desk_paired", 11, str(tmp_path))
    assert sorted(s.seed for s in sweeps) == list(range(10))


def _rounds(path, rows):
    path.mkdir()
    (path / "config.json").write_text(json.dumps({"phase_switch_round": 2}))
    lines = ["round,cosine_0,cosine_1,cosine_2,accepted_0,accepted_1,accepted_2"]
    lines += [",".join(map(str, r)) for r in rows]
    (path / "rounds.csv").write_text("\n".join(lines) + "\n")


def test_claim_fractions_find_attackers_from_run_dirs(tmp_path):
    # client 2 is the attacker: only its cosine differs at the switch round
    _rounds(tmp_path / "none", [(1, .5, .5, .5, 1, 1, 1), (2, .5, .4, .3, 1, 1, 1), (3, .5, .4, .3, 1, 1, 1)])
    _rounds(tmp_path / "grmp", [(1, .5, .5, .5, 1, 1, 1), (2, .5, .4, .9, 1, 0, 1), (3, .1, .2, .3, 1, 1, 0)])
    _rounds(tmp_path / "naive_flip", [(1, .5, .5, .5, 1, 1, 1), (2, .5, .4, .0, 1, 1, 0), (3, .1, .2, .3, 1, 1, 1)])
    dirs = {n: str(tmp_path / n) for n in ("none", "naive_flip", "grmp")}
    assert worker.claim_fractions(dirs) == (0.5, 0.5)
