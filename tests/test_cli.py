"""CLI: config file parsing, exit codes, scenario dispatch."""

import csv
import importlib.util
import json
import pathlib
import re

import pytest

from fedpoison import cli, sim
from test_acceptance import _desk_cfg

TINY = """
# fast experiment for the cli tests
rounds = 2
phase_switch_round = 3
seed = 3
data.train_per_class = 30
data.test_per_class = 10
data.trigger_rate = 0.5
data.hash_dim = 64
"""


def _write_tiny(tmp_path, extra=""):
    """TINY with `extra`'s lines in place of TINY's lines for the same keys
    (a key given twice is a config error)."""
    given = {line.split("=", 1)[0].strip() for line in extra.splitlines()}
    kept = [line for line in TINY.splitlines() if line.split("=", 1)[0].strip() not in given]
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join(kept) + "\n" + extra)
    return str(path)


# ---------------------------------------------------------------------------
# flat file parsing

def test_read_flat_file_key_value_with_comments(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("rounds=5  # inline comment\n\n# full-line comment\nlr = 0.1\n")
    assert cli._read_flat_file(str(p)) == {"rounds": "5", "lr": "0.1"}


def test_read_flat_file_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"rounds": 5, "defense.lambda": 1.5}\n')
    assert cli._read_flat_file(str(p)) == {"rounds": 5, "defense.lambda": 1.5}


def test_read_flat_file_errors(tmp_path):
    with pytest.raises(cli.ConfigError, match="not found"):
        cli._read_flat_file(str(tmp_path / "nope.cfg"))
    # a path that exists but cannot be read as a file names itself
    with pytest.raises(cli.ConfigError, match=f"^{re.escape(str(tmp_path))}: cannot read: Is a directory$"):
        cli._read_flat_file(str(tmp_path))
    p = tmp_path / "bad.cfg"
    p.write_text("rounds 5\n")
    with pytest.raises(cli.ConfigError, match="expected key=value"):
        cli._read_flat_file(str(p))
    # a key given twice is an error, not its last value: it names the file,
    # the line of the repeat and the key
    for text, where in [
        ("rounds = 3\nrounds = 4\n", f"{p}:2"),
        ("rounds=3\n# again\n\n  rounds = 3  # same value\n", f"{p}:4"),
        ("lr = 0.1\nrounds = 3\ndata.alpha = 1\ndata.alpha=2\n", f"{p}:4"),
    ]:
        p.write_text(text)
        with pytest.raises(cli.ConfigError) as info:
            cli._read_flat_file(str(p))
        key = text.splitlines()[-1].split("=")[0].strip()
        assert str(info.value) == f"{where}: duplicate key {key!r}"
    # and in JSON, where json.loads alone keeps the last value
    j = tmp_path / "dup.json"
    for text in ['{"rounds": 3, "rounds": 4}', '{"seed": 1, "lr": 0.1, "seed": 1}']:
        j.write_text(text)
        with pytest.raises(cli.ConfigError, match=r"duplicate key '(rounds|seed)'") as info:
            cli._read_flat_file(str(j))
        assert str(info.value).startswith(f"{j}: ")


def test_parse_config_unknown_key_is_config_error(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("frobnicate=1\n")
    with pytest.raises(cli.ConfigError, match="unknown config keys") as info:
        cli.parse_config(str(p))
    assert str(info.value) == f"{p}: unknown config keys: frobnicate"
    # a snapshot written while weight_decay, defense.gm_max_iter and
    # data.source were keys names all three rather than running without them
    old = {**sim.config_to_flat(sim.ExperimentConfig()), "weight_decay": 0.0, "defense.gm_max_iter": 200}
    snapshot = tmp_path / "config.json"
    snapshot.write_text(json.dumps({**old, "data.source": "synth"}))
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config(str(snapshot))
    assert str(info.value) == f"{snapshot}: unknown config keys: data.source, defense.gm_max_iter, weight_decay"
    # type and validation errors name the file too
    for text, message in [("rounds=many\n", "rounds: expected int, got 'many'"),
                          ("defense=firewall\n", "unknown defense 'firewall'")]:
        p.write_text(text)
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(str(p))
        assert str(info.value) == f"{p}: {message}"
    # overrides alone have no file to name
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config(None, {"frobnicate": "1"})
    assert str(info.value) == "unknown config keys: frobnicate"


# ---------------------------------------------------------------------------
# main / exit codes

def test_run_command_success_and_artifacts(tmp_path, capsys):
    cfg_path = _write_tiny(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "rounds.csv").exists()
    assert "final_accuracy=" in capsys.readouterr().out


def test_run_command_seed_override(tmp_path):
    cfg_path = _write_tiny(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out), "--seed", "77"]) == 0
    snap = json.loads((out / "config.json").read_text())
    assert snap["seed"] == 77


def test_bad_config_exit_code_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("defense=firewall\n")
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    # a malformed file names itself
    for text, message in [
        (b'{"rounds": 3,', "malformed JSON"),
        (b'["rounds=3"]', "JSON config must be an object"),
        (b"rounds = 3\xff\n", "not UTF-8 text"),
    ]:
        p = tmp_path / "bad.json"
        p.write_bytes(text)
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and str(p) in err and message in err
    # so does a directory given as the config
    assert cli.main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path) in err and "Is a directory" in err
    # defense parameters with which no round can run fail before round one
    cfg_path = _write_tiny(tmp_path, "defense = krum\ndefense.f = 5\n")
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "krum needs n_clients >= 8 (got 6; defense.f=5," in capsys.readouterr().err
    # so do data parameters and triggers that no tokenizer produces
    for extra, message in [
        ("data.hash_dim = 100\n", "data.hash_dim must be a power of two"),
        ("data.trigger_rate = 0\n", "data.trigger_rate must be in (0, 1]"),
        ("data.triggers = gold, Silver\n", "data.triggers: 'Silver' is not a token"),
        ("data.train_per_class = 1\n", "n_clients must be <= 4 * data.train_per_class on synth data"),
        ("data.alpha = inf\n", "data.alpha must be > 0 and finite"),
        ("defense.lambda = inf\n", "defense.lambda must be >= 0 and finite"),
        ("defense.gm_tol = inf\n", "defense.gm_tol must be > 0 and finite"),
        # and training parameters that would run a wrong experiment or none
        ("n_attackers = -1\n", "n_attackers must be >= 0"),
        ("n_clients = 0\n", "n_clients must be >= 1"),
        ("batch_size = 0\n", "batch_size must be >= 1"),
        ("lr = nan\n", "lr must be finite"),
        ("lr = -0.5\n", "lr must be finite and >= 0"),
        ("attack = grmp\nlr = 0\n", "lr must be > 0 under attack = grmp with n_attackers >= 1"),
        ("grmp.poison_epochs = 0\n", "grmp.poison_epochs must be >= 1"),
        ("grmp.vgae_epochs = -1\n", "grmp.vgae_epochs must be >= 0"),
        ("grmp.tau_edge = nan\n", "grmp.tau_edge must be finite"),
        ("grmp.stealth_margin = nan\n", "grmp.stealth_margin must be finite"),
        ("grmp.gamma_blend = nan\n", "grmp.gamma_blend must be finite"),
        ("grmp.dual_step_size = nan\n", "grmp.dual_step_size must be finite"),
        ("grmp.vgae_lr = nan\n", "grmp.vgae_lr must be finite"),
        # VGAE widths that would fail only at the switch round
        ("attack = grmp\ngrmp.latent = 40\n", "grmp needs 1 <= grmp.latent <= grmp.hidden <= 4 * data.hash_dim"),
        ("attack = grmp\ngrmp.hidden = 0\n", "grmp needs 1 <= grmp.latent <= grmp.hidden"),
        ("attack = grmp\ndata.hash_dim = 4\n", "(got latent=8, hidden=32, hash_dim=4)"),
        # and a benign cohort too small for grmp's update graph
        ("attack = grmp\nn_clients = 3\nn_attackers = 2\n", "grmp needs n_clients - n_attackers >= 2 (got n_clients=3,"),
        # a cosine filter with no second row to set its threshold by
        ("n_clients = 1\nn_attackers = 0\n", "cosine_filter needs n_clients >= 2 (got 1;"),
        # and AG News files that are not there: either path reads both
        ("data.agnews_test = test.csv\n", "data.agnews_train must be an existing file when either AG News path is set"),
        # a seed outside one 32-bit word, which would alias one inside it
        ("seed = -1\n", "seed must be in [0, 2**32)"),
        ("seed = 4294967296\n", "seed must be in [0, 2**32)"),
        ("seed = 4294967338\n", "seed must be in [0, 2**32)"),
    ]:
        cfg_path = _write_tiny(tmp_path, extra)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
    # so does a --seed override outside it
    cfg_path = _write_tiny(tmp_path)
    for seed in ("-1", "4294967296"):
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", seed]) == 1
        assert "seed must be in [0, 2**32)" in capsys.readouterr().err
    # and a key given twice, in either format, rather than running its last value
    p = tmp_path / "twice.cfg"
    p.write_text(TINY + "rounds = 4\n")
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert f"{p}:10: duplicate key 'rounds'" in capsys.readouterr().err
    p = tmp_path / "twice.json"
    p.write_text('{"rounds": 2, "phase_switch_round": 2, "rounds": 1}')
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert f"{p}: duplicate key 'rounds'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_run_with_another_objective(tmp_path):
    # the synthetic corpus plants the configured triggers in the configured
    # source class, so the ASR subset is not empty
    cfg_path = _write_tiny(
        tmp_path, "attack = naive_flip\nphase_switch_round = 2\ndata.src_class = 3\ndata.triggers = gold\n"
    )
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "rounds.csv", newline="") as fh:
        assert [r["round"] for r in csv.DictReader(fh)] == ["1", "2"]


def test_empty_asr_subset_exit_code_2(tmp_path, capsys):
    cfg_path = _write_tiny(tmp_path, "data.trigger_rate = 1e-9\ndata.test_per_class = 2\n")
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: ASR subset empty: no test example of class 2 holds a trigger (stock, market, earnings, profit)" in err


def test_agnews_train_smaller_than_the_cohort_exit_code_2(tmp_path, capsys):
    # validate does not read the files, so the partition names the train size
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text('"1","a","b"\n"2","c","d"\n"3","stock e","f"\n')
    test.write_text('"3","stock g","h"\n')
    cfg_path = _write_tiny(tmp_path, f"data.agnews_train = {train}\ndata.agnews_test = {test}\n")
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "error: n_clients=6 exceeds train size 3" in capsys.readouterr().err


def test_grmp_zero_lr_exit_code_1(tmp_path, capsys):
    # at lr = 0 no round moves the model, so the benign rows grmp scores at the
    # switch, and their mean, are zero: no direction to project on, caught
    # before round one rather than at the switch
    cfg_path = _write_tiny(tmp_path, "attack = grmp\nlr = 0\nrounds = 12\nphase_switch_round = 11\n")
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "lr must be > 0 under attack = grmp with n_attackers >= 1" in err
    assert not (tmp_path / "o").exists()


def test_commands_are_run_and_scenario():
    # the figure data is rounds.csv's columns; no command copies them
    assert "{run,scenario}" in cli._build_parser().format_usage()


def test_unknown_scenario_exit_code_1(tmp_path, capsys):
    assert cli.main(["scenario", "nope", "--out", str(tmp_path / "o")]) == 1
    assert "unknown scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scenarios

def test_scenario_table_shapes():
    assert set(cli.SCENARIOS) == {
        "baseline_clean", "naive_vs_each_defense", "grmp_vs_cosine",
        "grmp_vs_krum", "sweep_lambda", "sweep_alpha",
    }
    # a single-run scenario writes into --out itself
    for runs in cli.SCENARIOS.values():
        assert len(runs) > 1 or set(runs) == {""}


def test_scenario_runs_are_distinct_configs():
    # a run whose resolved config repeats another's repeats its bytes
    seen = {}
    for name, runs in cli.SCENARIOS.items():
        for subdir, overrides in runs.items():
            flat = sim.config_to_flat(cli.parse_config(None, overrides))
            key = tuple(sorted(flat.items()))
            run = f"{name}/{subdir}" if subdir else name
            assert key not in seen, f"{run} repeats {seen[key]}"
            seen[key] = run


def test_measured_limits_runs_criterion_4s_desk_config():
    # README's "Measured limits" table reads scripts/measured_limits.py's runs,
    # built from scenario grmp_vs_cosine, as criterion 4's desk config
    path = pathlib.Path(__file__).parents[1] / "scripts" / "measured_limits.py"
    spec = importlib.util.spec_from_file_location("measured_limits", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for attack in sim.ATTACKS:
        for seed in (0, 7, 63):
            desk = sim.config_to_flat(_desk_cfg(attack, seed))
            for lam in (0.5, 1.0, 1.5):
                assert sim.config_to_flat(script.desk_cfg(attack, seed, lam)) == {**desk, "defense.lambda": lam}


# ---------------------------------------------------------------------------
# rerun-from-snapshot (the reproducibility contract at CLI level)

def test_rerun_from_snapshot_byte_identical(tmp_path):
    cfg_path = _write_tiny(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg_path, "--out", str(a)]) == 0
    assert cli.main(["run", "--config", str(a / "config.json"), "--out", str(b)]) == 0
    assert (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()

