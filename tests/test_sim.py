"""Round loop: determinism, phase behavior, aggregation identity, config
round-tripping, run-directory artifacts."""

import dataclasses
import os
import re

import numpy as np
import pytest

from fedpoison import data as data_mod
from fedpoison import defense, grmp, model, sim


def tiny_cfg(**kw):
    """Desk-scale-but-fast experiment: ~120 train examples, 64-d features."""
    cfg = sim.ExperimentConfig(
        rounds=3,
        phase_switch_round=2,
        seed=5,
        data=sim.DataConfig(
            train_per_class=30, test_per_class=10, trigger_rate=0.5, hash_dim=64
        ),
        grmp=sim.GrmpConfig(vgae_epochs=20, dual_steps=10, hidden=8, latent=3),
    )
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


# ---------------------------------------------------------------------------
# validation

def test_config_validate_errors(tmp_path):
    with pytest.raises(ValueError):
        tiny_cfg(n_attackers=6).validate()
    with pytest.raises(ValueError):
        tiny_cfg(rounds=0).validate()
    with pytest.raises(ValueError):
        tiny_cfg(phase_switch_round=9).validate()  # rounds=3, so max is 4
    with pytest.raises(ValueError):
        tiny_cfg(defense="firewall").validate()
    with pytest.raises(ValueError):
        tiny_cfg(attack="ddos").validate()
    cfg = tiny_cfg()
    cfg.data.dst_class = cfg.data.src_class
    with pytest.raises(ValueError):
        cfg.validate()
    # the attack objective must be satisfiable on a 4-class corpus
    for field_name, value, message in [
        ("triggers", (), "data.triggers must name at least one trigger"),
        ("src_class", 4, r"data.src_class and data.dst_class must lie in \[0, 3\]"),
        ("dst_class", -1, r"data.src_class and data.dst_class must lie in \[0, 3\]"),
    ]:
        cfg = tiny_cfg()
        setattr(cfg.data, field_name, value)
        with pytest.raises(ValueError, match=message):
            cfg.validate()
    # training and attack parameters with which no run can start
    for field_name, value, message in [
        ("n_clients", 0, "n_clients must be >= 1"),
        ("n_attackers", -1, "n_attackers must be >= 0"),
        ("local_epochs", 0, "local_epochs must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("lr", float("nan"), "lr must be finite"),
        ("lr", float("inf"), "lr must be finite"),
        ("lr", -0.5, "lr must be finite and >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            tiny_cfg(**{field_name: value}).validate()
    nan = float("nan")
    widths = r"grmp needs 1 <= grmp.latent <= grmp.hidden <= 4 \* data.hash_dim"
    for field_name, value, message in [
        ("poison_epochs", 0, "grmp.poison_epochs must be >= 1"),
        ("dual_steps", 0, "grmp.dual_steps must be >= 1"),
        ("vgae_epochs", -1, "grmp.vgae_epochs must be >= 0"),
        ("tau_edge", nan, "grmp.tau_edge must be finite"),
        ("stealth_margin", nan, "grmp.stealth_margin must be finite"),
        ("gamma_blend", nan, "grmp.gamma_blend must be finite"),
        ("dual_step_size", float("inf"), "grmp.dual_step_size must be finite"),
        ("vgae_lr", nan, "grmp.vgae_lr must be finite"),
        # the VGAE needs 1 <= latent <= hidden <= the update dimension, 4 * 64
        ("latent", 9, widths + r" \(got latent=9, hidden=8, hash_dim=64\)"),
        ("latent", 0, widths),
        ("hidden", 0, widths),
        ("hidden", 257, widths),
    ]:
        cfg = tiny_cfg(attack="grmp")
        setattr(cfg.grmp, field_name, value)
        with pytest.raises(ValueError, match=message):
            cfg.validate()
    # data parameters with which no run can start
    for field_name, value, message in [
        ("triggers", ("gold", " Silver"), r"data.triggers: ' Silver' is not a token"),
        ("triggers", ("gold", "Silver"), r"data.triggers: 'Silver' is not a token"),
        ("triggers", ("gold-leaf",), r"data.triggers: 'gold-leaf' is not a token"),
        ("hash_dim", 100, "data.hash_dim must be a power of two"),
        ("hash_dim", 0, "data.hash_dim must be a power of two"),
        ("alpha", 0.0, r"data.alpha must be > 0"),
        ("alpha", float("nan"), r"data.alpha must be > 0"),
        ("alpha", float("inf"), r"data.alpha must be > 0 and finite"),
        ("trigger_rate", 0.0, r"data.trigger_rate must be in \(0, 1\] on synth data"),
        ("trigger_rate", 1.5, r"data.trigger_rate must be in \(0, 1\] on synth data"),
        ("train_per_class", 0, "data.train_per_class must be >= 1"),
        ("test_per_class", 0, "data.test_per_class must be >= 1"),
        ("vocab_per_class", 0, "data.vocab_per_class must be >= 1"),
        # 4 * 1 synth train examples for 6 clients
        ("train_per_class", 1, r"n_clients must be <= 4 \* data.train_per_class on synth data \(got 6,"),
    ]:
        cfg = tiny_cfg()
        setattr(cfg.data, field_name, value)
        with pytest.raises(ValueError, match=message):
            cfg.validate()
    # grmp's update graph needs two benign rows; without attackers it never builds one
    two_benign = r"grmp needs n_clients - n_attackers >= 2 \(got n_clients=3, n_attackers=2\)"
    with pytest.raises(ValueError, match=two_benign):
        tiny_cfg(attack="grmp", n_clients=3, n_attackers=2).validate()
    tiny_cfg(attack="grmp", n_clients=4, n_attackers=2).validate()
    tiny_cfg(attack="grmp", n_clients=1, n_attackers=0, defense="fedavg").validate()
    # at lr = 0 every benign row is zero, so grmp would have no direction to
    # craft toward; a run with no crafting attacker may still train nothing
    with pytest.raises(ValueError, match="lr must be > 0 under attack = grmp with n_attackers >= 1"):
        tiny_cfg(attack="grmp", lr=0.0).validate()
    for attack, n_attackers in [("grmp", 0), ("naive_flip", 2), ("none", 2)]:
        tiny_cfg(attack=attack, n_attackers=n_attackers, lr=0.0).validate()
    # the VGAE widths are checked only when grmp crafts: a clean run may have
    # updates narrower than grmp.hidden (4 < 8)
    cfg = tiny_cfg()
    cfg.data.hash_dim = 1
    cfg.validate()
    cfg.attack = "grmp"
    with pytest.raises(ValueError, match=widths + r" \(got latent=3, hidden=8, hash_dim=1\)"):
        cfg.validate()
    # either AG News path makes an AG News run, which names two CSV files that exist
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_agnews_csv(train, per_class=2, seed=0)
    _write_agnews_csv(test, per_class=2, seed=1)
    for field_name, value in [
        ("agnews_train", ""),  # data.agnews_test alone
        ("agnews_test", str(tmp_path / "missing.csv")),
        ("agnews_test", str(tmp_path)),
    ]:
        cfg = tiny_cfg()
        cfg.data.agnews_train, cfg.data.agnews_test = str(train), str(test)
        setattr(cfg.data, field_name, value)
        with pytest.raises(ValueError, match=f"data.{field_name} must be an existing file when either AG News path"):
            cfg.validate()
    # the trigger rate and the train size only shape the synthetic corpus
    cfg = tiny_cfg()
    cfg.data.trigger_rate, cfg.data.train_per_class = 0.0, 1
    cfg.data.agnews_train, cfg.data.agnews_test = str(train), str(test)
    cfg.validate()
    cfg = tiny_cfg()
    cfg.data.train_per_class = 2  # 8 train examples, one each for 6 clients
    cfg.validate()
    # defense parameters with which no round can run (n_clients=6)
    for defense_name, params, message in [
        ("fedavg", {"f": -1}, "defense.f must be >= 0"),
        ("fedavg", {"m": 0}, "defense.m must be >= 1"),
        ("fedavg", {"beta": -1}, "defense.beta must be >= 0"),
        ("fedavg", {"lambda_": -5.0}, "defense.lambda must be >= 0"),
        ("fedavg", {"lambda_": float("nan")}, "defense.lambda must be >= 0"),
        ("fedavg", {"lambda_": float("inf")}, "defense.lambda must be >= 0 and finite"),
        ("fedavg", {"gm_tol": 0.0}, "defense.gm_tol must be > 0"),
        ("fedavg", {"gm_tol": float("inf")}, "defense.gm_tol must be > 0 and finite"),
        ("krum", {"f": 4}, r"^krum needs n_clients >= 7 \(got 6; defense.f=4, defense.m=2, defense.beta=1\)$"),
        ("multi_krum", {"f": 4}, r"^multi_krum needs n_clients >= 8 \(got 6; defense.f=4,"),
        ("multi_krum", {"f": 1, "m": 4}, r"^multi_krum needs n_clients >= 7 \(got 6; defense.f=1, defense.m=4,"),
        ("trimmed_mean", {"beta": 3}, r"^trimmed_mean needs n_clients >= 7 \(got 6; .*defense.beta=3\)$"),
    ]:
        cfg = tiny_cfg(defense=defense_name)
        for k, v in params.items():
            setattr(cfg.defense_params, k, v)
        with pytest.raises(ValueError, match=message):
            cfg.validate()
    # the cosine filter's threshold needs two rows
    with pytest.raises(ValueError, match=r"cosine_filter needs n_clients >= 2 \(got 1;"):
        tiny_cfg(n_clients=1, n_attackers=0).validate()
    tiny_cfg(n_clients=2, n_attackers=0).validate()
    # a seed is one 32-bit word: outside [0, 2**32) it would alias one inside
    for seed in (-1, 2**32, 2**32 + 42):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*32\)$"):
            tiny_cfg(seed=seed).validate()
    tiny_cfg(seed=0).validate()
    tiny_cfg(seed=2**32 - 1).validate()


def test_grmp_without_attackers_checks_no_vgae_width_and_runs_clean(tmp_path):
    # with no attacker nothing is crafted and no VGAE is fit, so widths that
    # would fail a crafting run pass, and the run writes the clean run's rounds
    cfg = tiny_cfg(attack="grmp", n_attackers=0)
    cfg.grmp.latent = cfg.grmp.hidden + 1
    cfg.validate()
    for attack in ("grmp", "none"):
        sim.write_run_dir(sim.run_experiment(dataclasses.replace(cfg, attack=attack)), str(tmp_path / attack))
    for name in ("rounds.csv", "model.bin"):
        assert (tmp_path / "grmp" / name).read_bytes() == (tmp_path / "none" / name).read_bytes()
    with pytest.raises(ValueError, match=r"grmp needs 1 <= grmp.latent <= grmp.hidden"):
        dataclasses.replace(cfg, n_attackers=1).validate()


def test_config_validate_checks_rule_minimums_only_for_the_configured_rule():
    # at the rules' minimums for n=6, and another rule's impossible value
    for defense_name, params in [
        ("krum", {"f": 3}),
        ("multi_krum", {"f": 1, "m": 3}),
        ("trimmed_mean", {"beta": 2}),
        ("cosine_filter", {"f": 5, "m": 9, "beta": 3}),
    ]:
        cfg = tiny_cfg(defense=defense_name)
        for k, v in params.items():
            setattr(cfg.defense_params, k, v)
        cfg.validate()


# ---------------------------------------------------------------------------
# determinism / purity

def test_run_experiment_deterministic():
    r1 = sim.run_experiment(tiny_cfg(attack="grmp"))
    r2 = sim.run_experiment(tiny_cfg(attack="grmp"))
    assert r1.records == r2.records
    assert np.array_equal(r1.final_params, r2.final_params)
    assert r1.attack_trace == r2.attack_trace


def test_attack_without_attackers_is_clean():
    clean = sim.run_experiment(tiny_cfg(attack="none"))
    noop = sim.run_experiment(tiny_cfg(attack="grmp", n_attackers=0))
    assert clean.records == noop.records
    assert np.array_equal(clean.final_params, noop.final_params)


def test_round_indices_and_count():
    res = sim.run_experiment(tiny_cfg())
    assert [r.round for r in res.records] == [1, 2, 3]


# ---------------------------------------------------------------------------
# phase boundary

def test_stealth_rounds_match_clean_run():
    cfg = tiny_cfg(rounds=4, phase_switch_round=3, attack="grmp")
    # each run computes its own stealth phase, not the other's recorded prefix
    sim._PREFIX_SLOT.clear()
    clean = sim.run_experiment(tiny_cfg(rounds=4, phase_switch_round=3, attack="none"))
    sim._PREFIX_SLOT.clear()
    poisoned = sim.run_experiment(cfg)
    for rc, rp in zip(clean.records, poisoned.records):
        if rp.round < cfg.phase_switch_round:
            assert rc == rp
    # divergence does happen at the switch
    assert poisoned.records[2] != clean.records[2]
    # attack trace covers exactly the exploit rounds
    assert [t["round"] for t in poisoned.attack_trace] == [3, 4]


# ---------------------------------------------------------------------------
# one submission per client per round

@pytest.mark.parametrize("attack, exploit_calls", [
    ("none", {"client": 6}),
    ("naive_flip", {"client": 6}),
    # the two grmp attackers are not trained: their row is crafted from the
    # poison direction, distilled by one call that trains on their pooled
    # data with flipped and with clean labels in lockstep
    ("grmp", {"client": 4, "poison": 1}),
])
def test_local_train_calls_per_round(monkeypatch, attack, exploit_calls):
    cfg = tiny_cfg(attack=attack)  # 3 rounds, 2 of 6 clients attack from round 2
    calls = []
    real_train, real_round = model.local_train, sim.run_round

    def spy_train(global_params, X, y, epochs, *args, **kwargs):
        kind = "poison" if epochs == cfg.grmp.poison_epochs else "client"
        calls[-1][kind] = calls[-1].get(kind, 0) + 1
        return real_train(global_params, X, y, epochs, *args, **kwargs)

    def spy_round(state, round_idx):
        calls.append({})
        return real_round(state, round_idx)

    monkeypatch.setattr(model, "local_train", spy_train)
    monkeypatch.setattr(sim, "run_round", spy_round)
    sim.run_experiment(cfg)
    assert calls == [{"client": 6}, exploit_calls, exploit_calls]


# ---------------------------------------------------------------------------
# what the attacker's VGAE is fit on

def _spy_fit_vgae(monkeypatch):
    calls = []
    real = grmp.fit_vgae

    def spy(graphs, *args, **kwargs):
        calls.append([len(g.X) for g in graphs])
        return real(graphs, *args, **kwargs)

    monkeypatch.setattr(grmp, "fit_vgae", spy)
    return calls


@pytest.mark.parametrize("switch, n_graphs", [(1, 1), (2, 1), (3, 2)])
def test_vgae_fit_once_on_benign_updates_before_the_switch(monkeypatch, switch, n_graphs):
    # one graph per stealth round; when the attack starts in round 1 the fit
    # uses that round's benign updates
    calls = _spy_fit_vgae(monkeypatch)
    cfg = tiny_cfg(attack="grmp", rounds=3, phase_switch_round=switch)
    sim.run_experiment(cfg)
    assert calls == [[cfg.n_clients - cfg.n_attackers] * n_graphs]


@pytest.mark.parametrize("attack", ["none", "naive_flip"])
def test_vgae_not_fit_without_grmp(monkeypatch, attack):
    calls = _spy_fit_vgae(monkeypatch)
    sim.run_experiment(tiny_cfg(attack=attack, rounds=3))
    assert calls == []


# ---------------------------------------------------------------------------
# what the attacker scores its stealth floor against

@pytest.mark.parametrize("switch", [1, 2])
def test_attacker_floor_is_the_servers_rule_over_the_benign_rows(monkeypatch, switch):
    # lambda and the margin are neither their defaults nor 1 and 0, so a floor
    # that reads another lambda or leaves out the margin misses the oracle
    cfg = tiny_cfg(attack="grmp", rounds=3, phase_switch_round=switch)
    cfg.defense_params.lambda_, cfg.grmp.stealth_margin = 0.7, 0.04
    submitted, aggregates, crafts, floors = [], [], [], []
    real_defense, real_craft, real_project = defense.apply_defense, grmp.craft_with_trace, grmp.project_stealth

    def spy_defense(name, updates, *args):
        report = real_defense(name, updates, *args)
        submitted.append(updates.copy())
        aggregates.append(report.aggregate.copy())
        return report

    def spy_craft(benign_updates, raw_poison, reference, *args):
        crafts.append((len(aggregates), benign_updates.copy(), reference.copy()))
        return real_craft(benign_updates, raw_poison, reference, *args)

    def spy_project(v, reference, stealth_floor, norm_cap):
        floors.append(stealth_floor)
        return real_project(v, reference, stealth_floor, norm_cap)

    monkeypatch.setattr(defense, "apply_defense", spy_defense)
    monkeypatch.setattr(grmp, "craft_with_trace", spy_craft)
    monkeypatch.setattr(grmp, "project_stealth", spy_project)
    sim.run_experiment(cfg)
    # every round aggregated, and each exploit round crafted once
    assert len(aggregates) == cfg.rounds
    assert [done + 1 for done, *_ in crafts] == list(range(switch, cfg.rounds + 1))
    assert len(floors) == len(crafts)
    benign_ids = [i for i in range(cfg.n_clients) if i not in sim._RunState(cfg).attacker_ids]
    lam, margin = cfg.defense_params.lambda_, cfg.grmp.stealth_margin
    for (done, benign, reference), floor in zip(crafts, floors):
        assert benign.tobytes() == submitted[done][benign_ids].tobytes()
        # the server's reference: the previous round's aggregate, else the mean
        want = aggregates[done - 1] if done else benign.mean(axis=0)
        assert reference.tobytes() == want.tobytes()
        c = benign @ reference / (np.linalg.norm(benign, axis=1) * np.linalg.norm(reference))
        assert abs(floor - np.clip(c.mean() - lam * c.std() + margin, -1.0, 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# the grmp adversary's one entry point

def test_adversary_rows_are_a_function_of_the_view_alone(monkeypatch):
    # a run whose attack starts in round 3, so the view holds two stealth rounds
    cfg = tiny_cfg(attack="grmp", rounds=3, phase_switch_round=3)
    submitted, aggregates = [], []
    real = defense.apply_defense

    def spy(name, updates, *args):
        report = real(name, updates, *args)
        submitted.append(updates.copy())
        aggregates.append(report.aggregate.copy())
        return report

    monkeypatch.setattr(defense, "apply_defense", spy)
    res = sim.run_experiment(cfg)
    state = sim._RunState(cfg)
    ids = state.attacker_ids
    # the view round 3 presented, rebuilt from what the server saw: the global
    # params are the zero init plus each aggregate, summed as the round loop does
    params = state.params
    for agg in aggregates[:2]:
        params = params + agg
    benign = [np.delete(u, ids, axis=0) for u in submitted]
    view = (params, aggregates[1], benign[2], benign[:2])
    for a in (params, aggregates[1], *benign):
        a.flags.writeable = False  # a write raises
    rows, trace = grmp.Adversary(cfg, state.data.clients, ids).submit(3, *view)
    again, trace_again = grmp.Adversary(cfg, state.data.clients, ids).submit(3, *view)
    assert rows.tobytes() == again.tobytes() and trace == trace_again
    assert rows.tobytes() == submitted[2][ids].tobytes()
    assert res.attack_trace == [{"round": 3, **trace}]


# ---------------------------------------------------------------------------
# aggregation identity

def test_round_one_fedavg_matches_manual_reconstruction():
    cfg = tiny_cfg(defense="fedavg", rounds=1, phase_switch_round=2)
    res = sim.run_experiment(cfg)
    state = sim._RunState(cfg)
    deltas = np.stack([
        model.local_train(
            np.zeros_like(state.params), X, y, cfg.local_epochs, cfg.lr, cfg.batch_size,
            model.child_seed(cfg.seed, "train", 1, i),
        )
        for i, (X, y, _) in enumerate(state.data.clients)
    ])
    expect = defense.fedavg(deltas, state.data.sizes)
    assert np.isclose(res.records[0].aggregate_norm, np.linalg.norm(expect), atol=1e-12)
    assert np.allclose(res.final_params, expect, atol=1e-12)


@pytest.mark.parametrize("rule, error", [("cosine_filter", True), ("fedavg", False)])
def test_zero_reference_is_a_defense_error_under_the_cosine_filter(rule, error):
    # lr=0 makes every update zero, so the round-one reference is zero and,
    # with no round ever applied, so is every later one
    res = sim.run_experiment(tiny_cfg(attack="naive_flip", lr=0.0, defense=rule))
    for rec in res.records:
        assert rec.defense_error is error
        assert rec.threshold is None
        assert rec.aggregate_norm == 0.0
        assert rec.per_client_cosine == [-1.0] * len(rec.accepted)
        assert rec.accepted == [not error] * len(rec.accepted)


# ---------------------------------------------------------------------------
# AG News input

def _write_agnews_csv(path, per_class, seed):
    rng = np.random.default_rng(seed)
    rows = ['"Class Index","Title","Description"']
    for cls in range(1, 5):
        for j in range(per_class):
            words = " ".join(f"w{cls}x{int(k)}" for k in rng.integers(0, 8, size=6))
            # business (class 3) rows carry a trigger half the time
            trigger = " stock" if cls == 3 and j % 2 == 0 else ""
            rows.append(f'"{cls}","title {cls}{trigger}","{words}"')
    path.write_text("\n".join(rows) + "\n")


def test_agnews_source_runs(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_agnews_csv(train, per_class=15, seed=0)
    _write_agnews_csv(test, per_class=4, seed=1)
    cfg = tiny_cfg(attack="naive_flip", rounds=2)
    cfg.data.agnews_train, cfg.data.agnews_test = str(train), str(test)
    res = sim.run_experiment(cfg)
    assert [r.round for r in res.records] == [1, 2]
    assert sim._RunState(cfg).data.sizes.sum() == 4 * 15
    assert np.all(np.isfinite(res.final_params))
    assert np.linalg.norm(res.final_params) > 0
    for rec in res.records:
        assert 0.0 <= rec.accuracy <= 1.0 and 0.0 <= rec.asr <= 1.0
        assert not rec.defense_error


# ---------------------------------------------------------------------------
# one read-only data set per (data config, n_clients, seed)

@pytest.fixture
def builds(monkeypatch):
    """Empties the data slot and counts the data-building calls from here on."""
    monkeypatch.setattr(sim, "_DATA_SLOT", {})
    counts = {"synth_corpus": 0, "featurize_all": 0, "load_agnews_csv": 0}
    for name in counts:
        real = getattr(data_mod, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(data_mod, name, spy)
    return counts


@pytest.mark.parametrize("other", [{"defense": "krum"}, {"attack": "grmp"}, {"n_attackers": 1}])
def test_runs_sharing_the_data_config_build_it_once(builds, other):
    cfg = tiny_cfg(attack="naive_flip")
    sim.run_experiment(cfg)
    sim.run_experiment(tiny_cfg(**{"attack": "naive_flip", **other}))
    # one featurize_all per split
    assert builds == {"synth_corpus": 1, "featurize_all": 2, "load_agnews_csv": 0}


@pytest.mark.parametrize("section, key, value", [
    (None, "seed", 6),
    (None, "n_clients", 5),
    ("data", "alpha", 0.9),
    ("data", "hash_dim", 32),
])
def test_a_new_data_key_builds_again(builds, section, key, value):
    sim.run_experiment(tiny_cfg())
    cfg = tiny_cfg()
    setattr(getattr(cfg, section) if section else cfg, key, value)
    sim.run_experiment(cfg)
    assert builds["synth_corpus"] == 2
    assert list(sim._DATA_SLOT) == [sim._data_key(cfg)]


def test_slot_is_emptied_before_a_build(builds, monkeypatch):
    sim.run_experiment(tiny_cfg())
    seen = []
    real = data_mod.synth_corpus

    def spy(*args, **kwargs):
        seen.append(dict(sim._DATA_SLOT))
        return real(*args, **kwargs)

    monkeypatch.setattr(data_mod, "synth_corpus", spy)
    sim.run_experiment(tiny_cfg(seed=6))
    # the old data set was let go before the new one was built
    assert seen == [{}]
    assert len(sim._DATA_SLOT) == 1


@pytest.mark.parametrize("between", [{"attack": "grmp"}, {"seed": 6}])
def test_warm_run_equals_cold_run(builds, monkeypatch, tmp_path, between):
    # A, B, A in one process: the second A's files match a cold run of A
    a = dict(attack="naive_flip", defense="krum")
    sim.run_experiment(tiny_cfg(**a))
    sim.run_experiment(tiny_cfg(**{**a, **between}))
    sim.write_run_dir(sim.run_experiment(tiny_cfg(**a)), str(tmp_path / "again"))
    monkeypatch.setattr(sim, "_DATA_SLOT", {})
    sim.write_run_dir(sim.run_experiment(tiny_cfg(**a)), str(tmp_path / "cold"))
    for name in ("rounds.csv", "scores.csv", "attack_trace.jsonl", "model.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_cached_arrays_are_read_only(builds):
    # grmp, the one attack that pools its clients' data
    state = sim._RunState(tiny_cfg(attack="grmp"))
    d = state.data
    arrays = [d.sizes, d.X_test, d.y_test, d.X_asr]
    arrays += [a for X, y, y_flipped in d.clients for a in (X.cols, X.vals, y, y_flipped)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    # the adversary's pooled arrays are the run's own copies
    adv = state.adversary
    for a in (adv.X.cols, adv.X.vals, adv.labels):
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in arrays)


@pytest.mark.parametrize("attack", ["none", "naive_flip"])
def test_attacker_pool_only_under_grmp(attack):
    assert sim._RunState(tiny_cfg(attack=attack)).adversary is None


def test_rewritten_agnews_csv_is_read_again(builds, tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_agnews_csv(train, per_class=15, seed=0)
    _write_agnews_csv(test, per_class=4, seed=1)
    cfg = tiny_cfg(attack="naive_flip", rounds=1)
    cfg.data.agnews_train, cfg.data.agnews_test = str(train), str(test)
    assert sim._RunState(cfg).data.sizes.sum() == 4 * 15
    sim.run_experiment(cfg)
    assert builds["load_agnews_csv"] == 1
    _write_agnews_csv(train, per_class=16, seed=0)
    assert sim._RunState(cfg).data.sizes.sum() == 4 * 16
    assert builds["load_agnews_csv"] == 2


def flip_labels_oracle(examples, triggers, src_class, dst_class):
    """The Example-level flip: src_class examples holding a trigger, relabelled."""
    trig = set(triggers)
    return [
        data_mod.Example(e.tokens, dst_class) if e.label == src_class and set(e.tokens) & trig else e
        for e in examples
    ]


def per_client_oracle(cfg):
    """Each client's dense features, labels and flipped labels, and the ASR
    subset's dense features, each featurized on its own."""
    dc = cfg.data
    if dc.agnews_train or dc.agnews_test:
        corpus = data_mod.load_agnews_csv(dc.agnews_train, dc.agnews_test)
    else:
        corpus = data_mod.synth_corpus(dc, model.child_seed(cfg.seed, "corpus"))
    parts = data_mod.partition_noniid(corpus, cfg.n_clients, dc.alpha, model.child_seed(cfg.seed, "partition"))
    fseed = model.child_seed(cfg.seed, "hash")
    clients = []
    for idx in parts:
        part = [corpus.train[i] for i in idx]
        X, y = data_mod.featurize_all(part, dc.hash_dim, fseed)
        flipped = flip_labels_oracle(part, dc.triggers, dc.src_class, dc.dst_class)
        clients.append((X.dense(), y, np.array([e.label for e in flipped], dtype=np.int64)))
    trig = set(dc.triggers)
    subset = [e for e in corpus.test if e.label == dc.src_class and set(e.tokens) & trig]
    X_asr, _ = data_mod.featurize_all(subset, dc.hash_dim, fseed)
    return clients, X_asr.dense()


def _assert_rows(S, want):
    """S densifies to `want` bit for bit, and every pair, padding included,
    holds its column's value, so a batch's scatter gives the same bits."""
    dense = S.dense()
    assert dense.tobytes() == want.tobytes()
    assert np.array_equal(S.vals, dense[np.arange(len(S))[:, None], S.cols])


def _assert_labels(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("case", ["n6", "n60", "agnews"])
def test_run_data_equals_the_per_client_path(tmp_path, case):
    cfg = tiny_cfg(attack="grmp")
    if case == "n60":
        cfg = tiny_cfg(attack="grmp", n_clients=60, n_attackers=5, data=sim.DataConfig(hash_dim=256))
    elif case == "agnews":
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_agnews_csv(train, per_class=15, seed=0)
        _write_agnews_csv(test, per_class=4, seed=1)
        cfg.data.agnews_train, cfg.data.agnews_test = str(train), str(test)
    clients, X_asr = per_client_oracle(cfg)
    state = sim._RunState(cfg)
    d = state.data
    assert len(d.clients) == cfg.n_clients
    width = {X.cols.shape[1] for X, _, _ in d.clients}
    assert len(width) == 1  # the train split's
    for (X, y, y_flipped), (want_X, want_y, want_flipped) in zip(d.clients, clients):
        _assert_rows(X, want_X)
        _assert_labels(y, want_y)
        _assert_labels(y_flipped, want_flipped)
    assert d.X_asr.tobytes() == X_asr.tobytes()
    # the grmp pool: the attackers' rows and labels in client order, the
    # flipped labels first
    pool = [clients[i] for i in state.attacker_ids]
    adv = state.adversary
    _assert_rows(adv.X, np.concatenate([X for X, _, _ in pool]))
    _assert_labels(adv.labels[1], np.concatenate([y for _, y, _ in pool]))
    _assert_labels(adv.labels[0], np.concatenate([y for _, _, y in pool]))
    assert (adv.labels[1] != adv.labels[0]).any()


def test_asr_subset_empty_error():
    cfg = tiny_cfg()
    cfg.data.trigger_rate, cfg.data.test_per_class = 1e-9, 2
    want = "ASR subset empty: no test example of class 2 holds a trigger (stock, market, earnings, profit)"
    with pytest.raises(ValueError, match=re.escape(want)):
        sim.run_experiment(cfg)


# ---------------------------------------------------------------------------
# one stealth prefix per (data key, every config field but the attack's)

RUN_FILES = ("rounds.csv", "scores.csv", "attack_trace.jsonl", "model.bin")
DESK_SEEDS = (0, 3, 7)


def _desk_cfg(attack, seed):
    # the desk experiment the paired comparison runs
    return sim.ExperimentConfig(
        attack=attack, seed=seed, data=sim.DataConfig(alpha=0.8), grmp=sim.GrmpConfig(gamma_blend=2.0)
    )


def _count_rounds(monkeypatch):
    """Counts run_round calls per run_experiment call, from here on."""
    calls = []
    real_run, real_round = sim.run_experiment, sim.run_round

    def spy_run(cfg):
        calls.append(0)
        return real_run(cfg)

    def spy_round(state, round_idx):
        calls[-1] += 1
        return real_round(state, round_idx)

    monkeypatch.setattr(sim, "run_experiment", spy_run)
    monkeypatch.setattr(sim, "run_round", spy_round)
    return calls


def _write_files(cfg, out):
    sim.write_run_dir(sim.run_experiment(cfg), str(out))
    return {name: (out / name).read_bytes() for name in RUN_FILES}


def _cold_files(cfg, out):
    sim._PREFIX_SLOT.clear()
    files = _write_files(cfg, out)
    sim._PREFIX_SLOT.clear()
    return files


@pytest.fixture(scope="module")
def desk_cold(tmp_path_factory):
    """The desk trio's files at each seed, every run computed from round one."""
    out = tmp_path_factory.mktemp("cold")
    return {
        (attack, seed): _cold_files(_desk_cfg(attack, seed), out / f"{attack}_{seed}")
        for seed in DESK_SEEDS
        for attack in ("none", "naive_flip", "grmp")
    }


@pytest.mark.parametrize("order", [("none", "naive_flip", "grmp"), ("grmp", "naive_flip", "none")])
def test_branched_desk_runs_equal_cold_runs(desk_cold, monkeypatch, tmp_path, order):
    calls = _count_rounds(monkeypatch)
    for seed in DESK_SEEDS:
        for attack in order:
            files = _write_files(_desk_cfg(attack, seed), tmp_path / f"{attack}_{seed}")
            assert files == desk_cold[attack, seed], (attack, seed)
    # the first run at each seed records rounds 1-10, the other two start at 11
    assert calls == [20, 10, 10] * len(DESK_SEEDS)


def test_naive_flip_runs_take_but_never_record(monkeypatch):
    calls = _count_rounds(monkeypatch)
    sim.run_experiment(tiny_cfg(attack="naive_flip"))
    assert sim._PREFIX_SLOT == {}
    sim.run_experiment(tiny_cfg(attack="grmp"))
    sim.run_experiment(tiny_cfg(attack="naive_flip"))
    assert calls == [3, 3, 2]


@pytest.mark.parametrize("section, key, value", [
    (None, "seed", 6),
    ("defense_params", "lambda_", 1.0),
    (None, "phase_switch_round", 3),
    (None, "n_attackers", 1),
    (None, "lr", 0.4),
])
def test_a_new_prefix_key_misses(monkeypatch, section, key, value):
    sim.run_experiment(tiny_cfg())
    calls = _count_rounds(monkeypatch)
    cfg = tiny_cfg(attack="grmp")
    setattr(getattr(cfg, section) if section else cfg, key, value)
    sim.run_experiment(cfg)
    assert calls == [3]
    assert list(sim._PREFIX_SLOT) == [sim._prefix_key(cfg)]


def test_the_attack_parameters_are_not_in_the_key(monkeypatch):
    sim.run_experiment(tiny_cfg())
    calls = _count_rounds(monkeypatch)
    cfg = tiny_cfg(attack="grmp")
    cfg.grmp.gamma_blend, cfg.grmp.stealth_margin = 2.0, 0.1
    sim.run_experiment(cfg)
    assert calls == [2]


def test_rewritten_agnews_csv_misses_the_prefix(monkeypatch, tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_agnews_csv(train, per_class=15, seed=0)
    _write_agnews_csv(test, per_class=4, seed=1)
    cfg = tiny_cfg(attack="naive_flip")
    cfg.data.agnews_train, cfg.data.agnews_test = str(train), str(test)
    sim.run_experiment(dataclasses.replace(cfg, attack="none"))
    calls = _count_rounds(monkeypatch)
    sim.run_experiment(cfg)
    _write_agnews_csv(train, per_class=16, seed=0)
    sim.run_experiment(cfg)
    assert calls == [2, 3]


def test_a_new_data_key_empties_the_prefix_slot():
    sim.run_experiment(tiny_cfg(seed=0))
    assert list(sim._PREFIX_SLOT) == [sim._prefix_key(tiny_cfg(seed=0))]
    sim._RunState(tiny_cfg(seed=1))
    # a process holds one seed's data set and stealth prefix at a time
    assert sim._PREFIX_SLOT == {}
    assert list(sim._DATA_SLOT) == [sim._data_key(tiny_cfg(seed=1))]


@pytest.mark.parametrize("between", ["none", "naive_flip"])
def test_a_b_a_equals_cold_runs(tmp_path, between):
    # A's prefix is recorded; B at another seed replaces the data set, which
    # empties the prefix slot, and records its own prefix (none) or none
    # (naive_flip); A's grmp run equals a cold one
    sim.run_experiment(tiny_cfg())
    sim.run_experiment(tiny_cfg(attack=between, seed=6))
    again = _write_files(tiny_cfg(attack="grmp"), tmp_path / "again")
    assert again == _cold_files(tiny_cfg(attack="grmp"), tmp_path / "cold")


def test_prefix_arrays_are_read_only():
    sim.run_experiment(tiny_cfg(rounds=4, phase_switch_round=4))
    (prefix,) = sim._PREFIX_SLOT.values()
    assert len(prefix.records) == 3 and len(prefix.history) == 3
    for a in (prefix.params, prefix.prev_aggregate, *prefix.history):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    # each history entry is one round's benign rows
    assert {m.shape[0] for m in prefix.history} == {4}


@pytest.mark.parametrize("attack", ["none", "grmp"])
def test_prefix_history_holds_each_rounds_non_attacker_rows(monkeypatch, attack):
    submitted = []
    real = defense.apply_defense

    def spy(name, updates, *args):
        submitted.append(updates.copy())
        return real(name, updates, *args)

    monkeypatch.setattr(defense, "apply_defense", spy)
    cfg = tiny_cfg(attack=attack, rounds=4, phase_switch_round=4)
    sim.run_experiment(cfg)
    (prefix,) = sim._PREFIX_SLOT.values()
    benign = [i for i in range(cfg.n_clients) if i not in sim._RunState(cfg).attacker_ids]
    assert len(benign) == 4 and len(prefix.history) == 3 and len(submitted) == 4
    for entry, updates in zip(prefix.history, submitted):
        assert entry.tobytes() == updates[benign].tobytes()


@pytest.mark.parametrize("attack", ["none", "grmp"])
def test_switch_at_round_one_records_nothing(attack):
    sim.run_experiment(tiny_cfg(attack=attack, phase_switch_round=1))
    assert sim._PREFIX_SLOT == {}


def test_switch_after_the_last_round_branches_to_no_further_rounds(monkeypatch, tmp_path):
    cfg = tiny_cfg(phase_switch_round=4)  # rounds=3: no exploit round
    sim.run_experiment(cfg)
    calls = _count_rounds(monkeypatch)
    branched = _write_files(tiny_cfg(attack="grmp", phase_switch_round=4), tmp_path / "branched")
    assert calls == [0]
    assert branched == _cold_files(tiny_cfg(attack="grmp", phase_switch_round=4), tmp_path / "cold")


# ---------------------------------------------------------------------------
# krum's certified pick

def _cohort_cfg(rule):
    # the large_cohort benchmark's experiment, cut to three rounds with two exploit rounds
    return sim.ExperimentConfig(
        n_clients=60, n_attackers=12, rounds=3, phase_switch_round=2, attack="naive_flip",
        defense=rule, defense_params=defense.DefenseParams(f=12, m=30),
    )


@pytest.mark.parametrize("rule", ["krum", "multi_krum"])
def test_certified_gram_pick_writes_the_exact_pass_bytes(monkeypatch, tmp_path, rule):
    picks = []
    real = defense.gram_selection

    def spy(updates, f, m):
        picks.append(real(updates, f, m))
        return picks[-1]

    monkeypatch.setattr(defense, "gram_selection", spy)
    gram = _cold_files(_cohort_cfg(rule), tmp_path / "gram")
    # every round's pick came from the Gram ranking
    assert len(picks) == 3 and all(p is not None for p in picks)
    monkeypatch.setattr(defense, "gram_selection", lambda updates, f, m: None)
    assert _cold_files(_cohort_cfg(rule), tmp_path / "exact") == gram


# ---------------------------------------------------------------------------
# attacker placement

def test_attacker_ids_hold_most_flippable_data():
    cfg = tiny_cfg()
    state = sim._RunState(cfg)
    flippable = [int(np.sum(y != y_flipped)) for _, y, y_flipped in state.data.clients]
    others = [flippable[i] for i in range(cfg.n_clients) if i not in state.attacker_ids]
    assert min(flippable[i] for i in state.attacker_ids) >= max(others)
    assert len(state.attacker_ids) == cfg.n_attackers


# ---------------------------------------------------------------------------
# failure wrapping

def test_round_failure_is_wrapped_with_round_number(monkeypatch):
    def failing_fit(*args):
        raise ValueError("VGAE fit failed")

    # the VGAE is fit in the first exploit round, round 2
    monkeypatch.setattr(grmp, "fit_vgae", failing_fit)
    with pytest.raises(RuntimeError, match="round 2 failed: VGAE fit failed"):
        sim.run_experiment(tiny_cfg(attack="grmp"))


def test_non_finite_aggregate_fails_the_round(monkeypatch):
    def nan_defense(name, updates, weights, cosines, params):
        aggregate = np.full(updates.shape[1], np.nan)
        return defense.AggregationReport(aggregate=aggregate, accepted=np.ones(len(updates), dtype=bool))

    # every row finite: the message names no client
    with monkeypatch.context() as m:
        m.setattr(defense, "apply_defense", nan_defense)
        with pytest.raises(RuntimeError, match="^round 1 failed: fedavg aggregate is not finite$"):
            sim.run_experiment(tiny_cfg(defense="fedavg"))

    # client 0 submits a NaN in round 1: the message names it
    cfg = tiny_cfg()
    real_train = model.local_train

    def nan_row_train(params, X, y, epochs, lr, batch_size, seed):
        row = real_train(params, X, y, epochs, lr, batch_size, seed)
        if seed == model.child_seed(cfg.seed, "train", 1, 0):
            row[0] = np.nan
        return row

    monkeypatch.setattr(model, "local_train", nan_row_train)
    for rule in ("fedavg", "coord_median", "geometric_median"):
        with pytest.raises(
            RuntimeError,
            match=rf"^round 1 failed: {rule} aggregate is not finite; non-finite rows from clients \[0\]$",
        ):
            sim.run_experiment(tiny_cfg(defense=rule))


# ---------------------------------------------------------------------------
# seed derivation

def test_child_seed_stable_and_tag_sensitive():
    a = model.child_seed(42, "train", 3, 1)
    assert a == model.child_seed(42, "train", 3, 1)
    assert a != model.child_seed(42, "train", 3, 2)
    assert a != model.child_seed(43, "train", 3, 1)
    assert a != model.child_seed(42, "poison", 3, 1)


# ---------------------------------------------------------------------------
# flat config mapping

def test_config_flat_round_trip():
    cfg = tiny_cfg(attack="grmp", defense="krum")
    cfg.defense_params.lambda_ = 2.0
    flat = sim.config_to_flat(cfg)
    assert "defense.lambda" in flat  # trailing underscore stripped
    assert flat["data.triggers"] == ",".join(cfg.data.triggers)
    back = sim.config_from_flat(flat)
    assert back == cfg


def test_config_from_flat_coerces_strings():
    cfg = sim.config_from_flat({
        "rounds": "7", "phase_switch_round": "8", "lr": "0.25",
        "data.triggers": "a,b",
    })
    assert cfg.rounds == 7 and cfg.lr == 0.25
    assert cfg.data.triggers == ("a", "b")


def test_config_from_flat_strips_trigger_pieces():
    cfg = sim.config_from_flat({"data.triggers": "gold, silver"})
    assert cfg.data.triggers == ("gold", "silver")
    assert sim.config_from_flat({"data.triggers": " gold ,, silver,"}).data.triggers == ("gold", "silver")
    with pytest.raises(ValueError, match="'Silver' is not a token"):
        sim.config_from_flat({"data.triggers": "gold, Silver"})


def test_config_from_flat_unknown_key():
    with pytest.raises(ValueError, match="unknown config keys"):
        sim.config_from_flat({"grmp.warp_factor": "9"})


def test_config_from_flat_bad_type():
    cases = [
        ({"rounds": "many"}, "rounds: expected int"),
        # JSON-typed values get the same check as text
        ({"rounds": 12.5, "phase_switch_round": 11}, "rounds: expected int"),
        ({"rounds": True, "phase_switch_round": 1}, "rounds: expected int"),
        ({"lr": True}, "lr: expected float"),
        ({"data.triggers": ["stock"]}, "data.triggers: expected comma-separated string"),
    ]
    for flat, message in cases:
        with pytest.raises(ValueError, match=message):
            sim.config_from_flat(flat)


def test_config_from_flat_converts_json_numbers():
    cfg = sim.config_from_flat({"lr": 1, "rounds": 12.0, "phase_switch_round": 11})
    assert cfg.lr == 1.0 and type(cfg.lr) is float
    assert cfg.rounds == 12 and type(cfg.rounds) is int


def test_config_from_flat_empty_is_defaults():
    cfg = sim.config_from_flat({})
    assert cfg.n_clients == 6 and cfg.n_attackers == 2
    assert cfg.rounds == 20 and cfg.seed == 42
    assert cfg.defense_params.lambda_ == 1.5


# ---------------------------------------------------------------------------
# run directory

def test_write_run_dir_artifacts_and_reproducibility(tmp_path):
    cfg = tiny_cfg(attack="grmp")
    res = sim.run_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sim.write_run_dir(res, str(d1))
    # the run's five files and nothing else
    assert sorted(os.listdir(d1)) == ["attack_trace.jsonl", "config.json", "model.bin", "rounds.csv", "scores.csv"]
    # config snapshot rebuilds the identical config
    import json

    cfg_back = sim.config_from_flat(json.loads((d1 / "config.json").read_text()))
    assert cfg_back == cfg
    # rerun from the snapshot is byte-identical
    sim.write_run_dir(sim.run_experiment(cfg_back), str(d2))
    for name in ("rounds.csv", "scores.csv", "attack_trace.jsonl", "model.bin"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert len((d1 / "attack_trace.jsonl").read_text().splitlines()) == 2
    # checkpoint round trip
    assert np.array_equal(model.load_params(str(d1 / "model.bin")), res.final_params)
