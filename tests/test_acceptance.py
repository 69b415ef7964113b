"""Acceptance gate. One test per criterion; each prints a single PASS/FAIL
line (bypassing capture) before asserting. Tolerances are pinned here and
nowhere loosened.

Desk experiment shared by criteria 4-6: 6 clients / 2 attackers / 20 rounds /
cosine filter lambda=1.5 / phase switch at round 11 / synthetic corpus
(alpha=0.8, trigger_rate=0.2) / gamma_blend=2.0, seeds 0..9, with paired
naive_flip and clean runs per seed.
"""

import statistics
import time

import numpy as np
import pytest

import conftest
from fedpoison import cli, data, defense, grmp, model, sim
from test_grmp import vgae_loss
from test_model import loss_and_grad


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# local oracles (independent of the library code under test)

def _krum_oracle(u, f):
    n, d = u.shape
    k = n - f - 2
    return np.array([
        sum(sorted(
            sum((u[i][c] - u[j][c]) ** 2 for c in range(d))
            for j in range(n) if j != i
        )[:k])
        for i in range(n)
    ])


def _trimmed_oracle(u, beta):
    n, d = u.shape
    return np.array([np.mean(sorted(u[:, c])[beta: n - beta]) for c in range(d)])


def _median_oracle(u):
    out = []
    for c in range(u.shape[1]):
        col = sorted(u[:, c])
        m = len(col)
        out.append(col[m // 2] if m % 2 else 0.5 * (col[m // 2 - 1] + col[m // 2]))
    return np.array(out)


def _geomedian_grid(u, rounds=4, width=4.0, steps=9):
    """Sum of distances to the rows of u, minimised over a grid refined
    around its best point: steps^d points per round, all scored at once."""
    center = u.mean(axis=0)
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
        vals = np.sqrt(((grid[:, None, :] - u) ** 2).sum(axis=-1)).sum(axis=-1)
        best = int(np.argmin(vals))  # the first minimum, as a scan in grid order
        center = grid[best]
        width = 2 * width / (steps - 1)
    return vals[best]


def _components(A):
    n = len(A)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if A[i, j] > 0:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def _fd(fun, params_dict, h=1e-6):
    """Central finite differences over a dict of weight arrays."""
    grads = {}
    for name, W in params_dict.items():
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            up = {k: v.copy() for k, v in params_dict.items()}
            dn = {k: v.copy() for k, v in params_dict.items()}
            up[name][idx] += h
            dn[name][idx] -= h
            g[idx] = (fun(up) - fun(dn)) / (2 * h)
        grads[name] = g
    return grads


def _random_graph(rng, n):
    A = (rng.random((n, n)) < 0.4).astype(float)
    A = np.triu(A, 1)
    return A + A.T


# ---------------------------------------------------------------------------
# criterion 1: aggregation rules vs oracles

def test_criterion_1_aggregation_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 7))
        f = int(rng.integers(1, n - 2))
        u = rng.standard_normal((n, d))
        (idx,), _ = defense.multi_krum(u, f, 1)
        scores = defense.krum_scores(u, f)
        oracle = _krum_oracle(u, f)
        ok_krum = idx == int(np.argmin(oracle)) and np.allclose(scores, oracle, atol=1e-9)
        beta = int(rng.integers(0, (n - 1) // 2 + 1))
        err_tm = np.abs(defense.trimmed_mean(u, beta) - _trimmed_oracle(u, beta)).max()
        median = defense.apply_defense("coord_median", u, np.ones(n), np.ones(n), defense.DefenseParams()).aggregate
        err_md = np.abs(median - _median_oracle(u)).max()
        pts = rng.standard_normal((5, 3))
        x = defense.geometric_median(pts)
        obj = sum(np.linalg.norm(row - x) for row in pts)
        err_gm = obj - _geomedian_grid(pts)
        worst = max(worst, err_tm, err_md, err_gm)
        if not (ok_krum and err_tm <= 1e-12 and err_md <= 1e-12
                and err_gm <= 1e-3):
            _report(1, "aggregation-oracles", False, f"seed {seed} failed")
    elapsed = time.perf_counter() - t0
    _report(1, "aggregation-oracles", elapsed < 10.0,
            f"100 instances, worst err {worst:.2e}, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# criterion 2: gradients vs finite differences + Laplacian structure

def test_criterion_2_gradients_and_laplacian():
    t0 = time.perf_counter()
    worst = 0.0
    # classifier gradients, 10 instances
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal((8, 5))
        y = rng.integers(0, 4, size=8)
        params = 0.1 * rng.standard_normal(20)
        _, g = loss_and_grad(params, X, y, 4)
        fd = _fd(lambda p: loss_and_grad(p["w"], X, y, 4)[0], {"w": params})["w"]
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        if rel > 1e-4:
            _report(2, "gradients-laplacian", False, f"classifier seed {seed} rel {rel:.2e}")
    # VGAE gradients, 10 instances
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        X = rng.standard_normal((4, 5))
        g_upd = grmp.build_update_graph(X, -1.0)  # fully connected, stable
        p = grmp.init_vgae(5, 4, 2, seed)
        eps = rng.standard_normal((4, 2))

        def loss_of(d):
            pp = grmp.VgaeParams(W0=d["W0"], W_mu=d["W_mu"], W_logvar=d["W_logvar"])
            mu, lv = grmp.vgae_encode(pp, g_upd)
            A_hat = grmp.vgae_decode(mu + np.exp(0.5 * lv) * eps)
            return vgae_loss(A_hat, g_upd.A, mu, lv)[0]

        s = grmp.stack_graphs([g_upd])
        P = s.AX[0]
        grads = grmp.vgae_grads(p, s, (P @ p.W0)[None], eps[None])
        grads["W0"] = P.T @ grads["Hpre"][0]
        fd = _fd(loss_of, {"W0": p.W0, "W_mu": p.W_mu, "W_logvar": p.W_logvar})
        # the fit's coordinates: W0 = W0_init + P^T C, gradient K dHpre, at C
        # away from 0 so the Gram term K C is exercised
        K = P @ P.T
        C = 0.1 * rng.standard_normal((4, 4))
        grads["C"] = K @ grmp.vgae_grads(p, s, (P @ p.W0 + K @ C)[None], eps[None])["Hpre"][0]
        fd["C"] = _fd(lambda d: loss_of({"W0": p.W0 + P.T @ d["C"], "W_mu": p.W_mu, "W_logvar": p.W_logvar}),
                      {"C": C})["C"]
        for name in fd:
            rel = np.linalg.norm(grads[name] - fd[name]) / max(np.linalg.norm(fd[name]), 1e-12)
            worst = max(worst, rel)
            if rel > 1e-4:
                _report(2, "gradients-laplacian", False, f"vgae {name} seed {seed} rel {rel:.2e}")
    # Laplacian reconstruction + zero-eigenvalue multiplicity, 50 graphs
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 13))
        A = _random_graph(rng, n)
        L, U, Lambda = grmp._laplacian_basis(A)
        recon = np.abs(U @ np.diag(Lambda) @ U.T - L).max()
        zeros = int(np.sum(np.abs(Lambda) < 1e-8))
        if recon > 1e-6 or zeros != _components(A):
            _report(2, "gradients-laplacian", False,
                    f"graph seed {seed}: recon {recon:.2e}, zeros {zeros} vs {_components(A)}")
    elapsed = time.perf_counter() - t0
    _report(2, "gradients-laplacian", elapsed < 30.0,
            f"10+10 FD instances worst rel {worst:.2e}, 50 graphs, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# criterion 3: graph-spectral round trip and energy conservation

def test_criterion_3_gsp_round_trip():
    worst_rt = worst_fro = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(3, 9))
        g = grmp.build_update_graph(rng.standard_normal((n, 6)), 0.0)
        S_hat = grmp.gsp_decompose(g)
        worst_rt = max(worst_rt, np.abs(grmp.gsp_synthesize(S_hat, g.A) - g.X).max())
        A_adv = _random_graph(rng, n)
        X_syn = grmp.gsp_synthesize(S_hat, A_adv)
        worst_fro = max(worst_fro, abs(np.linalg.norm(X_syn) - np.linalg.norm(g.X)))
    ok = worst_rt <= 1e-6 and worst_fro <= 1e-6
    _report(3, "gsp-round-trip", ok,
            f"20 instances, round trip {worst_rt:.2e}, Frobenius drift {worst_fro:.2e}, tol 1e-6")


# ---------------------------------------------------------------------------
# criteria 4-6: the desk experiment

def _desk_cfg(attack: str, seed: int) -> sim.ExperimentConfig:
    return sim.ExperimentConfig(
        attack=attack,
        seed=seed,
        data=sim.DataConfig(alpha=0.8, trigger_rate=0.2),
        grmp=sim.GrmpConfig(gamma_blend=2.0, poison_epochs=10),
    )


def _cold_run(cfg: sim.ExperimentConfig) -> sim.ExperimentResult:
    # every run computes its own stealth phase: criterion 6 compares two of
    # them, not one recorded prefix with itself
    sim._PREFIX_SLOT.clear()
    return sim.run_experiment(cfg)


@pytest.fixture(scope="module")
def desk_sweep():
    t0 = time.perf_counter()
    per_seed = []
    for s in range(10):
        ids = sim._RunState(_desk_cfg("grmp", s)).attacker_ids
        per_seed.append({
            "ids": ids,
            "grmp": _cold_run(_desk_cfg("grmp", s)),
            "naive": _cold_run(_desk_cfg("naive_flip", s)),
            "clean": _cold_run(_desk_cfg("none", s)),
        })
    return {"seeds": per_seed, "elapsed": time.perf_counter() - t0,
            "switch": _desk_cfg("grmp", 0).phase_switch_round}


def test_criterion_4_filter_evasion(desk_sweep):
    switch = desk_sweep["switch"]
    acc_fracs, rej_fracs = [], []
    for entry in desk_sweep["seeds"]:
        ids = entry["ids"]
        exploit_g = [r for r in entry["grmp"].records if r.round >= switch]
        exploit_n = [r for r in entry["naive"].records if r.round >= switch]
        acc_fracs.append(np.mean([all(r.accepted[i] for i in ids) for r in exploit_g]))
        rej_fracs.append(np.mean([not all(r.accepted[i] for i in ids) for r in exploit_n]))
    med_acc = statistics.median(acc_fracs)
    med_rej = statistics.median(rej_fracs)
    ok = med_acc >= 0.95 and med_rej >= 0.80 and desk_sweep["elapsed"] < 300.0
    _report(4, "filter-evasion", ok,
            f"median grmp accepted {med_acc:.2f} >= 0.95, "
            f"median naive rejected {med_rej:.2f} >= 0.80, "
            f"sweep {desk_sweep['elapsed']:.0f}s < 300s")


def test_criterion_5_attack_effect(desk_sweep):
    asr, clean_asr, acc_gap = [], [], []
    for entry in desk_sweep["seeds"]:
        asr.append(entry["grmp"].records[-1].asr)
        clean_asr.append(entry["clean"].records[-1].asr)
        acc_gap.append(entry["clean"].records[-1].accuracy - entry["grmp"].records[-1].accuracy)
    med_asr = statistics.median(asr)
    med_clean = statistics.median(clean_asr)
    med_gap = statistics.median(acc_gap)
    ratio_ok = med_asr >= 5 * med_clean if med_clean > 0 else med_asr > 0
    ok = med_asr >= 0.40 and ratio_ok and med_gap <= 0.05
    _report(5, "attack-effect", ok,
            f"median final ASR {med_asr:.2f} >= 0.40, clean baseline {med_clean:.2f}, "
            f"median accuracy gap {med_gap:.3f} <= 0.05")


def test_criterion_6_stealth_phase(desk_sweep):
    switch = desk_sweep["switch"]
    gaps = []
    for entry in desk_sweep["seeds"]:
        clean_by_round = {r.round: r.asr for r in entry["clean"].records}
        gaps.append(max(
            r.asr - clean_by_round[r.round]
            for r in entry["grmp"].records if r.round < switch
        ))
    med_gap = statistics.median(gaps)
    _report(6, "stealth-phase", med_gap <= 0.02,
            f"median max stealth-round ASR gap {med_gap:.4f} <= 0.02")


# ---------------------------------------------------------------------------
# criterion 7: crude large-norm attacker vs distance defenses

def test_criterion_7_norm_outlier_contained():
    cfg = sim.ExperimentConfig(
        data=sim.DataConfig(train_per_class=50, test_per_class=10,
                            trigger_rate=0.5, hash_dim=64),
    )
    ok = True
    detail = ""
    for seed in range(10):
        cfg.seed = seed
        state = sim._RunState(cfg)
        deltas = np.stack([
            model.local_train(
                state.params, X, y, data.N_CLASSES, cfg.local_epochs,
                cfg.lr, cfg.batch_size, sim._child_seed(seed, "train", 1, i),
            )
            for i, (X, y, _) in enumerate(state.data.clients)
        ])
        attackers = list(state.attacker_ids)
        deltas[attackers] *= 100.0
        benign = np.delete(deltas, attackers, axis=0)
        (idx,), _ = defense.multi_krum(deltas, f=2, m=1)
        agg = defense.trimmed_mean(deltas, beta=2)
        lo, hi = benign.min(axis=0), benign.max(axis=0)
        inside = ((agg >= lo - 1e-12) & (agg <= hi + 1e-12)).all()
        if idx in attackers or not inside:
            ok = False
            detail = f"seed {seed}: krum pick {idx}, trimmed-mean inside={inside}"
            break
    _report(7, "norm-outlier-contained", ok,
            detail or "10 seeds: krum never picks the 100x rows, trimmed mean stays in benign bounds")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical rerun from a config snapshot

def test_criterion_8_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    code1 = cli.main(["scenario", "baseline_clean", "--out", str(a)])
    code2 = cli.main(["run", "--config", str(a / "config.json"), "--out", str(b)])
    same = (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()
    _report(8, "byte-identical-rerun", code1 == 0 and code2 == 0 and same,
            "scenario snapshot rerun reproduces rounds.csv byte-for-byte")
