"""Attack pipeline: graph construction, VGAE losses/gradients, spectral
synthesis, dual search, stealth projection. Oracles are independent scalar
reimplementations plus finite differences and a Jacobi eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedpoison import grmp
from fedpoison.defense import cosine


def _graph(seed, n=5, d=6, tau=0.3):
    X = np.random.default_rng(seed).standard_normal((n, d))
    return grmp.build_update_graph(X, tau)


def _params(seed, d=6, h=4, k=2):
    return grmp.init_vgae(d, h, k, seed)


# ---------------------------------------------------------------------------
# oracles

def encode_oracle(params, g):
    """Straight-line GCN forward pass written without reuse of the library
    helpers."""
    n = len(g.A)
    At = g.A + np.eye(n)
    deg = At.sum(axis=1)
    An = np.array([[At[i, j] / np.sqrt(deg[i] * deg[j]) for j in range(n)]
                   for i in range(n)])
    H = An @ g.X @ params.W0
    H[H < 0] = 0.0
    M = An @ H
    return M @ params.W_mu, M @ params.W_logvar


def recon_bce_oracle(A_hat, A):
    """Scalar double loop over off-diagonal entries."""
    n = len(A)
    edges = A.sum()
    w = (n * (n - 1) - edges) / edges if edges > 0 else 1.0
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = min(max(A_hat[i, j], 1e-7), 1 - 1e-7)
            total += -(w * A[i, j] * np.log(p) + (1 - A[i, j]) * np.log(1 - p))
    return total / (n * (n - 1))


def vgae_loss(A_hat, A, mu, logvar):
    """(total, reconstruction BCE, KL to the standard normal): the ELBO whose
    finite differences check the analytic VGAE gradients."""
    recon = grmp.recon_bce(A_hat, A)
    kl = -0.5 * float(np.mean(1.0 + logvar - mu**2 - np.exp(logvar)))
    return recon + kl, recon, kl


def fix_signs_loop(U):
    """Sign fixing one column at a time: the largest-magnitude entry, the
    lowest index on ties, made positive."""
    U = U.copy()
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return U


def kl_oracle(mu, logvar):
    total = 0.0
    for m, lv in zip(mu.ravel(), logvar.ravel()):
        total += -0.5 * (1 + lv - m * m - np.exp(lv))
    return total / mu.size


def jacobi_eigenvalues(M, sweeps=100, tol=1e-12):
    """Classic Jacobi rotation eigensolver for symmetric matrices."""
    A = M.astype(float).copy()
    n = len(A)
    for _ in range(sweeps):
        off = np.sqrt(sum(A[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-15:
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def component_count(A):
    """Union-find connected components."""
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


# ---------------------------------------------------------------------------
# graph construction

def test_build_update_graph_matches_pairwise_cosine():
    g = _graph(0, n=6)
    for i in range(6):
        assert g.A[i, i] == 0.0
        for j in range(6):
            if i != j:
                expect = 1.0 if cosine(g.X[i], g.X[j]) >= 0.3 else 0.0
                assert g.A[i, j] == expect
    assert np.array_equal(g.A, g.A.T)


# ---------------------------------------------------------------------------
# VGAE forward / loss

def test_encode_matches_straight_line_oracle():
    g = _graph(1)
    p = _params(2)
    mu, lv = grmp.vgae_encode(p, g)
    omu, olv = encode_oracle(p, g)
    assert np.allclose(mu, omu, atol=1e-12)
    assert np.allclose(lv, olv, atol=1e-12)


def test_decode_symmetric_in_unit_interval():
    Z = np.random.default_rng(3).standard_normal((5, 2))
    A_hat = grmp.vgae_decode(Z)
    assert np.allclose(A_hat, A_hat.T)
    assert ((A_hat > 0) & (A_hat < 1)).all()


@pytest.mark.parametrize("seed", range(5))
def test_losses_match_scalar_oracles(seed):
    g = _graph(10 + seed)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((len(g.A), 2))
    mu = rng.standard_normal((len(g.A), 2))
    lv = 0.3 * rng.standard_normal((len(g.A), 2))
    A_hat = grmp.vgae_decode(Z)
    total, recon, kl = vgae_loss(A_hat, g.A, mu, lv)
    assert np.isclose(recon, recon_bce_oracle(A_hat, g.A), atol=1e-10)
    assert np.isclose(kl, kl_oracle(mu, lv), atol=1e-10)
    assert np.isclose(total, recon + kl)


def test_vgae_gradients_match_finite_differences():
    g = _graph(20, n=4, d=5)
    p = _params(21, d=5, h=4, k=2)
    eps = np.random.default_rng(22).standard_normal((4, 2))

    def loss_of(params):
        # the ELBO at the fixed draw eps, from the public stages
        mu, lv = grmp.vgae_encode(params, g)
        total, _, _ = vgae_loss(grmp.vgae_decode(mu + np.exp(0.5 * lv) * eps), g.A, mu, lv)
        return total

    s = grmp.stack_graphs([g])
    grads = grmp.vgae_grads(p, s, s.AX @ p.W0, eps[None])
    grads["W0"] = s.AX[0].T @ grads["Hpre"][0]
    h = 1e-6
    for name in ("W0", "W_mu", "W_logvar"):
        W = getattr(p, name)
        fd = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            Wu = W.copy()
            Wu[idx] += h
            Wd = W.copy()
            Wd[idx] -= h
            pu = grmp.VgaeParams(**{**{f: getattr(p, f) for f in ("W0", "W_mu", "W_logvar")}, name: Wu})
            pd = grmp.VgaeParams(**{**{f: getattr(p, f) for f in ("W0", "W_mu", "W_logvar")}, name: Wd})
            fd[idx] = (loss_of(pu) - loss_of(pd)) / (2 * h)
        rel = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4, f"{name}: rel err {rel}"


def test_vgae_row_space_gradient_matches_finite_differences():
    # the fit steps C in W0 = W0_init + P^T C, whose gradient is K dHpre
    graphs = [_graph(s, n=4, d=7, tau=-1.0) for s in (30, 31)]
    p = _params(32, d=7, h=5, k=2)
    eps = np.random.default_rng(33).standard_normal((2, 4, 2))
    s = grmp.stack_graphs(graphs)
    P = s.AX.reshape(8, 7)
    C = 0.1 * np.random.default_rng(34).standard_normal((8, 5))

    def loss_of(C):
        params = grmp.VgaeParams(W0=p.W0 + P.T @ C, W_mu=p.W_mu, W_logvar=p.W_logvar)
        total = 0.0
        for g, e in zip(graphs, eps):
            mu, lv = grmp.vgae_encode(params, g)
            total += vgae_loss(grmp.vgae_decode(mu + np.exp(0.5 * lv) * e), g.A, mu, lv)[0]
        return total

    K = P @ P.T
    Hpre = (P @ p.W0 + K @ C).reshape(2, 4, 5)
    dC = K @ grmp.vgae_grads(p, s, Hpre, eps)["Hpre"].reshape(8, 5)
    h = 1e-6
    fd = np.zeros_like(C)
    for idx in np.ndindex(C.shape):
        Cu, Cd = C.copy(), C.copy()
        Cu[idx] += h
        Cd[idx] -= h
        fd[idx] = (loss_of(Cu) - loss_of(Cd)) / (2 * h)
    rel = np.linalg.norm(dC - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel <= 1e-4, f"C: rel err {rel}"


def test_fit_vgae_reduces_loss():
    graphs = [_graph(s, n=6) for s in range(3)]
    rng = np.random.default_rng(0)

    def total_loss(params):
        out = 0.0
        for g in graphs:
            mu, lv = grmp.vgae_encode(params, g)
            t, _, _ = vgae_loss(grmp.vgae_decode(mu), g.A, mu, lv)
            out += t
        return out

    p0 = grmp.init_vgae(6, 4, 2, seed=1)
    p1 = grmp.fit_vgae(graphs, 4, 2, epochs=150, lr=0.02, seed=1)
    assert total_loss(p1) < total_loss(p0)


def per_graph_fit_oracle(graphs, h, k, epochs, lr, seed):
    """The fit as one forward/backward pass per graph and epoch, stepping the
    dense W0 by its gradients summed in graph order."""
    params = grmp.init_vgae(graphs[0].X.shape[1], h, k, seed)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        acc = {"W0": 0.0, "W_mu": 0.0, "W_logvar": 0.0}
        for g in graphs:
            eps = rng.standard_normal((len(g.X), k))
            n = len(g.A)
            A_tilde = g.A + np.eye(n)
            dinv = 1.0 / np.sqrt(A_tilde.sum(axis=1))
            An = A_tilde * dinv[:, None] * dinv[None, :]
            AX = An @ g.X
            Hpre = AX @ params.W0
            M = An @ np.maximum(Hpre, 0.0)
            mu, logvar = M @ params.W_mu, M @ params.W_logvar
            std = np.exp(0.5 * logvar)
            Z = mu + std * eps
            A_hat = 1.0 / (1.0 + np.exp(-(Z @ Z.T)))
            # d recon / dZ
            edges = g.A.sum()
            w = float((n * (n - 1) - edges) / edges) if edges > 0 else 1.0
            p = np.clip(A_hat, 1e-7, 1.0 - 1e-7)
            dp = (-(w * g.A / p) + (1.0 - g.A) / (1.0 - p)) / (n * (n - 1))
            dp = dp * ~np.eye(n, dtype=bool)
            unclamped = (A_hat > 1e-7) & (A_hat < 1.0 - 1e-7)
            dS = dp * A_hat * (1.0 - A_hat) * unclamped
            dZ = (dS + dS.T) @ Z
            N = n * k
            dmu = dZ + mu / N
            dlogvar = dZ * eps * 0.5 * std + (np.exp(logvar) - 1.0) / (2.0 * N)
            dM = dmu @ params.W_mu.T + dlogvar @ params.W_logvar.T
            dHpre = (An @ dM) * (Hpre > 0.0)
            acc["W0"] = acc["W0"] + AX.T @ dHpre
            acc["W_mu"] = acc["W_mu"] + M.T @ dmu
            acc["W_logvar"] = acc["W_logvar"] + M.T @ dlogvar
        params.W0 -= lr * acc["W0"]
        params.W_mu -= lr * acc["W_mu"]
        params.W_logvar -= lr * acc["W_logvar"]
    return params


# The fit steps W0 in the row space of the An @ X rows: the same iterates as
# the dense oracle in real arithmetic, not the same floating-point sums, so
# the weights must agree to a stated relative tolerance (worst seen: 7e-16).
FIT_RTOL = 1e-12


def _assert_fit_matches_oracle(graphs, h, k, epochs, lr, seed):
    fit = grmp.fit_vgae(graphs, h, k, epochs, lr, seed)
    ref = per_graph_fit_oracle(graphs, h, k, epochs, lr, seed)
    init = grmp.init_vgae(graphs[0].X.shape[1], h, k, seed)
    for name in ("W0", "W_mu", "W_logvar"):
        want = getattr(ref, name)
        rel = np.linalg.norm(getattr(fit, name) - want) / np.linalg.norm(want)
        assert rel <= FIT_RTOL, f"{name}: rel err {rel}"
        assert not np.array_equal(getattr(fit, name), getattr(init, name)), name


@pytest.mark.parametrize("G", [1, 3, 10])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_fit_vgae_matches_per_graph_oracle_bit_for_bit(G, n):
    # (the id predates the row-space fit; the bar is FIT_RTOL, not bit equality)
    rng = np.random.default_rng(100 * G + n)
    # thresholds from -1 (complete graph) to 1 (no edges) vary the edge weight;
    # with d = 8 < G * n the Gram matrix is wider than the inputs
    graphs = [
        grmp.build_update_graph(rng.standard_normal((n, 8)), float(rng.uniform(-1.0, 1.0)))
        for _ in range(G)
    ]
    _assert_fit_matches_oracle(graphs, 6, 3, epochs=25, lr=0.05, seed=G + n)


def test_fit_vgae_matches_per_graph_oracle_at_desk_shapes():
    # ten history graphs of four benign updates of 4096 weights, h=32, k=8,
    # for the desk's full 200 epochs
    rng = np.random.default_rng(7)
    graphs = [grmp.build_update_graph(1e-2 * rng.standard_normal((4, 4096)), 0.3) for _ in range(10)]
    _assert_fit_matches_oracle(graphs, 32, 8, epochs=200, lr=0.01, seed=7)


def test_fit_vgae_zero_epochs_returns_the_init():
    graphs = [_graph(s, n=4) for s in range(3)]
    fit = grmp.fit_vgae(graphs, 4, 2, epochs=0, lr=0.01, seed=5)
    init = grmp.init_vgae(6, 4, 2, seed=5)
    for name in ("W0", "W_mu", "W_logvar"):
        assert np.array_equal(getattr(fit, name), getattr(init, name)), name


# ---------------------------------------------------------------------------
# spectral decomposition

@pytest.mark.parametrize("seed", range(10))
def test_laplacian_reconstruction_and_components(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(2, 13))
    A = (rng.random((n, n)) < 0.35).astype(float)
    A = np.triu(A, 1)
    A = A + A.T
    L, U, Lambda = grmp._laplacian_basis(A)
    # L is the combinatorial Laplacian D - A, built here independently
    assert np.array_equal(L, np.diag(A.sum(axis=1)) - A)
    # U diag(Lambda) U^T reconstructs L
    assert np.abs(U @ np.diag(Lambda) @ U.T - L).max() <= 1e-6
    # zero-eigenvalue multiplicity = number of connected components
    assert int(np.sum(np.abs(Lambda) < 1e-8)) == component_count(A)
    # eigenvalues agree with the Jacobi oracle
    assert np.allclose(np.sort(Lambda), jacobi_eigenvalues(L), atol=1e-8)
    # the benign graph's spectral coefficients are U^T X in this basis
    X = rng.standard_normal((n, 3))
    assert np.array_equal(grmp.gsp_decompose(grmp.UpdateGraph(X=X, A=A)), U.T @ X)


def test_gsp_round_trip_identity():
    g = _graph(30, n=6)
    X_back = grmp.gsp_synthesize(grmp.gsp_decompose(g), g.A)
    assert np.abs(X_back - g.X).max() <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_gsp_energy_conserved_across_adjacency_change(seed):
    g = _graph(40 + seed, n=6)
    S_hat = grmp.gsp_decompose(g)
    rng = np.random.default_rng(seed)
    A_adv = (rng.random((6, 6)) < 0.5).astype(float)
    A_adv = np.triu(A_adv, 1)
    A_adv = A_adv + A_adv.T
    X_syn = grmp.gsp_synthesize(S_hat, A_adv)
    assert abs(np.linalg.norm(X_syn) - np.linalg.norm(g.X)) <= 1e-6


def _connected_adjacency(draw, n):
    A = np.zeros((n, n))
    for i in range(1, n):  # a random spanning tree keeps the graph connected
        j = draw(st.integers(0, i - 1))
        A[i, j] = A[j, i] = 1.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)):
        if i != j:
            A[i, j] = A[j, i] = 1.0
    return A


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gsp_synthesis_keeps_the_mean_on_connected_graphs(data):
    # On a connected graph the Laplacian null vector is 1/sqrt(n), made
    # positive by _fix_signs, in both bases; every other eigenvector is
    # orthogonal to it. So 1^T U_adv U^T X = 1^T X: the synthesized rows keep
    # the benign mean, the part of GRMP's submitted row the graph stage makes.
    n = data.draw(st.integers(2, 10))
    X = data.draw(arrays(float, (n, data.draw(st.integers(1, 6))),
                         elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    g = grmp.UpdateGraph(X=X, A=_connected_adjacency(data.draw, n))
    A_adv = _connected_adjacency(data.draw, n)
    assert component_count(g.A) == component_count(A_adv) == 1
    syn_mean = grmp.gsp_synthesize(grmp.gsp_decompose(g), A_adv).mean(axis=0)
    # relative to the rows' scale: the mean itself may cancel to zero
    assert np.linalg.norm(syn_mean - X.mean(axis=0)) <= 1e-9 * np.linalg.norm(X)


def test_fix_signs_convention():
    g = _graph(50, n=5)
    _, U, _ = grmp._laplacian_basis(g.A)
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        assert U[i, j] > 0
    # bit for bit the column loop, on flipped columns, signed zeros and a tie
    rng = np.random.default_rng(51)
    tie = np.array([[-0.5, 0.0, 0.5], [0.5, -0.0, -0.5], [0.0, 1.0, 0.0]])
    for V in (U, -U, tie, rng.standard_normal((6, 4))):
        assert grmp._fix_signs(V).tobytes() == fix_signs_loop(V).tobytes()


# ---------------------------------------------------------------------------
# threshold_adjacency

def test_threshold_adjacency_connects_isolated_nodes():
    A_hat = np.array([
        [0.5, 0.9, 0.2],
        [0.9, 0.5, 0.1],
        [0.2, 0.1, 0.5],
    ])
    A = grmp.threshold_adjacency(A_hat)
    assert np.array_equal(A, A.T)
    assert np.diag(A).sum() == 0
    assert A[2].sum() >= 1  # node 2 was isolated, got its best edge back
    assert A[2, 0] == 1.0  # 0.2 beats 0.1


# ---------------------------------------------------------------------------
# dual search

def _search_setup(seed):
    g = _graph(60 + seed, n=5, d=6)
    p = grmp.fit_vgae([g], 4, 2, epochs=60, lr=0.02, seed=seed)
    ref = np.random.default_rng(seed).standard_normal(6)
    return g, p, ref


def _search_with_iterates(monkeypatch, g, p, ref, floor, steps):
    """Run the search, recording a copy of every latent it decodes."""
    iterates = []
    real = grmp.vgae_decode

    def spy(Z):
        iterates.append(Z.copy())
        return real(Z)

    monkeypatch.setattr(grmp, "vgae_decode", spy)
    out = grmp.lagrange_dual_search(p, g, ref, floor, steps, 0.05)
    monkeypatch.undo()
    return out, iterates


def _recompute(g, Z):
    """(A_adv, synthesized mean, recon) of latent Z, from the public stages."""
    A_hat = grmp.vgae_decode(Z)
    A_adv = grmp.threshold_adjacency(A_hat)
    syn_mean = grmp.gsp_synthesize(grmp.gsp_decompose(g), A_adv).mean(axis=0)
    return A_adv, syn_mean, grmp.recon_bce(A_hat, g.A)


def _check_search(g, p, ref, floor, steps, out, iterates):
    """The returned adjacency, synthesized mean and BCE are those recomputed
    from the first highest-BCE step whose cosine came within 0.05 of the
    floor, or from the final latent when none did. Returns whether the
    search fell back."""
    lam, A_adv, syn_mean, recon, recon_initial = out
    assert lam >= 0.0
    assert syn_mean.shape == (g.X.shape[1],)
    assert np.array_equal(A_adv, A_adv.T)
    assert set(np.unique(A_adv)).issubset({0.0, 1.0})
    assert np.diag(A_adv).sum() == 0
    mu0, _ = grmp.vgae_encode(p, g)
    assert np.array_equal(iterates[0], mu0)
    assert recon_initial == grmp.recon_bce(grmp.vgae_decode(mu0), g.A)
    stepped = [_recompute(g, Zt) for Zt in iterates[:steps]]
    ok = [(r, t) for t, (_, m, r) in enumerate(stepped) if cosine(m, ref) >= floor - 0.05]
    if ok:
        best = max(ok, key=lambda rt: (rt[0], -rt[1]))[1]
        assert len(iterates) == steps
        want = stepped[best]
    else:
        assert len(iterates) == steps + 1
        want = _recompute(g, iterates[-1])
    assert np.array_equal(A_adv, want[0]) and np.array_equal(syn_mean, want[1])
    assert recon == want[2]
    return not ok


def test_dual_search_output_shapes_and_validity(monkeypatch):
    g, p, ref = _search_setup(0)
    out, iterates = _search_with_iterates(monkeypatch, g, p, ref, 0.3, steps=40)
    assert not _check_search(g, p, ref, 0.3, 40, out, iterates)


def test_dual_search_falls_back_to_the_last_latent(monkeypatch):
    # no step reaches a cosine of 0.95, so the final latent is evaluated once
    # more and returned
    g, p, ref = _search_setup(0)
    out, iterates = _search_with_iterates(monkeypatch, g, p, ref, 1.0, steps=40)
    assert _check_search(g, p, ref, 1.0, 40, out, iterates)


def test_dual_search_deterministic():
    g, p, ref = _search_setup(1)
    out1 = grmp.lagrange_dual_search(p, g, ref, 0.3, 30, 0.05)
    out2 = grmp.lagrange_dual_search(p, g, ref, 0.3, 30, 0.05)
    assert len(out1) == len(out2) == 5
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)


def _dual_search_oracle(p, g, ref, floor, steps, step_size):
    """The dual search written out from the public stages, synthesizing the
    adjacency of every evaluation anew; also returns those adjacencies."""
    mu0, _ = grmp.vgae_encode(p, g)
    S_hat = grmp.gsp_decompose(g)
    w = grmp._recon_weight(g.A)
    visited = []

    def evaluate(Z):
        A_hat = grmp.vgae_decode(Z)
        A_adv = grmp.threshold_adjacency(A_hat)
        visited.append(A_adv.tobytes())
        syn_mean = grmp.gsp_synthesize(S_hat, A_adv).mean(axis=0)
        return Z, A_hat, A_adv, syn_mean, grmp.recon_bce(A_hat, g.A)

    Z, lam, best = mu0, 0.0, None
    for t in range(steps):
        it = evaluate(Z)
        _, A_hat, _, syn_mean, recon = it
        c = cosine(syn_mean, ref)
        if t == 0:
            recon_initial = recon
        if c >= floor - 0.05 and (best is None or recon > best[4]):
            best = it
        grad = grmp._recon_grad_wrt_Z(A_hat, g.A, Z, w)
        viol = max(0.0, floor - c)
        if viol > 0.0 and lam > 0.0:
            pull = mu0 - Z
            norm = np.linalg.norm(pull)
            if norm > 0:
                grad = grad + lam * viol * pull / norm
        Z = Z + step_size * grad
        lam = max(0.0, lam + step_size * (floor - c))
    _, _, A_adv, syn_mean, recon = best if best is not None else evaluate(Z)
    return (lam, A_adv, syn_mean, recon, recon_initial), visited


# at seeds 5, 10 and 13 some searches visit distinct adjacencies with equal
# edge counts
@pytest.mark.parametrize("seed", [0, 5, 10, 13])
@pytest.mark.parametrize("floor", [-1.0, 0.3, 1.0])
def test_dual_search_synthesizes_each_adjacency_once(monkeypatch, seed, floor):
    # the search keeps each distinct adjacency's synthesized mean and its
    # cosine, and returns the bits of a search that synthesizes at every step
    g, p, ref = _search_setup(seed)
    want, visited = _dual_search_oracle(p, g, ref, floor, 40, 0.05)
    synthesized = []
    real = grmp.gsp_synthesize

    def spy(S_hat, A_adv):
        synthesized.append(A_adv.tobytes())
        return real(S_hat, A_adv)

    monkeypatch.setattr(grmp, "gsp_synthesize", spy)
    got = grmp.lagrange_dual_search(p, g, ref, floor, 40, 0.05)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert sorted(synthesized) == sorted(set(visited))
    assert len(synthesized) < len(visited)


# ---------------------------------------------------------------------------
# stealth projection

@pytest.mark.parametrize("seed", range(8))
def test_project_stealth_postconditions(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(10)
    ref = rng.standard_normal(10)
    out = grmp.project_stealth(v, ref, stealth_floor=0.6, norm_cap=2.0)
    assert cosine(out, ref) >= 0.6 - 1e-9
    assert np.linalg.norm(out) <= 2.0 + 1e-9


def test_project_stealth_noop_when_already_feasible():
    ref = np.array([1.0, 0.0])
    v = np.array([0.5, 0.1])
    out = grmp.project_stealth(v, ref, 0.3, norm_cap=10.0)
    assert np.array_equal(out, v)


def test_project_stealth_exact_floor_when_projected():
    ref = np.array([1.0, 0.0, 0.0])
    v = np.array([-0.2, 1.0, 0.0])
    out = grmp.project_stealth(v, ref, 0.5, norm_cap=100.0)
    assert np.isclose(cosine(out, ref), 0.5)


def test_project_stealth_zero_reference_error():
    with pytest.raises(ValueError):
        grmp.project_stealth(np.ones(3), np.zeros(3), 0.3, 1.0)


# ---------------------------------------------------------------------------
# full craft

def _floor_at(floor, cfg):
    """Benign cosines and lambda whose threshold plus cfg.stealth_margin is floor:
    at lambda 0 one cosine is its own threshold."""
    return np.array([floor - cfg.stealth_margin]), 0.0


def test_craft_postconditions_and_trace():
    rng = np.random.default_rng(7)
    benign = rng.standard_normal((5, 12))
    ref = benign.mean(axis=0)
    poison = rng.standard_normal(12)
    floor = 0.4
    cfg = grmp.GrmpConfig(dual_steps=30, vgae_epochs=40, hidden=6, latent=3)
    g = grmp.build_update_graph(benign, cfg.tau_edge)
    params = grmp.fit_vgae([g], cfg.hidden, cfg.latent, cfg.vgae_epochs, cfg.vgae_lr, 0)
    final, trace = grmp.craft_with_trace(benign, poison, ref, *_floor_at(floor, cfg), cfg, params)
    assert final.shape == (12,)
    assert cosine(final, ref) >= floor - 1e-9
    assert np.linalg.norm(final) <= np.linalg.norm(benign, axis=1).max() + 1e-9
    assert set(trace) == {"recon_bce_initial", "recon_bce_final", "lambda_dual",
                          "stealth_cosine", "edges_flipped"}
    # the trace reports the search's own values
    lam, A_adv, _, recon, recon_initial = grmp.lagrange_dual_search(
        params, g, ref, floor, cfg.dual_steps, cfg.dual_step_size
    )
    assert trace["recon_bce_initial"] == recon_initial
    assert trace["recon_bce_final"] == recon
    assert trace["lambda_dual"] == lam
    assert trace["edges_flipped"] == int(np.abs(A_adv - g.A).sum() // 2)
    assert trace["stealth_cosine"] == cosine(final, ref)


@pytest.mark.parametrize("floor, fallback", [(-1.0, 0), (1.0, 1)])
def test_craft_runs_each_stage_once(monkeypatch, floor, fallback):
    # the dual search hands its chosen iterate over, so a craft encodes and
    # decomposes the benign graph once and evaluates each dual step once, plus
    # the final latent when no step met the floor (floor 1.0 here); it
    # synthesizes each distinct adjacency it visits once
    rng = np.random.default_rng(9)
    benign = rng.standard_normal((5, 12))
    ref = rng.standard_normal(12)
    poison = rng.standard_normal(12)
    cfg = grmp.GrmpConfig(dual_steps=25, vgae_epochs=30, hidden=6, latent=3)
    g = grmp.build_update_graph(benign, cfg.tau_edge)
    params = grmp.fit_vgae([g], cfg.hidden, cfg.latent, cfg.vgae_epochs, cfg.vgae_lr, 0)
    calls, adjacencies = {}, set()
    for name in ("vgae_encode", "gsp_decompose", "gsp_synthesize",
                 "vgae_decode", "threshold_adjacency", "recon_bce"):
        def spy(*args, _name=name, _real=getattr(grmp, name)):
            calls[_name] = calls.get(_name, 0) + 1
            out = _real(*args)
            if _name == "threshold_adjacency":
                adjacencies.add(out.tobytes())
            return out
        monkeypatch.setattr(grmp, name, spy)
    grmp.craft_with_trace(benign, poison, ref, *_floor_at(floor, cfg), cfg, params)
    per_step = cfg.dual_steps + fallback
    assert calls == {
        "vgae_encode": 1, "gsp_decompose": 1, "gsp_synthesize": len(adjacencies),
        "vgae_decode": per_step, "threshold_adjacency": per_step, "recon_bce": per_step,
    }
    assert len(adjacencies) < per_step


def test_craft_poison_direction_survives():
    # with a generous floor the crafted update keeps positive alignment with
    # the poison it blends in
    rng = np.random.default_rng(8)
    benign = rng.standard_normal((5, 12))
    ref = benign.mean(axis=0)
    poison = rng.standard_normal(12)
    cfg = grmp.GrmpConfig(gamma_blend=4.0, dual_steps=20, vgae_epochs=30, hidden=6, latent=3)
    g = grmp.build_update_graph(benign, cfg.tau_edge)
    params = grmp.fit_vgae([g], 6, 3, 30, cfg.vgae_lr, 0)
    final, _ = grmp.craft_with_trace(benign, poison, ref, *_floor_at(0.1, cfg), cfg, params)
    assert final @ poison > 0


def test_craft_rejects_nonfinite_poison():
    benign = np.random.default_rng(0).standard_normal((4, 6))
    cfg = grmp.GrmpConfig()
    with pytest.raises(ValueError):
        grmp.craft_with_trace(benign, np.array([np.nan] * 6), benign.mean(axis=0),
                              *_floor_at(0.3, cfg), cfg, _params(0))


@pytest.mark.parametrize("cos, margin, floor", [(0.9, 0.5, 1.0), (-0.9, -0.5, -1.0)])
def test_craft_clips_its_floor_to_the_cosine_range(monkeypatch, cos, margin, floor):
    # a threshold plus margin outside [-1, 1] reaches the search and the
    # projection as the nearest end of the range, exactly
    rng = np.random.default_rng(10)
    benign = rng.standard_normal((4, 6))
    cfg = grmp.GrmpConfig(stealth_margin=margin, dual_steps=5)
    floors = []
    # the floor is lagrange_dual_search's fourth argument and project_stealth's third
    for name, at in (("lagrange_dual_search", 3), ("project_stealth", 2)):
        def spy(*args, _real=getattr(grmp, name), _at=at):
            floors.append(args[_at])
            return _real(*args)
        monkeypatch.setattr(grmp, name, spy)
    grmp.craft_with_trace(benign, rng.standard_normal(6), benign.mean(axis=0), np.array([cos]), 0.0, cfg, _params(0))
    assert floors == [floor, floor]

