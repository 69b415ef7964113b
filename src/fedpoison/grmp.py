"""Graph-representation attack pipeline.

Four stages: (1) embed benign updates in a similarity graph, (2) learn its
manifold with a variational graph autoencoder, (3) search latent space with a
dual-ascent scheme that trades adjacency disruption against a cosine stealth
floor, (4) re-express the benign spectral content in the adversarial graph's
Laplacian basis and blend in the poison direction.

Everything is dense numpy; node counts are tiny (one node per client), so the
eigendecompositions are effectively free. Config values arrive checked by
`ExperimentConfig.validate`; the checks here detect faults a valid run reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedpoison import model
from fedpoison.defense import cosine, cosine_threshold, score


@dataclass
class UpdateGraph:
    X: np.ndarray  # n x d node features (rows = flattened updates)
    A: np.ndarray  # n x n symmetric {0,1}, zero diagonal


@dataclass
class VgaeParams:
    W0: np.ndarray  # d x h
    W_mu: np.ndarray  # h x k
    W_logvar: np.ndarray  # h x k


@dataclass
class GrmpConfig:
    tau_edge: float = 0.3
    stealth_margin: float = 0.05  # added to the estimated server threshold
    gamma_blend: float = 1.0
    poison_epochs: int = 10  # attacker-side epochs distilling the poison direction
    dual_steps: int = 100
    dual_step_size: float = 0.05
    hidden: int = 32
    latent: int = 8
    vgae_epochs: int = 200
    vgae_lr: float = 0.01


# ---------------------------------------------------------------------------
# graph construction

def build_update_graph(updates: np.ndarray, tau_edge: float) -> UpdateGraph:
    """Node per update; edge where pairwise cosine >= tau_edge."""
    X = np.asarray(updates, dtype=float)
    n = len(X)
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if cosine(X[i], X[j]) >= tau_edge:
                A[i, j] = A[j, i] = 1.0
    return UpdateGraph(X=X, A=A)


def _normalized_adjacency(A: np.ndarray) -> np.ndarray:
    """Symmetric normalization of A + I."""
    A_tilde = A + np.eye(len(A))
    dinv = 1.0 / np.sqrt(A_tilde.sum(axis=1))
    return A_tilde * dinv[:, None] * dinv[None, :]


@dataclass
class GraphStack:
    """Update graphs of one node count, stacked for batched VGAE passes, with
    each graph's normalized adjacency, its product with the features and its
    reconstruction edge weight computed once."""

    A: np.ndarray  # G x n x n
    An: np.ndarray  # G x n x n, normalized A + I
    AX: np.ndarray  # G x n x d, An @ X
    w: np.ndarray  # G x 1 x 1, reconstruction edge weight


def stack_graphs(graphs: list[UpdateGraph]) -> GraphStack:
    An = np.stack([_normalized_adjacency(g.A) for g in graphs])
    # each product is written into its slice: no list of them is held
    AX = np.empty((len(graphs), *graphs[0].X.shape))
    for a, g, out in zip(An, graphs, AX):
        np.matmul(a, g.X, out=out)
    return GraphStack(
        A=np.stack([g.A for g in graphs]),
        An=An,
        AX=AX,
        w=np.array([_recon_weight(g.A) for g in graphs]).reshape(-1, 1, 1),
    )


# ---------------------------------------------------------------------------
# VGAE forward / loss / gradients
#
# _encode, vgae_decode and _recon_grad_wrt_Z also take a leading axis of
# stacked graphs: every product is then one matmul per graph, the same one a
# single graph gets, so a stacked pass gives the single-graph bits.

def init_vgae(d: int, h: int, k: int, seed: int) -> VgaeParams:
    """Xavier-uniform initialization."""
    rng = np.random.default_rng(seed)

    def xavier(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    return VgaeParams(W0=xavier(d, h), W_mu=xavier(h, k), W_logvar=xavier(h, k))


def _encode(params: VgaeParams, An: np.ndarray, Hpre: np.ndarray) -> tuple:
    """The second GCN layer from An and the first layer's pre-activation
    Hpre = An @ X @ W0: (second-layer input, mean, log-variance)."""
    M = An @ np.maximum(Hpre, 0.0)
    return M, M @ params.W_mu, M @ params.W_logvar


def vgae_encode(params: VgaeParams, g: UpdateGraph) -> tuple[np.ndarray, np.ndarray]:
    """Two-layer GCN producing per-node Gaussian mean and log-variance."""
    An = _normalized_adjacency(g.A)
    _, mu, logvar = _encode(params, An, (An @ g.X) @ params.W0)
    return mu, logvar


def vgae_decode(Z: np.ndarray) -> np.ndarray:
    """Inner-product decoder: sigmoid(Z Z^T), symmetric by construction."""
    S = Z @ Z.swapaxes(-1, -2)
    return 1.0 / (1.0 + np.exp(-S))


_CLIP = 1e-7


def _recon_weight(A: np.ndarray) -> float:
    n = len(A)
    edges = A.sum()  # off-diagonal by invariant
    non_edges = n * (n - 1) - edges
    return float(non_edges / edges) if edges > 0 else 1.0


def recon_bce(A_hat: np.ndarray, A: np.ndarray) -> float:
    """Edge-weighted binary cross-entropy over off-diagonal entries."""
    n = len(A)
    p = np.clip(A_hat, _CLIP, 1.0 - _CLIP)
    w = _recon_weight(A)
    off = ~np.eye(n, dtype=bool)
    terms = -(w * A * np.log(p) + (1.0 - A) * np.log(1.0 - p))
    return float(terms[off].mean())


def _recon_grad_wrt_Z(A_hat: np.ndarray, A: np.ndarray, Z: np.ndarray, w) -> np.ndarray:
    """d recon_bce / dZ through the inner-product decoder, given the edge
    weight w = _recon_weight(A) (one per graph of a stack)."""
    n = A.shape[-1]
    p = np.clip(A_hat, _CLIP, 1.0 - _CLIP)
    M = n * (n - 1)
    dp = (-(w * A / p) + (1.0 - A) / (1.0 - p)) / M
    off = ~np.eye(n, dtype=bool)
    dp = dp * off
    unclamped = (A_hat > _CLIP) & (A_hat < 1.0 - _CLIP)
    dS = dp * A_hat * (1.0 - A_hat) * unclamped
    return (dS + dS.swapaxes(-1, -2)) @ Z


def vgae_grads(
    params: VgaeParams, s: GraphStack, Hpre: np.ndarray, eps: np.ndarray
) -> dict[str, np.ndarray]:
    """Analytic gradients of the ELBO summed over the stacked graphs, with a
    fixed reparameterization draw eps (G x n x k), w.r.t. the first layer's
    pre-activation Hpre = s.AX @ W0 (G x n x h) and the two output weights.
    W0's gradient is P^T dHpre for P = s.AX stacked to (G*n) x d."""
    M, mu, logvar = _encode(params, s.An, Hpre)
    std = np.exp(0.5 * logvar)
    Z = mu + std * eps
    A_hat = vgae_decode(Z)

    n, k = mu.shape[-2:]
    N = n * k
    dZ = _recon_grad_wrt_Z(A_hat, s.A, Z, s.w)
    dmu = dZ + mu / N
    dlogvar = dZ * eps * 0.5 * std + (np.exp(logvar) - 1.0) / (2.0 * N)
    dM = dmu @ params.W_mu.T + dlogvar @ params.W_logvar.T
    dH = s.An @ dM  # An symmetric
    M = M.reshape(-1, M.shape[-1])
    return {
        "Hpre": dH * (Hpre > 0.0),
        "W_mu": M.T @ dmu.reshape(-1, k),
        "W_logvar": M.T @ dlogvar.reshape(-1, k),
    }


def fit_vgae(
    graphs: list[UpdateGraph], h: int, k: int, epochs: int, lr: float, seed: int
) -> VgaeParams:
    """Full-batch gradient descent on the summed ELBO over the given graphs,
    all of them in one stacked pass per epoch.

    Every W0 gradient is P^T dHpre, with P the An @ X rows of all graphs
    stacked to (G*n) x d, so W0 = W0_init + P^T C for a (G*n) x h matrix C.
    The fit steps C against the (G*n) x (G*n) Gram matrix K = P P^T, since
    Hpre = P W0_init + K C, and forms W0 once at the end: in real arithmetic
    the iterates of stepping W0 itself."""
    s = stack_graphs(graphs)
    G, n, d = s.AX.shape
    params = init_vgae(d, h, k, seed)
    rng = np.random.default_rng(seed)
    P = s.AX.reshape(G * n, d)
    K = P @ P.T
    H0 = P @ params.W0
    C = np.zeros((G * n, h))
    for _ in range(epochs):
        # one draw yields the same stream as one n x k draw per graph in order
        eps = rng.standard_normal((G, n, k))
        grads = vgae_grads(params, s, (H0 + K @ C).reshape(G, n, h), eps)
        C -= lr * grads["Hpre"].reshape(G * n, h)
        params.W_mu -= lr * grads["W_mu"]
        params.W_logvar -= lr * grads["W_logvar"]
    params.W0 += P.T @ C
    return params


# ---------------------------------------------------------------------------
# adversarial latent search

def threshold_adjacency(A_hat: np.ndarray) -> np.ndarray:
    """Binarize decoded edge probabilities at 0.5, zero diagonal; any isolated
    node gets back its single highest-probability edge."""
    n = len(A_hat)
    A = (A_hat > 0.5).astype(float)
    np.fill_diagonal(A, 0.0)
    A = np.maximum(A, A.T)
    for i in range(n):
        if A[i].sum() == 0:
            probs = A_hat[i].copy()
            probs[i] = -np.inf
            j = int(np.argmax(probs))
            A[i, j] = A[j, i] = 1.0
    return A


def lagrange_dual_search(
    params: VgaeParams,
    g: UpdateGraph,
    reference: np.ndarray,
    stealth_floor: float,
    steps: int,
    step_size: float,
) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """Dual-ascent search for an adversarial adjacency.

    Primal: gradient ascent on the reconstruction BCE of the decoded adjacency
    against the benign one, penalized (once the multiplier grows) by a pull
    back toward the encoder mean whenever the synthesized update's cosine to
    the reference drops below the stealth floor. Dual: multiplier ascent on
    the constraint violation. The thresholded decode is piecewise constant in
    Z, so the pull-back toward the benign latent serves as the constraint
    subgradient.

    Returns (lambda_dual, A_adv, syn_mean, recon, recon_initial): the final
    multiplier; for the best iterate that kept the cosine within 0.05 of the
    floor (falling back to the last iterate if none did), its binarized
    adjacency, the mean of the benign rows synthesized in that adjacency's
    Laplacian basis and its reconstruction BCE; and the BCE of step 0 (the
    encoder mean). craft_with_trace clips stealth_floor to [-1, 1]. A non-finite
    objective is a fault of the fit or the step size, named by its step.
    """
    mu0, _ = vgae_encode(params, g)
    S_hat = gsp_decompose(g)
    w = _recon_weight(g.A)
    # the search visits few distinct adjacencies, so each one's synthesized
    # mean and its cosine to the reference are computed once
    synthesized: dict[bytes, tuple[np.ndarray, float]] = {}

    def evaluate(Z: np.ndarray) -> tuple:
        A_hat = vgae_decode(Z)
        A_adv = threshold_adjacency(A_hat)
        key = A_adv.tobytes()
        if key not in synthesized:
            syn_mean = gsp_synthesize(S_hat, A_adv).mean(axis=0)
            synthesized[key] = syn_mean, cosine(syn_mean, reference)
        return A_hat, A_adv, *synthesized[key], recon_bce(A_hat, g.A)

    Z, lam, best = mu0, 0.0, None
    for t in range(steps):
        it = evaluate(Z)
        A_hat, _, _, c, recon = it
        if not (np.isfinite(recon) and np.isfinite(c)):
            raise FloatingPointError(f"non-finite dual objective at step {t}")
        if t == 0:
            recon_initial = recon
        if c >= stealth_floor - 0.05 and (best is None or recon > best[4]):
            best = it
        grad = _recon_grad_wrt_Z(A_hat, g.A, Z, w)
        viol = max(0.0, stealth_floor - c)
        if viol > 0.0 and lam > 0.0:
            pull = mu0 - Z
            norm = np.linalg.norm(pull)
            if norm > 0:
                grad = grad + lam * viol * pull / norm
        Z = Z + step_size * grad
        lam = max(0.0, lam + step_size * (stealth_floor - c))

    _, A_adv, syn_mean, _, recon = best if best is not None else evaluate(Z)
    return lam, A_adv, syn_mean, recon, recon_initial


# ---------------------------------------------------------------------------
# graph signal processing

def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Per column, make the largest-magnitude entry (lowest index on ties)
    positive, so spectral bases are reproducible."""
    top = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    return U * np.where(top < 0, -1.0, 1.0)


def _laplacian_basis(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L = D - A, its eigenvectors as sign-fixed columns, their eigenvalues)."""
    L = np.diag(A.sum(axis=1)) - A
    Lambda, U = np.linalg.eigh(L)
    return L, _fix_signs(U), Lambda


def gsp_decompose(g: UpdateGraph) -> np.ndarray:
    """The spectral coefficients U^T X of the stacked updates in the benign
    graph's Laplacian eigenbasis U."""
    _, U, _ = _laplacian_basis(g.A)
    return U.T @ g.X


def gsp_synthesize(S_hat: np.ndarray, A_adv: np.ndarray) -> np.ndarray:
    """The rows whose coefficients in the adversarial graph's Laplacian basis
    are the benign S_hat (an orthonormal change of basis: energy is kept)."""
    _, U_adv, _ = _laplacian_basis(np.asarray(A_adv, dtype=float))
    return U_adv @ S_hat


# ---------------------------------------------------------------------------
# malicious update synthesis

def project_stealth(
    v: np.ndarray, reference: np.ndarray, stealth_floor: float, norm_cap: float
) -> np.ndarray:
    """Minimal correction enforcing cosine(v, reference) >= stealth_floor and
    ||v|| <= norm_cap.

    If the cosine floor is violated, add the smallest alpha >= 0 multiple of
    the reference that reaches it (closed form from the parallel/orthogonal
    split); norm violations are fixed by uniform rescaling, which preserves
    the cosine. A zero reference has no direction to project toward. validate
    rejects lr = 0 under grmp, so a run reaches one only by rows that cancel.
    """
    r_norm = np.linalg.norm(reference)
    if r_norm == 0:
        raise ValueError("reference direction has zero norm")
    out = v.astype(float).copy()
    if cosine(out, reference) < stealth_floor:
        if stealth_floor >= 1.0 - 1e-12:
            out = np.linalg.norm(out) * reference / r_norm
        else:
            r_hat = reference / r_norm
            par = float(out @ r_hat)
            orth = float(np.linalg.norm(out - par * r_hat))
            target_par = stealth_floor * orth / np.sqrt(1.0 - stealth_floor**2)
            alpha = max(0.0, (target_par - par) / r_norm)
            out = out + alpha * reference
    norm = np.linalg.norm(out)
    if norm > norm_cap > 0:
        out *= norm_cap / norm
    return out


def craft_with_trace(
    benign_updates: np.ndarray,
    raw_poison: np.ndarray,
    reference: np.ndarray,
    benign_cosines: np.ndarray,
    lam: float,
    cfg: GrmpConfig,
    params: VgaeParams,
) -> tuple[np.ndarray, dict]:
    """Full pipeline: graph -> dual search -> spectral synthesis -> blend ->
    stealth projection onto cosine(., reference) >= stealth floor. The floor
    is the cosine filter's threshold over the benign rows' cosines to the
    reference at the server's lam, plus cfg.stealth_margin, clipped to
    [-1, 1]. Returns the flat malicious delta plus a trace dict. A non-finite
    raw poison, from a diverging distillation, is an error rather than a row."""
    if not np.all(np.isfinite(raw_poison)):
        raise ValueError("raw_poison must be finite")
    stealth_floor = float(np.clip(cosine_threshold(benign_cosines, lam) + cfg.stealth_margin, -1.0, 1.0))
    g = build_update_graph(benign_updates, cfg.tau_edge)
    lambda_dual, A_adv, syn_mean, recon_final, recon_initial = lagrange_dual_search(
        params, g, reference, stealth_floor, cfg.dual_steps, cfg.dual_step_size
    )
    candidate = syn_mean + cfg.gamma_blend * raw_poison
    norm_cap = float(np.max(np.linalg.norm(benign_updates, axis=1)))
    final = project_stealth(candidate, reference, stealth_floor, norm_cap)
    trace = {
        "recon_bce_initial": recon_initial,
        "recon_bce_final": recon_final,
        "lambda_dual": lambda_dual,
        "stealth_cosine": cosine(final, reference),
        "edges_flipped": int(np.abs(A_adv - g.A).sum() // 2),
    }
    return final, trace


class Adversary:
    """A run's grmp attackers, the one place their rows are made, for its
    ExperimentConfig `cfg` and (X, clean y, flipped y) per client. The poison
    distillation trains on their pooled rows, both label sets in lockstep."""

    def __init__(self, cfg, clients, attacker_ids: list[int]):
        self.cfg, self.attacker_ids = cfg, attacker_ids
        Xs, ys, ys_flipped = zip(*(clients[i] for i in attacker_ids))
        cols, vals = np.concatenate([X.cols for X in Xs]), np.concatenate([X.vals for X in Xs])
        self.X = model.SparseRows(cols, vals, Xs[0].dim)
        self.labels = np.stack([np.concatenate(ys_flipped), np.concatenate(ys)])
        self.vgae: VgaeParams | None = None

    def submit(self, round_idx: int, params, prev_aggregate, benign, history) -> tuple[np.ndarray, dict]:
        """The attackers' rows for round `round_idx`, in attacker_ids order, and
        the craft's trace, from a view that it does not write: the global params,
        the previous aggregate (None before the first), this round's benign rows
        and those of each round before the switch, which the VGAE is fit on."""
        cfg, g = self.cfg, self.cfg.grmp
        if self.vgae is None:
            graphs = [build_update_graph(m, g.tau_edge) for m in history or [benign]]
            vseed = model.child_seed(cfg.seed, "vgae")
            self.vgae = fit_vgae(graphs, g.hidden, g.latent, g.vgae_epochs, g.vgae_lr, vseed)
        # the attacker scores the benign rows as the server would
        reference, cosines = score(benign, prev_aggregate)
        # the poison direction: flipped-label training minus clean training
        # on the same rows and batch order
        pseed = model.child_seed(cfg.seed, "poison", round_idx)
        flipped, clean = model.local_train(
            params, self.X, self.labels, g.poison_epochs, cfg.lr, cfg.batch_size, pseed
        )
        crafted, trace = craft_with_trace(
            benign, flipped - clean, reference, cosines, cfg.defense_params.lambda_, g, self.vgae
        )
        rows = []
        for i in self.attacker_ids:
            rng = np.random.default_rng(model.child_seed(cfg.seed, "noise", round_idx, i))
            noise = rng.standard_normal(crafted.size)
            noise *= 1e-3 * np.linalg.norm(crafted) / max(np.linalg.norm(noise), 1e-300)
            rows.append(crafted + noise)
        return np.stack(rows), trace
