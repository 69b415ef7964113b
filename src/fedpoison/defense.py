"""Robust aggregation rules and the dynamic cosine-similarity filter.

Every rule is a pure function of the stacked update matrix (rows = clients).
`apply_defense` checks a rule's `min_rows`, then wraps it in a uniform AggregationReport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class DefenseError(Exception):
    """Raised when a rule cannot produce an aggregate (bad n, all filtered...)."""


@dataclass
class AggregationReport:
    aggregate: Optional[np.ndarray]  # None when the rule could not aggregate
    accepted: np.ndarray  # bool mask per submitted update
    threshold: Optional[float] = None  # set by the cosine filter only


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; defined as -1 if either vector has zero norm."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(a @ b / (na * nb))


def score(updates: np.ndarray, prev_aggregate: Optional[np.ndarray]) -> tuple[np.ndarray, list[float]]:
    """The server's reference direction over `updates`, the previous round's
    aggregate or else the rows' mean, and each row's cosine to it."""
    reference = prev_aggregate if prev_aggregate is not None else updates.mean(axis=0)
    return reference, [cosine(u, reference) for u in updates]


def fedavg(updates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise DefenseError("weights must be nonnegative with positive sum")
    return weights @ updates / weights.sum()


def _sq_dists(rows: np.ndarray, x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Each row's squared distance to x, through the reused buffer buf."""
    return np.add.reduce(np.square(np.subtract(rows, x, out=buf), out=buf), axis=1)


def _nearest_sums(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's sum of its k smallest entries off the diagonal; a NaN sorts last."""
    n = len(d2)
    off = np.sort(d2[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    return np.add.reduce(off[:, :k], axis=1)


def krum_scores(updates: np.ndarray, f: int) -> np.ndarray:
    """Each row's krum score; the caller checks n >= f + 3, as apply_defense does."""
    n = len(updates)
    # each pair's squared distance once: row i against the rows after it,
    # mirrored below the diagonal, in one reused buffer; O(n*d + n*n) memory
    d2, buf = np.zeros((n, n)), np.empty_like(updates[1:])
    for i in range(n - 1):
        d2[i, i + 1 :] = d2[i + 1 :, i] = _sq_dists(updates[i + 1 :], updates[i], buf[: n - 1 - i])
    # each row's n - f - 2 nearest others
    return _nearest_sums(d2, n - f - 2)


def gram_selection(updates: np.ndarray, f: int, m: int) -> Optional[np.ndarray]:
    """The m rows with the lowest krum scores, ranked by the Gram form
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j (one GEMM), or None unless a forward-error
    bound certifies that krum_scores' exact pass selects the same set.

    A dot product over d float64 terms errs by at most g_d * sum|x||y|, with
    g_k = k*u / (1 - k*u) (Higham 2002, sec. 3.1). So a Gram entry and an exact
    entry each err from the true squared distance by at most g_(d+2) * R_ij,
    R_ij = (|x_i| + |x_j|)^2; a row's k-th smallest entry moves by at most its
    largest entry error, and the two paths' scores, summation included, differ
    by at most 2k * g_(d+k+2) * (|x_i| + max_j |x_j|)^2. The bound below
    doubles that, for the rounding of the norms, of the bound itself and of
    the comparison, and adds d + 2 smallest normal numbers per entry, for
    underflow. The pick is certified when every selected score plus its bound
    lies below every unselected score minus its bound, which a tie at the
    boundary never does.
    """
    d, k = updates.shape[1], len(updates) - f - 2
    d2 = updates @ updates.T
    sq = d2.diagonal().copy()
    # a non-finite row, or one so long that the bound could overflow
    if not np.isfinite(sq).all() or sq.max() > 1e300:
        return None
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq
    scores = _nearest_sums(d2, k)
    ku = (d + k + 2) * np.finfo(float).eps / 2
    norms = np.sqrt(sq)
    bound = 4 * k * (ku / (1 - ku) * (norms + norms.max()) ** 2 + (d + 2) * np.finfo(float).tiny)
    order = np.argsort(scores, kind="stable")
    sel, rest = order[:m], order[m:]
    if np.max(scores[sel] + bound[sel]) < np.min(scores[rest] - bound[rest]):
        return sel
    return None


def multi_krum(updates: np.ndarray, f: int, m: int) -> tuple[list[int], np.ndarray]:
    """The m updates with the lowest krum scores (ties to the lowest index)
    and their mean. Krum is multi-krum with m = 1 (Blanchard et al. 2017).
    The Gram ranking's pick is taken where certified, krum_scores' otherwise;
    a NaN score sorts last. The caller checks 1 <= m <= n - f - 2."""
    picked = gram_selection(updates, f, m)
    if picked is None:
        picked = np.argsort(krum_scores(updates, f), kind="stable")[:m]
    selected = sorted(picked.tolist())
    return selected, updates[selected].mean(axis=0)


def trimmed_mean(updates: np.ndarray, beta: int) -> np.ndarray:
    """The per-coordinate mean of the middle n - 2 * beta values; the caller checks n > 2 * beta."""
    n = len(updates)
    s = np.sort(updates, axis=0)
    return s[beta : n - beta].mean(axis=0)


def geometric_median(updates: np.ndarray, tol: float, max_iter: int = 200) -> np.ndarray:
    """Weiszfeld iteration from the coordinate mean, until a step is shorter
    than tol or after max_iter steps (Pillutla et al., RFA).

    A distance is clamped at 1e-12 times the rows' largest entry magnitude
    (at 1e-12 when every entry is 0), so points coinciding with the current
    iterate get a finite weight and rows scaled by 2^k give 2^k times the
    median. The caller checks the cohort, as apply_defense does.
    """
    # two reductions: np.abs(updates) would allocate an n x d temporary
    floor = 1e-12 * (max(updates.max(), -updates.min()) or 1.0)
    x, buf = updates.mean(axis=0), np.empty_like(updates)
    for _ in range(max_iter):
        # np.linalg.norm(updates - x, axis=1), in one reused buffer
        w = 1.0 / np.maximum(np.sqrt(_sq_dists(updates, x, buf)), floor)
        x_new = w @ updates / w.sum()
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step < tol:
            break
    return x


def cosine_threshold(cosines: np.ndarray, lam: float) -> float:
    """The cosine filter's adaptive threshold: mean - lam * population std,
    clamped to the largest cosine, which np.mean of equal cosines can round above."""
    s = np.asarray(cosines, dtype=float)
    return float(np.minimum(s.mean() - lam * s.std(), s.max()))


DEFENSES = (
    "fedavg",
    "krum",
    "multi_krum",
    "trimmed_mean",
    "coord_median",
    "geometric_median",
    "cosine_filter",
)


@dataclass
class DefenseParams:
    f: int = 1
    m: int = 2
    beta: int = 1
    lambda_: float = 1.5
    gm_tol: float = 1e-8


def min_rows(name: str, params: DefenseParams) -> int:
    """The fewest rows rule `name` aggregates under `params`: the cosine filter's
    threshold needs two, krum scores a row by its n - f - 2 >= 1 nearest others,
    multi-krum keeps m <= n - f - 2 rows, the trimmed mean n - 2 * beta >= 1."""
    return {
        "cosine_filter": 2,
        "krum": params.f + 3,
        "multi_krum": params.f + 2 + params.m,
        "trimmed_mean": 2 * params.beta + 1,
    }.get(name, 1)


def apply_defense(
    name: str,
    updates: np.ndarray,
    weights: np.ndarray,
    cosines: Optional[np.ndarray],
    params: DefenseParams,
) -> AggregationReport:
    """Dispatch to a rule and normalize its output into an AggregationReport:
    the aggregate, the accept mask (every row, except under krum, multi_krum
    and the cosine filter) and the cosine filter's threshold.

    `cosines` holds each update's cosine to the server's reference direction,
    or is None when that reference has zero norm; only the cosine filter reads
    them. The filter accepts the rows whose cosine clears cosine_threshold
    (mean - lam * population std) and averages them with equal weights.
    """
    updates = np.asarray(updates, dtype=float)
    n, need = len(updates), min_rows(name, params)
    if n < need:
        raise DefenseError(f"{name} needs n >= {need} rows (got n={n})")
    if name == "cosine_filter":
        if cosines is None:
            raise DefenseError("cosine_filter has no direction to filter by: the reference has zero norm")
        cosines = np.asarray(cosines, dtype=float)
        tau = cosine_threshold(cosines, params.lambda_)
        accepted = cosines >= tau
        if not accepted.any():
            raise DefenseError("no updates survive filter")
        return AggregationReport(updates[accepted].mean(axis=0), accepted, tau)
    accepted = np.ones(n, bool)
    if name == "fedavg":
        agg = fedavg(updates, weights)
    elif name in ("krum", "multi_krum"):
        selected, agg = multi_krum(updates, params.f, 1 if name == "krum" else params.m)
        accepted = np.isin(np.arange(n), selected)
    elif name == "trimmed_mean":
        agg = trimmed_mean(updates, params.beta)
    elif name == "coord_median":
        agg = np.median(updates, axis=0)
    elif name == "geometric_median":
        agg = geometric_median(updates, params.gm_tol)
    else:
        raise DefenseError(f"unknown defense {name!r}")
    return AggregationReport(agg, accepted)
