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


def fedavg(updates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise DefenseError("weights must be nonnegative with positive sum")
    return weights @ updates / weights.sum()


def _sq_dists(rows: np.ndarray, x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Each row's squared distance to x, through the reused buffer buf."""
    return np.add.reduce(np.square(np.subtract(rows, x, out=buf), out=buf), axis=1)


def krum_scores(updates: np.ndarray, f: int) -> np.ndarray:
    """Each row's krum score; the caller checks n >= f + 3, as apply_defense does."""
    n = len(updates)
    # each pair's squared distance once: row i against the rows after it,
    # mirrored below the diagonal, in one reused buffer; O(n*d + n*n) memory
    d2, buf = np.zeros((n, n)), np.empty_like(updates[1:])
    for i in range(n - 1):
        d2[i, i + 1 :] = d2[i + 1 :, i] = _sq_dists(updates[i + 1 :], updates[i], buf[: n - 1 - i])
    # each row's n - f - 2 nearest others, off the diagonal; a NaN sorts last
    off = np.sort(d2[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    return np.add.reduce(off[:, : n - f - 2], axis=1)


def multi_krum(updates: np.ndarray, f: int, m: int) -> tuple[list[int], np.ndarray]:
    """The m updates with the lowest krum scores (ties to the lowest index)
    and their mean. Krum is multi-krum with m = 1 (Blanchard et al. 2017).
    A NaN score sorts last. The caller checks 1 <= m <= n - f - 2."""
    scores = krum_scores(updates, f)
    selected = sorted(np.argsort(scores, kind="stable")[:m].tolist())
    return selected, updates[selected].mean(axis=0)


def trimmed_mean(updates: np.ndarray, beta: int) -> np.ndarray:
    """The per-coordinate mean of the middle n - 2 * beta values; the caller checks n > 2 * beta."""
    n = len(updates)
    s = np.sort(updates, axis=0)
    return s[beta : n - beta].mean(axis=0)


def geometric_median(
    updates: np.ndarray, tol: float = 1e-8, max_iter: int = 200
) -> np.ndarray:
    """Weiszfeld iteration from the coordinate mean, until a step is shorter
    than tol or after max_iter steps (Pillutla et al., RFA).

    Points coinciding with the current iterate get their distance clamped at
    1e-12. The caller checks the cohort, as apply_defense does.
    """
    x, buf = updates.mean(axis=0), np.empty_like(updates)
    for _ in range(max_iter):
        # np.linalg.norm(updates - x, axis=1), in one reused buffer
        w = 1.0 / np.maximum(np.sqrt(_sq_dists(updates, x, buf)), 1e-12)
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


def cosine_threshold_filter(
    updates: np.ndarray, cosines: np.ndarray, lam: float
) -> AggregationReport:
    """Accept updates whose cosine to the reference clears mean - lam*std.

    `cosines` holds each update's cosine to the server's reference direction;
    the caller rejects a zero-norm reference, under which every cosine is -1.
    Std is the population standard deviation. Accepted updates are averaged
    with equal weights. The caller checks n >= 2, as apply_defense does.
    """
    cosines = np.asarray(cosines, dtype=float)
    tau = cosine_threshold(cosines, lam)
    accepted = cosines >= tau
    if not accepted.any():
        raise DefenseError("no updates survive filter")
    return AggregationReport(updates[accepted].mean(axis=0), accepted, tau)


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
    gm_max_iter: int = 200


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
    cosines: np.ndarray,
    params: DefenseParams,
) -> AggregationReport:
    """Dispatch to a rule and normalize its output into an AggregationReport:
    the aggregate, the accept mask (every row, except under krum, multi_krum
    and the cosine filter) and the cosine filter's threshold.

    `cosines` holds each update's cosine to the server's reference direction;
    only the cosine filter reads them.
    """
    updates = np.asarray(updates, dtype=float)
    n, need = len(updates), min_rows(name, params)
    if n < need:
        raise DefenseError(f"{name} needs n >= {need} rows (got n={n})")
    if name == "cosine_filter":
        return cosine_threshold_filter(updates, cosines, params.lambda_)
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
        agg = geometric_median(updates, params.gm_tol, params.gm_max_iter)
    else:
        raise DefenseError(f"unknown defense {name!r}")
    return AggregationReport(agg, accepted)
