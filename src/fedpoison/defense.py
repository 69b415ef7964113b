"""Robust aggregation rules and the dynamic cosine-similarity filter.

Every rule is a pure function of the stacked update matrix (rows = clients).
`apply_defense` wraps them in a uniform AggregationReport for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class DefenseError(Exception):
    """Raised when a rule cannot produce an aggregate (bad n, all filtered...)."""


@dataclass
class AggregationReport:
    aggregate: np.ndarray
    accepted: np.ndarray  # bool mask per submitted update
    scores: np.ndarray  # distance score or cosine similarity per update
    threshold: Optional[float] = None
    converged: bool = True


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; defined as -1 if either vector has zero norm."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(a @ b / (na * nb))


def fedavg(updates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    updates = np.asarray(updates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(updates) < 1:
        raise DefenseError("no updates")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise DefenseError("weights must be nonnegative with positive sum")
    return weights @ updates / weights.sum()


def _sq_dists(rows: np.ndarray, x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Each row's squared distance to x, through the reused buffer buf."""
    return np.add.reduce(np.square(np.subtract(rows, x, out=buf), out=buf), axis=1)


def krum_scores(updates: np.ndarray, f: int) -> np.ndarray:
    n = len(updates)
    if n < f + 3:
        raise DefenseError(f"krum needs n >= f+3 (got n={n}, f={f})")
    # each pair's squared distance once: row i against the rows after it,
    # mirrored below the diagonal, in one reused buffer; O(n*d + n*n) memory
    d2, buf = np.zeros((n, n)), np.empty_like(updates[1:])
    for i in range(n - 1):
        d2[i, i + 1 :] = d2[i + 1 :, i] = _sq_dists(updates[i + 1 :], updates[i], buf[: n - 1 - i])
    # each row's n - f - 2 nearest others, off the diagonal; a NaN sorts last
    off = np.sort(d2[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    return np.add.reduce(off[:, : n - f - 2], axis=1)


def multi_krum(updates: np.ndarray, f: int, m: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The m updates with the lowest krum scores (ties to the lowest index),
    their mean, and every update's score. Krum is multi-krum with m = 1
    (Blanchard et al. 2017). A NaN score sorts last."""
    updates = np.asarray(updates, dtype=float)
    scores = krum_scores(updates, f)
    n = len(updates)
    if not 1 <= m <= n - f - 2:
        raise DefenseError(f"multi-krum needs 1 <= m <= n-f-2 (got m={m}, n={n}, f={f})")
    selected = sorted(np.argsort(scores, kind="stable")[:m].tolist())
    return selected, updates[selected].mean(axis=0), scores


def trimmed_mean(updates: np.ndarray, beta: int) -> np.ndarray:
    """Per coordinate, drop the beta smallest and beta largest, average the rest."""
    updates = np.asarray(updates, dtype=float)
    n = len(updates)
    if n <= 2 * beta:
        raise DefenseError(f"trimmed mean needs n > 2*beta (got n={n}, beta={beta})")
    s = np.sort(updates, axis=0)
    return s[beta : n - beta].mean(axis=0)


def coord_median(updates: np.ndarray) -> np.ndarray:
    updates = np.asarray(updates, dtype=float)
    if len(updates) < 1:
        raise DefenseError("no updates")
    return np.median(updates, axis=0)


def geometric_median(
    updates: np.ndarray, tol: float = 1e-8, max_iter: int = 200
) -> tuple[np.ndarray, bool]:
    """Weiszfeld iteration from the coordinate mean.

    Points coinciding with the current iterate get their distance clamped at
    1e-12. Returns (point, converged); hitting max_iter is a valid return.
    """
    updates = np.asarray(updates, dtype=float)
    if len(updates) < 1:
        raise DefenseError("no updates")
    if tol <= 0:
        raise DefenseError("tol must be > 0")
    x, buf = updates.mean(axis=0), np.empty_like(updates)
    for _ in range(max_iter):
        # np.linalg.norm(updates - x, axis=1), in one reused buffer
        w = 1.0 / np.maximum(np.sqrt(_sq_dists(updates, x, buf)), 1e-12)
        x_new = w @ updates / w.sum()
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step < tol:
            return x, True
    return x, False


def cosine_threshold(cosines: np.ndarray, lam: float) -> float:
    """The cosine filter's adaptive threshold: mean - lam * population std."""
    s = np.asarray(cosines, dtype=float)
    return float(s.mean() - lam * s.std())


def cosine_threshold_filter(
    updates: np.ndarray, cosines: np.ndarray, lam: float
) -> AggregationReport:
    """Accept updates whose cosine to the reference clears mean - lam*std.

    `cosines` holds each update's cosine to the server's reference direction;
    the caller rejects a zero-norm reference, under which every cosine is -1.
    Std is the population standard deviation. Accepted updates are averaged
    with equal weights.
    """
    updates = np.asarray(updates, dtype=float)
    if len(updates) < 2:
        raise DefenseError("cosine filter needs n >= 2")
    scores = np.asarray(cosines, dtype=float)
    tau = cosine_threshold(scores, lam)
    accepted = scores >= tau
    if not accepted.any():
        raise DefenseError("no updates survive filter")
    return AggregationReport(
        aggregate=updates[accepted].mean(axis=0),
        accepted=accepted,
        scores=scores,
        threshold=tau,
    )


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


def apply_defense(
    name: str,
    updates: np.ndarray,
    weights: np.ndarray,
    cosines: np.ndarray,
    params: DefenseParams,
) -> AggregationReport:
    """Dispatch to a rule and normalize its output into an AggregationReport.

    `cosines` holds each update's cosine to the server's reference direction.
    Except under krum and multi_krum, whose scores are their own distance
    sums, the report's scores are these cosines, so every run logs comparable
    similarity traces.
    """
    updates = np.asarray(updates, dtype=float)
    n = len(updates)
    scores = np.asarray(cosines, dtype=float)
    if name == "cosine_filter":
        return cosine_threshold_filter(updates, scores, params.lambda_)
    accepted, converged = np.ones(n, bool), True
    if name == "fedavg":
        agg = fedavg(updates, weights)
    elif name in ("krum", "multi_krum"):
        selected, agg, scores = multi_krum(updates, params.f, 1 if name == "krum" else params.m)
        accepted = np.isin(np.arange(n), selected)
    elif name == "trimmed_mean":
        agg = trimmed_mean(updates, params.beta)
    elif name == "coord_median":
        agg = coord_median(updates)
    elif name == "geometric_median":
        agg, converged = geometric_median(updates, params.gm_tol, params.gm_max_iter)
    else:
        raise DefenseError(f"unknown defense {name!r}")
    return AggregationReport(agg, accepted, scores, converged=converged)
