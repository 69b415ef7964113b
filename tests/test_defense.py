"""Aggregation rules against brute-force / sort / grid oracles, plus the
spec's invariance properties."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedpoison import defense, sim


def _updates(seed, n=6, d=4):
    return np.random.default_rng(seed).standard_normal((n, d))


def _apply(name, u, **params):
    """apply_defense on u, with unit weights and cosines and the given params."""
    n = len(u)
    return defense.apply_defense(name, u, np.ones(n), np.ones(n), defense.DefenseParams(**params))


def _cosines(updates, ref):
    return np.array([defense.cosine(u, ref) for u in updates])


def _filter(u, cos, lam):
    """The cosine filter on u, with unit weights, the given cosines and lambda."""
    return defense.apply_defense("cosine_filter", u, np.ones(len(u)), cos, defense.DefenseParams(lambda_=lam))


# ---------------------------------------------------------------------------
# oracles

def krum_oracle(updates, f):
    """Exhaustive re-derivation of the krum score (no vectorized tricks)."""
    n = len(updates)
    k = n - f - 2
    scores = []
    for i in range(n):
        dists = sorted(
            sum((updates[i][c] - updates[j][c]) ** 2 for c in range(updates.shape[1]))
            for j in range(n)
            if j != i
        )
        scores.append(sum(dists[:k]))
    return np.array(scores)


def trimmed_mean_oracle(updates, beta):
    n, d = updates.shape
    out = np.empty(d)
    for c in range(d):
        col = sorted(updates[:, c])
        out[c] = np.mean(col[beta : n - beta])
    return out


def median_oracle(updates):
    out = np.empty(updates.shape[1])
    for c in range(updates.shape[1]):
        col = sorted(updates[:, c])
        m = len(col)
        out[c] = col[m // 2] if m % 2 else 0.5 * (col[m // 2 - 1] + col[m // 2])
    return out


def geomedian_objective(x, updates):
    return sum(np.linalg.norm(u - x) for u in updates)


def geomedian_grid_oracle(updates, rounds=4, width=4.0, steps=9):
    """Coarse-to-fine grid search in R^3."""
    center = updates.mean(axis=0)
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        best = None
        for p in itertools.product(*axes):
            val = geomedian_objective(np.array(p), updates)
            if best is None or val < best[0]:
                best = (val, np.array(p))
        center = best[1]
        width = 2 * width / (steps - 1)
    return best[0], center


# ---------------------------------------------------------------------------
# cosine

def test_cosine_basics():
    assert defense.cosine(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 1.0
    assert np.isclose(defense.cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])), 0.0)
    assert defense.cosine(np.zeros(2), np.array([1.0, 0.0])) == -1.0


# ---------------------------------------------------------------------------
# krum / multi-krum

@pytest.mark.parametrize("seed", range(10))
def test_krum_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    f = int(rng.integers(1, n - 2))
    u = rng.standard_normal((n, int(rng.integers(1, 7))))
    (idx,), _ = defense.multi_krum(u, f, 1)
    oracle = krum_oracle(u, f)
    assert np.allclose(defense.krum_scores(u, f), oracle)
    assert idx == int(np.argmin(oracle))


def krum_rows_oracle(updates, f):
    """krum scores from one full row of squared distances per client."""
    k = len(updates) - f - 2
    scores = np.empty(len(updates))
    for i in range(len(updates)):
        d2 = np.sum((updates - updates[i]) ** 2, axis=1)
        scores[i] = np.sort(np.delete(d2, i))[:k].sum()
    return scores


@pytest.mark.parametrize("seed", range(20))
def test_krum_scores_bit_identical_to_row_at_a_time(seed):
    # each pair's distance is computed once and mirrored: (a-b)^2 == (b-a)^2
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 41))
    u = rng.standard_normal((n, int(rng.integers(1, 300)))) * 10.0 ** rng.uniform(-3, 3)
    dup = rng.integers(n, size=(2, int(rng.integers(0, 3))))
    u[dup[0]] = u[dup[1]]
    f = int(rng.integers(0, n - 2))
    assert np.array_equal(defense.krum_scores(u, f), krum_rows_oracle(u, f))


def test_krum_needs_enough_clients():
    with pytest.raises(defense.DefenseError, match=r"krum needs n >= 4 rows \(got n=3\)"):
        _apply("krum", _updates(0, n=3), f=1)


def test_krum_scores_memory_linear_in_n():
    # one row of distances at a time, and the whole selection through one
    # n x n Gram matrix: the n x n x d difference tensor would take
    # n * d * n * 8 bytes, here 118 MB
    n, d = 60, 4096
    u = np.random.default_rng(0).standard_normal((n, d))
    for select in (lambda: defense.krum_scores(u, f=2), lambda: defense.multi_krum(u, f=12, m=30)):
        tracemalloc.start()
        try:
            select()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * d * 8


def _exact_selection(u, f, m):
    return sorted(np.argsort(defense.krum_scores(u, f), kind="stable")[:m].tolist())


@given(
    f=st.integers(0, 3),
    m=st.integers(1, 3),
    extra=st.integers(0, 4),
    d=st.integers(1, 40),
    twins=st.integers(0, 3),
    dups=st.integers(0, 2),
    zeros=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_multi_krum_selects_what_the_exact_pass_selects(f, m, extra, d, twins, dups, zeros, seed):
    # n from multi-krum's minimum up to 12; each row at a scale from 1e-3 to
    # 1e3, some rows twins of another (noise of relative norm 1e-3, as grmp
    # submits), exact duplicates or zero
    n = defense.min_rows("multi_krum", defense.DefenseParams(f=f, m=m)) + extra
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    for _ in range(twins):
        i, j = rng.choice(n, 2, replace=False)
        noise = rng.standard_normal(d)
        u[j] = u[i] + 1e-3 * np.linalg.norm(u[i]) * noise / np.linalg.norm(noise)
    for _ in range(dups):
        i, j = rng.choice(n, 2, replace=False)
        u[j] = u[i]
    u[rng.choice(n, zeros, replace=False)] = 0.0
    selected, agg = defense.multi_krum(u, f, m)
    assert selected == _exact_selection(u, f, m)
    assert np.array_equal(agg, u[selected].mean(axis=0))


def _pairs(seed):
    """Four distinct rows, each twice: the scores come in equal pairs, so an
    odd m splits a pair at the selection boundary."""
    return np.repeat(np.random.default_rng(seed).standard_normal((4, 5)), 2, axis=0)


def _with_row(value):
    def make(seed):
        u = np.random.default_rng(seed).standard_normal((8, 5))
        u[seed % 8, seed % 5] = value
        return u
    return make


@pytest.mark.parametrize("make", [_pairs, _with_row(np.nan), _with_row(np.inf), _with_row(-np.inf)],
                         ids=["boundary_tie", "nan_row", "inf_row", "minus_inf_row"])
@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_uncertifiable_picks_take_the_exact_pass(monkeypatch, make, m, seed):
    u, f = make(seed), 1
    want = _exact_selection(u, f, m)
    calls = []
    real = defense.krum_scores

    def counting(updates, f):
        calls.append(f)
        return real(updates, f)

    monkeypatch.setattr(defense, "krum_scores", counting)
    assert defense.gram_selection(u, f, m) is None
    selected, agg = defense.multi_krum(u, f, m)
    assert calls == [f]
    assert selected == want
    assert np.array_equal(agg, u[want].mean(axis=0))
    assert np.isfinite(u[selected]).all()


def test_multi_krum_selects_m_best():
    u = _updates(1, n=7)
    sel, agg = defense.multi_krum(u, f=1, m=3)
    oracle = krum_oracle(u, 1)
    assert sel == sorted(np.argsort(oracle, kind="stable")[:3].tolist())
    assert np.allclose(agg, u[sel].mean(axis=0))
    assert np.allclose(defense.krum_scores(u, 1), oracle)


def test_multi_krum_m_bounds():
    with pytest.raises(defense.DefenseError, match=r"multi_krum needs n >= 7 rows \(got n=6\)"):
        _apply("multi_krum", _updates(2, n=6), f=1, m=4)


def test_krum_scale_invariant_argmin():
    u = _updates(3, n=6)
    (i1,), _ = defense.multi_krum(u, 1, 1)
    (i2,), _ = defense.multi_krum(3.7 * u, 1, 1)
    assert i1 == i2


# ---------------------------------------------------------------------------
# trimmed mean / median

@pytest.mark.parametrize("seed", range(10))
def test_trimmed_mean_matches_sort_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 9))
    beta = int(rng.integers(0, (n - 1) // 2 + 1))
    u = rng.standard_normal((n, int(rng.integers(1, 7))))
    assert np.allclose(defense.trimmed_mean(u, beta), trimmed_mean_oracle(u, beta),
                       atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_coord_median_matches_sort_oracle(seed):
    u = _updates(200 + seed, n=int(np.random.default_rng(seed).integers(1, 9)))
    assert np.allclose(_apply("coord_median", u).aggregate, median_oracle(u), atol=1e-12)


def test_trimmed_mean_needs_enough_rows():
    with pytest.raises(defense.DefenseError, match=r"trimmed_mean needs n >= 5 rows \(got n=4\)"):
        _apply("trimmed_mean", _updates(0, n=4), beta=2)


@given(st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=30, deadline=None)
def test_trim_and_median_bounded_by_inputs(seed, data):
    u = _updates(seed, n=6, d=5)
    lo, hi = u.min(axis=0), u.max(axis=0)
    for out in (defense.trimmed_mean(u, 1), _apply("coord_median", u).aggregate):
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()
    # k arbitrary finite hostile rows among n, at any places: the benign rows'
    # per-coordinate range bounds the median while k < n/2, and a trim of
    # beta >= k rows from each end
    n = data.draw(st.integers(1, 9), label="n")
    beta = data.draw(st.integers(0, (n - 1) // 2), label="beta")
    k = data.draw(st.integers(0, beta), label="k")
    d = 5
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k * d, max_size=k * d))
    benign = _updates(seed, n=n - k, d=d)
    order = data.draw(st.permutations(range(n)), label="order")
    rows = np.concatenate([benign, np.array(values).reshape(k, d)])[order]
    lo, hi = benign.min(axis=0), benign.max(axis=0)
    # the median is a kept value, or the halved sum of two, which rounds
    # within them: exactly in range
    med = _apply("coord_median", rows).aggregate
    assert (med >= lo).all() and (med <= hi).all()
    # the trimmed mean sums m = n - 2 beta values in range and divides by m:
    # it errs by under m ulps of the larger of |lo| and |hi|, so n ulps bound it
    tol = n * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    trim = _apply("trimmed_mean", rows, beta=beta).aggregate
    assert (trim >= lo - tol).all() and (trim <= hi + tol).all()


# ---------------------------------------------------------------------------
# geometric median

@pytest.mark.parametrize("seed", range(5))
def test_geometric_median_matches_grid_oracle(seed):
    u = np.random.default_rng(300 + seed).standard_normal((5, 3))
    x = defense.geometric_median(u, 1e-8)
    oracle_val, _ = geomedian_grid_oracle(u)
    assert geomedian_objective(x, u) <= oracle_val + 1e-3


def test_geometric_median_collinear_coincident():
    u = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    x = defense.geometric_median(u, 1e-8)
    assert geomedian_objective(x, u) <= geomedian_objective(np.zeros(2), u) + 1e-6


# ---------------------------------------------------------------------------
# fedavg

def test_fedavg_weighted_mean():
    u = _updates(4, n=3)
    w = np.array([1.0, 2.0, 3.0])
    assert np.allclose(defense.fedavg(u, w), w @ u / w.sum())


def test_fedavg_bad_weights():
    with pytest.raises(defense.DefenseError):
        defense.fedavg(_updates(5, n=2), np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# cosine threshold filter

def test_cosine_filter_threshold_formula():
    u = _updates(6, n=6)
    ref = np.ones(u.shape[1])
    scores = _cosines(u, ref)
    rep = _filter(u, scores, lam=1.5)
    assert np.isclose(rep.threshold, scores.mean() - 1.5 * scores.std())
    assert np.array_equal(rep.accepted, scores >= rep.threshold)
    assert np.allclose(rep.aggregate, u[rep.accepted].mean(axis=0))


def test_cosine_filter_rejects_opposed_update():
    ref = np.array([1.0, 0.0, 0.0])
    u = np.vstack([np.tile(ref, (5, 1)) + 0.01 * _updates(7, n=5, d=3), -10 * ref])
    rep = _filter(u, _cosines(u, ref), lam=1.5)
    assert not rep.accepted[-1]
    assert rep.accepted[:-1].all()


def test_cosine_filter_scale_invariant_scores():
    u = _updates(8, n=5)
    ref = np.ones(u.shape[1])
    c1 = _cosines(u, ref)
    r1 = _filter(u, c1, 1.5)
    u2 = u.copy()
    u2[2] *= 42.0
    c2 = _cosines(u2, ref)
    r2 = _filter(u2, c2, 1.5)
    assert np.isclose(c1[2], c2[2])
    assert np.array_equal(r1.accepted, r2.accepted)


def test_cosine_filter_errors():
    with pytest.raises(defense.DefenseError, match=r"cosine_filter needs n >= 2 rows \(got n=1\)"):
        _apply("cosine_filter", _updates(9, n=1))
    with pytest.raises(defense.DefenseError, match="no updates survive"):
        # a NaN cosine makes the threshold NaN, which no cosine clears
        _filter(_updates(9, n=3), np.array([0.1, np.nan, 0.9]), 1.5)
    with pytest.raises(defense.DefenseError, match="reference has zero norm"):
        # the server passes no cosines when its reference has zero norm
        _filter(_updates(9, n=3), None, 1.5)


def test_cosine_filter_accepts_equal_cosines_at_lambda_zero():
    # np.mean of three 0.1s rounds above 0.1; the threshold is clamped to it
    cos = np.full(3, 0.1)
    assert cos.mean() > 0.1
    rep = _filter(_updates(11, n=3), cos, 0.0)
    assert rep.threshold == 0.1 and rep.accepted.all()


@given(
    cos=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
    lam=st.floats(0.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_cosine_threshold_clamp_changes_no_cleared_threshold(cos, lam):
    s = np.array(cos)
    unclamped = float(s.mean() - lam * s.std())
    got = defense.cosine_threshold(s, lam)
    assert got <= s.max()
    if (s >= unclamped).any():
        assert got == unclamped


@given(
    n=st.integers(2, 12),
    data=st.data(),
    a=st.floats(-0.99, 0.99),
    lam=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cosine_threshold_twin_bound(n, data, a, lam, seed):
    # k equal cosines among n clear mean - lam * std whenever (n - k)/k < lam^2:
    # the std is at least sqrt(k (n - k)) / n * |mean of the others - a|, and
    # the mean sits (n - k)/n of that gap away from a. The others lie at least
    # 1e-6 from a, and lam^2 exceeds (n - k)/k by a relative 1e-6, so the
    # margin dwarfs the rounding of the mean and the std
    k = data.draw(st.integers(1, n))
    assume((n - k) / k < lam**2 * (1 - 1e-6))
    rng = np.random.default_rng(seed)
    others = rng.uniform(-1.0, 1.0, n - k)
    others = np.where(np.abs(others - a) < 1e-6, a + np.copysign(1e-6, others - a), others)
    cos = rng.permutation(np.concatenate([np.full(k, a), others]))
    assert defense.cosine_threshold(cos, lam) <= a


def test_cosine_threshold_twin_bound_witness():
    # k = 2 zeros among n = 6: (n - k)/k = 2 lies between 1.4^2 and 1.5^2
    cos = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    rejected = _filter(np.eye(6), cos, 1.4)
    accepted = _filter(np.eye(6), cos, 1.5)
    assert not rejected.accepted[:2].any() and rejected.accepted[2:].all()
    assert accepted.accepted.all()


# ---------------------------------------------------------------------------
# dispatcher + permutation equivariance

@pytest.mark.parametrize("name", defense.DEFENSES)
def test_apply_defense_permutation_equivariant(name):
    u = _updates(10, n=6)
    ref = np.ones(u.shape[1])
    w = np.ones(6)
    params = defense.DefenseParams()
    perm = np.random.default_rng(0).permutation(6)
    cos = _cosines(u, ref)
    r1 = defense.apply_defense(name, u, w, cos, params)
    r2 = defense.apply_defense(name, u[perm], w[perm], cos[perm], params)
    assert np.allclose(r1.aggregate, r2.aggregate, atol=1e-9)
    assert np.array_equal(r1.accepted[perm], r2.accepted)
    if name in ("krum", "multi_krum"):
        assert np.allclose(defense.krum_scores(u, params.f)[perm], defense.krum_scores(u[perm], params.f))


@pytest.mark.parametrize("name", defense.DEFENSES)
@given(
    extra=st.integers(0, 6),
    d=st.integers(1, 8),
    f=st.integers(0, 3),
    beta=st.integers(0, 3),
    m=st.integers(1, 4),
    lam=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_apply_defense_permutation_equivariant_property(name, extra, d, f, beta, m, lam, seed):
    # distinct rows, so no tie falls to the lowest index: a rule accepts the
    # permuted rows and aggregates them to the same point. Under krum the two
    # rows of the closest pair still tie when each row's score is its one
    # nearest distance, so an instance tied at the selection boundary is skipped
    params = defense.DefenseParams(f=f, m=m, beta=beta, lambda_=lam)
    n = defense.min_rows(name, params) + extra
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, d))
    if name in ("krum", "multi_krum"):
        kept = 1 if name == "krum" else m
        scores = np.sort(defense.krum_scores(u, f))
        assume(scores[kept - 1] < scores[kept])
    w = rng.uniform(0.5, 2.0, n)
    cos = _cosines(u, u.mean(axis=0))
    perm = rng.permutation(n)
    r1 = defense.apply_defense(name, u, w, cos, params)
    r2 = defense.apply_defense(name, u[perm], w[perm], cos[perm], params)
    assert np.array_equal(r1.accepted[perm], r2.accepted)
    assert np.allclose(r1.aggregate, r2.aggregate, rtol=0, atol=1e-7)


@pytest.mark.parametrize("name", defense.DEFENSES)
@given(
    extra=st.integers(0, 4),
    d=st.integers(1, 6),
    f=st.integers(0, 3),
    beta=st.integers(0, 3),
    m=st.integers(1, 4),
    lam=st.floats(0.0, 3.0),
    tie=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_apply_defense_report_contract_on_hostile_rows(name, extra, d, f, beta, m, lam, tie, seed):
    # n from the rule's minimum up; every instance holds a duplicated row and
    # either a zero row or cosines that are all equal, and the rows' scales
    # span 1e-3 to 1e3
    params = defense.DefenseParams(f=f, m=m, beta=beta, lambda_=lam)
    n = defense.min_rows(name, params) + extra
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    zero = 0
    if n >= 2:
        zero, dup = rng.choice(n, 2, replace=False)
        u[dup] = u[rng.choice(np.delete(np.arange(n), dup))]
    if not tie:
        u[zero] = 0.0
    cos = np.full(n, rng.uniform(-0.99, 0.99)) if tie else _cosines(u, u.mean(axis=0))
    w = rng.integers(1, 100, n).astype(float)
    rep = defense.apply_defense(name, u, w, cos, params)
    assert rep.accepted.dtype == bool and rep.accepted.shape == (n,)
    assert (rep.threshold is not None) == (name == "cosine_filter")
    if name in ("krum", "multi_krum"):
        assert rep.accepted.sum() == (m if name == "multi_krum" else 1)
    assert np.isfinite(rep.aggregate).all()
    tol = 1e-9 * np.abs(u).max()
    assert (rep.aggregate >= u.min(axis=0) - tol).all() and (rep.aggregate <= u.max(axis=0) + tol).all()


@pytest.mark.parametrize("name", defense.DEFENSES)
@given(
    extra=st.integers(0, 4),
    d=st.integers(1, 6),
    f=st.integers(0, 3),
    beta=st.integers(0, 3),
    m=st.integers(1, 4),
    lam=st.floats(0.0, 3.0),
    k=st.integers(-10, 10),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_apply_defense_scale_equivariant_property(name, extra, d, f, beta, m, lam, k, seed):
    # rows scaled by c = 2^k: every distance, sort, mean and cosine moves by
    # c, c^2 or not at all, exactly, so a rule accepts the same rows, sets the
    # same threshold and returns c times its aggregate, bit for bit. Weiszfeld
    # runs with gm_tol * c and clamps a distance relative to the rows' scale
    c = 2.0**k
    params = defense.DefenseParams(f=f, m=m, beta=beta, lambda_=lam)
    n = defense.min_rows(name, params) + extra
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    if n >= 2:
        dup = rng.choice(n, 2, replace=False)
        u[dup[0]] = u[dup[1]]
    w = rng.integers(1, 100, n).astype(float)
    ref = u.mean(axis=0)
    r1 = defense.apply_defense(name, u, w, _cosines(u, ref), params)
    scaled = dataclasses.replace(params, gm_tol=params.gm_tol * c)
    r2 = defense.apply_defense(name, c * u, w, _cosines(c * u, c * ref), scaled)
    assert np.array_equal(r1.accepted, r2.accepted)
    assert r1.threshold == r2.threshold
    assert r2.aggregate.tobytes() == (c * r1.aggregate).tobytes()


@pytest.mark.parametrize("name", defense.DEFENSES)
@given(
    f=st.integers(0, 5),
    m=st.integers(1, 5),
    beta=st.integers(0, 5),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_min_rows_is_where_apply_defense_and_validate_start(name, f, m, beta, d, seed):
    params = defense.DefenseParams(f=f, m=m, beta=beta)
    need = defense.min_rows(name, params)
    rng = np.random.default_rng(seed)

    def run(n):
        u = rng.standard_normal((n, d))
        return defense.apply_defense(name, u, np.ones(n), _cosines(u, u.mean(axis=0)), params)

    def validate(n):
        sim.ExperimentConfig(
            n_clients=n, n_attackers=0, attack="none", defense=name, defense_params=params
        ).validate()

    if need > 1:
        with pytest.raises(defense.DefenseError, match=rf"^{name} needs n >= {need} rows \(got n={need - 1}\)$"):
            run(need - 1)
        with pytest.raises(ValueError, match=rf"^{name} needs n_clients >= {need} \(got {need - 1};"):
            validate(need - 1)
    assert run(need).accepted.shape == (need,)
    validate(need)


def _krum_instance(rng):
    """Random rows with duplicates, at a scale from 1e-3 to 1e3, and an f and
    m that krum and multi-krum accept."""
    n = int(rng.integers(4, 30))
    u = rng.standard_normal((n, int(rng.integers(1, 200)))) * 10.0 ** rng.uniform(-3, 3)
    dup = rng.integers(n, size=(2, int(rng.integers(0, 3))))
    u[dup[0]] = u[dup[1]]
    f = int(rng.integers(0, n - 2))
    return u, f, int(rng.integers(1, n - f - 1))


@pytest.mark.parametrize("seed", range(30))
def test_apply_krum_is_multi_krum_keeping_one(seed):
    u, f, _ = _krum_instance(np.random.default_rng(seed))
    params = defense.DefenseParams(f=f, m=1)
    cos = _cosines(u, np.ones(u.shape[1]))
    r1 = defense.apply_defense("krum", u, np.ones(len(u)), cos, params)
    r2 = defense.apply_defense("multi_krum", u, np.ones(len(u)), cos, params)
    assert np.array_equal(r1.aggregate, r2.aggregate)
    assert np.array_equal(r1.accepted, r2.accepted)
    assert r1.accepted.sum() == 1
    assert np.array_equal(r1.aggregate, u[r1.accepted][0])


@pytest.mark.parametrize("seed", range(30))
def test_krum_rules_never_select_a_nan_row(seed):
    # the row's distances are NaN, which sort last: out of every other row's
    # n-f-2 nearest, and its own score last
    rng = np.random.default_rng(1000 + seed)
    u, f, m = _krum_instance(rng)
    bad = int(rng.integers(len(u)))
    u[bad, int(rng.integers(u.shape[1]))] = np.nan
    cos = _cosines(u, np.ones(u.shape[1]))
    for name in ("krum", "multi_krum"):
        rep = defense.apply_defense(name, u, np.ones(len(u)), cos, defense.DefenseParams(f=f, m=m))
        assert not rep.accepted[bad]
        assert np.isfinite(rep.aggregate).all()


def krum_scores_allocating(updates, f):
    """krum_scores as written before its distances got one reused buffer and
    before one sort of the off-diagonal distances scored every row."""
    n = len(updates)
    d2 = np.zeros((n, n))
    for i in range(n - 1):
        d2[i, i + 1 :] = d2[i + 1 :, i] = np.sum((updates[i + 1 :] - updates[i]) ** 2, axis=1)
    return np.array([np.sort(np.delete(d2[i], i))[: n - f - 2].sum() for i in range(n)])


def geometric_median_allocating(updates, tol, max_iter):
    """geometric_median as written before its distances got one reused buffer,
    with its distance clamp relative to the rows' largest entry magnitude."""
    floor = 1e-12 * (np.abs(updates).max() or 1.0)
    x = updates.mean(axis=0)
    for _ in range(max_iter):
        w = 1.0 / np.maximum(np.linalg.norm(updates - x, axis=1), floor)
        x_new = w @ updates / w.sum()
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step < tol:
            break
    return x


@pytest.mark.parametrize("seed", range(20))
def test_buffered_distances_equal_the_allocating_expressions(seed):
    # duplicate rows in every instance, a NaN entry in every other one
    rng = np.random.default_rng(2000 + seed)
    u, f, _ = _krum_instance(rng)
    if seed % 2:
        u[int(rng.integers(len(u))), int(rng.integers(u.shape[1]))] = np.nan
    # one sort of the off-diagonal distances scores every row as the per-row
    # loop does: the NaN row scores NaN, and its distance sorts last elsewhere
    want = krum_scores_allocating(u, f)
    assert np.array_equal(defense.krum_scores(u, f), want, equal_nan=True)
    assert np.isnan(want).sum() == seed % 2
    got, want = defense.geometric_median(u, 1e-8, 200), geometric_median_allocating(u, 1e-8, 200)
    assert np.array_equal(got, want, equal_nan=True)


def test_apply_defense_unknown_rule():
    with pytest.raises(defense.DefenseError):
        defense.apply_defense("madness", _updates(0), np.ones(6), np.ones(6),
                              defense.DefenseParams())
