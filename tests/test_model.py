"""Classifier: loss/gradient oracles, SGD behavior, evaluation, checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedpoison import model


def _instance(seed, n=12, d=6, k=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)
    params = 0.1 * rng.standard_normal(d * k)
    return X, y, params, k


def _sparse(X):
    """SparseRows of a dense matrix, read off np.nonzero: each row's nonzero
    entries in column order, padded with its first pair, (0, 0.0) for an
    all-zero row."""
    X = np.asarray(X, dtype=float)
    rows, cols = np.nonzero(X)
    counts = np.bincount(rows, minlength=len(X))
    first = np.cumsum(counts) - counts  # where each row's pairs start
    pad = np.zeros(len(X), dtype=np.intp)
    pad[counts > 0] = cols[first[counts > 0]]
    C = np.repeat(pad[:, None], max(counts.max(initial=0), 1), axis=1)
    C[rows, np.arange(len(rows)) - first[rows]] = cols
    # each pair's value read at its column; + 0.0 turns -0.0 into 0.0
    return model.SparseRows(C, X[np.arange(len(X))[:, None], C] + 0.0, X.shape[1])


def _train_instance(seed, n, d):
    """A non-negative, mostly-zero instance like hashed features, with a row
    whose only entry is in column 0 and an all-zero row."""
    X, y, params, k = _instance(seed, n=n, d=d)
    X = np.abs(X) * (np.random.default_rng(seed).random(X.shape) < 0.3)
    X[0] = 0.0
    X[0, 0] = 0.7
    X[1 % n] = 0.0
    return X, y, params, k


def loss_and_grad(params, X, y, class_count):
    """Mean cross-entropy and its analytic gradient in the flat layout: the
    gradient oracle that the finite differences check and that one full-batch
    step of local_train must take bit for bit."""
    if len(X) == 0:
        raise ValueError("empty batch")
    W = params.reshape(class_count, -1)
    if W.shape[1] != X.shape[1]:
        raise ValueError(f"feature dim {X.shape[1]} != weight dim {W.shape[1]}")
    P = model._softmax(X @ W.T)
    at = (np.arange(len(X)), y)
    p_y = P[at]
    P[at] = p_y - 1.0
    loss = -float(np.mean(np.log(p_y + 1e-300)))
    grad = (P.T @ X).ravel() / len(X)
    return loss, grad


def fd_gradient(params, X, y, k, h=1e-5):
    """Central finite differences, the gradient oracle."""
    g = np.zeros_like(params)
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        lu, _ = loss_and_grad(up, X, y, k)
        ld, _ = loss_and_grad(dn, X, y, k)
        g[i] = (lu - ld) / (2 * h)
    return g


def sgd_oracle(params, X, y, k, epochs, lr, batch_size, seed):
    """Mini-batch SGD with each step's gradient written out: softmax
    probabilities minus the one-hot labels, times the batch over its size."""
    rng = np.random.default_rng(seed)
    w = params.copy()
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            idx = order[start:start + batch_size]
            Xb, yb = X[idx], y[idx]
            logits = Xb @ w.reshape(k, -1).T
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            G = e / e.sum(axis=1, keepdims=True)
            G[np.arange(len(idx)), yb] -= 1.0
            g = (G.T @ Xb / len(idx)).ravel()
            w -= lr * g
    return w - params


# ---------------------------------------------------------------------------
# loss & gradient

def test_zero_params_loss_is_log_k():
    X, y, _, k = _instance(0)
    loss, _ = loss_and_grad(np.zeros(X.shape[1] * k), X, y, k)
    assert np.isclose(loss, np.log(k))


def test_zero_params_grad_closed_form():
    # at W=0 softmax is uniform, so G = 1/k - onehot, grad = G^T X / n
    X, y, _, k = _instance(1)
    _, grad = loss_and_grad(np.zeros(X.shape[1] * k), X, y, k)
    n = len(y)
    G = np.full((n, k), 1.0 / k)
    G[np.arange(n), y] -= 1.0
    assert np.allclose(grad, (G.T @ X / n).ravel(), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    X, y, params, k = _instance(seed, n=8, d=5)
    _, grad = loss_and_grad(params, X, y, k)
    fd = fd_gradient(params, X, y, k)
    assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-4


def test_softmax_rows_normalized():
    X, y, params, k = _instance(4)
    P = model.predict_proba(params, X)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert (P > 0).all()


# class-major logits as local_train holds them: k copies x C classes x m rows,
# at magnitudes where exp underflows, with ties among a row's classes
_logits = st.one_of(st.floats(-700.0, 700.0), st.sampled_from([-700.0, -1.0, 0.0, 1.0, 700.0]))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 40)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=_logits)))
def test_class_major_softmax_equals_the_row_softmax(P):
    # the reduction over axis -2 into a strided view of a wider buffer, as in
    # local_train's last batch, gives every bit of the softmax over the rows
    k, _, m = P.shape
    red = np.empty((k, 1, m + 3))[:, :, :m]
    want = model._softmax(P.swapaxes(-1, -2).copy()).swapaxes(-1, -2)
    assert model._softmax(P.copy(), -2, red).tobytes() == want.tobytes()


def test_loss_and_grad_oracle_rejects_an_empty_batch():
    # local_train takes no empty batch: every client holds a train example
    with pytest.raises(ValueError):
        loss_and_grad(np.zeros(8), np.zeros((0, 2)), np.zeros(0, dtype=int), 4)


# ---------------------------------------------------------------------------
# sparse features

# mostly zeros, as hashed features are, and non-negative
_entries = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))


def _dense(S):
    X = np.zeros((len(S), S.dim))
    X[np.arange(len(S))[:, None], S.cols] = S.vals
    return X


@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 8)), elements=_entries))
@example(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 2.0, 3.0]]))  # empty and column-0-only rows
@example(np.array([[0.0], [3.0], [0.0]]))  # dim = 1
@settings(deadline=None)
def test_sparse_rows_round_trip(X):
    S = _sparse(X)
    assert (S.dim, S.cols.dtype, S.vals.shape) == (X.shape[1], np.intp, S.cols.shape)
    assert S.cols.shape[1] == max(np.count_nonzero(X, axis=1).max(initial=0), 1)
    # every pair, padding included, holds its column's value, so the order
    # of a scatter's writes cannot matter
    assert np.array_equal(S.vals, X[np.arange(len(X))[:, None], S.cols])
    assert _dense(S).tobytes() == X.tobytes()


@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 8)), elements=_entries))
@example(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 2.0, 3.0]]))
@settings(deadline=None)
def test_sparse_rows_from_pairs_equals_from_dense_and_densifies_back(X):
    rows, cols = np.nonzero(X)
    got = model.SparseRows.from_pairs(rows, cols, X[rows, cols], *X.shape)
    want = _sparse(X)
    assert got.dim == want.dim and got.cols.dtype == np.intp
    assert np.array_equal(got.cols, want.cols) and got.vals.tobytes() == want.vals.tobytes()
    assert got.dense().tobytes() == (X + 0.0).tobytes()


# ---------------------------------------------------------------------------
# local training

def test_local_train_zero_lr_zero_delta():
    X, y, params, _ = _instance(5)
    delta = model.local_train(params, _sparse(X), y, epochs=2, lr=0.0, batch_size=4, seed=0)
    assert not delta.any()


@pytest.mark.parametrize("n, batch_size", [(12, 12), (12, 20), (16, 16)])
def test_local_train_full_batch_step_is_the_loss_and_grad_step(n, batch_size):
    # one step over every row, in the order local_train draws: the gradient
    # it trains with is loss_and_grad's, bit for bit, so the finite-difference
    # checks of loss_and_grad cover the gradient that runs train with
    X, y, params, k = _instance(6, n=n)
    delta = model.local_train(params, _sparse(X), y, epochs=1, lr=0.5, batch_size=batch_size, seed=3)
    order = np.random.default_rng(3).permutation(n)
    _, g = loss_and_grad(params, X[order], y[order], k)
    assert delta.tobytes() == ((params - 0.5 * g) - params).tobytes()


@given(hnp.arrays(np.float64, st.integers(1, 16), elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.integers(0, 10))
@example(np.array([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.7976931348623157e308, 3.0]), 10)
def test_scaling_by_a_power_of_two_multiplies_as_it_divides(x, j):
    # local_train scales a gradient by 1/m with one multiply when m = 2^j:
    # both are the correctly rounded x 2^-j, subnormals and signed zeros too
    assert (x / 2**j).tobytes() == (x * (1.0 / 2**j)).tobytes()


def test_scaling_by_other_batch_sizes_must_divide():
    # 1/3 is not a double, so x * (1/3) rounds twice; local_train keeps G /= m
    x = np.array([5.0, 7.0, 10.0])
    for m in (3, 12):
        assert (x / m != x * (1.0 / m)).all()


def test_local_train_deterministic_and_leaves_input_alone():
    X, y, params, _ = _instance(7)
    before = params.copy()
    d1 = model.local_train(params, _sparse(X), y, 3, 0.1, 4, seed=42)
    d2 = model.local_train(params, _sparse(X), y, 3, 0.1, 4, seed=42)
    assert np.array_equal(d1, d2)
    assert np.array_equal(params, before)


# (n, d, batch_size): ragged last batches, one batch of exactly n rows or more
# than n, a desk-sized instance, two rows (the column-0 one and the all-zero
# one) in a batch of 32, one row per batch, two full batches, and the hash
# dimension runs use (batches of 32, 32 and 11)
_SGD_CASES = [
    (13, 6, 4), (13, 6, 13), (13, 6, 20), (13, 6, 5), (70, 128, 32), (2, 5, 32), (7, 6, 1), (8, 6, 4), (75, 1024, 32),
]


@pytest.mark.parametrize("n, d, batch_size", _SGD_CASES)
def test_local_train_equals_the_written_out_sgd(n, d, batch_size):
    X, y, params, k = _train_instance(10, n, d)
    for seed in range(3):
        want = sgd_oracle(params, X, y, k, 4, 0.3, batch_size, seed)
        got = model.local_train(params, _sparse(X), y, 4, 0.3, batch_size, seed)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("n, d, batch_size", _SGD_CASES)
def test_local_train_label_sets_in_lockstep_equal_single_calls(copies, n, d, batch_size):
    X, _, params, k = _train_instance(11, n, d)
    X = _sparse(X)
    Y = np.random.default_rng(copies).integers(0, k, size=(copies, n))
    args = (3, 0.3, batch_size, 7)
    stacked = model.local_train(params, X, Y, *args)
    assert stacked.shape == (copies, params.size)
    for i in range(copies):
        assert np.array_equal(stacked[i], model.local_train(params, X, Y[i], *args))


def test_local_train_equal_label_sets_in_lockstep_give_equal_deltas():
    X, y, params, _ = _train_instance(12, 13, 6)
    deltas = model.local_train(params, _sparse(X), np.stack([y, y]), 3, 0.3, 4, 5)
    assert np.array_equal(deltas[0], deltas[1])


def test_local_train_decreases_loss():
    X, y, params, k = _instance(8, n=60)
    delta = model.local_train(params, _sparse(X), y, epochs=5, lr=0.3, batch_size=16, seed=1)
    l0, _ = loss_and_grad(params, X, y, k)
    l1, _ = loss_and_grad(params + delta, X, y, k)
    assert l1 < l0


# ---------------------------------------------------------------------------
# evaluation

def test_accuracy_perfect_and_tie_break():
    X = np.eye(3)
    W = np.eye(3) * 5.0
    assert model.evaluate_accuracy(W.ravel(), X, np.arange(3)) == 1.0
    # zero params: argmax ties resolve to class 0
    y = np.array([0, 1, 2])
    assert np.isclose(model.evaluate_accuracy(np.zeros(9), X, y), 1 / 3)


def test_asr_counts_dst_class():
    X = np.eye(2)
    W = np.array([[3.0, 0.0], [0.0, -1.0]])  # both examples land in class 0
    assert model.evaluate_asr(W.ravel(), X, dst_class=0) == 1.0
    assert model.evaluate_asr(W.ravel(), X, dst_class=1) == 0.0


# ---------------------------------------------------------------------------
# checkpoint round trip

@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_params_round_trip(tmp_path_factory, dim, seed):
    path = str(tmp_path_factory.mktemp("ckpt") / "m.bin")
    params = np.random.default_rng(seed).standard_normal(dim)
    model.save_params(params, path)
    assert np.array_equal(model.load_params(path), params)


def test_load_params_header_mismatch(tmp_path):
    path = tmp_path / "bad.bin"
    for payload in (
        struct.pack("<q", 99) + np.zeros(3).tobytes(),  # the header disagrees with the payload
        b"\x03\x00\x00",  # shorter than the header
        struct.pack("<q", 3) + np.zeros(3).tobytes()[:-1],  # a payload cut mid-value
    ):
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="bad.bin"):
            model.load_params(str(path))
