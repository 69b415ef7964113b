"""Linear softmax classifier over hashed features, trained by plain SGD.

The weight matrix W has shape (class_count, hash_dim) and is carried around
flattened row-major; updates exchanged with the server are deltas in the same
layout. Only `init_params` takes the class count; the rest read it from the
weights. Config values arrive checked by `ExperimentConfig.validate`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseRows:
    """An n x dim matrix as w (column, value) pairs per row, w at least its
    longest row: row i holds vals[i, j] at column cols[i, j]. A shorter row
    repeats its first pair and an all-zero row holds (0, 0.0), so a column
    seen twice carries one value and a row's scatter does not depend on write
    order."""

    cols: np.ndarray  # n x w, intp
    vals: np.ndarray  # n x w, float64
    dim: int

    def __len__(self) -> int:
        return len(self.cols)

    @classmethod
    def from_pairs(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int, dim: int) -> SparseRows:
        """The n x dim matrix holding vals[i] at (rows[i], cols[i]), from
        distinct nonzero entries sorted by row."""
        counts = np.bincount(rows, minlength=n)
        first = np.cumsum(counts) - counts  # where each row's pairs start
        filled = counts > 0
        C = np.zeros((n, max(counts.max(initial=0), 1)), dtype=np.intp)
        V = np.zeros(C.shape)
        C[filled] = cols[first[filled], None]
        V[filled] = vals[first[filled], None]
        at = (rows, np.arange(len(rows)) - first[rows])
        C[at], V[at] = cols, vals
        return cls(C, V, dim)

    def dense(self) -> np.ndarray:
        """The rows as one n x dim array."""
        X = np.zeros((len(self), self.dim))
        X[np.arange(len(self))[:, None], self.cols] = self.vals
        return X


def child_seed(seed: int, *tags) -> int:
    """Stable derived seed for a named stream (crc32, not randomized hash())."""
    ent = [seed] + [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(ent).generate_state(1)[0])


def init_params(hash_dim: int, class_count: int) -> np.ndarray:
    """Zero init: softmax over zero logits is uniform."""
    return np.zeros(hash_dim * class_count)


def _softmax(logits: np.ndarray, axis: int = -1, red: np.ndarray | None = None) -> np.ndarray:
    """Softmax over `axis`, computed in place in `logits`; `red`, shaped as
    a reduction over `axis` with its dims kept, holds the max and the sum."""
    logits -= np.maximum.reduce(logits, axis=axis, keepdims=True, out=red)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=axis, keepdims=True, out=red)
    return logits


def predict_proba(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    return _softmax(X @ params.reshape(-1, X.shape[1]).T)


def local_train(
    global_params: np.ndarray,
    X: SparseRows,
    y: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Mini-batch SGD from a copy of global_params; returns trained - global.

    y holds one label per row, or k label sets as a k x n array: the k copies
    then train in lockstep over one batch order, and row i of the returned
    k x D deltas equals the delta of a call with y[i] alone. Each batch is
    densified into one reused buffer, bit for bit the dense rows.

    Probabilities are held class-major (k x C x m), so a step's gradient
    (softmax - one-hot labels) X / m takes both GEMM operands row-major;
    subtracting a one-hot 0.0 leaves a probability's bits as they are. The
    logits W X^T are the same BLAS call as the sample-major X W^T, and the
    softmax sums each column's C classes in the same order, so every bit is
    that of the sample-major step. The forward stays W X^T over the batch's
    m rows: a contiguous W^T, a transposed buffer, or rows padded to the
    batch size each change bits. When m is a power of two, 1/m is one
    multiply, the same correctly rounded number as x / m in under half the
    divide's time; other m divide. Each product is one matmul per copy, the
    one a single copy gets, so every copy gets the bits of its own call.
    """
    rng = np.random.default_rng(seed)
    Y = np.atleast_2d(y)
    k, n = len(Y), len(X)
    W = np.tile(global_params, (k, 1)).reshape(k, -1, X.dim)
    onehot = np.zeros(W.shape[:2] + (n,))
    onehot[np.arange(k)[:, None], Y, np.arange(n)] = 1.0
    # one batch's dense rows, probabilities, column reductions and gradient
    buf = np.zeros((min(batch_size, n), X.dim))
    P = np.empty(W.shape[:2] + (len(buf),))
    red = np.empty((k, 1, len(buf)))
    G = np.empty_like(W)
    # the flat index of each row's pairs in buf, at its place in its batch
    flat, place = buf.reshape(-1), X.dim * (np.arange(n) % batch_size)[:, None]
    for _ in range(epochs):
        order = rng.permutation(n)
        written, vals, labels = X.cols[order] + place, X.vals[order], onehot[:, :, order]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            at = written[start:stop]
            m = len(at)
            Xb, Pb, rb = buf[:m], P[:, :, :m], red[:, :, :m]
            flat[at] = vals[start:stop]
            _softmax(np.matmul(W, Xb.T, out=Pb), -2, rb)
            Pb -= labels[:, :, start:stop]
            np.matmul(Pb, Xb, out=G)
            flat[at] = 0.0
            if m & (m - 1):
                G /= m
            else:
                G *= 1.0 / m
            G *= lr
            W -= G
    delta = W.reshape(k, -1) - global_params
    return delta if np.ndim(y) == 2 else delta[0]


def evaluate_accuracy(params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Argmax accuracy; ties resolve to the lowest class id (np.argmax)."""
    preds = predict_proba(params, X).argmax(axis=1)
    return float(np.mean(preds == y))


def evaluate_asr(params: np.ndarray, X_subset: np.ndarray, dst_class: int) -> float:
    """Fraction of the trigger subset predicted as the attacker's target class."""
    preds = predict_proba(params, X_subset).argmax(axis=1)
    return float(np.mean(preds == dst_class))


def save_params(params: np.ndarray, path: str) -> None:
    """Little-endian float64 array with an 8-byte dim header."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", params.size))
        fh.write(params.astype("<f8").tobytes())


def load_params(path: str) -> np.ndarray:
    """The array `save_params` wrote; a truncated or inconsistent file, which
    comes from outside a run, is named."""
    with open(path, "rb") as fh:
        head, buf = fh.read(8), fh.read()
    if len(head) < 8 or len(buf) % 8:
        raise ValueError(f"{path}: truncated checkpoint ({len(head) + len(buf)} bytes)")
    (dim,) = struct.unpack("<q", head)
    arr = np.frombuffer(buf, dtype="<f8")
    if arr.size != dim:
        raise ValueError(f"{path}: checkpoint dim header {dim} != payload size {arr.size}")
    return arr.astype(np.float64)
