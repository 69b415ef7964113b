"""Linear softmax classifier over hashed features, trained by plain SGD.

The weight matrix W has shape (class_count, hash_dim) and is carried around
flattened row-major; updates exchanged with the server are deltas in the same
layout.
"""

from __future__ import annotations

import struct

import numpy as np


def init_params(hash_dim: int, class_count: int) -> np.ndarray:
    """Zero init: softmax over zero logits is uniform."""
    if hash_dim < 1 or class_count < 1:
        raise ValueError("dims must be >= 1")
    return np.zeros(hash_dim * class_count)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(params: np.ndarray, X: np.ndarray, class_count: int) -> np.ndarray:
    W = params.reshape(class_count, -1)
    if W.shape[1] != X.shape[1]:
        raise ValueError(f"feature dim {X.shape[1]} != weight dim {W.shape[1]}")
    return _softmax(X @ W.T)


def loss_and_grad(
    params: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    weight_decay: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its analytic gradient in the flat layout."""
    if len(X) == 0:
        raise ValueError("empty batch")
    P = predict_proba(params, X, class_count)
    n = len(y)
    loss = -float(np.mean(np.log(P[np.arange(n), y] + 1e-300)))
    G = P.copy()
    G[np.arange(n), y] -= 1.0
    grad = (G.T @ X / n).ravel()
    if weight_decay:
        loss += 0.5 * weight_decay * float(params @ params)
        grad = grad + weight_decay * params
    return loss, grad


def local_train(
    global_params: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """Mini-batch SGD from a copy of global_params; returns trained - global."""
    if len(X) == 0:
        raise ValueError("empty local dataset")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    rng = np.random.default_rng(seed)
    w = global_params.copy()
    n = len(X)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _, g = loss_and_grad(w, X[idx], y[idx], class_count, weight_decay)
            w -= lr * g
    return w - global_params


def evaluate_accuracy(params: np.ndarray, X: np.ndarray, y: np.ndarray, class_count: int) -> float:
    """Argmax accuracy; ties resolve to the lowest class id (np.argmax)."""
    if len(X) == 0:
        raise ValueError("empty test set")
    preds = predict_proba(params, X, class_count).argmax(axis=1)
    return float(np.mean(preds == y))


def evaluate_asr(params: np.ndarray, X_subset: np.ndarray, dst_class: int, class_count: int) -> float:
    """Fraction of the trigger subset predicted as the attacker's target class."""
    if len(X_subset) == 0:
        raise ValueError("empty ASR subset")
    preds = predict_proba(params, X_subset, class_count).argmax(axis=1)
    return float(np.mean(preds == dst_class))


def save_params(params: np.ndarray, path: str) -> None:
    """Little-endian float64 array with an 8-byte dim header."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", params.size))
        fh.write(params.astype("<f8").tobytes())


def load_params(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        (dim,) = struct.unpack("<q", fh.read(8))
        buf = fh.read()
    arr = np.frombuffer(buf, dtype="<f8")
    if arr.size != dim:
        raise ValueError(f"checkpoint dim header {dim} != payload size {arr.size}")
    return arr.astype(np.float64)
