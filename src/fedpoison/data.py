"""Corpus handling: ingestion, synthesis, hashing features, non-IID splits.

The text pipeline is deliberately primitive (lowercase alphanumeric tokens,
hashed bag-of-words) so that every step has a one-line independent oracle.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

CLASS_NAMES = ("world", "sports", "business", "science")
N_CLASSES = 4

# financial keywords targeted by the label-flip objective
DEFAULT_TRIGGERS = ("stock", "market", "earnings", "profit")

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class Example:
    tokens: tuple[str, ...]
    label: int


@dataclass
class Corpus:
    train: list[Example]
    test: list[Example]
    class_count: int = N_CLASSES


@dataclass
class DataConfig:
    source: str = "synth"  # "synth" or "agnews"
    train_per_class: int = 500
    test_per_class: int = 62
    vocab_per_class: int = 30
    trigger_rate: float = 0.2
    alpha: float = 0.5
    hash_dim: int = 1024
    triggers: tuple[str, ...] = DEFAULT_TRIGGERS
    src_class: int = 2  # business
    dst_class: int = 1  # sports
    agnews_train: str = ""
    agnews_test: str = ""


def tokenize(text: str) -> tuple[str, ...]:
    return tuple(_TOKEN_RE.findall(text.lower()))


def _read_agnews_split(path: str) -> list[Example]:
    examples: list[Example] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for rownum, row in enumerate(reader, start=1):
            if rownum == 1 and row and row[0].strip().lower() in ("class index", "class"):
                continue  # header line of the Kaggle export
            if len(row) != 3:
                raise ValueError(f"{path}: row {rownum}: expected 3 columns, got {len(row)}")
            cls_raw, title, desc = row
            try:
                cls = int(cls_raw)
            except ValueError:
                raise ValueError(f"{path}: row {rownum}: bad class index {cls_raw!r}") from None
            if not 1 <= cls <= N_CLASSES:
                raise ValueError(f"{path}: row {rownum}: class {cls} outside 1..{N_CLASSES}")
            tokens = tokenize(title + " " + desc)
            if not tokens:
                raise ValueError(f"{path}: row {rownum}: no tokens after filtering")
            examples.append(Example(tokens=tokens, label=cls - 1))
    if not examples:
        raise ValueError(f"{path}: no rows")
    return examples


def load_agnews_csv(train_path: str, test_path: str) -> Corpus:
    """Load the Kaggle AG News CSVs (class 1..4, title, description)."""
    return Corpus(train=_read_agnews_split(train_path), test=_read_agnews_split(test_path))


def _synth_example(rng: np.random.Generator, label: int, cfg: DataConfig) -> Example:
    n_tok = int(rng.integers(8, 21))
    n_noise = 6 * cfg.vocab_per_class
    toks = []
    for _ in range(n_tok):
        if rng.random() < 0.5:
            toks.append(f"{CLASS_NAMES[label]}kw{int(rng.integers(cfg.vocab_per_class))}")
        else:
            toks.append(f"noise{int(rng.integers(n_noise))}")
    if label == cfg.src_class and rng.random() < cfg.trigger_rate:
        for _ in range(int(rng.integers(4, 9))):
            pos = int(rng.integers(len(toks) + 1))
            toks.insert(pos, cfg.triggers[int(rng.integers(len(cfg.triggers)))])
    return Example(tokens=tuple(toks), label=label)


def synth_corpus(cfg: DataConfig, seed: int) -> Corpus:
    """Generate a balanced 4-class corpus from per-class keyword pools.

    Examples of cfg.src_class carry one or more of cfg.triggers with
    probability cfg.trigger_rate; other classes never contain triggers.
    Pure function of (cfg, seed).
    """
    if min(cfg.train_per_class, cfg.test_per_class, cfg.vocab_per_class) < 1:
        raise ValueError("synth sizes must be >= 1")
    if not 0.0 <= cfg.trigger_rate <= 1.0:
        raise ValueError("trigger_rate must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    train = [
        _synth_example(rng, c, cfg) for c in range(N_CLASSES) for _ in range(cfg.train_per_class)
    ]
    test = [
        _synth_example(rng, c, cfg) for c in range(N_CLASSES) for _ in range(cfg.test_per_class)
    ]
    return Corpus(train=train, test=test)


@lru_cache(maxsize=1 << 16)
def _fnv1a(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_bucket(token: str, hash_dim: int, seed: int) -> int:
    return (_fnv1a(token) ^ (seed & _MASK64)) % hash_dim


def featurize(tokens: Sequence[str], hash_dim: int, seed: int) -> np.ndarray:
    """Hashed bag-of-words, L2-normalized; empty token list gives the zero vector."""
    if hash_dim < 1 or hash_dim & (hash_dim - 1):
        raise ValueError(f"hash_dim must be a power of two, got {hash_dim}")
    v = np.zeros(hash_dim)
    for tok in tokens:
        v[hash_bucket(tok, hash_dim, seed)] += 1.0
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def featurize_all(examples: Iterable[Example], hash_dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack features and labels for a list of examples."""
    exs = list(examples)
    # one matrix, written row by row, so no row is held twice
    X = np.empty((len(exs), hash_dim))
    for row, e in zip(X, exs):
        row[:] = featurize(e.tokens, hash_dim, seed)
    y = np.array([e.label for e in exs], dtype=np.int64)
    return X, y


def partition_noniid(corpus: Corpus, n_clients: int, alpha: float, seed: int) -> list[np.ndarray]:
    """Per-class Dirichlet(alpha) allocation of train indices to clients,
    one sorted index array per client.

    Disjoint cover of the train set; a client that would end up empty steals
    one example from the currently largest client.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if n_clients > len(corpus.train):
        raise ValueError(f"n_clients={n_clients} exceeds train size {len(corpus.train)}")
    rng = np.random.default_rng(seed)
    labels = np.array([e.label for e in corpus.train])
    buckets: list[list[int]] = [[] for _ in range(n_clients)]
    for c in range(corpus.class_count):
        idx_c = np.flatnonzero(labels == c)
        rng.shuffle(idx_c)
        props = rng.dirichlet(np.full(n_clients, alpha))
        # largest-remainder rounding so counts sum to len(idx_c)
        raw = props * len(idx_c)
        counts = np.floor(raw).astype(int)
        rem = len(idx_c) - counts.sum()
        order = np.argsort(-(raw - counts))
        counts[order[:rem]] += 1
        start = 0
        for i, k in enumerate(counts):
            buckets[i].extend(idx_c[start : start + k].tolist())
            start += k
    for i in range(n_clients):
        if not buckets[i]:
            donor = max(range(n_clients), key=lambda j: len(buckets[j]))
            buckets[i].append(buckets[donor].pop())
    return [np.array(sorted(b), dtype=np.int64) for b in buckets]


def flip_labels(
    dataset: Sequence[Example], triggers: Iterable[str], src_class: int, dst_class: int
) -> list[Example]:
    """Relabel src_class examples containing a trigger token to dst_class."""
    if src_class == dst_class:
        raise ValueError("src_class and dst_class must differ")
    trig = frozenset(triggers)
    out = []
    for ex in dataset:
        if ex.label == src_class and trig.intersection(ex.tokens):
            out.append(Example(tokens=ex.tokens, label=dst_class))
        else:
            out.append(ex)
    return out


def asr_eval_subset(corpus: Corpus, triggers: Iterable[str], src_class: int) -> list[Example]:
    """Test examples of src_class that contain a trigger (labels untouched)."""
    trig = frozenset(triggers)
    subset = [e for e in corpus.test if e.label == src_class and trig.intersection(e.tokens)]
    if not subset:
        raise ValueError("ASR subset empty")
    return subset

