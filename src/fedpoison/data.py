"""Corpus handling: ingestion, synthesis, hashing features, non-IID splits.

The text pipeline is deliberately primitive (lowercase alphanumeric tokens,
hashed bag-of-words) so that every step has a one-line independent oracle.
Config values arrive checked by `ExperimentConfig.validate`.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from fedpoison.model import SparseRows

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


@dataclass
class DataConfig:
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

    @property
    def agnews(self) -> bool:
        """A run reads AG News when either path is set, else the synthetic corpus."""
        return bool(self.agnews_train or self.agnews_test)


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
    """Load the Kaggle AG News CSVs (class 1..4, title, description). A bad
    row is named by file and row number: the files are outside input."""
    return Corpus(train=_read_agnews_split(train_path), test=_read_agnews_split(test_path))


class _RawStream:
    """NumPy's scalar `Generator.random()` and `Generator.integers(lo, hi)`,
    bit for bit, read from blocks of PCG64's raw 64-bit outputs.

    random() is (u >> 11) * 2**-53 of one output. integers() is Lemire's
    rejection (arXiv:1805.10941) on 32-bit halves for a range of at most
    2**32 values, where PCG64 hands out the low half of an output first and
    carries the high half to its next 32-bit draw (random() leaves the carried
    half in place), and on whole outputs above that; a one-value range draws
    nothing, and an empty one raises ValueError, as NumPy's does. The raw
    stream is stable across NumPy versions (NEP 19), which NumPy does not
    promise for Generator methods.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, seed: int):
        bitgen = np.random.PCG64(seed)
        blocks = iter(lambda: bitgen.random_raw(4096).tolist(), None)
        self._next64 = itertools.chain.from_iterable(blocks).__next__
        self._half: int | None = None  # the carried high half, if any

    def _next32(self) -> int:
        half = self._half
        if half is None:
            u = self._next64()
            self._half = u >> 32
            return u & 0xFFFFFFFF
        self._half = None
        return half

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, lo: int, hi: int) -> int:
        """A draw from [lo, hi); at 2**32 values the rejection never fires,
        so it is the plain 32-bit draw NumPy makes there."""
        n = hi - lo
        if n <= 1:
            if n < 1:
                raise ValueError("low >= high")
            return lo
        if n <= 1 << 32:
            bits, draw = 32, self._next32
        else:
            bits, draw = 64, self._next64
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = (mask + 1 - n) % n
            while m & mask < threshold:
                m = draw() * n
        return lo + (m >> bits)


def _synth_example(draw: _RawStream, label: int, cfg: DataConfig) -> Example:
    n_tok = draw.integers(8, 21)
    n_noise = 6 * cfg.vocab_per_class
    toks = []
    for _ in range(n_tok):
        if draw.random() < 0.5:
            toks.append(f"{CLASS_NAMES[label]}kw{draw.integers(0, cfg.vocab_per_class)}")
        else:
            toks.append(f"noise{draw.integers(0, n_noise)}")
    if label == cfg.src_class and draw.random() < cfg.trigger_rate:
        for _ in range(draw.integers(4, 9)):
            pos = draw.integers(0, len(toks) + 1)
            toks.insert(pos, cfg.triggers[draw.integers(0, len(cfg.triggers))])
    return Example(tokens=tuple(toks), label=label)


def synth_corpus(cfg: DataConfig, seed: int) -> Corpus:
    """Generate a balanced 4-class corpus from per-class keyword pools.

    Examples of cfg.src_class carry one or more of cfg.triggers with
    probability cfg.trigger_rate; other classes never contain triggers.
    Pure function of (cfg, seed): the draws are those of
    `np.random.default_rng(seed)`, read from PCG64's raw stream.
    """
    draw = _RawStream(seed)
    train = [
        _synth_example(draw, c, cfg) for c in range(N_CLASSES) for _ in range(cfg.train_per_class)
    ]
    test = [
        _synth_example(draw, c, cfg) for c in range(N_CLASSES) for _ in range(cfg.test_per_class)
    ]
    return Corpus(train=train, test=test)


def _fnv1a(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_bucket(token: str, hash_dim: int, seed: int) -> int:
    return (_fnv1a(token) ^ (seed & _MASK64)) % hash_dim


def featurize_all(examples: Iterable[Example], hash_dim: int, seed: int) -> tuple[SparseRows, np.ndarray]:
    """Hashed bag-of-words rows, each L2-normalized (an example with no
    tokens gives the zero row), and the labels.

    Each distinct token is hashed once, and the (row, bucket) pairs are
    counted; a row's norm is the root of its summed squared counts, exact in
    any order, as every term is an integer.
    """
    exs = list(examples)
    bucket = {t: hash_bucket(t, hash_dim, seed) for t in {t for e in exs for t in e.tokens}}
    rows = np.repeat(np.arange(len(exs)), [len(e.tokens) for e in exs])
    pairs = rows * hash_dim + np.array([bucket[t] for e in exs for t in e.tokens], dtype=np.int64)
    pairs, counts = np.unique(pairs, return_counts=True)
    rows, cols = np.divmod(pairs, hash_dim)
    norms = np.sqrt(np.bincount(rows, weights=counts.astype(float) ** 2, minlength=len(exs)))
    X = SparseRows.from_pairs(rows, cols, counts / norms[rows], len(exs), hash_dim)
    y = np.array([e.label for e in exs], dtype=np.int64)
    return X, y


def partition_noniid(corpus: Corpus, n_clients: int, alpha: float, seed: int) -> list[np.ndarray]:
    """Per-class Dirichlet(alpha) allocation of train indices to clients,
    one sorted index array per client.

    Disjoint cover of the train set; a client that would end up empty steals
    one example from the currently largest client. More clients than train
    examples is an error: an AG News train set's size comes from its file,
    which `validate` does not read.
    """
    if n_clients > len(corpus.train):
        raise ValueError(f"n_clients={n_clients} exceeds train size {len(corpus.train)}")
    rng = np.random.default_rng(seed)
    labels = np.array([e.label for e in corpus.train])
    buckets: list[list[int]] = [[] for _ in range(n_clients)]
    for c in range(N_CLASSES):
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


def target_mask(examples: Sequence[Example], triggers: Iterable[str], src_class: int) -> np.ndarray:
    """Which examples the attack targets: those of src_class that hold a
    trigger token. Their labels flip to the attacker's class in training, and
    on the test split they make up the ASR subset."""
    trig = frozenset(triggers)
    return np.array([e.label == src_class and not trig.isdisjoint(e.tokens) for e in examples], dtype=bool)
