"""Data module: tokenizer, synth corpus, FNV hashing, partition, the attack's
target examples."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpoison import data


# ---------------------------------------------------------------------------
# oracles

def fnv1a_oracle(token: str) -> int:
    """Independent FNV-1a 64 reimplementation, straight from the reference
    constants."""
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


def is_target_oracle(example, triggers, src):
    """Brute force: a src-class example with some token equal to a trigger."""
    return example.label == src and any(tok == t for tok in example.tokens for t in triggers)


def asr_subset_oracle(corpus, triggers, src):
    trig = set(triggers)
    return [e for e in corpus.test if e.label == src and set(e.tokens) & trig]


def featurize_oracle(tokens, hash_dim, seed):
    """One dense hashed bag-of-words row, L2-normalized; no tokens give the
    zero vector."""
    v = np.zeros(hash_dim)
    for tok in tokens:
        v[data.hash_bucket(tok, hash_dim, seed)] += 1.0
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def synth_example_oracle(rng, label, cfg):
    """One synthetic example drawn with NumPy's Generator methods."""
    n_tok = int(rng.integers(8, 21))
    n_noise = 6 * cfg.vocab_per_class
    toks = []
    for _ in range(n_tok):
        if rng.random() < 0.5:
            toks.append(f"{data.CLASS_NAMES[label]}kw{int(rng.integers(cfg.vocab_per_class))}")
        else:
            toks.append(f"noise{int(rng.integers(n_noise))}")
    if label == cfg.src_class and rng.random() < cfg.trigger_rate:
        for _ in range(int(rng.integers(4, 9))):
            pos = int(rng.integers(len(toks) + 1))
            toks.insert(pos, cfg.triggers[int(rng.integers(len(cfg.triggers)))])
    return data.Example(tokens=tuple(toks), label=label)


def synth_corpus_oracle(cfg, seed):
    rng = np.random.default_rng(seed)
    train = [synth_example_oracle(rng, c, cfg) for c in range(data.N_CLASSES) for _ in range(cfg.train_per_class)]
    test = [synth_example_oracle(rng, c, cfg) for c in range(data.N_CLASSES) for _ in range(cfg.test_per_class)]
    return data.Corpus(train=train, test=test)


# ---------------------------------------------------------------------------
# tokenizer

def test_tokenize_lowercases_and_splits():
    assert data.tokenize("Stock UP 5%! re-buy") == ("stock", "up", "5", "re", "buy")


def test_tokenize_empty():
    assert data.tokenize("!!! ???") == ()


# ---------------------------------------------------------------------------
# hashing / featurization

@given(st.text(min_size=0, max_size=30))
@settings(max_examples=200, deadline=None)
def test_fnv1a_matches_oracle(token):
    assert data._fnv1a(token) == fnv1a_oracle(token)


def test_hash_bucket_seed_xor():
    t = "market"
    assert data.hash_bucket(t, 1024, 7) == (fnv1a_oracle(t) ^ 7) % 1024


def test_featurize_counts_and_norm():
    v = featurize_oracle(("a", "b", "a"), 16, seed=0)
    assert v.shape == (16,)
    assert np.isclose(np.linalg.norm(v), 1.0)
    # bucket of "a" carries twice the weight of "b" (or they collide)
    ba, bb = data.hash_bucket("a", 16, 0), data.hash_bucket("b", 16, 0)
    if ba != bb:
        assert np.isclose(v[ba], 2.0 / np.sqrt(5.0))


def test_featurize_empty_tokens_is_zero():
    assert not featurize_oracle((), 8, seed=3).any()


def test_featurize_deterministic():
    a = featurize_oracle(("alpha", "beta"), 64, seed=11)
    b = featurize_oracle(("alpha", "beta"), 64, seed=11)
    assert np.array_equal(a, b)


def test_featurize_all_equals_stacked_rows():
    corpus = data.synth_corpus(data.DataConfig(train_per_class=5), seed=2)
    exs = corpus.train + [data.Example(tokens=(), label=1)]  # an empty row too
    X, y = data.featurize_all(exs, 64, seed=9)
    rows = np.stack([featurize_oracle(e.tokens, 64, 9) for e in exs])
    assert X.vals.dtype == np.float64 and X.dense().tobytes() == rows.tobytes()
    assert y.dtype == np.int64 and y.tolist() == [e.label for e in exs]
    X, y = data.featurize_all([], 64, seed=9)
    assert X.dense().shape == (0, 64) and X.vals.dtype == np.float64
    assert y.shape == (0,) and y.dtype == np.int64


# ---------------------------------------------------------------------------
# synth corpus

def test_synth_corpus_counts_and_balance():
    cfg = data.DataConfig(train_per_class=100, test_per_class=25)
    c = data.synth_corpus(cfg, seed=7)
    assert len(c.train) == 400 and len(c.test) == 100
    labels = [e.label for e in c.train]
    assert all(labels.count(k) == 100 for k in range(4))


def test_synth_corpus_trigger_rate_one():
    cfg = data.DataConfig(train_per_class=50, test_per_class=10, trigger_rate=1.0)
    c = data.synth_corpus(cfg, seed=1)
    trig = set(data.DEFAULT_TRIGGERS)
    for e in c.train + c.test:
        if e.label == 2:
            assert set(e.tokens) & trig
        else:
            assert not set(e.tokens) & trig


def test_synth_corpus_plants_configured_triggers_in_src_class():
    cfg = data.DataConfig(train_per_class=20, test_per_class=5, trigger_rate=1.0,
                          src_class=3, triggers=("gold", "silver"))
    c = data.synth_corpus(cfg, seed=1)
    for e in c.train + c.test:
        assert bool(set(e.tokens) & {"gold", "silver"}) == (e.label == 3)
        assert not set(e.tokens) & set(data.DEFAULT_TRIGGERS)


def test_synth_corpus_pure_function():
    cfg = data.DataConfig(train_per_class=20, test_per_class=5)
    assert data.synth_corpus(cfg, 3) == data.synth_corpus(cfg, 3)


def _one_object_per_token(corpus):
    tokens = [t for e in corpus.train + corpus.test for t in e.tokens]
    return len({id(t) for t in tokens}) == len(set(tokens))


@pytest.mark.parametrize("cfg", [
    data.DataConfig(),
    # no vocabulary is built ahead: a billion keywords per class costs nothing
    data.DataConfig(train_per_class=20, test_per_class=5, vocab_per_class=10**9),
], ids=["default", "huge_vocab"])
def test_synth_corpus_holds_one_string_per_distinct_token(cfg):
    c = data.synth_corpus(cfg, seed=4)
    assert _one_object_per_token(c)
    # and the interning changes no token: the oracle builds a new string per draw
    assert c == synth_corpus_oracle(cfg, 4)


# ranges the stream must match NumPy on: one value (no draw), small ones, the
# largest 32-bit Lemire range, exactly 2**32 (the plain 32-bit draw), 3e9
# (about 30% rejections, which walk through carried halves) and 6e9 (the
# 64-bit path)
_RANGES = (1, 2, 3, 7, 21, 1000, 2**32 - 1, 2**32, 3 * 10**9, 6 * 10**9)

_draws = st.lists(
    st.one_of(
        st.just(None),  # random()
        st.tuples(st.integers(-5, 5), st.sampled_from(_RANGES)),  # integers(lo, lo + n)
    ),
    max_size=60,
)


def _stream_vs_generator(seed, ops):
    draw, rng = data._RawStream(seed), np.random.default_rng(seed)
    for op in ops:
        if op is None:
            assert draw.random() == rng.random()
        else:
            lo, n = op
            assert draw.integers(lo, lo + n) == int(rng.integers(lo, lo + n))
    # the two streams end at the same point
    assert draw.random() == rng.random()


@given(st.integers(0, 2**32 - 1), _draws)
@example(0, [(0, 3 * 10**9)] * 40)  # carried halves through rejections
@example(1, [(0, 7), None, (0, 7), (0, 1), (0, 7), None, (0, 2**32), (0, 2**32)])
@example(2, [(0, 6 * 10**9), (0, 21), None, (0, 6 * 10**9), (0, 2**32 - 1)])
@settings(max_examples=300, deadline=None)
def test_raw_stream_equals_numpy_generator(seed, ops):
    _stream_vs_generator(seed, ops)


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 3), (5, 2)])
def test_raw_stream_rejects_an_empty_range_as_numpy_does(lo, hi):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(lo, hi)
    with pytest.raises(ValueError, match="low >= high"):
        data._RawStream(0).integers(lo, hi)


def test_raw_stream_equals_numpy_generator_over_long_mixed_runs():
    # thousands of draws cross several raw blocks
    pick = np.random.default_rng(99)
    for seed in range(5):
        ops = [None if r < 0 else (int(r), _RANGES[i]) for r, i in
               zip(pick.integers(-1, 3, 3000), pick.integers(0, len(_RANGES), 3000))]
        _stream_vs_generator(seed, ops)


@pytest.mark.parametrize("overrides", [
    {}, {"vocab_per_class": 1}, {"trigger_rate": 1.0}, {"triggers": ("gold",)}, {"vocab_per_class": 10**9},
])
def test_synth_corpus_equals_the_generator_based_synth(overrides):
    cfg = data.DataConfig(**overrides)
    for seed in range(20):
        assert data.synth_corpus(cfg, seed) == synth_corpus_oracle(cfg, seed)


def _sha256(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# the corpus, and its train and test features as (cols, vals) pairs, at two
# seeds; integer arithmetic, correctly rounded IEEE operations and PCG64 only,
# so the bytes are the same on every machine
_PINNED = {
    42: ("dfc1d6c5e9a3e9583e8199ad611b3ba9677c4b4e059e64a1a40f9b7bc4097c5f",
         "83fc53d11925f89d71714964048e8a512ec4ee77fc5b89498379a8cf4d3d7c66",
         "954a97047d2b9d07b4797429c9c1a24c40e449864497004b5d758a286763aa81"),
    7: ("77937687e10a883f07e968f924659d9e415d4cbba53fa097deedf1a329342e05",
        "293be1552950fad48c9fcc03f3dfa81525d68471c3037aefa1fbfb46890057bd",
        "d261d84875450b6816165dbbe11e92a20fa3f8d4b64331176019bffe826d7dfc"),
}


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_data_pipeline_bytes_are_pinned(seed):
    c = data.synth_corpus(data.DataConfig(), seed)
    text = "".join(" ".join(e.tokens) + f"\t{e.label}\n" for e in c.train + c.test)
    got = [_sha256(text.encode())]
    for split in (c.train, c.test):
        X, _ = data.featurize_all(split, 1024, seed)
        got.append(_sha256(X.cols.astype("<i8").tobytes(), X.vals.astype("<f8").tobytes()))
    assert tuple(got) == _PINNED[seed]


# ---------------------------------------------------------------------------
# partition

@given(
    alpha=st.floats(min_value=0.05, max_value=50.0),
    n_clients=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_partition_disjoint_cover(alpha, n_clients, seed):
    cfg = data.DataConfig(train_per_class=30, test_per_class=5)
    corpus = data.synth_corpus(cfg, seed=0)
    parts = data.partition_noniid(corpus, n_clients, alpha, seed)
    all_idx = np.concatenate(parts)
    assert len(all_idx) == len(corpus.train)
    assert len(np.unique(all_idx)) == len(all_idx)
    assert set(all_idx.tolist()) == set(range(len(corpus.train)))
    assert all(len(idx) >= 1 for idx in parts)


def test_partition_skew_increases_at_low_alpha():
    corpus = data.synth_corpus(data.DataConfig(train_per_class=200, test_per_class=5), 0)

    def skew(alpha):
        parts = data.partition_noniid(corpus, 6, alpha, seed=5)
        labels = np.array([e.label for e in corpus.train])
        # mean over clients of the max class share
        shares = []
        for idx in parts:
            counts = np.bincount(labels[idx], minlength=4)
            shares.append(counts.max() / counts.sum())
        return np.mean(shares)

    assert skew(0.1) > skew(100.0)


def test_partition_validates():
    # an AG News train set's size comes from its file, which validate does not
    # read, so the partition names a cohort larger than it
    corpus = data.synth_corpus(data.DataConfig(train_per_class=5, test_per_class=2), 0)
    with pytest.raises(ValueError, match="^n_clients=100 exceeds train size 20$"):
        data.partition_noniid(corpus, 100, 1.0, 0)


# ---------------------------------------------------------------------------
# the attack's target examples: flipped in training, the ASR subset in test

def _corpus():
    return data.synth_corpus(data.DataConfig(train_per_class=80, test_per_class=20,
                                              trigger_rate=0.5), seed=9)


_examples = st.lists(st.builds(
    data.Example,
    tokens=st.lists(st.sampled_from(["stock", "gold", "market", "kw1", "noise2"]), max_size=5).map(tuple),
    label=st.integers(0, data.N_CLASSES - 1),
), max_size=12)


@given(_examples, st.lists(st.sampled_from(["stock", "gold", "absent"]), min_size=1, max_size=3),
       st.integers(0, data.N_CLASSES - 1))
@settings(deadline=None)
def test_target_mask_matches_bruteforce(examples, triggers, src):
    got = data.target_mask(examples, triggers, src)
    assert got.dtype == bool and got.shape == (len(examples),)
    assert got.tolist() == [is_target_oracle(e, triggers, src) for e in examples]


def test_flip_labels_targets_only_triggered_src():
    c = _corpus()
    y = np.array([e.label for e in c.train])
    flipped = np.where(data.target_mask(c.train, data.DEFAULT_TRIGGERS, 2), 1, y)
    trig = set(data.DEFAULT_TRIGGERS)
    for e, after in zip(c.train, flipped):
        if e.label == 2 and set(e.tokens) & trig:
            assert after == 1
        else:
            assert after == e.label
    assert (flipped != y).any()


def test_asr_subset_matches_bruteforce():
    c = _corpus()
    mask = data.target_mask(c.test, data.DEFAULT_TRIGGERS, 2)
    subset = [e for e, t in zip(c.test, mask) if t]
    assert subset == asr_subset_oracle(c, data.DEFAULT_TRIGGERS, 2)
    assert subset and all(e.label == 2 for e in subset)


# ---------------------------------------------------------------------------
# agnews csv loader

def test_load_agnews_csv(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text('"Class Index","Title","Description"\n'
                     '3,"Stocks rally","Market up on earnings"\n'
                     '1,"Summit held","Leaders met today"\n')
    test.write_text('2,"Big game","Team wins final"\n')
    c = data.load_agnews_csv(str(train), str(test))
    assert len(c.train) == 2 and len(c.test) == 1
    assert c.train[0].label == 2 and "stocks" in c.train[0].tokens
    assert c.test[0].label == 1


def test_load_agnews_csv_holds_one_string_per_distinct_token(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text('3,"Stocks rally, stocks fall","Market up on earnings, market down"\n'
                     '3,"Stocks again","The market and the earnings"\n')
    test.write_text('1,"Market day","Stocks and earnings"\n')
    c = data.load_agnews_csv(str(train), str(test))
    assert c.train[0].tokens.count("stocks") == 2 and "market" in c.test[0].tokens
    # repeats within a row, across rows and across the two files
    assert _one_object_per_token(c)


def test_load_agnews_csv_bad_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text('9,"x","y"\n')
    ok = tmp_path / "ok.csv"
    ok.write_text('1,"a","b"\n')
    with pytest.raises(ValueError, match="row 1"):
        data.load_agnews_csv(str(bad), str(ok))
    bad.write_text('1,"only two"\n')
    with pytest.raises(ValueError, match="3 columns"):
        data.load_agnews_csv(str(bad), str(ok))
