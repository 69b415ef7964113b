"""Data module: tokenizer, synth corpus, FNV hashing, partition, flip/ASR subset."""

import numpy as np
import pytest
from hypothesis import given, settings
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


def asr_subset_oracle(corpus, triggers, src):
    trig = set(triggers)
    return [e for e in corpus.test if e.label == src and set(e.tokens) & trig]


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
    v = data.featurize(("a", "b", "a"), 16, seed=0)
    assert v.shape == (16,)
    assert np.isclose(np.linalg.norm(v), 1.0)
    # bucket of "a" carries twice the weight of "b" (or they collide)
    ba, bb = data.hash_bucket("a", 16, 0), data.hash_bucket("b", 16, 0)
    if ba != bb:
        assert np.isclose(v[ba], 2.0 / np.sqrt(5.0))


def test_featurize_empty_tokens_is_zero():
    assert not data.featurize((), 8, seed=3).any()


def test_featurize_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        data.featurize(("x",), 12, seed=0)


def test_featurize_deterministic():
    a = data.featurize(("alpha", "beta"), 64, seed=11)
    b = data.featurize(("alpha", "beta"), 64, seed=11)
    assert np.array_equal(a, b)


def test_featurize_all_equals_stacked_rows():
    corpus = data.synth_corpus(data.DataConfig(train_per_class=5), seed=2)
    exs = corpus.train + [data.Example(tokens=(), label=1)]  # an empty row too
    X, y = data.featurize_all(exs, 64, seed=9)
    rows = np.stack([data.featurize(e.tokens, 64, 9) for e in exs])
    assert X.dtype == np.float64 and X.tobytes() == rows.tobytes()
    assert y.dtype == np.int64 and y.tolist() == [e.label for e in exs]
    X, y = data.featurize_all([], 64, seed=9)
    assert X.shape == (0, 64) and X.dtype == np.float64
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


def test_synth_corpus_validates():
    with pytest.raises(ValueError):
        data.synth_corpus(data.DataConfig(train_per_class=0), 0)
    with pytest.raises(ValueError):
        data.synth_corpus(data.DataConfig(trigger_rate=1.5), 0)


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
    corpus = data.synth_corpus(data.DataConfig(train_per_class=5, test_per_class=2), 0)
    with pytest.raises(ValueError):
        data.partition_noniid(corpus, 0, 1.0, 0)
    with pytest.raises(ValueError):
        data.partition_noniid(corpus, 3, 0.0, 0)
    with pytest.raises(ValueError):
        data.partition_noniid(corpus, 100, 1.0, 0)


# ---------------------------------------------------------------------------
# flip / ASR subset

def _corpus():
    return data.synth_corpus(data.DataConfig(train_per_class=80, test_per_class=20,
                                              trigger_rate=0.5), seed=9)


def test_flip_labels_targets_only_triggered_src():
    c = _corpus()
    flipped = data.flip_labels(c.train, data.DEFAULT_TRIGGERS, 2, 1)
    trig = set(data.DEFAULT_TRIGGERS)
    for before, after in zip(c.train, flipped):
        assert before.tokens == after.tokens
        if before.label == 2 and set(before.tokens) & trig:
            assert after.label == 1
        else:
            assert after.label == before.label
    assert any(b.label != a.label for b, a in zip(c.train, flipped))


def test_flip_labels_idempotent():
    c = _corpus()
    once = data.flip_labels(c.train, data.DEFAULT_TRIGGERS, 2, 1)
    twice = data.flip_labels(once, data.DEFAULT_TRIGGERS, 2, 1)
    assert once == twice


def test_flip_labels_same_class_error():
    with pytest.raises(ValueError):
        data.flip_labels([], data.DEFAULT_TRIGGERS, 1, 1)


def test_asr_subset_matches_bruteforce():
    c = _corpus()
    subset = data.asr_eval_subset(c, data.DEFAULT_TRIGGERS, 2)
    assert subset == asr_subset_oracle(c, data.DEFAULT_TRIGGERS, 2)
    assert all(e.label == 2 for e in subset)


def test_asr_subset_empty_error():
    c = data.synth_corpus(data.DataConfig(train_per_class=5, test_per_class=5,
                                           trigger_rate=0.0), seed=0)
    with pytest.raises(ValueError, match="ASR subset empty"):
        data.asr_eval_subset(c, data.DEFAULT_TRIGGERS, 2)


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
