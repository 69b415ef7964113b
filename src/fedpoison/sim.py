"""Federated round loop with pluggable defenses and a two-phase attacker.

Rounds are a barrier: every client submits a delta, the server applies the
configured defense, and the surviving aggregate is added to the global model
before the next round. Within a round the grmp adversary sees the benign rows
before it submits (`grmp.Adversary.submit`). Attackers behave exactly like
benign clients during the stealth phase and switch to their attack behavior
at phase_switch_round.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from fedpoison import data as data_mod
from fedpoison import defense as defense_mod
from fedpoison import grmp as grmp_mod
from fedpoison import model as model_mod
from fedpoison.data import DataConfig
from fedpoison.defense import DefenseError, DefenseParams
from fedpoison.grmp import GrmpConfig

ATTACKS = ("none", "naive_flip", "grmp")


@dataclass
class ExperimentConfig:
    n_clients: int = 6
    n_attackers: int = 2
    rounds: int = 20
    local_epochs: int = 2
    lr: float = 0.5
    batch_size: int = 32
    defense: str = "cosine_filter"
    attack: str = "none"
    phase_switch_round: int = 11
    seed: int = 42
    data: DataConfig = field(default_factory=DataConfig)
    defense_params: DefenseParams = field(default_factory=DefenseParams)
    grmp: GrmpConfig = field(default_factory=GrmpConfig)

    def validate(self) -> None:
        """The one gate for what a run's config must satisfy; a failure names
        its key. The data, model and grmp layers trust what it checks."""
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 1 <= self.phase_switch_round <= self.rounds + 1:
            raise ValueError("phase_switch_round must lie in [1, rounds+1]")
        if self.defense not in defense_mod.DEFENSES:
            raise ValueError(f"unknown defense {self.defense!r}")
        if self.attack not in ATTACKS:
            raise ValueError(f"unknown attack {self.attack!r}")
        if self.data.src_class == self.data.dst_class:
            raise ValueError("src_class and dst_class must differ")
        if not {self.data.src_class, self.data.dst_class} <= set(range(data_mod.N_CLASSES)):
            raise ValueError(f"data.src_class and data.dst_class must lie in [0, {data_mod.N_CLASSES - 1}]")
        if not self.data.triggers:
            raise ValueError("data.triggers must name at least one trigger")
        for t in self.data.triggers:
            # a trigger is matched against tokenized text
            if data_mod.tokenize(t) != (t,):
                raise ValueError(f"data.triggers: {t!r} is not a token (tokenizes to {data_mod.tokenize(t)})")
        d, p, g, n = self.data, self.defense_params, self.grmp, self.n_clients
        crafting = self.attack == "grmp" and self.n_attackers >= 1
        on_agnews = "an existing file when either AG News path is set"
        # written so that a NaN fails too
        for key, ok, want in (
            # a seed is one 32-bit word of every stream's entropy
            ("seed", 0 <= self.seed < 2**32, "in [0, 2**32)"),
            ("n_clients", n >= 1, ">= 1"),
            ("n_attackers", self.n_attackers >= 0, ">= 0"),
            ("local_epochs", self.local_epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", 0 <= self.lr < math.inf, "finite and >= 0"),
            # at lr = 0 every benign row is zero, so grmp has no direction to craft toward
            ("lr", self.lr > 0 or not crafting, "> 0 under attack = grmp with n_attackers >= 1"),
            ("grmp.tau_edge", math.isfinite(g.tau_edge), "finite"),
            ("grmp.stealth_margin", math.isfinite(g.stealth_margin), "finite"),
            ("grmp.gamma_blend", math.isfinite(g.gamma_blend), "finite"),
            ("grmp.poison_epochs", g.poison_epochs >= 1, ">= 1"),
            ("grmp.dual_steps", g.dual_steps >= 1, ">= 1"),
            ("grmp.dual_step_size", math.isfinite(g.dual_step_size), "finite"),
            ("grmp.vgae_epochs", g.vgae_epochs >= 0, ">= 0"),
            ("grmp.vgae_lr", math.isfinite(g.vgae_lr), "finite"),
            ("data.hash_dim", d.hash_dim >= 1 and not d.hash_dim & (d.hash_dim - 1), "a power of two"),
            ("data.alpha", 0 < d.alpha < math.inf, "> 0 and finite"),
            ("data.trigger_rate", d.agnews or 0 < d.trigger_rate <= 1, "in (0, 1] on synth data"),
            ("data.train_per_class", d.train_per_class >= 1, ">= 1"),
            ("data.test_per_class", d.test_per_class >= 1, ">= 1"),
            ("data.vocab_per_class", d.vocab_per_class >= 1, ">= 1"),
            ("data.agnews_train", not d.agnews or os.path.isfile(d.agnews_train), on_agnews),
            ("data.agnews_test", not d.agnews or os.path.isfile(d.agnews_test), on_agnews),
            ("defense.f", p.f >= 0, ">= 0"),
            ("defense.m", p.m >= 1, ">= 1"),
            ("defense.beta", p.beta >= 0, ">= 0"),
            ("defense.lambda", 0 <= p.lambda_ < math.inf, ">= 0 and finite"),
            ("defense.gm_tol", 0 < p.gm_tol < math.inf, "> 0 and finite"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {want}")
        if self.n_attackers >= n:
            raise ValueError("n_attackers must be < n_clients")
        # grmp builds its update graph from the benign rows
        if crafting and n - self.n_attackers < 2:
            raise ValueError(
                f"grmp needs n_clients - n_attackers >= 2 (got n_clients={n}, n_attackers={self.n_attackers})"
            )
        # every client needs a train example, and a synth train set has this many
        if not d.agnews and n > data_mod.N_CLASSES * d.train_per_class:
            raise ValueError(
                f"n_clients must be <= {data_mod.N_CLASSES} * data.train_per_class on synth data "
                f"(got {n}, train_per_class={d.train_per_class})"
            )
        # the VGAE's layer widths: latent <= hidden <= the update dimension
        if crafting and not 1 <= g.latent <= g.hidden <= data_mod.N_CLASSES * d.hash_dim:
            raise ValueError(
                f"grmp needs 1 <= grmp.latent <= grmp.hidden <= {data_mod.N_CLASSES} * data.hash_dim "
                f"(got latent={g.latent}, hidden={g.hidden}, hash_dim={d.hash_dim})"
            )
        # a cohort with which the configured rule can aggregate no round
        need = defense_mod.min_rows(self.defense, p)
        if n < need:
            cohort = f"defense.f={p.f}, defense.m={p.m}, defense.beta={p.beta}"
            raise ValueError(f"{self.defense} needs n_clients >= {need} (got {n}; {cohort})")


@dataclass
class RoundRecord:
    round: int
    accuracy: float
    asr: float
    per_client_cosine: list[float]
    threshold: Optional[float]
    accepted: list[bool]
    aggregate_norm: float
    defense_error: bool = False


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RoundRecord]
    final_params: np.ndarray
    attack_trace: list[dict]


@dataclass(frozen=True)
class _RunData:
    """A run's inputs, a pure function of the data config (and the AG News
    files it names), the cohort size and the seed. Every array is read-only,
    so the runs that share them cannot change each other's inputs. A client's
    features are its sparse rows of the train split's, at that split's width;
    the test and ASR features, evaluated on, are dense."""

    clients: tuple[tuple[model_mod.SparseRows, np.ndarray, np.ndarray], ...]  # (X, clean y, flipped y)
    sizes: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    X_asr: np.ndarray


# the last data set built, under its key; one slot, emptied before a build
# together with the prefix slot below, so a process holds one seed's data set
# and stealth prefix at a time
_DATA_SLOT: dict[tuple, _RunData] = {}


def _data_key(cfg: ExperimentConfig) -> tuple:
    key = (dataclasses.astuple(cfg.data), cfg.n_clients, cfg.seed)
    if cfg.data.agnews:
        # an edited CSV is read again
        stats = [os.stat(p) for p in (cfg.data.agnews_train, cfg.data.agnews_test)]
        key += tuple((st.st_size, st.st_mtime_ns) for st in stats)
    return key


def _build_run_data(cfg: ExperimentConfig) -> _RunData:
    dc = cfg.data
    if dc.agnews:
        corpus = data_mod.load_agnews_csv(dc.agnews_train, dc.agnews_test)
    else:
        corpus = data_mod.synth_corpus(dc, model_mod.child_seed(cfg.seed, "corpus"))
    asr = data_mod.target_mask(corpus.test, dc.triggers, dc.src_class)
    if not asr.any():
        raise ValueError(
            f"ASR subset empty: no test example of class {dc.src_class} holds a trigger ({', '.join(dc.triggers)})"
        )
    parts = data_mod.partition_noniid(corpus, cfg.n_clients, dc.alpha, model_mod.child_seed(cfg.seed, "partition"))
    # each split is featurized once: a row does not depend on the rows beside
    # it, so a client's features are its rows of the train split's, and the
    # ASR features are rows of the test split's
    fseed = model_mod.child_seed(cfg.seed, "hash")
    S_train, y_train = data_mod.featurize_all(corpus.train, dc.hash_dim, fseed)
    S_test, y_test = data_mod.featurize_all(corpus.test, dc.hash_dim, fseed)
    # flipping changes labels only, so each client keeps one feature matrix
    # with its clean labels and, alongside, its flipped labels
    y_flipped = np.where(data_mod.target_mask(corpus.train, dc.triggers, dc.src_class), dc.dst_class, y_train)
    clients = tuple(
        (model_mod.SparseRows(S_train.cols[idx], S_train.vals[idx], S_train.dim), y_train[idx], y_flipped[idx])
        for idx in parts
    )
    X_test = S_test.dense()
    X_asr = X_test[asr]
    sizes = np.array([len(idx) for idx in parts], dtype=float)
    client_arrays = (a for X, *labels in clients for a in (X.cols, X.vals, *labels))
    for a in (sizes, X_test, y_test, X_asr, *client_arrays):
        a.flags.writeable = False
    return _RunData(clients=clients, sizes=sizes, X_test=X_test, y_test=y_test, X_asr=X_asr)


def _run_data(cfg: ExperimentConfig) -> _RunData:
    """The run's data set: the slot's when its key matches, else built anew."""
    key = _data_key(cfg)
    if key not in _DATA_SLOT:
        # a prefix key holds its data key, so no run on the new data could
        # read the old prefix
        _DATA_SLOT.clear()
        _PREFIX_SLOT.clear()
        _DATA_SLOT[key] = _build_run_data(cfg)
    return _DATA_SLOT[key]


class _RunState:
    """Everything the round loop carries between rounds, and the shared
    read-only data it trains and evaluates on."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.data = data = _run_data(cfg)
        self.params = model_mod.init_params(cfg.data.hash_dim, data_mod.N_CLASSES)
        self.prev_aggregate: Optional[np.ndarray] = None
        # the benign rows of each round before the switch, which the VGAE is
        # fit on: recorded by run_experiment, or taken from the prefix slot
        self.history: list[np.ndarray] = []
        self.attack_trace: list[dict] = []
        # the round's submissions, one row per client; reused by every round,
        # so its pages fault in once
        self.updates = np.empty((cfg.n_clients, self.params.size))
        # the label-flip adversary needs src-class data to flip, so it controls
        # the clients holding the most flippable (triggered src-class) examples;
        # ties break toward the higher client id
        flippable = [int(np.sum(y != y_flip)) for _, y, y_flip in data.clients]
        order = sorted(range(cfg.n_clients), key=lambda i: (flippable[i], i), reverse=True)
        self.attacker_ids = sorted(order[: cfg.n_attackers])
        grmp_run = cfg.attack == "grmp" and cfg.n_attackers > 0
        self.adversary = grmp_mod.Adversary(cfg, data.clients, self.attacker_ids) if grmp_run else None


def run_round(state: _RunState, round_idx: int) -> RoundRecord:
    cfg = state.cfg
    exploit = cfg.attack != "none" and cfg.n_attackers > 0 and round_idx >= cfg.phase_switch_round
    # each client writes its row: in an exploit round a naive_flip attacker
    # trains on its flipped labels and a grmp attacker's row is crafted below
    updates = state.updates
    for i, (X, y, y_flipped) in enumerate(state.data.clients):
        if exploit and i in state.attacker_ids:
            if cfg.attack == "grmp":
                continue
            y = y_flipped
        seed = model_mod.child_seed(cfg.seed, "train", round_idx, i)
        updates[i] = model_mod.local_train(state.params, X, y, cfg.local_epochs, cfg.lr, cfg.batch_size, seed)

    if exploit and cfg.attack == "grmp":
        benign = np.delete(updates, state.attacker_ids, axis=0)
        updates[state.attacker_ids], trace = state.adversary.submit(
            round_idx, state.params, state.prev_aggregate, benign, state.history
        )
        state.attack_trace.append({"round": round_idx, **trace})

    reference, per_client_cosine = defense_mod.score(updates, state.prev_aggregate)
    # a round whose rule fails accepts no row and leaves the model as it was
    report = defense_mod.AggregationReport(None, np.zeros(cfg.n_clients, bool))
    # a zero reference has no cosines to filter by
    cosines = per_client_cosine if np.linalg.norm(reference) != 0.0 else None
    with contextlib.suppress(DefenseError):
        report = defense_mod.apply_defense(cfg.defense, updates, state.data.sizes, cosines, cfg.defense_params)
    failed = report.aggregate is None
    if not failed:
        state.params = state.params + report.aggregate
        if not np.all(np.isfinite(state.params)):
            bad = np.flatnonzero(~np.isfinite(updates).all(axis=1)).tolist()
            rows = f"; non-finite rows from clients {bad}" if bad else ""
            raise FloatingPointError(f"{cfg.defense} aggregate is not finite{rows}")
        state.prev_aggregate = report.aggregate

    data = state.data
    return RoundRecord(
        round=round_idx,
        accuracy=model_mod.evaluate_accuracy(state.params, data.X_test, data.y_test),
        asr=model_mod.evaluate_asr(state.params, data.X_asr, cfg.data.dst_class),
        per_client_cosine=per_client_cosine,
        threshold=report.threshold,
        accepted=list(map(bool, report.accepted)),
        aggregate_norm=0.0 if failed else float(np.linalg.norm(report.aggregate)),
        defense_error=failed,
    )


@dataclass(frozen=True)
class _Prefix:
    """A run's state at the end of round phase_switch_round - 1. No attack
    acts before the switch, so runs that differ only in the attack reach it
    identically. Every array is read-only, so a run that starts from it
    cannot change it for the next one."""

    params: np.ndarray
    prev_aggregate: Optional[np.ndarray]
    records: tuple[RoundRecord, ...]
    history: tuple[np.ndarray, ...]


# the last stealth prefix recorded, under its key; one slot, emptied before a
# run records and whenever the data slot is, so a process never holds two
# prefixes, nor one whose data set is gone
_PREFIX_SLOT: dict[tuple, _Prefix] = {}


def _prefix_key(cfg: ExperimentConfig) -> tuple:
    """The data key plus every config field that rounds before the switch
    read: all but the attack and its grmp parameters."""
    rest = (getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name not in ("data", "attack", "grmp"))
    return _data_key(cfg) + tuple(dataclasses.astuple(v) if dataclasses.is_dataclass(v) else v for v in rest)


def _record_prefix(state: _RunState, records: list[RoundRecord]) -> _Prefix:
    for a in (state.params, state.prev_aggregate, *state.history):
        if a is not None:
            a.flags.writeable = False
    return _Prefix(state.params, state.prev_aggregate, tuple(records), tuple(state.history))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all rounds; pure function of cfg (seed included). A run whose
    stealth prefix the slot holds starts from it at the switch round."""
    state = _RunState(cfg)
    switch = cfg.phase_switch_round
    key = _prefix_key(cfg)
    prefix = _PREFIX_SLOT.get(key)
    records: list[RoundRecord] = []
    first = 1
    if prefix is not None:
        state.params, state.prev_aggregate = prefix.params, prefix.prev_aggregate
        state.history = list(prefix.history)
        records = list(prefix.records)
        first = switch
    # clean and grmp runs record; a naive_flip run would hold its rounds'
    # benign rows for a grmp run that seldom follows it
    recording = prefix is None and cfg.attack != "naive_flip" and switch >= 2
    if recording:
        _PREFIX_SLOT.clear()
    for r in range(first, cfg.rounds + 1):
        try:
            records.append(run_round(state, r))
        except Exception as exc:
            raise RuntimeError(f"round {r} failed: {exc}") from exc
        if recording and r < switch:
            state.history.append(np.delete(state.updates, state.attacker_ids, axis=0))
            if r == switch - 1:
                _PREFIX_SLOT[key] = _record_prefix(state, records)
    return ExperimentResult(
        config=cfg,
        records=records,
        final_params=state.params,
        attack_trace=state.attack_trace,
    )


# ---------------------------------------------------------------------------
# config <-> flat dotted key/value mapping (shared with the CLI)

# flat key prefix -> the ExperimentConfig attribute holding that section
_SECTIONS = {"data": "data", "defense": "defense_params", "grmp": "grmp"}


def _flat_fields(cfg: ExperimentConfig) -> dict[str, tuple[object, str]]:
    """Flat key -> (object holding the field, attribute name), for every field."""
    out = {
        f.name: (cfg, f.name)
        for f in dataclasses.fields(cfg)
        if f.name not in _SECTIONS.values()
    }
    for prefix, attr in _SECTIONS.items():
        obj = getattr(cfg, attr)
        for f in dataclasses.fields(obj):
            out[f"{prefix}.{f.name.rstrip('_')}"] = (obj, f.name)  # lambda_ -> lambda
    return out


def config_to_flat(cfg: ExperimentConfig) -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, (obj, name) in _flat_fields(cfg).items():
        v = getattr(obj, name)
        flat[key] = ",".join(v) if isinstance(v, tuple) else v
    return flat


def _coerce(raw: object, target, key: str):
    """`raw` as the type of `target`: parsed from text, or checked and
    converted when it is already typed (loaded from JSON)."""
    kind = type(target)
    try:
        if isinstance(raw, str):
            s = raw.strip()
            if kind is tuple:
                pieces = (t.strip() for t in s.split(","))
                return tuple(t for t in pieces if t)
            if kind in (str, int, float):
                return kind(s)
        elif kind in (int, float) and type(raw) in (int, float):  # a bool is neither
            # an int field takes an integral float (12.0) but not 12.5
            if kind is float or float(raw).is_integer():
                return kind(raw)
    except (ValueError, OverflowError):
        pass
    want = "comma-separated string" if kind is tuple else kind.__name__
    raise ValueError(f"{key}: expected {want}, got {raw!r}")


def config_from_flat(flat: dict[str, object]) -> ExperimentConfig:
    """Build a config from dotted keys; unknown keys are an error."""
    cfg = ExperimentConfig()
    known = _flat_fields(cfg)
    unknown = [k for k in flat if k not in known]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, raw in flat.items():
        obj, name = known[key]
        setattr(obj, name, _coerce(raw, getattr(obj, name), key))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# run directory

def write_run_dir(result: ExperimentResult, out_dir: str) -> None:
    """config.json + rounds.csv (wide) + scores.csv (long) + attack trace +
    final model checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config_to_flat(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    n = cfg.n_clients
    with open(os.path.join(out_dir, "rounds.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["round", "accuracy", "asr", "threshold", "aggregate_norm", "defense_error"]
        header += [f"cosine_{i}" for i in range(n)] + [f"accepted_{i}" for i in range(n)]
        w.writerow(header)
        for rec in result.records:
            w.writerow([
                rec.round, rec.accuracy, rec.asr, rec.threshold, rec.aggregate_norm, int(rec.defense_error),
                *rec.per_client_cosine, *map(int, rec.accepted),
            ])
    with open(os.path.join(out_dir, "scores.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "client_id", "score", "threshold", "accepted"])
        for rec in result.records:
            for i in range(n):
                w.writerow([rec.round, i, rec.per_client_cosine[i], rec.threshold, int(rec.accepted[i])])
    with open(os.path.join(out_dir, "attack_trace.jsonl"), "w", encoding="utf-8") as fh:
        for entry in result.attack_trace:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    model_mod.save_params(result.final_params, os.path.join(out_dir, "model.bin"))
