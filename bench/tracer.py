"""Spans around calls into fedpoison's modules, recorded from outside.

`Tracer.installed(fp)` replaces public functions of the `fedpoison` package
`fp` with wrappers that record a span (name, start, end, parent) and a few
counts derived from the arguments, and restores the originals on exit. The
program itself is not changed: every call site in fedpoison looks functions up
on their module at call time, so the wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import tracemalloc
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.config = None  # the ExperimentConfig of the run in progress
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, module, attr: str, name, before=None, after=None, alloc: bool = False) -> None:
        """Record a span named `name` around every call of `module.attr`.

        `name` may be a function `name(tracer, args)` of the bound arguments,
        for one function that serves two layers. `before(tracer, args)` and
        `after(tracer, args, result)` update counts; `alloc` records
        tracemalloc's peak inside the call.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            bound = sig.bind(*a, **kw)
            bound.apply_defaults()
            args = bound.arguments
            span_name = name(self, args) if callable(name) else name
            if before:
                before(self, args)
            idx = len(self.spans)
            self.spans.append([span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            if alloc:
                tracemalloc.start()
            self.spans[idx][1] = perf_counter()
            try:
                result = fn(*a, **kw)
            except Exception as exc:
                self.counts[f"{span_name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.spans[idx][2] = perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counts[f"{span_name}.peak_alloc"] = max(self.counts[f"{span_name}.peak_alloc"], peak)
                self._stack.pop()
            if after:
                after(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, fp):
        """Wrap the public functions of fedpoison's six modules for the block."""
        try:
            _install(self, fp)
            yield self
        finally:
            self.unwrap_all()

    # -- reading the spans -------------------------------------------------

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s[0] == name)


def _local_train_layer(t: Tracer, args) -> str:
    # the grmp attacker distils its poison direction with local_train on its
    # pooled data for grmp.poison_epochs; every other call is client SGD
    cfg = t.config
    poison = (
        cfg is not None
        and cfg.attack == "grmp"
        and args["epochs"] == cfg.grmp.poison_epochs != cfg.local_epochs
    )
    return "model.poison_train" if poison else "model.local_train"


def _count_sgd(t: Tracer, args) -> None:
    if _local_train_layer(t, args) == "model.local_train":
        t.counts["model.sgd_steps"] += args["epochs"] * math.ceil(len(args["X"]) / args["batch_size"])


def _count_accepted(t: Tracer, args, report) -> None:
    t.counts["defense.accepted"] += int(report.accepted.sum())
    t.counts["defense.submitted"] += len(report.accepted)


def _count_written(t: Tracer, args, _) -> None:
    out = args["out_dir"]
    t.counts["sim.write_bytes"] += sum(e.stat().st_size for e in os.scandir(out) if e.is_file())


def _set_config(t: Tracer, args) -> None:
    t.config = args["cfg"]


def _install(t: Tracer, fp) -> None:
    cli, data, model, defense, grmp, sim = fp.cli, fp.data, fp.model, fp.defense, fp.grmp, fp.sim
    t.wrap(cli, "parse_config", "cli.parse_config")
    t.wrap(data, "synth_corpus", "data.synth")
    t.wrap(
        data,
        "featurize_all",
        "data.featurize",
        after=lambda t, a, r: t.counts.update({"data.featurize_rows": len(r[1])}),
    )
    t.wrap(model, "local_train", _local_train_layer, before=_count_sgd)
    t.wrap(model, "evaluate_accuracy", "model.eval")
    t.wrap(model, "evaluate_asr", "model.eval")
    t.wrap(
        defense,
        "apply_defense",
        "defense.apply",
        before=lambda t, a: t.counts.update({"defense.rows_scored": len(a["updates"])}),
        after=_count_accepted,
        alloc=True,
    )
    t.wrap(grmp, "build_update_graph", "grmp.build_graph")
    t.wrap(
        grmp,
        "fit_vgae",
        "grmp.fit_vgae",
        before=lambda t, a: t.counts.update({"grmp.vgae_graph_epochs": len(a["graphs"]) * a["epochs"]}),
    )
    t.wrap(grmp, "vgae_encode", "grmp.encode")
    t.wrap(grmp, "gsp_decompose", "grmp.decompose")
    t.wrap(
        grmp,
        "lagrange_dual_search",
        "grmp.dual_search",
        before=lambda t, a: t.counts.update({"grmp.dual_steps": a["steps"]}),
    )
    t.wrap(grmp, "gsp_synthesize", "grmp.synthesize")
    t.wrap(grmp, "project_stealth", "grmp.project")
    t.wrap(grmp, "craft_with_trace", "grmp.craft")
    t.wrap(sim, "run_experiment", "sim.run", before=_set_config)
    t.wrap(sim, "run_round", "sim.round")
    t.wrap(sim, "write_run_dir", "sim.write", after=_count_written)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of the spans recorded since the last reset, except
    the two the worker fills in (trace.overhead_ratio, runs_bytes_changed)."""
    c = t.counts
    submitted = c["defense.submitted"]
    return {
        "data.synth_s": t.total("data.synth"),
        "data.featurize_s": t.total("data.featurize"),
        "data.featurize_rows": c["data.featurize_rows"],
        "model.local_train_s": t.total("model.local_train"),
        "model.local_train_calls": t.calls("model.local_train"),
        "model.sgd_steps": c["model.sgd_steps"],
        "model.poison_train_s": t.total("model.poison_train"),
        "model.eval_s": t.total("model.eval"),
        "model.eval_calls": t.calls("model.eval"),
        "defense.apply_s": t.total("defense.apply"),
        "defense.apply_calls": t.calls("defense.apply"),
        "defense.rows_scored": c["defense.rows_scored"],
        "defense.peak_alloc_mb": c["defense.apply.peak_alloc"] / 2**20,
        "defense.accept_ratio": c["defense.accepted"] / submitted if submitted else 0.0,
        "defense.errors": c["defense.apply.raised.DefenseError"],
        "grmp.fit_vgae_s": t.total("grmp.fit_vgae"),
        "grmp.vgae_graph_epochs": c["grmp.vgae_graph_epochs"],
        "grmp.dual_search_s": t.total("grmp.dual_search"),
        "grmp.dual_steps": c["grmp.dual_steps"],
        "grmp.synthesize_s": t.total("grmp.synthesize"),
        "grmp.synthesize_calls": t.calls("grmp.synthesize"),
        "grmp.craft_s": t.total("grmp.craft"),
        "grmp.craft_self_s": t.self_total("grmp.craft"),
        "grmp.build_graph_s": t.total("grmp.build_graph"),
        "grmp.project_s": t.total("grmp.project"),
        "sim.run_s": t.total("sim.run"),
        "sim.rounds": t.calls("sim.round"),
        "sim.round_self_s": t.self_total("sim.round"),
        "sim.write_s": t.total("sim.write"),
        "sim.write_bytes": c["sim.write_bytes"],
        "cli.parse_config_s": t.total("cli.parse_config"),
    }
