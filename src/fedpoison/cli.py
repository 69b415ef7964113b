"""Command-line front end.

    fedpoison run --config <path> [--out <dir>] [--seed N]
    fedpoison scenario <name> [--out <dir>]
    fedpoison plotdata <run_dir>

Config files are flat key=value text with dotted section keys
(e.g. grmp.tau_edge=0.3); the JSON snapshot a run writes uses the same keys
and is accepted anywhere a config path is.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from fedpoison import defense, sim


class ConfigError(Exception):
    pass


# the desk's grmp run, which the two grmp_vs_* scenarios put against a rule
_DESK_GRMP = {"attack": "grmp", "data.alpha": "0.8", "grmp.gamma_blend": "2.0"}

# scenario -> {output subdirectory: config overrides}; "" writes into --out itself
SCENARIOS = {
    "baseline_clean": {"": {"attack": "none"}},
    "naive_vs_each_defense": {d: {"attack": "naive_flip", "defense": d} for d in defense.DEFENSES},
    "grmp_vs_cosine": {"": {**_DESK_GRMP, "defense": "cosine_filter"}},
    "grmp_vs_krum": {"": {**_DESK_GRMP, "defense": "krum", "defense.f": "2"}},
    "sweep_lambda": {
        f"lambda_{v}": {"attack": "grmp", "defense": "cosine_filter", "defense.lambda": str(v)}
        for v in (0.5, 1.0, 1.5, 2.0)
    },
    # the default alpha, 0.5, is sweep_lambda's lambda_1.5 run
    "sweep_alpha": {
        f"alpha_{v}": {"attack": "grmp", "defense": "cosine_filter", "data.alpha": str(v)}
        for v in (0.1, 1.0, 100.0)
    },
}


def _read_flat_file(path: str) -> dict[str, object]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc

    # a key given twice is an error, not the last value silently winning
    def unique(pairs: list[tuple[str, object]]) -> dict[str, object]:
        flat: dict[str, object] = {}
        for key, val in pairs:
            if key in flat:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            flat[key] = val
        return flat

    if text.lstrip().startswith(("{", "[")):
        try:
            loaded = json.loads(text, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        return loaded
    flat: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in flat:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        flat[key] = val
    return flat


def parse_config(path: str | None, overrides: dict[str, object] | None = None) -> sim.ExperimentConfig:
    """Resolve a config file plus overrides against the documented defaults."""
    flat = _read_flat_file(path) if path else {}
    if overrides:
        flat.update(overrides)
    try:
        return sim.config_from_flat(flat)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def run_to_dir(cfg: sim.ExperimentConfig, out_dir: str) -> None:
    result = sim.run_experiment(cfg)
    sim.write_run_dir(result, out_dir)
    final = result.records[-1]
    print(
        f"{out_dir}: rounds={cfg.rounds} defense={cfg.defense} attack={cfg.attack} "
        f"final_accuracy={final.accuracy:.4f} final_asr={final.asr:.4f}"
    )


def run_scenario(name: str, out_dir: str) -> None:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {', '.join(sorted(SCENARIOS))}")
    for subdir, overrides in SCENARIOS[name].items():
        run_to_dir(parse_config(None, overrides), os.path.join(out_dir, subdir))


def emit_plotdata(run_dir: str) -> None:
    """fig4_data.csv (round, accuracy, asr) and fig5_data.csv (round,
    per-client cosine, threshold) derived from rounds.csv."""
    src = os.path.join(run_dir, "rounds.csv")
    if not os.path.exists(src):
        raise FileNotFoundError(f"missing {src}")
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{src} has no data rows")
    cos_cols = sorted(
        (c for c in rows[0] if c.startswith("cosine_")), key=lambda c: int(c.split("_")[1])
    )
    with open(os.path.join(run_dir, "fig4_data.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "accuracy", "asr"])
        for r in rows:
            w.writerow([r["round"], r["accuracy"], r["asr"]])
    with open(os.path.join(run_dir, "fig5_data.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["round"] + [f"client_{i}" for i in range(len(cos_cols))] + ["threshold"])
        for r in rows:
            w.writerow([r["round"]] + [r[c] for c in cos_cols] + [r["threshold"]])


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedpoison", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default="runs/run")
    run_p.add_argument("--seed", type=int, default=None)
    sc_p = sub.add_parser("scenario", help="run a named preset scenario")
    sc_p.add_argument("name")
    sc_p.add_argument("--out", default=None)
    pd_p = sub.add_parser("plotdata", help="emit figure data CSVs from a run directory")
    pd_p.add_argument("run_dir")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {"seed": str(args.seed)} if args.seed is not None else {}
            cfg = parse_config(args.config, overrides)
            run_to_dir(cfg, args.out)
        elif args.command == "scenario":
            run_scenario(args.name, args.out or os.path.join("runs", args.name))
        else:
            emit_plotdata(args.run_dir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
