"""Command-line front end: generate datasets, run experiment sweeps, summarize results.

Subcommands: ``gen`` writes synthetic dataset CSVs, ``run`` executes an
experiment config (preset < config file < key=value overrides, with CSL_SEED
taking precedence over all seed settings), ``report`` turns a results CSV
into summary and plot-data files. Exit codes: 0 success, 2 bad
configuration, 3 completed with flagged trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .datagen import derive_rng, gen_logistic, gen_sparse_linear
from .errors import ConfigError, DataError
from .experiments import (ExperimentConfig, config_from_mapping, desk_presets,
                          paper_presets, parse_config_text, report, run_experiment)
from .losses import shard_to_csv

__all__ = ["main"]


def _write_theta(path: Path, theta) -> None:
    with open(path, "w") as fh:
        fh.write("coordinate,value\n")
        for j, v in enumerate(theta, start=1):
            fh.write(f"{j},{float(v)!r}\n")


def _cmd_gen(args) -> int:
    rng = derive_rng(args.seed, "gen", args.kind)
    out = Path(args.out)
    if args.kind == "logistic":
        theta_star = None
        if args.theta_zero:
            import numpy as np
            theta_star = np.zeros(args.d)
        shard, theta_star = gen_logistic(args.d, args.n, rng, theta_star=theta_star)
        out.write_text(shard_to_csv(shard))
        _write_theta(out.with_name(out.stem + "_theta.csv"), theta_star)
        print(f"wrote {out} ({args.n} samples, d={args.d}) and its theta file")
        return 0
    shards, theta_star = gen_sparse_linear(args.d, args.n, args.k, args.s,
                                           args.sigma, rng)
    for j, shard in enumerate(shards, start=1):
        shard_path = out.with_name(f"{out.stem}_shard{j:02d}{out.suffix or '.csv'}")
        shard_path.write_text(shard_to_csv(shard))
    _write_theta(out.with_name(out.stem + "_theta.csv"), theta_star)
    print(f"wrote {args.k} shard files ({args.n} samples each, d={args.d}) "
          f"and the theta file next to {out}")
    return 0


# Config fields whose mapping key is shorter than the field name.
_MAPPING_KEYS = {"n_values": "n", "k_values": "k"}


def _config_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    """Every set field of the config as the string mapping config_from_mapping
    reads back."""
    mapping = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        mapping[_MAPPING_KEYS.get(f.name, f.name)] = str(value)
    return mapping


def _cmd_run(args) -> int:
    mapping: dict[str, str] = {}
    if args.preset:
        presets = {**desk_presets(), **paper_presets()}
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"valid: {', '.join(sorted(presets))}")
        mapping.update(_config_to_mapping(presets[args.preset]))
    if args.config:
        mapping.update(parse_config_text(Path(args.config).read_text()))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        mapping[key.strip().lower()] = value.strip()
    env_seed = os.environ.get("CSL_SEED")
    if env_seed is not None:
        mapping["seed"] = env_seed
    if args.out:
        mapping["out"] = args.out
    if not mapping:
        raise ConfigError("run needs --preset, --config, or key=value settings")
    config = config_from_mapping(mapping)
    result = run_experiment(config)
    print(f"wrote {result.rows_written} rows to {result.path}")
    if result.error_flags:
        print(f"{result.error_flags} trial(s) flagged errors", file=sys.stderr)
        return 3
    return 0


def _cmd_report(args) -> int:
    summary, written = report(args.results, out_dir=args.out_dir)
    for path in written:
        print(f"wrote {path}")
    show = [row for row in summary if row["metric"] not in ("runtime_s",)]
    if show:
        print(f"{'experiment':<14}{'estimator':<18}{'metric':<18}"
              f"{'n':>7}{'k':>6}{'median':>14}{'mad':>12}")
        for row in show:
            print(f"{row['experiment']:<14}{row['estimator']:<18}{row['metric']:<18}"
                  f"{row['n']:>7}{row['k']:>6}{row['median']:>14.6g}{row['mad']:>12.4g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csl",
        description="Distributed surrogate-likelihood estimation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--kind", choices=["logistic", "sparse_linear"], required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--n", type=int, required=True,
                     help="total samples (logistic) or per-shard samples (sparse)")
    gen.add_argument("--k", type=int, default=1, help="shards (sparse_linear)")
    gen.add_argument("--s", type=int, default=10, help="nonzeros (sparse_linear)")
    gen.add_argument("--sigma", type=float, default=1.0, help="noise sd (sparse_linear)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--theta-zero", action="store_true",
                     help="debug: force theta* = 0 (logistic)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run an experiment sweep")
    run.add_argument("--preset", help="named preset (see README)")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--out", help="results CSV path")
    run.add_argument("overrides", nargs="*", metavar="key=value",
                     help="override any config key")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="summarize a results CSV")
    rep.add_argument("results")
    rep.add_argument("--out-dir", default=None)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
