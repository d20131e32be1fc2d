"""Command-line front end: run experiment sweeps, summarize results.

Subcommands: ``run`` executes an experiment config (a preset, overlaid in
turn by the config file, key=value overrides, CSL_SEED and --out) and
generates each trial's data from its seed; ``report`` turns a results CSV
into summary and plot-data files. Exit codes: 0 success, 2 bad
configuration or a file that cannot be read or written, 3 completed with
flagged trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .errors import ConfigError, DataError
from .experiments import (RUNTIME_METRICS, config_from_mapping, config_values,
                          desk_presets, paper_presets, parse_config_text, report,
                          run_experiment)

__all__ = ["main"]


def _cmd_run(args) -> int:
    mapping: dict[str, str] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        mapping.update(parse_config_text(text))
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
    if args.preset:
        presets = {**desk_presets(), **paper_presets()}
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"valid: {', '.join(sorted(presets))}")
        config = dataclasses.replace(presets[args.preset], **config_values(mapping))
    elif mapping:
        config = config_from_mapping(mapping)
    else:
        raise ConfigError("run needs --preset, --config, or key=value settings")
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
    show = [row for row in summary if row["metric"] not in RUNTIME_METRICS]
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
