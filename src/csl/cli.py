"""Command-line front end: run experiment sweeps, summarize results.

Subcommands: ``run`` executes an experiment config (a preset, overlaid by
key=value settings in order, a later key winning) and generates each trial's
data from its seed; ``report`` turns a results CSV into ``summary.csv`` and
prints its table. Exit codes: 0 success, 2 bad configuration or a file that
cannot be read or written, 3 completed with flagged trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, DataError
from .experiments import (RUNTIME_METRICS, config_from_mapping, config_values,
                          desk_presets, paper_presets, report, run_experiment)

__all__ = ["main"]


def _cmd_run(args) -> int:
    mapping: dict[str, str] = {}
    for item in args.settings:
        if "=" not in item:
            raise ConfigError(f"setting {item!r} is not key=value")
        key, value = item.split("=", 1)
        mapping[key.strip().lower()] = value.strip()
    if args.preset:
        presets = {**desk_presets(), **paper_presets()}
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"valid: {', '.join(sorted(presets))}")
        config = dataclasses.replace(presets[args.preset], **config_values(mapping))
    elif mapping:
        config = config_from_mapping(mapping)
    else:
        raise ConfigError("run needs --preset or key=value settings")
    result = run_experiment(config)
    print(f"wrote {result.rows_written} rows to {result.path}")
    if result.error_flags:
        print(f"{result.error_flags} trial(s) flagged errors", file=sys.stderr)
        return 3
    return 0


def _cmd_report(args) -> int:
    summary, path = report(args.results, out_dir=args.out_dir)
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
    run.add_argument("settings", nargs="*", metavar="key=value",
                     help="set any config key; a later key wins")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="write summary.csv for a results CSV")
    rep.add_argument("results")
    rep.add_argument("--out-dir", default=None)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # argparse leaves over the settings that follow --preset; run takes them in order.
    args, extra = parser.parse_known_args(argv)
    if args.command == "run" and not any(item.startswith("-") for item in extra):
        args.settings += extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
