"""Experiment orchestration: synthetic sweeps, results CSV, summaries.

Each experiment loops over sweep points and trials. One design table names
each experiment's trial body and the sweep settings it reads; the rest of the
design is fixed, as in the paper. A shared prologue generates fresh data per
trial from a derived RNG stream, builds the cluster and times the body, which
emits tidy rows ``experiment,d,n,k,trial,estimator,metric,value``. A trial's rows are
buffered and written only once it succeeds; a trial that raises a
``CslError`` leaves only its ``error_flag`` row, and the run continues.
Trials run sequentially, so a config plus a seed pins the output bytes;
wall-clock rows are advisory and excluded from the results hash.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bayes import McmcSettings, Prior, full_log_posterior, marginal_l1, metropolis, run_csl_bayes
from .cluster import Cluster
from .datagen import derive_rng, gen_logistic, gen_sparse_linear
from .errors import ConfigError, CslError, DataError
from .estimators import averaging_estimator, ilea, subsample_estimator
from .inference import confidence_intervals, sigma_cross, sigma_local
from .losses import LossModel, ShardLoss
from .solvers import lambda_heuristic, local_fit
from .sparse import averaging_lasso, csl_lasso, local_lasso
from .surrogate import build_surrogate

__all__ = [
    "EXPERIMENTS", "RESULTS_HEADER", "RUNTIME_METRICS", "ExperimentConfig",
    "config_from_mapping", "config_values", "parse_config_text",
    "run_experiment", "RunResult", "results_hash", "report", "desk_presets",
    "paper_presets",
]

RESULTS_HEADER = ("experiment", "d", "n", "k", "trial", "estimator", "metric", "value")
RUNTIME_METRICS = frozenset({"runtime_s"})
# Refit rounds per trial, and the sparse linear design: support size, noise
# level and the surrogate penalty's scale on the pooled-n heuristic.
_ROUNDS = 3
_SPARSITY, _NOISE_SD, _LAM_SCALE = 10, 1.0, 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d: int
    n_values: tuple[int, ...] = ()
    k_values: tuple[int, ...] = (16,)
    n_total: int | None = None
    trials: int = 10
    seed: int = 0
    out: str | None = None
    mcmc_iters: int = 20000

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"valid: {', '.join(EXPERIMENTS)}")
        unread = sorted(key for key in _SWEEP_KEYS - set(_DESIGNS[self.experiment][1])
                        if getattr(self, _FIELDS[key][0].name) != _FIELDS[key][0].default)
        if unread:
            raise ConfigError(f"{self.experiment} does not read {', '.join(unread)}")
        if self.d < 1 or self.trials < 1:
            raise ConfigError("d and trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if any(n < 1 for n in self.n_values):
            raise ConfigError("n must be a list of positive ints")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigError("k must be a nonempty list of positive ints")
        if self.n_total is not None and self.n_total < 1:
            raise ConfigError("n_total must be positive")
        if self.mcmc_iters < 2:
            raise ConfigError("mcmc_iters must be >= 2")
        if self.experiment.startswith("Lasso") and self.d < _SPARSITY:
            raise ConfigError(f"{self.experiment} needs d >= {_SPARSITY}, "
                              "the sparse model's support size")

    @property
    def out_path(self) -> Path:
        if self.out is not None:
            return Path(self.out)
        return Path(f"results_{self.experiment}.csv")

    @property
    def bins(self) -> int:
        """Sturges' rule on a chain's kept half (15 at the default length), at least 2."""
        return max(2, math.ceil(math.log2(self.mcmc_iters - self.mcmc_iters // 2)) + 1)


# Parsers by annotated field type; an optional field parses as its base type.
_PARSERS = {"int": int, "str": str,
            "tuple[int, ...]": lambda text: tuple(int(v) for v in text.split(",")
                                                  if v.strip())}
# Config fields whose mapping key is shorter than the field name.
_MAPPING_KEYS = {"n_values": "n", "k_values": "k"}
# Mapping key -> (config field, parser), one entry per ExperimentConfig field.
_FIELDS = {_MAPPING_KEYS.get(f.name, f.name): (f, _PARSERS[f.type.removesuffix(" | None")])
           for f in dataclasses.fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment; later keys win."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip().lower()] = value.strip()
    return mapping


def config_values(mapping: dict[str, str]) -> dict:
    """Parse string key/values (file or CLI flags) into typed config field
    values, keyed by field name, for :class:`ExperimentConfig` or
    :func:`dataclasses.replace`."""
    unknown = set(mapping) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}; "
                          f"valid: {', '.join(sorted(_FIELDS))}")
    values: dict = {}
    for key, text in mapping.items():
        f, parse = _FIELDS[key]
        try:
            values[f.name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad config value for {key}: {exc}")
    return values


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a validated config from string key/values (file or CLI flags)."""
    values = config_values(mapping)
    if "experiment" not in values:
        raise ConfigError("config must set 'experiment'")
    return ExperimentConfig(**values)


@dataclass
class RunResult:
    path: Path
    rows_written: int
    error_flags: int


def _sq_error(theta: np.ndarray, theta_star: np.ndarray) -> float:
    diff = np.asarray(theta) - theta_star
    return float(diff @ diff)


def _mest_trial(config: ExperimentConfig, cluster: Cluster, theta_star: np.ndarray,
                trial: int, emit) -> None:
    theta_global = local_fit(ShardLoss(cluster.model, cluster.pooled_shard(meter=True)))
    emit("global", "sq_error", _sq_error(theta_global, theta_star))
    emit("global", "samples_moved", cluster.ledger.samples_moved)
    emit("global", "vectors_sent", 0)

    theta_sub = subsample_estimator(cluster)
    emit("subsample", "sq_error", _sq_error(theta_sub, theta_star))
    emit("subsample", "vectors_sent", 0)

    theta_avg = averaging_estimator(cluster)
    averaging_cost = cluster.ledger.vectors_sent
    emit("averaging", "sq_error", _sq_error(theta_avg, theta_star))
    emit("averaging", "vectors_sent", averaging_cost)

    trajectory = ilea(cluster, theta_avg, rounds=_ROUNDS)
    per_round = (cluster.ledger.vectors_sent - averaging_cost) // trajectory.rounds
    for t in range(1, trajectory.rounds + 1):
        emit(f"csl_{t}", "sq_error", _sq_error(trajectory.iterates[t], theta_star))
        emit(f"csl_{t}", "vectors_sent", averaging_cost + per_round * t)


def _coverage_trial(config: ExperimentConfig, cluster: Cluster, theta_star: np.ndarray,
                    trial: int, emit) -> None:
    center = ilea(cluster, subsample_estimator(cluster), rounds=_ROUNDS).final
    emit("csl", "sq_error", _sq_error(center, theta_star))

    surr = build_surrogate(cluster, center)
    ci_local = confidence_intervals(center, sigma_local(surr, center), cluster.n_total)
    emit("csl", "covered_local", float(ci_local.covers(theta_star)[0]))
    emit("csl", "halfwidth_local", ci_local.halfwidths[0])

    ci_cross = confidence_intervals(center, sigma_cross(cluster, center), cluster.n_total)
    emit("csl", "covered_cross", float(ci_cross.covers(theta_star)[0]))
    emit("csl", "halfwidth_cross", ci_cross.halfwidths[0])

    emit("csl", "vectors_sent", cluster.ledger.vectors_sent)


def _refit_on_support(shard, theta: np.ndarray) -> np.ndarray:
    """Least-squares refit of ``theta`` on its nonzero coordinates.

    A penalized anchor carries shrinkage bias, and that bias leaks straight
    into the surrogate's linear correction where no amount of pooled data can
    wash it out. The refit removes most of it using only the host shard, so it
    costs nothing on the wire. Falls back to ``theta`` when the support is
    empty or wider than the shard can identify.
    """
    support = np.flatnonzero(theta)
    if support.size == 0 or support.size >= shard.x.shape[0]:
        return theta
    coef, *_ = np.linalg.lstsq(shard.x[:, support], shard.y, rcond=None)
    refit = np.zeros_like(theta)
    refit[support] = coef
    return refit


def _lasso_trial(config: ExperimentConfig, cluster: Cluster, theta_star: np.ndarray,
                 trial: int, emit) -> None:
    n, k = cluster.n_per_shard, cluster.k
    # Every lasso names its penalty; the generator's noise level is known
    # here, so the penalty levels take it directly rather than an estimate.
    lam_local = lambda_heuristic(_NOISE_SD, config.d, n)
    # The surrogate's penalty must stay above the anchor-driven contamination
    # of its gradient, which does not shrink with k; the measured scale of 3
    # keeps it there on every lasso sweep.
    lam_global = lambda_heuristic(_NOISE_SD, config.d, n * k, scale=_LAM_SCALE)

    def emit_fit(label: str, fit, vectors: int) -> None:
        emit(label, "sq_error", _sq_error(fit.theta, theta_star))
        emit(label, "support_size", fit.sparsity)
        emit(label, "converged", float(fit.converged))
        emit(label, "vectors_sent", vectors)

    pooled = cluster.pooled_shard(meter=True)
    emit_fit("global_lasso", local_lasso(cluster.model, pooled, lam=lam_global), 0)

    anchor_fit = local_lasso(cluster.model, cluster.shards[0], lam=lam_local)
    emit_fit("subsample_lasso", anchor_fit, 0)

    anchor = _refit_on_support(cluster.shards[0], anchor_fit.theta)
    csl_fit = csl_lasso(cluster, anchor=anchor, lam=lam_global)
    csl_cost = cluster.ledger.vectors_sent
    emit_fit("csl_lasso", csl_fit, csl_cost)

    avg_fit = averaging_lasso(cluster, lam=lam_local)
    emit_fit("averaging_lasso", avg_fit, cluster.ledger.vectors_sent - csl_cost)


def _bayes_trial(config: ExperimentConfig, cluster: Cluster, theta_star: np.ndarray,
                 trial: int, emit) -> None:
    # Chain randomness is keyed on the trial but not on n, so the sweep reads
    # the same proposal streams at every n (a paired design): the Monte Carlo
    # noise of the distance estimate then cancels in across-n comparisons
    # instead of masking the trend. Data stays independent across cells.
    seeds = derive_rng(config.seed, config.experiment, cluster.k, trial, "chains")
    chain_seed = int(seeds.integers(0, 2 ** 63 - 1))

    prior = Prior.flat()
    result = run_csl_bayes(cluster, prior, McmcSettings(iters=config.mcmc_iters,
                                                        seed=chain_seed))
    emit("csl_bayes", "vectors_sent", cluster.ledger.vectors_sent)
    emit("csl_bayes", "accept_rate", result.chain.acceptance_rate)

    # Oracle chain on the pooled posterior: same start, step size and proposal
    # stream as the surrogate chain (common random numbers). Coupled chains
    # only drift apart where the two targets genuinely disagree, so the
    # histogram distance reads the posterior gap instead of the two chains'
    # independent sampling noise, which at this chain length would swamp it.
    # Pooled evaluation is the fast equivalent of the mean-of-shards oracle;
    # it is diagnostic, not protocol traffic.
    oracle_cluster = Cluster(cluster.model, [cluster.pooled_shard(meter=False)])

    def oracle_target(theta):
        return full_log_posterior(oracle_cluster, prior, theta, cluster.n_total)

    full_chain = metropolis(oracle_target, result.anchor,
                            result.chain.proposal_scale, config.mcmc_iters,
                            seed=chain_seed)
    emit("full_bayes", "accept_rate", full_chain.acceptance_rate)
    for coord in range(config.d):
        emit("csl_bayes", f"marginal_l1_{coord + 1}",
             marginal_l1(result.chain, full_chain, coordinate=coord, bins=config.bins))


# Experiment -> (trial body, the sweep settings it reads). Every experiment
# also reads d, trials, seed and out. Where n_total is read, the other axis
# read (n or k) is swept under that fixed total, each value v paired with
# n_total // v; otherwise the sweep is the full n-by-k grid.
_DESIGNS = {
    "MestSweepN": (_mest_trial, ("n", "n_total")),
    "MestSweepK": (_mest_trial, ("n", "k")),
    "Coverage": (_coverage_trial, ("n", "k")),
    "LassoFixedN": (_lasso_trial, ("k", "n_total")),
    "LassoFixedn": (_lasso_trial, ("n", "k")),
    "Bayes": (_bayes_trial, ("n", "k", "mcmc_iters")),
}
EXPERIMENTS = tuple(_DESIGNS)
# Settings some experiment ignores; each must then keep its default.
_SWEEP_KEYS = {"n", "k", "n_total", "mcmc_iters"}


def _sweep_points(config: ExperimentConfig) -> list[tuple[int, int]]:
    """(n, k) grid for the experiment, honoring the fixed-total variants."""
    reads = _DESIGNS[config.experiment][1]
    if "n" in reads and not config.n_values:
        raise ConfigError(f"{config.experiment} needs n (one value or a comma list)")
    if "n_total" not in reads:
        return [(n, k) for n in config.n_values for k in config.k_values]
    if config.n_total is None:
        raise ConfigError(f"{config.experiment} needs n_total")
    axis = "n" if "n" in reads else "k"
    points = []
    for value in (config.n_values if axis == "n" else config.k_values):
        if config.n_total % value != 0:
            raise ConfigError(f"n_total={config.n_total} not divisible by {axis}={value}")
        other = config.n_total // value
        points.append((value, other) if axis == "n" else (other, value))
    return points


def _trial_rows(config: ExperimentConfig, body, n: int, k: int,
                trial: int) -> list[list]:
    """Run one trial and return its rows in emit order, or only its
    ``error_flag`` row when any step raises a CslError.

    The prologue derives the trial's data stream, generates sparse linear
    shards for the lasso designs and logistic data otherwise, builds a fresh
    cluster, whose ledger totals are thus the trial's costs, and starts the
    timer; ``body(config, cluster, theta_star, trial, emit)`` then emits
    through ``emit(estimator, metric, value)``.
    """
    rows: list[list] = []

    def emit(estimator: str, metric: str, value) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise CslError(f"non-finite value for metric {metric!r}")
        rows.append([config.experiment, config.d, n, k, trial, estimator, metric,
                     repr(value)])

    try:
        rng = derive_rng(config.seed, config.experiment, n, k, trial, "data")
        if config.experiment.startswith("Lasso"):
            shards, theta_star = gen_sparse_linear(config.d, n, k, _SPARSITY,
                                                   _NOISE_SD, rng)
            cluster = Cluster(LossModel.linear(), shards)
        else:
            pooled, theta_star = gen_logistic(config.d, n * k, rng)
            cluster = Cluster.from_pooled(LossModel.logistic(), pooled.x, pooled.y, k)
        start = time.perf_counter()
        body(config, cluster, theta_star, trial, emit)
        emit("trial", "runtime_s", time.perf_counter() - start)
    except CslError:
        rows.clear()
        emit("trial", "error_flag", 1.0)
    return rows


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run every (sweep point, trial) cell and write the results CSV.

    A failing trial leaves only an ``error_flag`` row instead of aborting the
    run; the returned RunResult counts those flags so callers can report
    partial failure.
    """
    body = _DESIGNS[config.experiment][0]
    points = _sweep_points(config)
    path = config.out_path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise DataError(f"cannot write results file: {exc}")
    rows_written = error_flags = 0
    with fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for n, k in points:
            for trial in range(1, config.trials + 1):
                rows = _trial_rows(config, body, n, k, trial)
                writer.writerows(rows)
                fh.flush()
                rows_written += len(rows)
                error_flags += sum(row[6] == "error_flag" for row in rows)
    return RunResult(path=path, rows_written=rows_written, error_flags=error_flags)


def _read_rows(path) -> list[dict[str, str]]:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read results file: {exc}")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RESULTS_HEADER):
            raise ConfigError(f"{path}: unexpected header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise ConfigError(f"{path} line {lineno}: expected "
                                  f"{len(RESULTS_HEADER)} fields, got {len(row)}")
            record = dict(zip(RESULTS_HEADER, row))
            for col, parse in (("d", int), ("n", int), ("k", int), ("trial", int),
                               ("value", float)):
                try:
                    parse(record[col])
                except ValueError:
                    raise ConfigError(f"{path} line {lineno}: bad {col} {record[col]!r}")
            if not math.isfinite(float(record["value"])):
                raise ConfigError(f"{path} line {lineno}: non-finite value")
            # These cells name the report's output files.
            if record["experiment"] not in EXPERIMENTS:
                raise ConfigError(f"{path} line {lineno}: unknown experiment "
                                  f"{record['experiment']!r}")
            for col in ("estimator", "metric"):
                if not re.fullmatch(r"[A-Za-z0-9_]+", record[col]):
                    raise ConfigError(f"{path} line {lineno}: bad {col} {record[col]!r}")
            rows.append(record)
        return rows


def results_hash(path) -> str:
    """sha256 over the results rows with runtime metrics dropped; row order
    and float formatting are part of the hash."""
    digest = hashlib.sha256()
    digest.update(",".join(RESULTS_HEADER).encode())
    for record in _read_rows(path):
        if record["metric"] in RUNTIME_METRICS:
            continue
        digest.update(b"\n")
        digest.update(",".join(record[col] for col in RESULTS_HEADER).encode())
    return digest.hexdigest()


def report(results_path, out_dir=None) -> tuple[list[dict], list[Path]]:
    """Summarize a results CSV: median and MAD per (sweep point, estimator,
    metric), written to summary.csv plus one tidy file per experiment/metric
    pair for plotting. An output directory that cannot be made or written
    raises DataError.
    """
    results_path = Path(results_path)
    out_dir = Path(out_dir) if out_dir is not None else results_path.parent
    rows = _read_rows(results_path)
    groups: dict[tuple, list[float]] = {}
    for record in rows:
        key = (record["experiment"], record["d"], record["n"], record["k"],
               record["estimator"], record["metric"])
        groups.setdefault(key, []).append(float(record["value"]))
    summary_cols = ["experiment", "d", "n", "k", "estimator", "metric", "count",
                    "median", "mad"]
    summary = []
    for key, values in groups.items():
        med = statistics.median(values)
        mad = statistics.median([abs(v - med) for v in values])
        summary.append(dict(zip(summary_cols, (*key, len(values), med, mad))))
    summary.sort(key=lambda r: (r["experiment"], r["metric"], r["estimator"],
                                int(r["d"]), int(r["n"]), int(r["k"])))
    tables = {"summary.csv": (summary_cols, summary)}
    for experiment, metric in sorted({(r["experiment"], r["metric"]) for r in summary}):
        tables[f"{experiment}_{metric}.csv"] = (
            ["d", "n", "k", "estimator", "count", "median", "mad"],
            [r for r in summary if r["experiment"] == experiment and r["metric"] == metric])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (cols, table) in tables.items():
            with open(out_dir / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(cols)
                writer.writerows([row[c] for c in cols] for row in table)
    except OSError as exc:
        raise DataError(f"cannot write report: {exc}")
    return summary, [out_dir / name for name in tables]


def desk_presets() -> dict[str, ExperimentConfig]:
    """Desk-scale sweeps: minutes, not hours; the acceptance suite's shapes."""
    return {
        "sweep_n_desk": ExperimentConfig(
            experiment="MestSweepN", d=10, n_total=2 ** 16,
            n_values=(2 ** 8, 2 ** 9, 2 ** 10, 2 ** 11, 2 ** 12), trials=20),
        "sweep_k_desk": ExperimentConfig(
            experiment="MestSweepK", d=10, n_values=(256,), k_values=(16, 64, 256),
            trials=20),
        "coverage_desk": ExperimentConfig(
            experiment="Coverage", d=5, n_values=(2 ** 11,), k_values=(16, 64),
            trials=200),
        "lasso_total_desk": ExperimentConfig(
            experiment="LassoFixedN", d=1000, n_total=6400,
            k_values=(1, 2, 4, 8, 16), trials=10),
        "lasso_shard_desk": ExperimentConfig(
            experiment="LassoFixedn", d=1000, n_values=(400,),
            k_values=(1, 2, 4, 8, 16), trials=10),
        "bayes_desk": ExperimentConfig(
            experiment="Bayes", d=2, n_values=(2 ** 6, 2 ** 8, 2 ** 10),
            k_values=(16,), trials=10),
    }


def paper_presets() -> dict[str, ExperimentConfig]:
    """Full-scale analogs of the published sweeps; hours of compute."""
    return {
        "sweep_n_paper": ExperimentConfig(
            experiment="MestSweepN", d=10, n_total=2 ** 19,
            n_values=tuple(2 ** p for p in range(8, 14)), trials=100),
        "sweep_k_paper": ExperimentConfig(
            experiment="MestSweepK", d=10, n_values=(512,),
            k_values=(16, 64, 256, 1024), trials=100),
        "coverage_paper": ExperimentConfig(
            experiment="Coverage", d=5, n_values=(2 ** 13,), k_values=(16, 64, 128),
            trials=1000),
        "lasso_total_paper": ExperimentConfig(
            experiment="LassoFixedN", d=5000, n_total=25600,
            k_values=(1, 2, 4, 8, 16, 32), trials=50),
        "lasso_shard_paper": ExperimentConfig(
            experiment="LassoFixedn", d=5000, n_values=(800,),
            k_values=(1, 2, 4, 8, 16, 32, 64), trials=50),
        "bayes_paper": ExperimentConfig(
            experiment="Bayes", d=2, n_values=tuple(2 ** p for p in range(6, 12)),
            k_values=(16,), trials=50),
    }
