"""The public names: each module's ``__all__`` is real, every name the
package exports is the object the one module that defines it lists, the
settings every caller states keep no default, and the benchmark's tracer
still finds the functions it wraps."""

import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import csl
from csl import bayes, cli, cluster, estimators, losses, surrogate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Tracer targets that name functions the package no longer has.
KNOWN_MISSING_TARGETS = {
    "csl.cluster.Cluster.gradient_vectors_at",
    "csl.losses.shard_from_csv",
    "csl.losses.loss_value",
    "csl.losses.loss_gradient",
    "csl.losses.loss_value_gradient",
    "csl.losses.loss_hessian",
    "csl.losses.per_sample_gradients",
    "csl.surrogate.build_quadratic_surrogate",
    "csl.surrogate.surrogate_value",
    "csl.surrogate.surrogate_value_gradient",
}


def test_every_export_exists_once_and_matches_its_module():
    owners = {}
    for info in pkgutil.iter_modules(csl.__path__):
        module = importlib.import_module(f"csl.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"csl.{info.name}.__all__ lists missing {name!r}"
            owners.setdefault(name, []).append(module)
        namespace = {}
        exec(f"from csl.{info.name} import *", namespace)
        assert set(module.__all__) <= set(namespace)
    for name, value in vars(csl).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        listed_by = [module.__name__ for module in owners.get(name, [])]
        assert len(listed_by) == 1, f"csl.{name} is listed by {listed_by}"
        assert value is getattr(owners[name][0], name), f"csl.{name} is a stale copy"


# Every program states these values, so none of them may get a default back.
STATED_SETTINGS = [
    (bayes.McmcSettings, ("iters", "seed")),
    (bayes.metropolis, ("seed",)),
    (bayes.run_csl_bayes, ("mcmc",)),
    (bayes.marginal_l1, ("coordinate", "bins")),
    (bayes.full_log_posterior, ("n_total",)),
    (estimators.ilea, ("rounds",)),
    (cluster.Cluster.local_minimizer_round, ("request",)),
    (cluster.Cluster.pooled_shard, ("meter",)),
    (losses.ShardLoss.eval, ("order",)),
    (surrogate.SurrogateLoss.eval, ("order",)),
]


def test_stated_settings_have_no_default_and_the_cli_has_two_subcommands():
    for func, names in STATED_SETTINGS:
        params = inspect.signature(func).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, \
                f"{func.__qualname__}({name}=...) has a default"
    assert "{run,report}" in cli._build_parser().format_usage()


def test_benchmark_tracer_loses_no_more_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore() == []
    lost = sorted(set(tracer.missing) - KNOWN_MISSING_TARGETS)
    assert not lost, f"perfbench/tracer.py targets no longer found: {lost}"
