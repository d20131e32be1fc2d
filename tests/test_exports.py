"""The public names: each module's ``__all__`` is real, every name the
package exports is the object the one module that defines it lists, and the
benchmark's tracer still finds the functions it wraps."""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import csl

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
