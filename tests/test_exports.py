"""The public names: each module's ``__all__`` is real, and every name the
package exports is the object the one module that defines it lists."""

import importlib
import pkgutil
import types

import csl


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
