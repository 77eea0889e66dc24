"""Every public name a module lists exists, so ``import *`` works, and
the public calls of the fiber, tracking and index layers take no
tolerance: the fiber system carries its tolerances."""

import importlib
import inspect
import pkgutil

import pytest

import monoweb

MODULES = sorted(m.name for m in pkgutil.iter_modules(monoweb.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"monoweb.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from monoweb.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _public_callables(module):
    """The public functions of ``module`` and the public methods of its
    public classes, by qualified name."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != \
                module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield from ((f"{name}.{m}", f) for m, f in vars(obj).items()
                        if not m.startswith("_") and inspect.isfunction(f))


@pytest.mark.parametrize("name", ["fiber", "monodromy", "index"])
def test_no_public_callable_takes_a_tolerance(name):
    module = importlib.import_module(f"monoweb.{name}")
    taking = []
    for qualname, fn in _public_callables(module):
        params = inspect.signature(fn).parameters.values()
        if any(p.name in ("tol", "singular_tol", "sep_floor")
               or p.kind is p.VAR_KEYWORD for p in params):
            taking.append(qualname)
    assert taking == []
