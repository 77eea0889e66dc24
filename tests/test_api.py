"""Every public name a module lists exists, so ``import *`` works."""

import importlib
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
