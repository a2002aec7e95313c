"""Every export list of the package resolves.

A name deleted from a module but left in its ``__all__`` fails only a
star import; this imports each module's ``__all__`` name by name and by
``import *``, and the package itself by ``import *``.
"""

import importlib
import pkgutil

import pytest

import ergodykit

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(ergodykit.__path__) if m.name != "__main__"
)


def test_every_module_has_an_export_list():
    assert "dualnorm" in MODULES
    for name in MODULES:
        assert isinstance(importlib.import_module(f"ergodykit.{name}").__all__, list), name


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(f"ergodykit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from ergodykit.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_star_import():
    namespace = {}
    exec("from ergodykit import *", namespace)
    assert namespace["dual_norm"] is ergodykit.dual_norm
    assert "lower_bound_sample" not in namespace
