import importlib
import pkgutil

import pytest

import spechtres

_MODULES = sorted(m.name for m in pkgutil.iter_modules(spechtres.__path__) if m.name != "__main__")


def test_every_library_module_declares_its_exports():
    declared = [name for name in _MODULES if hasattr(importlib.import_module(f"spechtres.{name}"), "__all__")]
    assert declared == ["dims", "extension", "factors", "resolution", "rings", "specht", "surface", "tensor"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"spechtres.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from spechtres import *", namespace)
    assert "build_complex" in namespace and "mu_induced" in namespace
