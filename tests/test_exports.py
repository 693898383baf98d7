import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_module_but_rings_imports_a_private_rings_name():
    # the residue format and overflow bounds of the mod-p kernels are known
    # to rings alone; resolution.quotient_trace reads _LIMIT for its own
    # int64 sum, so that test_bounds lowers every such limit in one table
    imported = []
    for path in sorted(Path(spechtres.__file__).parent.glob("*.py")):
        if path.stem == "rings":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "rings"), (0, "spechtres.rings")):
                imported += [(path.stem, alias.name) for alias in node.names]
    assert ("specht", "BasisSolver") in imported
    private = [(module, name) for module, name in imported if name.startswith("_")]
    assert [entry for entry in private if entry != ("resolution", "_LIMIT")] == []
