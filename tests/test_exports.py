import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
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


def _arrays(value):
    """The numpy arrays in a cache's value, through tuples, lists and dict
    values."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


def test_every_cache_hands_out_read_only_arrays():
    # one small call of every functools.lru_cache in spechtres: an array a
    # cache returns is shared by every later caller, so writing to it
    # raises (rings.read_only)
    from spechtres.specht import Diagram2
    from spechtres.surface import group_token_pool

    calls = {
        "dims.fib": (10,),
        "dims._shifted_chebyshev": (3,),
        "extension.form_quotient_data": (5, 3, 3),
        "extension._factor_action": (5, 1, 3, group_token_pool(3)[:1]),
        "factors.simple_dim": (3, Diagram2(4, 2)),
        "resolution.simple_quotient": (3, Diagram2(4, 2)),
        "resolution._trace_basis": (3, Diagram2(4, 2)),
        "rings.zeta_quantum": (5, 2),
        "specht.specht_module": (6, 2),
        "specht.gram_of_diagram": (Diagram2(4, 2),),
        "surface.j_token": (2,),
        "surface.group_token_pool": (2,),
        "surface.lefschetz_basis": (2, 3),
        "surface.component_quotient": (5, 2, 3),
        "tensor.weight_classes": (4,),
        "tensor.weight_class_masks": (4, 2),
    }
    caches = {
        f"{name}.{attr}": value
        for name in _MODULES
        for attr, value in vars(importlib.import_module(f"spechtres.{name}")).items()
        if hasattr(value, "cache_info") and hasattr(value, "__wrapped__") and value.__module__ == f"spechtres.{name}"
    }
    assert sorted(caches) == sorted(calls)
    returned = {name: _arrays(caches[name](*args)) for name, args in calls.items()}
    assert [name for name, arrays in returned.items() if arrays] == [
        "extension.form_quotient_data",
        "extension._factor_action",
        "resolution._trace_basis",
        "specht.gram_of_diagram",
        "tensor.weight_classes",
    ]
    for name, arrays in returned.items():
        for a in arrays:
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
