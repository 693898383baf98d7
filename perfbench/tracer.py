"""Outside-in span recorder and cache counters for spechtres.

The recorder wraps public functions of the spechtres modules from outside
the package.  Modules bind each other's functions by name (``from .rings
import fp_rref`` in specht, resolution, surface and extension), so a
function is replaced in every ``spechtres`` module namespace that binds the
same object, and every binding is put back when the recorder exits.

A span is ``[name, start, end, parent, job, p, shapes]``: ``parent`` is the
index of the enclosing span or None, ``p`` the call's prime (None when the
function takes none or was given None) and ``shapes`` the shapes of its
numpy array arguments.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# Functions timed as layers, as "<module>.<attribute path>".
TARGETS = (
    "cli.run",
    "rings.fp_rref",
    "rings.fp_solve",
    "rings.fp_inverse",
    "rings.fp_kernel_basis",
    "rings.fp_matmul",
    "rings.frac_solve",
    "specht.basis_matrix",
    "specht.gram_of_diagram",
    "specht.basis_solver",
    "specht.BasisSolver.coords",
    "specht.specht_basis",
    "specht.permutation_matrix_on_basis",
    "specht.ordinary_character",
    "tensor.apply_raising_power",
    "tensor.perm_action",
    "resolution.e_power_map",
    "resolution.build_complex",
    "resolution.verify_exactness",
    "resolution.simple_quotient",
    "resolution.quotient_trace",
    "surface.apply_word",
    "surface.lefschetz_basis",
    "surface.lefschetz_action_matrix",
    "surface.alexander_trace",
    "surface.component_quotient",
    "surface.modular_quotient_trace",
    "extension.mu_induced",
    "extension.block_action_matrix",
    "extension.nonsplit_witness",
    "extension.equivariant_section_exists",
    "extension.strand_resolution_check",
    "factors.composition_factors",
    "factors.phi_bijection",
    "factors.simple_dim",
    "dims.fusion_multiply",
    "dims.verlinde_profile",
    "dims.perron_power_iteration",
)

# The exact (p=None) and modular paths of these are different algorithms,
# so their spans are named <target>.exact and <target>.modp.
SPLIT_ON_P = frozenset({"surface.lefschetz_action_matrix"})

# Spans of this target count multiply-add work: 2*m*k*n for an m x k by
# k x n product.
MATMUL = "rings.fp_matmul"


def spechtres_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "spechtres" or name.startswith("spechtres.")]


def _resolve(target: str):
    """(owner, attribute, object) for a target; object is None when the
    program no longer has it."""
    module_name, _, path = target.partition(".")
    owner = sys.modules.get(f"spechtres.{module_name}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return owner, attr, getattr(owner, attr, None)


def _p_argument(fn):
    """(position, default) of a parameter named p, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for pos, param in enumerate(params):
        if param.name == "p":
            default = None if param.default is inspect.Parameter.empty else param.default
            return pos, default
    return None


class Recorder:
    """Context manager that traces TARGETS while it is active.

    Set ``job`` before each job so that its spans carry the job id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, method: bool = False):
        """Traced stand-in for fn; a method takes p from its instance."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        p_arg = _p_argument(fn)
        split = name in SPLIT_ON_P

        def traced(*args, **kwargs):
            p = None
            if p_arg is not None:
                pos, default = p_arg
                p = kwargs.get("p", args[pos] if pos < len(args) else default)
            elif method:
                p = getattr(args[0], "p", None)
            shapes = tuple(a.shape for a in args if isinstance(a, np.ndarray))
            label = f"{name}.{'exact' if p is None else 'modp'}" if split else name
            span = [label, 0.0, 0.0, stack[-1] if stack else None, self.job, p, shapes]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def __enter__(self):
        try:
            modules = spechtres_modules()
            for target in TARGETS:
                owner, attr, fn = _resolve(target)
                if fn is None:
                    self.missing.append(target)
                    continue
                if isinstance(owner, type):
                    self._patch(owner, attr, self.wrap(target, fn, method=True))
                    continue
                traced = self.wrap(target, fn)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, name, traced)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, name: str, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self_s (duration minus the time covered by
        direct child spans), cells (rows*cols of the first array argument)
        and flops (computed, for MATMUL only)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, _, shapes) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "cells": 0, "flops": 0})
            t["calls"] += 1
            t["self_s"] += end - start - covered[i]
            if shapes:
                t["cells"] += int(np.prod(shapes[0]))
            if name == MATMUL and len(shapes) >= 2:
                (m, k), right = shapes[0], shapes[1]
                t["flops"] += 2 * m * k * (right[1] if len(right) > 1 else 1)
        return out

    def write_jsonl(self, path, proc: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, p, shapes) in enumerate(self.spans):
                record = {
                    "proc": proc,
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "job": job,
                    "p": p,
                    "shape": [list(s) for s in shapes],
                }
                fh.write(json.dumps(record, default=int) + "\n")


def lru_caches() -> dict:
    """Every functools.lru_cache bound in a spechtres module, by
    "<module>.<qualname>"."""
    found = {}
    for module in spechtres_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and hasattr(value, "__wrapped__"):
                short = value.__module__.rpartition(".")[2]
                found.setdefault(f"{short}.{value.__qualname__}", value)
    return found


def cache_counts(caches: dict) -> dict[str, list[int]]:
    """[hits, misses] of each cache."""
    return {name: [fn.cache_info().hits, fn.cache_info().misses] for name, fn in caches.items()}
