"""Per-layer tracing of frobcat, installed from outside the package.

Each traced function is replaced by a wrapper on its defining object and on
every `frobcat.*` module that bound it by name (`from .linalg import rref`),
so calls between modules are seen too. A wrapper records calls and self time
(its span minus the spans of traced functions it called) and a few counts
computed from the arguments and results it sees. `remove` puts back the
original objects.
"""
from __future__ import annotations

import importlib
import sys
from functools import wraps
from math import prod
from time import perf_counter

import numpy as np

# layer (module) -> traced name -> attribute path in that module
LAYERS = {
    "linalg": {
        name: name
        for name in (
            "rref", "mat_mul", "nullspace_mod", "inverse_mod", "kron_arrays", "check_budget",
            "Subspace.reduce", "Subspace.from_rows", "Subspace.intersect", "Quotient.of",
        )
    },
    "nilmod": {
        "rank_sequence": "_rank_sequence_arr",
        **{n: n for n in ("functor_B", "functor_E", "extension_survey", "random_nil_module")},
    },
    "repcat": {
        n: n
        for n in ("tensor", "decompose_cyclic", "SymmetricTower.power", "random_cyclic_rep", "validate")
    },
    "verlinde": {n: n for n in ("semisimplify", "fusion_tensor")},
    "frobenius": {
        n: n
        for n in (
            "frobenius_components", "cyclic_power", "six_periodic_check", "random_rep_ses",
            "sp_multiplicity_spaces",
        )
    },
    "series": {"hilbert_coeffs": "hilbert_coeffs"},
    "cli": {"run": "run"},
}

# metric -> (module, lru_cache'd function) whose cache_info gives the ratio
CACHES = {
    "nilmod.extension_space.hit_ratio": ("nilmod", "_extension_space"),
    "frobenius.rep_extension_space.hit_ratio": ("frobenius", "_rep_extension_space"),
}

# Object dtype is taken once the widest float64 accumulation could pass 2^53.
_EXACT_FLOAT = 2**53


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rref(counts, args, kwargs, out):
    rows, cols = np.shape(_arg(args, kwargs, 0, "a"))
    counts["linalg.rref.cells"] += rows * cols
    counts["linalg.rref.rows"] += rows
    counts["linalg.rref.pivots"] += len(out[1])


def _count_mat_mul(counts, args, kwargs, out):
    a_shape = np.shape(_arg(args, kwargs, 0, "a"))
    b_shape = np.shape(_arg(args, kwargs, 1, "b"))
    p = _arg(args, kwargs, 2, "p")
    inner, m, n = a_shape[-1], prod(a_shape[:-1]), prod(b_shape[1:])
    if inner and m and n:
        counts["linalg.mat_mul.gflop"] += 2e-9 * m * inner * n
        if (p - 1) * (p - 1) * inner >= _EXACT_FLOAT:
            counts["linalg.mat_mul.object_calls"] += 1


def _count_budget(counts, args, kwargs, out):
    mb = _arg(args, kwargs, 0, "nbytes") / 2**20
    counts["linalg.check_budget.max_mb"] = max(counts["linalg.check_budget.max_mb"], mb)


COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.mat_mul": _count_mat_mul,
    "linalg.check_budget": _count_budget,
}
COUNT_KEYS = (
    "linalg.rref.cells", "linalg.rref.rows", "linalg.rref.pivots",
    "linalg.mat_mul.gflop", "linalg.mat_mul.object_calls", "linalg.check_budget.max_mb",
)


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    """Wrappers for every traced function, and what they recorded."""

    def __init__(self):
        self.spans = {name: [0, 0.0] for name in span_names()}  # calls, self seconds
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._open: list[float] = []  # per open span: time covered by traced children
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        record = self.spans[span]
        count = COUNTERS.get(span)
        counts, stack = self.counts, self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += took
                record[0] += 1
                record[1] += took - inner
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"frobcat.{layer}")
            for name, path in names.items():
                span = f"{layer}.{name}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        self._patch(owner, attr, classmethod(self._wrap(span, original.__func__)))
                    else:
                        self._patch(owner, attr, self._wrap(span, original))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(span, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "frobcat" and not mod_name.startswith("frobcat."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Raw totals of one pass, to be summed over passes by the caller."""
        caches = {}
        for metric, (layer, fn) in CACHES.items():
            info = getattr(importlib.import_module(f"frobcat.{layer}"), fn).cache_info()
            caches[metric] = [info.hits, info.misses]
        return {"spans": self.spans, "counts": self.counts, "caches": caches}
