"""Fusion ring of the semisimplified mod-p cyclic category.

Simple classes L_1 .. L_{p-1}; the product follows the truncated
Clebsch-Gordan rule, and semisimplification of a module drops the Jordan
blocks of full size p.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .linalg import check_budget, check_modulus
from .nilmod import JordanType, NilModule, jordan_type, multiplicity_vector
from .repcat import GroupRep, decompose_cyclic

__all__ = [
    "FusionElement",
    "WeightVector",
    "simple",
    "fusion_tensor",
    "green_product",
    "fpdim_simple",
    "semisimplify",
    "verlinde_weights",
    "concave_weights_to_cone",
    "verlinde_cone_report",
]


@dataclass(frozen=True)
class FusionElement:
    """Nonnegative integer combination of the simples; mult[r-1] counts L_r."""

    p: int
    mult: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.p)
        if len(self.mult) != self.p - 1:
            raise ValueError(f"need {self.p - 1} multiplicities")
        if min(self.mult, default=0) < 0:
            raise ValueError("multiplicities must be nonnegative")

    def __add__(self, other: "FusionElement") -> "FusionElement":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        return FusionElement(self.p, tuple(a + b for a, b in zip(self.mult, other.mult)))

    def scale(self, k: int) -> "FusionElement":
        return FusionElement(self.p, tuple(k * m for m in self.mult))

    @property
    def is_zero(self) -> bool:
        return not any(self.mult)

    def to_json(self) -> dict:
        return {"p": self.p, "mult": list(self.mult)}


def zero(p: int) -> FusionElement:
    check_budget(8 * (p - 1), "fusion class")  # one pointer per simple, as traced
    return FusionElement(p, (0,) * (p - 1))


def simple(p: int, r: int) -> FusionElement:
    if not 1 <= r <= p - 1:
        raise ValueError(f"simple index {r} outside [1, {p - 1}]")
    return _class_of(p, JordanType((r,)))


def green_product(p: int, a: int, b: int) -> JordanType:
    """J_a (x) J_b for Z/p over F_p in closed form (Renaud 1979): for a <= b, the
    J_{b-a+2i-1} for i = 1..min(a, p-b), plus (a+b-p) J_p when a + b > p."""
    if not (1 <= a <= p and 1 <= b <= p):
        raise ValueError(f"block sizes must lie in [1, {p}]")
    a, b = sorted((a, b))
    free = max(0, a + b - p)
    return JordanType((p,) * free + tuple(b - a + 2 * i - 1 for i in range(a - free, 0, -1)))


def _class_of(p: int, t: JordanType) -> FusionElement:
    """Class in the fusion ring: one L_k per block J_k, size-p blocks dropped."""
    # the tuple grows as it is filled: 8.1-10.6 bytes per unit of p traced, p = 10^4 to 10^7
    check_budget(11 * (p - 1), "fusion class")
    counts = Counter(t.parts)  # one pass over the parts, not one per label
    return FusionElement(p, tuple(map(counts.get, range(1, p), repeat(0))))


def _fuse_simples(p: int, r: int, s: int) -> FusionElement:
    # truncated Clebsch-Gordan: the Green product with its size-p blocks dropped
    return _class_of(p, green_product(p, r, s))


def fusion_tensor(a: FusionElement, b: FusionElement) -> FusionElement:
    """Product of two elements of the fusion ring."""
    if a.p != b.p:
        raise ValueError("mixed moduli")
    out = zero(a.p)
    for r, mr in enumerate(a.mult, start=1):
        if not mr:
            continue
        for s, ms in enumerate(b.mult, start=1):
            if ms:
                out = out + _fuse_simples(a.p, r, s).scale(mr * ms)
    return out


def fpdim_simple(p: int, r: int) -> float:
    return math.sin(math.pi * r / p) / math.sin(math.pi / p)


def semisimplify(x) -> FusionElement:
    """Class of a module in the fusion ring: Jordan blocks, size-p blocks dropped."""
    if isinstance(x, NilModule):
        if x.n > x.p:
            raise ValueError(f"nilpotency order {x.n} exceeds p = {x.p}")
        p, t = x.p, jordan_type(x)
    elif isinstance(x, GroupRep):
        p, t = x.p, decompose_cyclic(x)
    else:
        raise ValueError("semisimplify expects a NilModule or a cyclic GroupRep")
    return _class_of(p, t)


def verlinde_weights(p: int) -> "WeightVector":
    """a_j = FPdim(L_j) extended by a_0 = a_p = 0."""
    vals = [0.0] + [fpdim_simple(p, j) for j in range(1, p)] + [0.0]
    return WeightVector(p, tuple(vals))


@dataclass(frozen=True)
class WeightVector:
    """Symmetric concave weights a_0..a_p with a_0 = a_p = 0."""

    p: int
    a: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) != self.p + 1:
            raise ValueError(f"need {self.p + 1} weights")


def concave_weights_to_cone(w: WeightVector, tol: float = 1e-9) -> np.ndarray:
    """Unique cone coordinates x with a_j = sum_i x_i min(i,j,p-i,p-j).

    The min-matrix on indices 1..floor(p/2) is inverted by second
    differences, except that the middle index of an even p satisfies
    x_{p/2} = a_{p/2} - a_{p/2-1}.
    """
    p = w.p
    a = np.asarray(w.a, dtype=np.float64)
    if abs(a[0]) > tol or abs(a[p]) > tol:
        raise ValueError("weights must vanish at the endpoints")
    if any(abs(a[j] - a[p - j]) > tol for j in range(p + 1)):
        raise ValueError("weights are not symmetric")
    if any(a[j - 1] - 2 * a[j] + a[j + 1] > tol for j in range(1, p)):
        raise ValueError("weights are not concave")
    half = p // 2
    x = np.zeros(half)
    for i in range(1, half + 1):
        if 2 * i < p:
            x[i - 1] = 2 * a[i] - a[i - 1] - a[i + 1]
        else:
            x[i - 1] = a[i] - a[i - 1]
    recon = np.zeros(p + 1)
    for i in range(1, half + 1):
        v = multiplicity_vector(p, i)
        recon[1:] += x[i - 1] * np.asarray(v, dtype=np.float64)
    err = float(np.max(np.abs(recon - a)))
    if err > 1e-12:
        raise AssertionError(f"cone reconstruction off by {err}")
    return x


def verlinde_cone_report(p: int) -> dict:
    """Cone coordinates of the FPdim weights, with the proportionality data.

    Reports x_j / sin(pi j / p) and its ratio to tan(pi / 2p); the observed
    constant is recorded, not asserted.
    """
    w = verlinde_weights(p)
    x = concave_weights_to_cone(w)
    half = p // 2
    ratios = [float(x[j - 1] / math.sin(math.pi * j / p)) for j in range(1, half + 1)]
    constant = ratios[0]
    return {
        "p": p,
        "x": [float(v) for v in x],
        "ratios": ratios,
        "ratio_spread": max(ratios) - min(ratios),
        "constant_over_tan_half_angle": constant / math.tan(math.pi / (2 * p)),
    }
