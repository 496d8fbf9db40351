"""Hilbert series of symmetric powers with desk-scale growth diagnostics.

The radius-of-convergence statement is asymptotic; what is computable here
is a root test on the tail of a truncated series, with tolerance shrinking
in the truncation order. The report says so: the check is a diagnostic,
not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .repcat import GroupRep

__all__ = ["TruncSeries", "hilbert_coeffs", "growth_check"]


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients d_0..d_T of a truncated Hilbert series."""

    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")
        if self.coeffs[0] != 1:
            raise ValueError("a unital algebra starts with d_0 = 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def hilbert_coeffs(x: GroupRep, up_to: int) -> TruncSeries:
    """dim of the symmetric powers S^0 X .. S^T X: the monomial counts
    C(m + d - 1, d - 1), which are 1, 0, 0, ... when d = dim X = 0."""
    if up_to < 0:
        raise ValueError("truncation order must be nonnegative")
    d = x.dim
    dims = tuple(comb(m + d - 1, d - 1) if d else int(m == 0) for m in range(up_to + 1))
    return TruncSeries(coeffs=dims, order=up_to)


def growth_check(s: TruncSeries) -> dict:
    """Root-test diagnostics on the tail of a truncated series.

    Verdict is "polynomial" when the entire tail (indices above T/2)
    vanishes; otherwise the i-th root of each positive tail coefficient is
    reported and the maximum is flagged if it exceeds 1 + 10/T.
    """
    t = s.order
    if t < 10:
        raise ValueError("truncation order below 10 says nothing about growth")
    tail_start = t // 2
    tail = {i: s.coeffs[i] for i in range(tail_start, t + 1)}
    note = (
        "root test on the computed tail; a finite prefix cannot prove the "
        "radius of convergence, this is a growth diagnostic only"
    )
    if all(c == 0 for i, c in tail.items() if i > 0):
        return {
            "verdict": "polynomial",
            "order": t,
            "root_estimates": [],
            "max_root_estimate": 0.0,
            "final_root_estimate": 0.0,
            "threshold": 1.0 + 10.0 / t,
            "flagged": False,
            "note": note,
        }
    estimates = [c ** (1.0 / i) for i, c in tail.items() if i > 0 and c > 0]
    positive = [i for i, c in tail.items() if i > 0 and c > 0]
    final = tail[positive[-1]] ** (1.0 / positive[-1])
    threshold = 1.0 + 10.0 / t
    max_est = max(estimates)
    return {
        "verdict": "non-polynomial",
        "order": t,
        "root_estimates": estimates,
        "max_root_estimate": max_est,
        "final_root_estimate": final,
        "threshold": threshold,
        "flagged": max_est > threshold,
        "note": note,
    }
