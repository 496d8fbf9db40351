"""Hilbert series of symmetric powers with desk-scale growth diagnostics.

The radius-of-convergence statement is asymptotic; what is computable here
is a root test and a ratio-method estimate on the tail of a truncated series,
with tolerance shrinking in the truncation order. The report says so: the
check is a diagnostic, not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, log

from .repcat import GroupRep

__all__ = ["TruncSeries", "hilbert_coeffs", "growth_check"]


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients d_0..d_T of a truncated Hilbert series of order T."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("a unital algebra starts with d_0 = 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def hilbert_coeffs(x: GroupRep, up_to: int) -> TruncSeries:
    """dim of the symmetric powers S^0 X .. S^T X: the monomial counts
    C(m + d - 1, d - 1), which are 1, 0, 0, ... when d = dim X = 0."""
    if up_to < 0:
        raise ValueError("truncation order must be nonnegative")
    d = x.dim
    dims = tuple(comb(m + d - 1, d - 1) if d else int(m == 0) for m in range(up_to + 1))
    return TruncSeries(coeffs=dims)


def _root(c: int, i: int) -> float:
    """c^(1/i); through the logarithm when c is past the float range."""
    try:
        return c ** (1.0 / i)
    except OverflowError:
        return exp(log(c) / i)


def growth_check(s: TruncSeries) -> dict:
    """Growth diagnostics on the tail (indices from T/2 on) of a truncated series.

    Verdict is "polynomial" when the entire tail vanishes. Otherwise the
    i-th root of each positive tail coefficient is reported, and the growth
    rate r is estimated by the ratio method (Domb-Sykes): for coefficients
    growing like i^k r^i the ratio c_i / c_{i-1} is r (1 + k/i) + o(1/i),
    so i c_i / c_{i-1} - (i-1) c_{i-1} / c_{i-2} tends to r. It is exactly 1
    for the binomials C(i+d-1, d-1), whose root estimates stay far above 1
    at short truncations. The series is flagged when that estimate, taken
    at the last two ratios of the tail, exceeds 1 + 10/T; without two
    ratios (zeros in the tail) the largest root estimate stands in for it.
    """
    t = s.order
    if t < 10:
        raise ValueError("truncation order below 10 says nothing about growth")
    tail_start = t // 2
    tail = {i: s.coeffs[i] for i in range(tail_start, t + 1)}
    threshold = 1.0 + 10.0 / t
    note = (
        "root test and ratio method on the computed tail; a finite prefix cannot "
        "prove the radius of convergence, this is a growth diagnostic only"
    )
    positive = [i for i, c in tail.items() if c > 0]  # none when the tail vanishes
    estimates = [_root(tail[i], i) for i in positive]
    max_est = max(estimates, default=0.0)
    # i * c_i / c_{i-1} for every i in the tail whose predecessor is positive
    scaled = [
        (i, i * c / s.coeffs[i - 1]) for i, c in tail.items() if i > tail_start and s.coeffs[i - 1] > 0
    ]
    if len(scaled) >= 2:
        (j, sj), (i, si) = scaled[-2:]
        ratio_est = (si - sj) / (i - j)
    else:
        ratio_est = max_est
    return {
        "verdict": "non-polynomial" if positive else "polynomial",
        "order": t,
        "root_estimates": estimates,
        "max_root_estimate": max_est,
        "final_root_estimate": estimates[-1] if estimates else 0.0,
        "ratio_estimate": ratio_est,
        "threshold": threshold,
        "flagged": ratio_est > threshold,
        "note": note,
    }
