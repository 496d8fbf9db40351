"""Truncated Hilbert series and the tail root test."""
import json
from math import comb

import numpy as np
import pytest

from frobcat.repcat import GroupRep, cyclic_group, cyclic_rep, trivial_rep
from frobcat.series import TruncSeries, growth_check, hilbert_coeffs


def test_trunc_series_validation():
    s = TruncSeries((1, 2, 3))
    assert s.to_json() == [1, 2, 3] and s.order == 2
    with pytest.raises(ValueError):
        TruncSeries((2, 2, 2))
    with pytest.raises(ValueError):
        TruncSeries((1, -1, 0))
    with pytest.raises(ValueError):
        TruncSeries(())


def test_hilbert_coeffs_known_dimensions():
    ones = hilbert_coeffs(trivial_rep(cyclic_group(5), 5), 8)
    assert ones.coeffs == (1,) * 9
    line = hilbert_coeffs(cyclic_rep(3, (2,)), 10)
    assert line.coeffs == tuple(i + 1 for i in range(11))
    plane = hilbert_coeffs(cyclic_rep(3, (3,)), 6)
    assert plane.coeffs == tuple(comb(i + 2, 2) for i in range(7))
    with pytest.raises(ValueError):
        hilbert_coeffs(cyclic_rep(3, (2,)), -1)


def test_hilbert_zero_dimensional_rep():
    p = 3
    zero = GroupRep(group=cyclic_group(p), p=p, dim=0, matrices=(np.zeros((0, 0), int),))
    s = hilbert_coeffs(zero, 12)
    assert s.coeffs == (1,) + (0,) * 12
    report = growth_check(s)
    del report["note"]
    # every field as printed: the estimates are the floats 0.0, not the int 0
    assert json.dumps(report, sort_keys=True) == json.dumps({
        "verdict": "polynomial", "order": 12, "root_estimates": [], "max_root_estimate": 0.0,
        "final_root_estimate": 0.0, "ratio_estimate": 0.0, "threshold": 1.0 + 10.0 / 12,
        "flagged": False,
    }, sort_keys=True)


def test_growth_check_linear_series():
    s = hilbert_coeffs(cyclic_rep(2, (2,)), 40)
    report = growth_check(s)
    assert report["verdict"] == "non-polynomial"
    assert report["threshold"] == 1.25
    assert report["max_root_estimate"] <= 1.25
    assert abs(report["final_root_estimate"] - 41 ** (1 / 40)) < 1e-12
    assert not report["flagged"]
    assert "diagnostic" in report["note"]


def test_growth_check_flags_geometric_growth():
    s = TruncSeries(tuple(2**i for i in range(13)))
    report = growth_check(s)
    assert report["flagged"]
    assert abs(report["max_root_estimate"] - 2.0) < 1e-12


def test_growth_check_never_flags_binomial_growth():
    # C(m+d-1, d-1) grows like m^(d-1); its root estimates once passed the threshold
    for d in range(1, 9):
        for t in range(10, 401):
            report = growth_check(TruncSeries(tuple(comb(m + d - 1, d - 1) for m in range(t + 1))))
            assert not report["flagged"], (d, t)
            assert abs(report["ratio_estimate"] - 1.0) < 1e-9


def test_growth_check_flags_doubling_and_fibonacci_growth():
    fib = [1, 1]
    while len(fib) <= 400:
        fib.append(fib[-1] + fib[-2])
    for t in range(20, 401):
        doubling = [2**m for m in range(t + 1)]
        for coeffs, rate in ((doubling, 2.0), (fib[: t + 1], (1 + 5**0.5) / 2)):
            report = growth_check(TruncSeries(tuple(coeffs)))
            assert report["flagged"], t
            assert abs(report["ratio_estimate"] - rate) < 1e-3


def test_growth_check_takes_roots_past_the_float_range():
    # 4^600 is past 2^1024: its root estimate goes through the logarithm
    report = growth_check(TruncSeries(tuple(4**m for m in range(601))))
    assert report["flagged"]
    assert abs(report["final_root_estimate"] - 4.0) < 1e-12
    assert abs(report["max_root_estimate"] - 4.0) < 1e-12
    assert abs(report["ratio_estimate"] - 4.0) < 1e-12


def test_growth_check_rejects_short_series():
    with pytest.raises(ValueError):
        growth_check(TruncSeries((1,) * 9))
