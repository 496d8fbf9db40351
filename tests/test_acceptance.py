"""Acceptance gate: one test per criterion, each with its runtime budget.

Every test pins its tolerances inline and draws from fixed seeds, so a
failure here reproduces byte-for-byte. Budgets are wall-clock upper bounds
on this machine class, asserted at the end of each test.
"""
import math
import time
from math import comb, isqrt

import numpy as np

from frobcat.frobenius import (
    DIM_CAPS,
    check_additivity,
    check_monoidality,
    exactness_report,
    fpdim_of_F,
    frobenius_components,
    frobenius_on_simple,
    random_rep_ses,
    six_periodic_check,
    sp_multiplicity_spaces,
)
from frobcat.linalg import is_prime
from frobcat.nilmod import (
    extension_survey,
    functor_B,
    functor_E,
    jordan_matrix,
    jordan_module,
    multiplicity_vector,
    random_nil_module,
)
from frobcat.repcat import (
    evaluate_word,
    random_cyclic_rep,
    tensor,
)
from frobcat.seeding import mix64, rng_for
from frobcat.series import growth_check, hilbert_coeffs
from frobcat.repcat import cyclic_rep
from frobcat.verlinde import (
    fpdim_simple,
    fusion_tensor,
    semisimplify,
    simple,
    verlinde_cone_report,
)
from oracles import fpdim_perron, fusion_matrix, induced_on_subquotient, restrict_to_nilmodule

SEED = 0xACCE


def brute_rank_mod(rows, p):
    """Plain Gaussian elimination over F_p on Python ints; test-local oracle."""
    mat = [list(map(int, r)) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % p:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def partitions(total, max_part):
    out = []

    def rec(left, biggest, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for k in range(min(biggest, left), 0, -1):
            rec(left - k, k, acc + [k])

    rec(total, max_part, [])
    return out


def test_criterion_01_fusion_table_and_fpdims():
    start = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13):
        mats = [fusion_matrix(p, r) for r in range(1, p)]
        assert np.array_equal(mats[0], np.eye(p - 1, dtype=int))
        for a in mats:
            for b in mats:
                assert np.array_equal(a @ b, b @ a)
        for r in range(1, p):
            for s in range(1, p):
                got = fusion_tensor(simple(p, r), simple(p, s)).mult
                for t in range(1, p):
                    acc = 0.0
                    for j in range(1, p):
                        th = math.pi * j / p
                        acc += (
                            math.sin(r * th)
                            * math.sin(s * th)
                            * math.sin(t * th)
                            / math.sin(th)
                        )
                    assert abs(got[t - 1] - 2.0 * acc / p) < 1e-9
        perron = fpdim_perron(p)
        for r in range(1, p):
            assert abs(perron[r - 1] - fpdim_simple(p, r)) < 1e-9
    assert abs(fpdim_simple(5, 2) - (1 + math.sqrt(5)) / 2) < 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_02_single_block_functor_dims():
    start = time.perf_counter()
    p = 5
    for n in range(1, 9):
        for m in range(1, n + 1):
            mod = jordan_module(p, n, (m,))
            d = mod.D
            powers = [np.eye(m, dtype=np.int64)]
            for _ in range(n):
                powers.append(powers[-1] @ d % p)
            for i in range(0, n + 1):
                want = min(i, m, n - i, n - m)
                assert functor_E(mod, i).dim == want
                # independent route: dim Ker D^i - dim Im D^{n-i} by brute rank
                brute = (m - brute_rank_mod(powers[i], p)) - brute_rank_mod(
                    powers[n - i], p
                )
                assert brute == want
            for i in range(1, n + 1):
                assert functor_B(mod, i).dim == (1 if i == m else 0)
    assert time.perf_counter() - start < 5.0


def test_criterion_03_e_dims_from_block_multiplicities():
    start = time.perf_counter()
    primes = (2, 3, 5, 7)
    violations = 0
    for t in range(500):
        p = primes[t % 4]
        rng = rng_for(SEED, 2 * t)
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 25))
        mod = random_nil_module(p, n, dim, SEED, 2 * t + 1)
        bdims = [functor_B(mod, j).dim for j in range(1, n + 1)]
        for i in range(0, n + 1):
            want = sum(
                v * b for v, b in zip(multiplicity_vector(n, i), bdims)
            )
            if functor_E(mod, i).dim != want:
                violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 10.0


def test_criterion_04_e_additivity_implies_split():
    start = time.perf_counter()
    pair_index = 0
    for p in (2, 3):
        for n in range(2, 6):
            for tx in range(1, 6):
                for tz in range(1, 7 - tx):
                    for xq in partitions(tx, n):
                        for zq in partitions(tz, n):
                            x = jordan_module(p, n, xq)
                            z = jordan_module(p, n, zq)
                            survey = extension_survey(
                                x, z, 200, mix64(SEED, pair_index)
                            )
                            assert survey["violations"] == []
                            pair_index += 1
    assert pair_index == 554
    assert time.perf_counter() - start < 60.0


def test_criterion_05_six_periodic_exactness():
    start = time.perf_counter()
    for p, cap, count in ((2, 12, 100), (3, 8, 50), (5, 4, 10)):
        for k in range(count):
            report = six_periodic_check(random_rep_ses(p, cap, SEED, k))
            assert report["ok"], (p, k)
            for pair in report["pairs"]:
                assert pair["exact"] == [True] * 6
                assert pair["alternating_sum"] == 0
    assert time.perf_counter() - start < 120.0


def test_criterion_06_additivity_and_monoidality():
    start = time.perf_counter()
    for p in (2, 3):
        cap = DIM_CAPS[p]
        half, root = max(1, cap // 2), max(1, isqrt(cap))
        for t in range(50):
            rng = rng_for(SEED, 3 * t)
            dx = int(rng.integers(1, half + 1))
            dy = int(rng.integers(1, half + 1))
            x = random_cyclic_rep(p, dx, SEED, 3 * t + 1)
            y = random_cyclic_rep(p, dy, SEED, 3 * t + 2)
            assert check_additivity(x, y)["ok"], (p, t)
        for t in range(50):
            rng = rng_for(SEED, 3 * t)
            dx = int(rng.integers(1, root + 1))
            dy = int(rng.integers(1, root + 1))
            x = random_cyclic_rep(p, dx, SEED, 3 * t + 1)
            y = random_cyclic_rep(p, dy, SEED, 3 * t + 2)
            assert check_monoidality(x, y)["ok"], (p, t)
    assert time.perf_counter() - start < 60.0


def test_criterion_07_semisimplification_is_multiplicative():
    start = time.perf_counter()
    shares = ((3, 34), (5, 33), (7, 33))
    for p, count in shares:
        for t in range(count):
            rng = rng_for(SEED, 3 * t)
            dx = int(rng.integers(1, 31))
            dy = int(rng.integers(1, 31))
            x = random_cyclic_rep(p, dx, SEED, 3 * t + 1)
            y = random_cyclic_rep(p, dy, SEED, 3 * t + 2)
            lhs = semisimplify(tensor(x, y))
            rhs = fusion_tensor(semisimplify(x), semisimplify(y))
            assert lhs == rhs, (p, t)
    assert time.perf_counter() - start < 30.0


def test_criterion_08_shift_functor_exactness():
    start = time.perf_counter()
    for p, cap, count in ((2, 12, 20), (3, 8, 10), (5, 4, 5)):
        ses_list = [random_rep_ses(p, cap, SEED + 1, k) for k in range(count)]
        report = exactness_report(ses_list)
        assert report["violations"] == []
        for s in ses_list:
            ix = frobenius_components(s.x)
            iy = frobenius_components(s.y)
            iz = frobenius_components(s.z)
            for i in range(1, p):
                assert iy.g(i).dim == ix.g(i).dim + iz.g(i).dim
                if i >= 2:
                    assert iy.f(i).dim == 0
            assert abs(fpdim_of_F(s.y) - s.y.dim) < 1e-9
    assert time.perf_counter() - start < 120.0


def test_criterion_09_power_functor_on_single_blocks():
    start = time.perf_counter()
    p = 5
    for m in range(1, 5):
        comps = frobenius_on_simple(p, m)
        expect_index = m if m % 2 else p - m
        expect_class = simple(p, 1) if m % 2 else simple(p, p - 1)
        for i in range(1, p):
            if i == expect_index:
                assert comps[i - 1] == expect_class, (m, i)
            else:
                assert comps[i - 1].is_zero, (m, i)
    assert time.perf_counter() - start < 60.0


def test_criterion_10_symmetric_action_on_multiplicity_spaces():
    start = time.perf_counter()
    for p, ms in ((3, (1, 2)), (5, (1, 2, 3, 4))):
        for m in ms:
            result = sp_multiplicity_spaces(p, m)
            exceptional = 1 if m % 2 else p - 1
            assert result["exceptional_index"] == exceptional
            for j in range(1, p):
                core = result["core_dims"][j - 1]
                if j == exceptional:
                    assert core == comb(p - 2, m - 1), (p, m, j)
                    assert not result["projective"][j - 1]
                else:
                    assert core == 0 and result["projective"][j - 1]
    # the surviving line at p = 3, m = 2 carries the sign character
    rep = sp_multiplicity_spaces(3, 2)["components"][1]
    restricted = restrict_to_nilmodule(rep, "b", 3)
    b1 = functor_B(restricted, 1)
    induced = induced_on_subquotient(evaluate_word(rep, "a"), b1.sup, b1.sub)
    assert induced.tolist() == [[2]]
    assert time.perf_counter() - start < 300.0


def test_criterion_11_cone_coordinates_of_the_weights():
    start = time.perf_counter()
    factors = {}
    for p in (q for q in range(2, 24) if is_prime(q)):
        report = verlinde_cone_report(p)
        assert all(v > 0 for v in report["x"]), p
        assert report["ratio_spread"] <= 1e-9, p
        factors[p] = report["constant_over_tan_half_angle"]
    # observed proportionality factor, reported without judgement
    print("cone constant / tan(pi/2p):", {p: round(v, 12) for p, v in factors.items()})
    assert time.perf_counter() - start < 1.0


def test_criterion_12_hilbert_series_of_a_plane():
    start = time.perf_counter()
    for p in (2, 3):
        series = hilbert_coeffs(cyclic_rep(p, (2,)), 40)
        assert series.coeffs == tuple(i + 1 for i in range(41))
        for i in range(40):
            assert series.coeffs[i + 1] <= 2 * series.coeffs[i]
        report = growth_check(series)
        assert report["verdict"] == "non-polynomial"
        assert report["final_root_estimate"] <= 1.1
        assert not report["flagged"]
    assert time.perf_counter() - start < 30.0
