"""Exact linear algebra over F_p: elimination, subspaces, quotients."""
import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frobcat.linalg
from frobcat.linalg import (
    _DIVIDE_CELLS,
    _REMAINDER_SLICE,
    _SMALL_CELLS,
    DEFAULT_BUDGET_MB,
    BudgetError,
    Quotient,
    Subspace,
    _product,
    _remainder,
    as_residues,
    check_budget,
    check_modulus,
    frozen_matrix,
    inverse_mod,
    is_prime,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    random_invertible,
    rank_mod,
    rank_stack,
    restrict_to_image,
    rref,
)
from frobcat.nilmod import jordan_matrix, random_nil_module
from frobcat.seeding import rng_for
from oracles import (
    general_preimage,
    induced_on_subquotient,
    mat_mul_naive,
    nullspace_certificate,
    pivot_loop_per_pivot,
    product_certificate,
    rref_certificate,
    rref_naive,
    solve_right,
)

PRIMES = st.sampled_from([2, 3, 5, 7, 13])


def random_matrix(draw, p, max_dim=9):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rng = rng_for(draw(st.integers(0, 2**32)), 0)
    return rng.integers(0, p, size=(m, n)).astype(np.int64)


def test_is_prime():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_each_modulus_is_trial_divided_once():
    # every NilModule checks its modulus; near 2^31.5 one trial division takes milliseconds
    is_prime.cache_clear()
    for index in range(20):
        random_nil_module(3037000493, 2, 3, seed=5, index=index)
    assert is_prime.cache_info().misses == 1


def test_rref_known_values():
    a = np.array([[2, 4], [1, 2]])
    red, piv = rref(a, 5)
    assert piv == (0,)
    assert red.tolist() == [[1, 2]]
    red, piv = rref(np.zeros((3, 3), int), 7)
    assert piv == () and red.shape == (0, 3)
    red, piv = rref(np.eye(4, dtype=int), 2)
    assert piv == (0, 1, 2, 3) and np.array_equal(red, np.eye(4))


@settings(max_examples=150, deadline=None)
@given(st.data(), PRIMES)
def test_rref_blocked_matches_reference(data, p):
    # up to 40 rows: the one-pivot base case alone, and one or two splits
    a = random_matrix(data.draw, p, max_dim=40)
    got_r, got_p = rref(a, p)
    want_r, want_p = rref_naive(a, p)
    assert got_p == want_p
    assert np.array_equal(got_r, want_r)


@settings(max_examples=100, deadline=None)
@given(st.data(), PRIMES)
def test_rank_transpose_and_nullity(data, p):
    a = random_matrix(data.draw, p)
    r = rank_mod(a, p)
    assert r == rank_mod(a.T, p)
    ns = nullspace_mod(a, p)
    assert ns.shape[0] == a.shape[1] - r
    if ns.size:
        assert not np.any(mat_mul(a, ns.T, p))


def test_nullspace_is_canonical():
    a = np.array([[1, 2, 3], [2, 4, 6]])
    ns = nullspace_mod(a, 7)
    again, piv = rref(ns, 7)
    assert np.array_equal(ns, again)


def test_solve_right_round_trip():
    p = 11
    rng = rng_for(3, 1)
    a = rng.integers(0, p, size=(4, 6))
    x0 = rng.integers(0, p, size=(6, 2))
    b = mat_mul(a, x0, p)
    x = solve_right(a, b, p)
    assert np.array_equal(mat_mul(a, x, p), b)
    with pytest.raises(ValueError):
        solve_right(np.array([[1, 0], [0, 0]]), np.array([[0], [1]]), p)


def test_inverse_and_random_invertible():
    p = 13
    rng = rng_for(4, 0)
    for dim in (0, 1, 2, 5, 12):
        q, q_inv = random_invertible(p, dim, rng)
        assert q.shape == q_inv.shape == (dim, dim)
        assert np.array_equal(mat_mul(q, q_inv, p), np.eye(dim, dtype=int))
        assert np.array_equal(mat_mul(q, inverse_mod(q, p), p), np.eye(dim, dtype=int))
    with pytest.raises(ValueError):
        inverse_mod(np.zeros((2, 2), int), p)


def test_mat_mul_split_regime_for_large_modulus():
    # (p-1)^2 alone passes the float64-exact bound, so the split regime runs:
    # 16-bit halves, four float64 GEMMs, recombined in int64; all-(p-1)
    # operands give the largest halves and partial sums, at blocked sizes
    for p in (2**31 - 1, 3037000493):
        a = np.array([[p - 1, p - 2]])
        b = np.array([[p - 1], [p - 3]])
        want = ((p - 1) * (p - 1) + (p - 2) * (p - 3)) % p
        assert mat_mul(a, b, p).tolist() == [[want]]
        full = np.full((70, 300), p - 1, dtype=np.int64)
        assert np.array_equal(mat_mul(full, full.T, p), np.full((70, 70), 300 % p))
        rng = rng_for(p, 7)
        x = rng.integers(0, p, size=(64, 300))
        y = rng.integers(0, p, size=(300, 90))
        assert np.array_equal(mat_mul(x, y, p), mat_mul_naive(x, y, p))


def extreme_operands(p, k, rng, rows=48):
    """A rows x k and a k x 48 residue matrix, random but for a first row and
    column of (1, p-1, ..., p-1): their product's first entry is the largest
    odd partial sum, 1 + (k-1)(p-1)^2, which a float too narrow for it rounds."""
    a = rng.integers(0, p, size=(rows, k))
    b = rng.integers(0, p, size=(k, 48))
    a[0] = b[:, 0] = p - 1
    a[0, 0] = b[0, 0] = 1
    return a, b


# (p, k) on both sides of each regime bound on (p-1)^2 * k: float32 below
# 2^24, float64 below 2^53, the split float64 product past it. 257 at k = 256
# sits exactly on 2^24; at k = 1024 a float32 product would round its odd sums.
REGIME_CASES = [
    (251, 256, "float32"),
    (257, 256, "float64"),
    (257, 1024, "float64"),
    (5931641, 256, "float64"),
    (5931649, 256, "split"),
    (2**31 - 1, 256, "split"),
    (3037000493, 256, "split"),
]


@pytest.mark.parametrize("p, k, regime", REGIME_CASES, ids=lambda v: str(v))
def test_mat_mul_is_exact_on_both_sides_of_each_regime_bound(p, k, regime):
    bound = (p - 1) ** 2 * k
    expect = "float32" if bound < 2**24 else "float64" if bound < 2**53 else "split"
    assert expect == regime
    a, b = extreme_operands(p, k, rng_for(p, k))
    got = mat_mul(a, b, p)
    assert got[0, 0] == (1 + (k - 1) * (p - 1) ** 2) % p
    assert np.array_equal(got, mat_mul_naive(a, b, p))
    # a stack of left operands, as the extension surveys pass them
    stack = np.stack([a, a[::-1]])
    assert np.array_equal(mat_mul(stack, b, p)[1], got[::-1])


def test_mat_mul_slices_an_inner_dimension_past_2_21():
    # the split regime's GEMMs of halves are exact over 2^21 inner terms;
    # with halves 2^16 - 1 (the residue 65535) an unsliced sum of k > 2^21 + 64
    # terms passes 2^53, and k is odd, so the exact sum is odd
    p = 3037000493
    k = 2**21 + 2**16 + 1  # 16.5 MB per int64 operand
    a = np.full((1, k), 2**16 - 1, dtype=np.int64)
    assert mat_mul(a, a.T, p).tolist() == [[k * (2**16 - 1) ** 2 % p]]
    rng = rng_for(p, 1)
    x = rng.integers(0, p, size=(1, k))
    y = rng.integers(0, p, size=(k, 1))
    want = sum(int(u) * int(v) for u, v in zip(x[0].tolist(), y[:, 0].tolist())) % p
    assert mat_mul(x, y, p).tolist() == [[want]]


# (p, k) on both sides of each regime bound of the fused update, which sits
# p above mat_mul's: (p-1)^2 * k + p below 2^24 in float32, below 2^53 in
# float64, and the split product past that. The update forms t - a @ b + x,
# t the least multiple of p at least (p-1)^2 * k; at 257 and k = 256, t is
# 2^24 + 1, and at 5931649 t is odd and past 2^53, so a float too narrow for
# the fused bound would round it.
FUSED_CASES = [
    (251, 256, "float32"),
    (257, 256, "float64"),
    (5931641, 256, "float64"),
    (5931649, 256, "split"),
    (2**31 - 1, 256, "split"),
    (3037000493, 256, "split"),
]


@pytest.mark.parametrize("p, k, regime", FUSED_CASES, ids=lambda v: str(v))
def test_mul_sub_is_exact_on_both_sides_of_each_fused_bound(p, k, regime, monkeypatch):
    bound = (p - 1) ** 2 * k + p
    assert regime == ("float32" if bound < 2**24 else "float64" if bound < 2**53 else "split")
    splits = []
    real = frobcat.linalg._split_mul
    monkeypatch.setattr(frobcat.linalg, "_split_mul", lambda *a: splits.append(1) or real(*a))
    rng = rng_for(p, k + 1)
    a, b = extreme_operands(p, k, rng, rows=100)  # blocked, and past _SMALL_CELLS entries
    a[1] = 0  # a zero row of the product: its entries are t + x, the largest formed
    a[2] = b[:, 1] = p - 1  # the product bound itself, so t - a @ b is at its least
    product = mat_mul_naive(a, b, p)
    for x in (
        np.zeros_like(product),
        np.full_like(product, p - 1),
        rng.integers(0, p, size=product.shape),
    ):
        got = _product(a, b, p, x)
        want = (x.astype(object) - product) % p
        assert np.array_equal(got, want.astype(np.int64))
        assert got[0, 0] == (int(x[0, 0]) - 1 - (k - 1) * (p - 1) ** 2) % p
    assert len(splits) == (3 if regime == "split" else 0)
    # one vector less a vector-by-matrix product, as Subspace.reduce takes it
    x = rng.integers(0, p, size=48)
    want = (x.astype(object) - mat_mul_naive(a[2:3], b, p)[0]) % p
    assert np.array_equal(_product(a[2], b, p, x), want.astype(np.int64))


def test_mul_sub_of_an_empty_product_is_x():
    x = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert _product(np.zeros((2, 0), np.int64), np.zeros((0, 3), np.int64), 7, x) is x


def remainder_cases(p, bound):
    """Entries of [-bound, bound] that test a quotient: the ends, residue
    p - 1 just below the bound, random entries of either sign, and the ends
    of int64, where the quotient's product wraps."""
    top = bound - (bound + 1) % p  # the largest entry at most bound of residue p - 1
    edges = [0, 1, p - 1, bound, bound - 1, top, max(top - p, 0)]
    edges += [-v for v in edges] + [-(2**63), -(2**63) + 1, 2**63 - 1]
    return edges + rng_for(p, bound % 1000).integers(-bound, bound + 1, size=200).tolist()


# (p, bound, barrett): the bounds where Barrett's multiply-shift, the
# remainder of large arrays before the floor-division form replaced it,
# stopped being exact. It needed bound * m < 2^63, with m the ceiling of
# 2^s / p and s = bits(bound) + bits(p); at these p that holds up to bound
# 2^31 - 1 and fails from 2^31. The floor-division form has no such switch:
# it is exact on both sides of each.
REMAINDER_SWITCH = [
    (2, 2**31 - 1, True),
    (2, 2**31, False),
    (7, (7 - 1) ** 2 * 900, True),
    (7, 2**31 - 1, True),
    (7, 2**31, False),
    (65521, 2**31 - 1, True),
    (65521, (65521 - 1) ** 2 * 900, False),
    (3037000493, 2**31 - 1, True),
    (3037000493, 2**62, False),
]


@pytest.mark.parametrize("p, bound, barrett", REMAINDER_SWITCH, ids=lambda v: str(v))
def test_remainder_is_exact_on_both_sides_of_each_switch(p, bound, barrett):
    shift = bound.bit_length() + p.bit_length()
    assert (bound * -(-(1 << shift) // p) < 2**63) == barrett
    values = remainder_cases(p, bound)
    # fewer entries than _DIVIDE_CELLS take `%`; more take c - (c // p) * p
    # in slices of about _REMAINDER_SLICE, the last one partial; a strided
    # view (an elimination's tail columns) is reduced in place
    for size in (len(values), _DIVIDE_CELLS - 1, _DIVIDE_CELLS, 2 * _REMAINDER_SLICE + 5):
        flat = np.resize(np.array(values, dtype=np.int64), size)
        c = flat.reshape(-1, 5) if size % 5 == 0 else flat
        want = [v % p for v in c.reshape(-1).tolist()]
        got = _remainder(c.copy(), p)
        assert got.shape == c.shape and got.reshape(-1).tolist() == want
    wide = np.resize(np.array(values, dtype=np.int64), (64, 3 * _DIVIDE_CELLS))
    want = [[v % p for v in row[7:]] for row in wide.tolist()]
    _remainder(wide[:, 7:], p)
    assert wide[:, 7:].tolist() == want


def test_products_reduce_on_both_sides_of_the_size_switch():
    # a product or update of fewer than _DIVIDE_CELLS entries is reduced by
    # `%`, a larger one by floor division; both match the oracle
    p, k = 7, 300
    rng = rng_for(p, 9)
    for rows in (_DIVIDE_CELLS // 96, _DIVIDE_CELLS // 96 + 1, 200):
        a, b = extreme_operands(p, k, rng, rows=rows)
        b = np.concatenate([b, b[:, ::-1]], axis=1)  # 96 columns
        want = mat_mul_naive(a, b, p)
        assert np.array_equal(mat_mul(a, b, p), want)
        x = rng.integers(0, p, size=want.shape)
        assert np.array_equal(_product(a, b, p, x), (x - want) % p)


def test_mat_pow():
    a = np.array([[1, 1], [0, 1]])
    assert mat_pow(a, 5, 7).tolist() == [[1, 5], [0, 1]]
    assert mat_pow(a, 0, 7).tolist() == [[1, 0], [0, 1]]


def test_mat_pow_squares_a_residue_array_in_place():
    # an owner's frozen matrix is read, not copied, and only it and the running power are
    # held: traced peaks 3.5 and 4.0 words per entry (4.5 and 5.0 with a residue copy);
    # every exponent up to 9 against the chain of products, from any integer entries
    rng = rng_for(0x9A7, 0)
    for p, bound in ((7, 3.6), (65521, 4.1)):
        a = frozen_matrix(rng.integers(0, p, size=(256, 256)), p)
        for k in (5, 6, 7):
            tracemalloc.start()
            try:
                mat_pow(a, k, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * a.size * 8, (p, k)
        small = rng.integers(-(2**62), 2**62, size=(6, 6))
        chain = np.eye(6, dtype=np.int64)
        for k in range(10):
            assert np.array_equal(mat_pow(small, k, p), chain), (p, k)
            assert np.array_equal(mat_pow(frozen_matrix(small, p), k, p), chain), (p, k)
            chain = mat_mul(chain, small % p, p)
        assert mat_pow(a, 1, p) is not a and np.array_equal(mat_pow(a, 1, p), a)


def test_mat_pow_refuses_a_negative_exponent():
    # -1 >> 1 is -1: squaring down a negative exponent would never stop
    for k in (-1, -2, -(2**40)):
        with pytest.raises(ValueError, match="k >= 0"):
            mat_pow(np.eye(2, dtype=np.int64), k, 7)


def test_kron_arrays():
    a = np.array([[1, 2]])
    b = np.array([[3], [4]])
    # exact: the consumer reduces it
    assert kron_arrays(a, b).tolist() == [[3, 6], [4, 8]]


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((0, 3), (2, 2)), ((2, 2), (3, 0)), ((1, 5), (4, 3)), ((5, 1), (2, 6)), ((3, 4), (5, 2))],
)
def test_kron_arrays_matches_np_kron(a_shape, b_shape):
    rng = rng_for(7, 3)
    a = rng.integers(0, 49, size=a_shape)
    b = rng.integers(0, 49, size=b_shape)
    got = kron_arrays(a, b)
    assert got.dtype == np.int64
    assert got.shape == np.kron(a, b).shape and np.array_equal(got, np.kron(a, b))


def test_frozen_matrix_validation():
    # the owners' one helper: a reduced, read-only, 2-D copy
    with pytest.raises(ValueError, match="2-dimensional"):
        frozen_matrix(np.zeros(3, dtype=int), 3)
    with pytest.raises(ValueError, match="2-dimensional"):
        frozen_matrix(np.zeros((1, 2, 2), dtype=int), 3)
    with pytest.raises(ValueError, match="too large"):
        frozen_matrix(np.eye(2, dtype=int), 4294967311)
    given = np.arange(-1, 5).reshape(2, 3)
    m = frozen_matrix(given, 5)
    assert m.dtype == np.int64 and m.tolist() == [[4, 0, 1], [2, 3, 4]]
    with pytest.raises(ValueError):
        m[0, 0] = 1
    given[0, 0] = 3  # a copy: the caller's array neither changes it nor is frozen
    assert m[0, 0] == 4


def test_subspace_operations():
    p = 5
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]]), p)
    b = Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]]), p)
    assert a.dim == b.dim == 2
    assert a.add(b).dim == 3
    meet = a.intersect(b)
    assert meet.dim == 1
    assert meet.contains_vectors(np.array([0, 3, 0]))
    assert not meet.contains_vectors(np.array([1, 0, 0]))
    assert Subspace.from_rows(np.array([[2, 0, 0], [1, 1, 0]]), p) == a


def test_subspace_reduce_idempotent():
    p = 7
    s = Subspace.from_rows(np.array([[1, 2, 3], [0, 1, 4]]), p)
    v = np.array([3, 1, 2])
    red = s.reduce(v)
    assert np.array_equal(s.reduce(red), red)
    assert s.contains_vectors((v - red) % p)


def test_quotient_coords():
    p = 3
    sup = Subspace.from_rows(np.eye(3, dtype=int), p)
    sub = Subspace.from_rows(np.array([[1, 0, 0]]), p)
    q = Quotient.of(sup, sub)
    assert q.dim == 2
    v = np.array([2, 1, 2])
    c = q.coords(v)
    rebuilt = (c @ q.lifts + 0) % p
    assert sub.contains_vectors((v - rebuilt) % p)


def test_quotient_rejects_outside_vectors():
    p = 5
    sup = Subspace.from_rows(np.array([[1, 0, 0]]), p)
    sub = Subspace.zero(p, 3)
    q = Quotient.of(sup, sub)
    with pytest.raises(ValueError):
        q.coords(np.array([0, 1, 0]))


def test_induced_on_subquotient():
    p = 5
    # D on F_5^3 shifting e3 -> e2 -> e1 -> 0; induced map on Ker D^2 / Ker D
    d = np.zeros((3, 3), int)
    d[0, 1] = d[1, 2] = 1
    sup = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]]), p)
    sub = Subspace.from_rows(np.array([[1, 0, 0]]), p)
    ind = induced_on_subquotient(d, sup, sub)
    assert ind.shape == (1, 1) and ind[0, 0] == 0
    # e1 -> e3 leaves the denominator, so no induced map exists
    bad = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        induced_on_subquotient(bad, sup, sub)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    with pytest.raises(BudgetError):
        check_budget(2 * 1024 * 1024, "test allocation")
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "4")
    check_budget(2 * 1024 * 1024, "test allocation")
    for bad in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("FROBCAT_BUDGET_MB", bad)
        with pytest.raises(ValueError, match="FROBCAT_BUDGET_MB must be a positive integer"):
            check_budget(1, "test allocation")
    # a setting changed after a malformed one, or removed, takes effect
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "4")
    check_budget(2 * 1024 * 1024, "test allocation")
    monkeypatch.delenv("FROBCAT_BUDGET_MB")
    check_budget(DEFAULT_BUDGET_MB * 1024 * 1024, "test allocation")
    with pytest.raises(BudgetError):
        check_budget(DEFAULT_BUDGET_MB * 1024 * 1024 + 1, "test allocation")


def test_budget_guards_dense_kron(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    big = np.ones((200, 200), dtype=int)
    with pytest.raises(BudgetError):
        kron_arrays(big, big)


# Differential tests at the sizes where rref splits into products, at the
# default settings: every result is checked against the Python-int oracles.
# mat_mul's products run in float32 at p = 2, 3 and 7, in float64 at 65521,
# and split into 16-bit halves at the two largest moduli; the last is the
# largest accepted prime, (p-1)^2 just below 2^63, so the int64 entrywise
# products of the pivot loops and rank_stack run at their edge.
DIFF_MODULI = (2, 3, 7, 65521, 2**31 - 1, 3037000493)


def thin_product(rng, p, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank`: a product of thin factors."""
    left = rng.integers(0, p, size=(rows, rank))
    right = rng.integers(0, p, size=(rank, cols))
    return mat_mul_naive(left, right, p)


@functools.lru_cache(maxsize=None)
def blocked_cases(p):
    """Square and wide, full and deficient rank, 64 to 300 rows or columns,
    each with its oracle RREF."""
    rng = rng_for(p, 0)
    cases = [
        rng.integers(0, p, size=(64, 64)),
        rng.integers(0, p, size=(70, 300)),
        thin_product(rng, p, 300, 300, 37),
        thin_product(rng, p, 256, 90, 60),
        thin_product(rng, p, 120, 200, 119),
    ]
    return [(a, *rref_naive(a, p)) for a in cases]


def is_rref(rows):
    pivots = [int(np.flatnonzero(row)[0]) for row in rows]
    return pivots == sorted(set(pivots)) and np.array_equal(rows[:, pivots], np.eye(len(pivots)))


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_rref_and_rank_match_oracle_at_blocked_sizes(p):
    for a, want_r, want_p in blocked_cases(p):
        got_r, got_p = rref(a, p)
        assert got_p == want_p
        assert np.array_equal(got_r, want_r)
        assert rank_mod(a, p) == len(want_p)


def reversed_echelon(rng, p, rows, cols, rank):
    """An echelon matrix of the given rank with its rows reversed, then
    combinations of them: the later a row, the earlier its leading column,
    so the merges of the recursion put new pivots before old ones."""
    ech = np.triu(rng.integers(1, p, size=(rank, cols)))
    extra = mat_mul_naive(rng.integers(0, p, size=(rows - rank, rank)), ech, p)
    return np.concatenate([ech[::-1], extra])


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_rref_sorts_its_merged_rows_into_pivot_order(p):
    # past 16 rows the recursion carries its rows in any order and rref
    # assembles them once, sorted: the pivots come out strictly increasing
    rng = rng_for(p, 6)
    for rows in (17, 31, 64, 150, 300):
        cases = [
            rng.integers(0, p, size=(rows, 40)),
            thin_product(rng, p, rows, 90, min(rows, 90) // 2 + 1),
            reversed_echelon(rng, p, rows, 80, min(rows, 80) - 3),
        ]
        for a in cases:
            piv = rref(a, p)[1]
            assert all(x < y for x, y in zip(piv, piv[1:]))
            check_rref_against_oracle(a, p)


def staircase(rng, p, rows, bands, width=33, gap=40):
    """Random combinations of `bands` rows, each nonzero on its own run of
    `width` columns, the runs `gap` zero columns apart: every panel of a
    leaf finds one pivot, and past the last band no column is live."""
    steps = np.zeros((bands, bands * (width + gap)), np.int64)
    for k in range(bands):
        start = k * (width + gap)
        steps[k, start : start + width] = rng.integers(1, p, size=width)
    mix = random_invertible(p, max(rows, bands), rng)[0][:rows, :bands]  # of full rank
    return mat_mul_naive(mix, steps, p)


def check_rref_against_oracle(a, p):
    want_r, want_p = rref_naive(a, p)
    got_r, got_p = rref(a, p)
    assert got_p == want_p and np.array_equal(got_r, want_r)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_rref_leaves_match_oracle(p, monkeypatch):
    # leaves of at most 64 columns are eliminated whole; wider ones a panel
    # of live columns at a time, each panel's transform applied by a product
    import frobcat.linalg

    rng = rng_for(p, 1)
    for rows in (16, 17):
        for cols in (40, 64, 65, 300):
            check_rref_against_oracle(rng.integers(0, p, size=(rows, cols)), p)
            check_rref_against_oracle(thin_product(rng, p, rows, cols, 5), p)
    check_rref_against_oracle(np.zeros((16, 300), np.int64), p)
    loops = []
    real = frobcat.linalg._pivot_loop
    monkeypatch.setattr(frobcat.linalg, "_pivot_loop", lambda *a: loops.append(1) or real(*a))
    for rows, bands in ((16, 10), (16, 16), (12, 16)):
        a = staircase(rng, p, rows, bands)
        loops.clear()
        assert len(rref(a, p)[1]) == min(rows, bands) == len(loops)
        check_rref_against_oracle(a, p)
    loops.clear()
    rref(rng.integers(0, p, size=(16, 64)), p)
    assert len(loops) == 1


def branch_cases(rng, p):
    """Blocks past one leaf for each branch of the recursion: a top half with no pivots, a
    bottom half in the top's span (an empty remainder) or partly in it (a filtered one), a
    top half of full column rank (no free columns left), n >> m and m >> n, and blocks of
    17 rows and more, random and of deficient rank."""
    no_top = rng.integers(0, p, size=(40, 60))
    no_top[:20] = 0
    quarter = rng.integers(0, p, size=(64, 50))
    quarter[:16] = 0
    top = rng.integers(0, p, size=(20, 60))
    spanned = np.concatenate([top, mat_mul_naive(rng.integers(0, p, size=(20, 20)), top, p)])
    partly = spanned.copy()
    partly[30:33] = rng.integers(0, p, size=(3, 60))
    return [
        no_top, quarter, spanned, partly,
        rng.integers(0, p, size=(40, 12)), thin_product(rng, p, 600, 24, 24),
        rng.integers(0, p, size=(17, 600)), thin_product(rng, p, 24, 900, 20),
        rng.integers(0, p, size=(300, 5)), rng.integers(0, p, size=(17, 17)),
        rng.integers(0, p, size=(33, 40)), thin_product(rng, p, 64, 64, 40),
        reversed_echelon(rng, p, 50, 70, 45),
    ]


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_each_branch_of_the_recursion_matches_the_oracle(p):
    # the RREF and the span of the halves, Subspace.add's merge, against the oracle; the
    # kernel read off the non-pivot block, certified; and the restriction R a[:, P] of the
    # leading square block to its row space against the oracle's R
    rng = rng_for(p, 27)
    for a in branch_cases(rng, p):
        want_r, want_p = rref_naive(a, p)
        got_r, got_p = rref(a, p)
        assert got_p == want_p and np.array_equal(got_r, want_r)
        got = Subspace.from_rows(a[: len(a) // 2], p).add(a[len(a) // 2 :])
        assert got.pivots == want_p and np.array_equal(got.basis, want_r)
        nullspace_certificate(a, p, rng)
        square = a[: min(a.shape), : min(a.shape)]
        red, piv = rref_naive(square, p)
        assert np.array_equal(restrict_to_image(square, p), mat_mul_naive(red, square[:, list(piv)], p))


# The leaf reduces its block every (2^63 - p) // (p-1)^2 updates: never
# within a leaf at the four smaller DIFF_MODULI, after 8 at 2^30 - 35, after
# 2 at 2^31 - 1 and after every one at 3037000493.
CADENCE_MODULI = DIFF_MODULI + (2**30 - 35,)


def bound_block(rng, p, rows, cols, order):
    """A block whose first pivots each lower the same entries by (p-1)^2:
    pivot rows with 1 on their own column among the first `steps` and p - 1
    right of them, in the row order `order`, over rows with p - 1 on those
    columns and random residues e right of them. Without a reduction each
    such e falls to e - steps * (p-1)^2, and the reduced form depends on
    every e."""
    steps = len(order)
    block = np.zeros((rows, cols), np.int64)
    block[:steps, steps:] = p - 1
    block[np.arange(steps), order] = 1
    block[steps:, :steps] = p - 1
    block[steps:, steps:] = rng.integers(0, p, size=(rows - steps, cols - steps))
    return block


def leaf_blocks(p, rng, cols):
    """16-row blocks for the pivot loop: random, of deficient rank, all p - 1,
    a dead leading column, a dead column after three pivots (the live-column
    skip with updates pending), and the int64 bound driven at every step."""
    full = rng.integers(0, p, size=(16, cols))
    dead_lead = rng.integers(0, p, size=(16, cols))
    dead_lead[:, 0] = 0
    dead_mid = rng.integers(0, p, size=(16, cols))
    dead_mid[:, 3] = (dead_mid[:, 0] + 2 * dead_mid[:, 1]) % p
    return [
        full,
        thin_product(rng, p, 16, cols, 5),
        thin_product(rng, p, 16, cols, 15),
        np.full((16, cols), p - 1, np.int64),
        dead_lead,
        dead_mid,
        bound_block(rng, p, 16, cols, np.arange(12)),
        bound_block(rng, p, 16, cols, rng.permutation(12)),
    ]


@pytest.mark.parametrize("p", CADENCE_MODULI)
def test_pivot_loop_matches_the_per_pivot_loop(p):
    # the delayed reductions leave what a reduction after every pivot left:
    # the same pivots, next row and whole working array, whole blocks and
    # panels (pivots from row 3 on the first 32 columns beside an identity)
    rng = rng_for(p, 11)
    for cols in (48, 64):
        for block in leaf_blocks(p, rng, cols):
            calls = [(block, 0, cols)]
            calls.append((np.concatenate([block[:, :32], np.eye(16, dtype=np.int64)], axis=1), 3, 32))
            for work, r, width in calls:
                want, got = work.copy(), work.copy()
                assert frobcat.linalg._pivot_loop(got, p, r, width) == pivot_loop_per_pivot(want, p, r, width)
                assert np.array_equal(got, want)


@pytest.mark.parametrize("p", CADENCE_MODULI)
def test_rref_certificate_at_workload_sizes(p):
    # [A | I] reduces to [R | T] in RREF with T A = R, at the sizes of the
    # green_tensor corner and the rank900 yardstick: a random 900^2 matrix,
    # and a 1024^2 one of rank at most 512, its right half the left half's
    # columns reversed, so that its leaves meet dead columns; then random
    # matrices of the tall and wide shapes of CERTIFIED_SHAPES, whose
    # [A | I] is 2000 x 2064 and 64 x 2064
    rng = rng_for(p, 12)
    rref_certificate(rng.integers(0, p, size=(900, 900)), p, rng)
    half = rng.integers(0, p, size=(1024, 512))
    rref_certificate(np.concatenate([half, half[:, ::-1]], axis=1), p, rng)
    for shape in [(2000, 64), (64, 2000)]:
        rref_certificate(rng.integers(0, p, size=shape), p, rng)


# The shapes of the workloads' eliminations and products: 900^2 (the
# green_tensor corner), 1024^2 (multiplicity_spaces at p = 5), and a tall and
# a wide 2000 x 64, past one recursion level and past the panel width.
CERTIFIED_SHAPES = [(900, 900), (1024, 1024), (2000, 64), (64, 2000)]


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_nullspace_certificate_at_workload_sizes(p):
    # the right half of each matrix is its left half's columns reversed, so
    # every kernel is at least half the width
    rng = rng_for(p, 13)
    for rows, cols in CERTIFIED_SHAPES:
        half = rng.integers(0, p, size=(rows, cols // 2))
        nullspace_certificate(np.concatenate([half, half[:, ::-1]], axis=1), p, rng)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_product_certificates_at_workload_sizes(p):
    # mat_mul and the fused update x - a @ b, each shape times a matrix of
    # its width and its smaller side: inner sizes 900, 1024, 64 and 2000
    rng = rng_for(p, 14)
    for rows, cols in CERTIFIED_SHAPES:
        a = rng.integers(0, p, size=(rows, cols))
        b = rng.integers(0, p, size=(cols, min(rows, cols)))
        product_certificate(a, b, rng.integers(0, p, size=(rows, b.shape[1])), p, rng)


def rref_peak_and_price(a, p, monkeypatch):
    """The traced peak of rref(a, p) and the bytes it asked the budget for."""
    asked = []
    real = frobcat.linalg.check_budget
    monkeypatch.setattr(frobcat.linalg, "check_budget", lambda n, what: asked.append(n) or real(n, what))
    tracemalloc.start()
    try:
        rref(a, p)
        return tracemalloc.get_traced_memory()[1], asked
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_traced_peak_of_rref_is_within_its_price(p, monkeypatch):
    # one request on entry covers the whole elimination: its products are
    # not priced again, so the entry price must hold the traced peak
    rng = rng_for(p, 13)
    for shape in ((64, 64), (900, 900), (900, 1800), (40, 4000)):
        peak, asked = rref_peak_and_price(rng.integers(0, p, size=shape), p, monkeypatch)
        assert len(asked) == 1 and peak <= asked[0], (shape, peak, asked)
        monkeypatch.undo()


# (rows, cols) around the Python-int cut-off of 196 entries, and the 16- and
# 17-row blocks at which rref stops and starts splitting
TINY_SHAPES = (
    (1, 1), (1, 9), (1, 196), (1, 197), (9, 1), (196, 1), (197, 1),
    (14, 14), (13, 15), (14, 15), (16, 12), (16, 13), (17, 11), (17, 12), (16, 16), (17, 17),
)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_tiny_rref_matches_oracle(p, monkeypatch):
    # blocks of at most 196 entries are eliminated in Python ints, larger
    # ones by the numpy pivot loop; both must give the oracle's rows
    import frobcat.linalg

    paths = []
    for name in ("_pivot_lists", "_pivot_loop"):
        real = getattr(frobcat.linalg, name)
        spy = lambda *a, real=real, name=name: paths.append(name) or real(*a)
        monkeypatch.setattr(frobcat.linalg, name, spy)
    rng = rng_for(p, 4)
    for rows, cols in TINY_SHAPES:
        rank = min(rows, cols)
        cases = [
            rng.integers(0, p, size=(rows, cols)),
            np.zeros((rows, cols), np.int64),
            thin_product(rng, p, rows, cols, max(1, rank // 2)),
            thin_product(rng, p, rows, cols, max(1, rank - 1)),
        ]
        sparse = rng.integers(0, p, size=(rows, cols))
        sparse[:, rng.random(cols) < 0.5] = 0
        cases.append(sparse)
        for a in cases:
            check_rref_against_oracle(a, p)
    assert {"_pivot_lists", "_pivot_loop"} <= set(paths)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_rank_mod_of_a_conjugated_jordan_matrix_at_900(p):
    # the size of the rank900 yardstick: D = q J q^-1 has the rank of J,
    # 900 minus its 103 parts; q = a (x) b, so its inverse is the Kronecker
    # product of two 30 x 30 inverses
    parts = (450, 200, 50) + (3,) * 50 + (1,) * 50
    rng = rng_for(p, 9)
    (a, a_inv), (b, b_inv) = random_invertible(p, 30, rng), random_invertible(p, 30, rng)
    q, q_inv = kron_arrays(a, b) % p, kron_arrays(a_inv, b_inv) % p
    d = mat_mul(mat_mul(q, jordan_matrix(parts), p), q_inv, p)
    assert d.shape == (900, 900) and np.count_nonzero(d) > 900**2 // 3
    assert rank_mod(d, p) == 900 - len(parts) == 797


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_rank_stack_matches_rank_mod(p):
    rng = rng_for(p, 5)
    stacks = [
        np.zeros((0, 3, 4), np.int64),
        np.zeros((5, 3, 0), np.int64),
        np.zeros((4, 0, 3), np.int64),
        np.zeros((3, 4, 4), np.int64),
        rng.integers(0, p, size=(1, 1, 1)),
        rng.integers(0, p, size=(7, 5, 8)),
        rng.integers(0, p, size=(6, 9, 4)),
        np.stack([thin_product(rng, p, 6, 7, k) for k in (1, 2, 3, 4, 5, 6) for _ in range(2)]),
    ]
    sparse = rng.integers(0, p, size=(8, 6, 6))
    sparse[:, :, rng.random(6) < 0.5] = 0
    sparse[rng.random(8) < 0.3] = 0
    stacks.append(sparse)
    for a in stacks:
        got = rank_stack(a, p)
        assert got.shape == (a.shape[0],)
        assert got.tolist() == [rank_mod(x, p) for x in a]


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_nullspace_matches_oracle_at_blocked_sizes(p):
    # the canonical kernel basis is the one RREF basis of nullity rows in the kernel
    for a, _, want_p in blocked_cases(p):
        ns = nullspace_mod(a, p)
        assert ns.shape == (a.shape[1] - len(want_p), a.shape[1])
        assert not np.any(mat_mul_naive(a, ns.T, p))
        assert is_rref(ns)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_subspace_kernel_matches_nullspace_at_blocked_sizes(p):
    # one elimination gives the RREF kernel basis and its pivots, with nothing to re-reduce
    edges = [np.zeros((0, 5), np.int64), np.zeros((4, 0), np.int64), np.zeros((0, 0), np.int64)]
    cases = [(a, want_p) for a, _, want_p in blocked_cases(p)] + [(a, ()) for a in edges]
    for a, want_p in cases:
        ker = Subspace.kernel(a, p)
        assert ker == Subspace.from_rows(nullspace_mod(a, p), p)
        assert ker.ambient == a.shape[1]
        assert ker.dim == a.shape[1] - len(want_p)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_subspace_add_matches_oracle_at_blocked_sizes(p):
    # the span of the stacked rows, from a Subspace or from rows alike
    rng = rng_for(p, 3)
    n = 100
    a_rows = thin_product(rng, p, 70, n, 45)
    a = Subspace.from_rows(a_rows, p)
    new_rows = thin_product(rng, p, 60, n, 40)
    inside = mat_mul_naive(rng.integers(0, p, size=(30, 70)), a_rows, p)
    full = Subspace.from_rows(np.eye(n, dtype=np.int64), p)
    cases = [
        (Subspace.zero(p, n), new_rows),
        (a, new_rows),
        (a, np.concatenate([inside, new_rows])),
        (a, inside),
        (a, np.eye(n, dtype=np.int64)),
        (full, new_rows),
    ]
    for sub, rows in cases:
        want_r, want_p = rref_naive(np.concatenate([sub.basis, rows]), p)
        for other in (rows, Subspace.from_rows(rows, p)):
            got = sub.add(other)
            assert got.pivots == want_p and np.array_equal(got.basis, want_r)
    assert a.add(inside) is a and full.add(new_rows) is full


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_subspace_add_sorts_its_merge_into_the_canonical_basis(p):
    # new rows whose pivots fall before, between and after the basis's:
    # the span is the canonical basis of the stacked rows
    rng = rng_for(p, 8)
    n = 120
    late = np.concatenate([np.zeros((40, 60), np.int64), thin_product(rng, p, 40, 60, 30)], axis=1)
    sub = Subspace.from_rows(late, p)
    for rows in (
        reversed_echelon(rng, p, 20, n, 15),
        thin_product(rng, p, 50, n, 35),
        np.concatenate([reversed_echelon(rng, p, 17, n, 17), late[:5]]),
        rng.integers(0, p, size=n),
    ):
        want = Subspace.from_rows(np.concatenate([sub.basis, np.atleast_2d(rows)]), p)
        got = sub.add(rows)
        assert got == want
        assert list(got.pivots) == sorted(got.pivots)
        assert got == Subspace.from_rows(rows, p).add(sub)


def test_subspace_preimage_is_the_brute_force_preimage():
    # every x in F_p^4 at p = 2 and 3: x lies in W.preimage(a) iff a (x mod W) lies in W,
    # and for invariant W (here Ker a^j and Im a^j) iff a x lies in W
    n = 4
    for p in (2, 3):
        rng = rng_for(p, 24)
        vecs = np.array(list(itertools.product(range(p), repeat=n)))
        for trial in range(40):
            a = rng.integers(0, p, size=(n, n))
            power = mat_pow(a, int(rng.integers(0, 3)), p)
            rows = rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n))
            for w, invariant in (
                (Subspace.from_rows(rows, p), False),
                (Subspace.kernel(power, p), True),
                (Subspace.from_rows(power.T, p), True),
            ):
                got = w.preimage(a)
                moved = vecs if invariant else w.reduce(vecs)
                inside = vecs[~w.reduce(mat_mul(moved, a.T, p)).any(axis=1)]
                assert len(inside) == p**got.dim and got.contains_vectors(inside), (p, trial)
                assert got.contains_vectors(w.basis)


def _nested_pair(rng, p, n):
    """U ⊇ W in F_p^n: U spanned by random rows, W by random combinations of them."""
    rows = rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n))
    combos = rng.integers(0, p, size=(int(rng.integers(0, len(rows) + 1)), len(rows)))
    return Subspace.from_rows(rows, p), Subspace.from_rows(mat_mul_naive(combos, rows, p), p)


def _span(w: Subspace) -> set:
    combos = np.array(list(itertools.product(range(w.p), repeat=w.dim)), np.int64).reshape(w.p**w.dim, w.dim)
    return {tuple(v) for v in combos @ w.basis % w.p}


def test_quotient_coords_membership_is_the_brute_force_membership():
    # every v in F_p^4 at p = 2 and 3: coords answers exactly on the v in U, with
    # v - c @ lifts in W, and refuses the others, alone and within a batch; the
    # pairs include W = U, W = 0 and U = F_p^4
    n = 4
    for p in (2, 3):
        rng = rng_for(p, 25)
        vecs = np.array(list(itertools.product(range(p), repeat=n)))
        whole, zero = Subspace.from_rows(np.eye(n, dtype=np.int64), p), Subspace.zero(p, n)
        pairs = [(whole, zero), (whole, whole), (zero, zero)] + [_nested_pair(rng, p, n) for _ in range(30)]
        for trial, (sup, sub) in enumerate(pairs):
            q, inside, below = Quotient.of(sup, sub), _span(sup), _span(sub)
            assert q.dim == sup.dim - sub.dim
            for v in vecs:
                if tuple(v) in inside:
                    c = q.coords(v)
                    assert c.shape == (q.dim,) and tuple((v - c @ q.lifts) % p) in below, (p, trial)
                else:
                    with pytest.raises(ValueError, match="not in the quotient numerator"):
                        q.coords(v)
            members = np.array(sorted(inside), np.int64)
            assert np.array_equal(q.coords(members), [q.coords(v) for v in members])
            if len(inside) < len(vecs):
                with pytest.raises(ValueError, match="not in the quotient numerator"):
                    q.coords(vecs)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_quotient_coords_membership_on_random_pairs(p):
    # random U ⊇ W in F_p^40: combinations of U's rows get coordinates c with
    # v - c @ lifts in W; random vectors and two of those are refused exactly when
    # a reduction by U leaves a remainder, and one such row refuses its whole batch
    n, rng = 40, rng_for(p, 26)
    for trial in range(10):
        sup, sub = _nested_pair(rng, p, n)
        q = Quotient.of(sup, sub)
        inside = mat_mul_naive(rng.integers(0, p, size=(12, sup.dim)), sup.basis, p)
        c = q.coords(inside)
        assert c.shape == (12, q.dim) and sub.contains_vectors((inside - mat_mul_naive(c, q.lifts, p)) % p)
        vecs = np.concatenate([rng.integers(0, p, size=(4, n)), inside[:2]])
        for v, outside in zip(vecs, sup.reduce(vecs).any(axis=1)):
            if outside:
                with pytest.raises(ValueError, match="not in the quotient numerator"):
                    q.coords(np.concatenate([inside, v[None]]))
            else:
                assert np.array_equal(q.coords(v), sub.reduce(v)[list(q.coord_columns)])


def test_subspace_preimage_edges():
    p = 7
    a = jordan_matrix((3, 2))
    assert Subspace.zero(p, 5).preimage(a) == Subspace.kernel(a, p)
    full = Subspace.from_rows(np.eye(5, dtype=np.int64), p)
    assert full.preimage(a) is full
    # entries outside [0, p) are reduced, as every kernel reduces its input
    ker = Subspace.kernel(a, p)
    assert ker.preimage(a - 2 * p) == ker.preimage(a) == Subspace.kernel(mat_pow(a, 2, p), p)
    for shape in ((5, 4), (4, 4), (6, 6)):
        with pytest.raises(ValueError, match="operator of shape"):
            ker.preimage(np.zeros(shape, np.int64))


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_subspace_preimage_of_invariant_subspaces_matches_the_general_preimage(p):
    # images and kernels of powers of a conjugated nilpotent D on F_p^120: the rows of an
    # image's basis have pivots anywhere, unlike a kernel flag's
    m = random_nil_module(p, 6, 120, seed=24)
    for j in range(1, 6):
        power = mat_pow(m.D, j, p)
        for w in (Subspace.from_rows(power.T, p), Subspace.kernel(power, p)):
            got = w.preimage(m.D)
            assert got == general_preimage(w, m.D), j
            assert list(got.pivots) == sorted(got.pivots)


def test_as_residues_copies_input_in_range_and_reduces_the_rest():
    # on both sides of _SMALL_CELLS, where input in range is copied, not divided
    p = 7
    rng = rng_for(p, 10)
    for size in (12, _SMALL_CELLS + 3):
        inside = rng.integers(0, p, size=size)
        kept = inside.copy()
        got = as_residues(inside, p)
        assert got.dtype == np.int64 and np.array_equal(got, kept)
        assert not np.shares_memory(got, inside)
        got[:] = 1
        assert np.array_equal(inside, kept)
        frozen = kept.copy()
        frozen.flags.writeable = False
        got = as_residues(frozen, p)
        got[0] = 5  # writable, and the caller's array is not
        assert frozen[0] == kept[0]
        for outside in (kept - 3 * p, kept + p, np.where(kept % 2, -kept, kept + 10**12)):
            assert np.array_equal(as_residues(outside, p), np.asarray(outside) % p)
        assert np.array_equal(as_residues(kept.astype(np.int8), p), kept)
        assert np.array_equal(as_residues(kept.tolist(), p), kept)
    assert as_residues([-1, 7, 15, 6], p).tolist() == [6, 0, 1, 6]


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_subspace_reduce_and_intersect_match_oracle(p):
    rng = rng_for(p, 1)
    n = 160
    a_rows = thin_product(rng, p, 90, n, 70)
    b_rows = np.concatenate([a_rows[:30], thin_product(rng, p, 60, n, 60)])
    a, b = Subspace.from_rows(a_rows, p), Subspace.from_rows(b_rows, p)
    assert np.array_equal(a.basis, rref_naive(a_rows, p)[0])
    vecs = rng.integers(0, p, size=(40, n))
    want = (vecs.astype(object) - mat_mul_naive(vecs[:, list(a.pivots)], a.basis, p)) % p
    assert np.array_equal(a.reduce(vecs), want.astype(np.int64))
    assert np.array_equal(a.reduce(vecs[0]), want[0].astype(np.int64))
    # the intersection is the RREF basis of the right dimension inside both
    meet = a.intersect(b)
    dim_sum = len(rref_naive(np.concatenate([a_rows, b_rows]), p)[1])
    assert meet.dim == a.dim + b.dim - dim_sum
    assert is_rref(meet.basis)
    for rows in (a_rows, b_rows):
        span = len(rref_naive(rows, p)[1])
        assert len(rref_naive(np.concatenate([rows, meet.basis]), p)[1]) == span


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_rank_is_invariant_under_invertible_row_and_column_operations(p):
    rng = rng_for(p, 2)

    def unit_triangular(n):
        # L @ U with unit diagonals: invertible by construction
        low = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        up = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        return mat_mul(low, up, p)

    for rows, cols, rank in ((96, 96, 50), (80, 140, 80), (140, 72, 33)):
        a = thin_product(rng, p, rows, cols, rank)
        paq = mat_mul(mat_mul(unit_triangular(rows), a, p), unit_triangular(cols), p)
        assert rank_mod(paq, p) == rank_mod(a, p) == len(rref_naive(a, p)[1])


def test_rank_is_exact_past_the_int64_product_bound():
    # (p-1)^2 > 2^63: int64 products of residues would wrap, so rank_mod
    # refuses such p instead of answering; at the largest accepted prime,
    # (p-1)^2 just below 2^63, it agrees with the Python-int oracle
    refused, edge = 4294967311, 3037000493
    rng = rng_for(5, 0)
    for _ in range(30):
        a = thin_product(rng, refused, 6, 6, 3)
        assert len(rref_naive(a, refused)[1]) == 3
        with pytest.raises(ValueError, match="too large"):
            rank_mod(a, refused)
        b = thin_product(rng, edge, 6, 6, 3)
        assert rank_mod(b, edge) == len(rref_naive(b, edge)[1]) == 3


def test_oversize_rref_is_refused_before_allocating(monkeypatch):
    monkeypatch.delenv("FROBCAT_BUDGET_MB", raising=False)
    # a zero-stride view: 10^10 entries that take no memory until copied
    huge = np.broadcast_to(np.int8(1), (10**5, 10**5))
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="row reduction"):
        rref(huge, 7)
    with pytest.raises(BudgetError, match="random invertible"):
        random_invertible(7, 10**5, rng_for(0, 0))
    assert time.perf_counter() - start < 1.0
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    with pytest.raises(BudgetError, match="row reduction"):
        rank_mod(np.ones((400, 400), np.int64), 7)


def refused_peak(call, what):
    """The traced peak, in bytes, of a call that must raise BudgetError naming `what`."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=what):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversize_stacked_rank_is_refused_before_the_residue_copy(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    # a zero-stride view: 6.25 MB once copied into residues
    stack = np.broadcast_to(np.int64(1), (200, 64, 64))
    assert refused_peak(lambda: rank_stack(stack, 7), "stacked rank") < 2**20


def test_oversize_subspace_add_is_refused_before_the_residue_copy(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    # a zero-stride view: 12.2 MB once copied into residues
    rows = np.broadcast_to(np.int64(1), (400, 4000))
    assert refused_peak(lambda: Subspace.zero(7, 4000).add(rows), "row reduction") < 2**20


def test_oversize_subspace_reduce_is_refused_before_the_residue_copy(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "8")
    # a zero-stride view: 12.8 MB once copied into residues; it reached that
    # before its price when the copy came first
    vecs = np.broadcast_to(np.int64(1), (400, 4000))
    sub = Subspace.from_rows(np.eye(3, 4000, dtype=np.int64), 7)
    for call in (lambda: sub.reduce(vecs), lambda: sub.contains_vectors(vecs)):
        assert refused_peak(call, "matrix product") <= 8 * 2**20


def test_oversize_preimage_is_refused_before_its_first_copy(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "8")
    # a zero-stride operator on F_7^2000: its gathered columns alone are 32 MB
    a = np.broadcast_to(np.int64(1), (2000, 2000))
    w = Subspace.from_rows(np.eye(3, 2000, dtype=np.int64), 7)
    assert refused_peak(lambda: w.preimage(a), "row reduction") <= 8 * 2**20


@pytest.mark.parametrize("p", (7, 65521, 2**31 - 1))
def test_preimage_stays_within_its_price(monkeypatch, p):
    # the traced peak of one stage against its one price, from a kernel flag's first
    # stage (the elimination dominates) to its last (the assembled basis does)
    prices, check = [], frobcat.linalg.check_budget

    def spy(nbytes, what):
        prices.append(nbytes)
        check(nbytes, what)

    for parts in ((2,) + (1,) * 398, (5,) * 60, (12,) * 20):
        d = jordan_matrix(parts)
        w = Subspace.kernel(d, p)
        while w.dim < len(d):
            prices.clear()
            monkeypatch.setattr(frobcat.linalg, "check_budget", spy)
            tracemalloc.start()
            try:
                nxt = w.preimage(d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert peak <= prices[0], (parts[0], w.dim)
            w = nxt


def test_oversize_random_invertible_is_refused_before_the_draw(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "8")
    # the draw fits, the reduction of [q | I] does not; it traced 32.8 MB
    # when the draw and [q | I] came before the price
    rng = rng_for(0, 0)
    assert refused_peak(lambda: random_invertible(7, 1000, rng), "row reduction") <= 8 * 2**20


def test_oversize_inverse_is_refused_before_building_the_augmented_matrix(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "8")
    # a zero-stride view: [a | I] is 16 MB; it traced 32.0 MB when the
    # residue copy and [a | I] came before the price
    a = np.broadcast_to(np.int64(1), (1000, 1000))
    assert refused_peak(lambda: inverse_mod(a, 7), "row reduction") <= 8 * 2**20


def test_oversize_matrix_power_is_refused_before_the_residue_copy(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "4")
    # a zero-stride view: 8 MB once copied into residues, which came before
    # the first product's price
    a = np.broadcast_to(np.int64(1), (1000, 1000))
    assert refused_peak(lambda: mat_pow(a, 2, 7), "matrix product") <= 4 * 2**20


def test_oversize_operands_of_another_dtype_are_refused_before_their_copies(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "8")
    # zero-stride views: int8 operands are copied to int64, 30.5 MiB each,
    # and an int64 view into its residues; mat_mul traced 61.0 MiB, and
    # kron_arrays and frozen_matrix 30.5 MiB, when those copies came first
    small = np.broadcast_to(np.int8(1), (2000, 2000))
    view = np.broadcast_to(np.int64(1), (2000, 2000))
    block = np.ones((2, 2), np.int64)
    assert refused_peak(lambda: mat_mul(small, small, 7), "matrix product") < 2**20
    assert refused_peak(lambda: kron_arrays(small, block), "kron product") < 2**20
    assert refused_peak(lambda: frozen_matrix(view, 7), "residue copy") < 2**20


def test_oversize_product_is_refused_before_allocating(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    # zero-stride views: 25 * 10^6 entries each, which take no memory until copied
    left = np.broadcast_to(np.int64(1), (5000, 5000))
    start = time.perf_counter()
    for p in (7, 65521, 2**31 - 1):  # float32, float64 and split operand copies
        with pytest.raises(BudgetError, match="matrix product"):
            mat_mul(left, left, p)
    assert time.perf_counter() - start < 1.0
    # within the budget: a 100 x 100 product's copies take about 0.2 MB
    small = np.ones((100, 100), np.int64)
    assert np.array_equal(mat_mul(small, small, 7), np.full((100, 100), 100 % 7))


def test_modulus_past_the_int64_product_bound_is_refused():
    # (p-1)^2 > 2^63: int64 products of residues would wrap, and mat_mul's
    # 16-bit halves would not cover a residue, so every kernel refuses p
    # before it eliminates or multiplies, as check_modulus does
    p = 4294967311
    a = np.eye(3, dtype=np.int64)
    refusals = [
        lambda: check_modulus(p),
        lambda: rref(a, p),
        lambda: rank_mod(a, p),
        lambda: rank_stack(a[None], p),
        lambda: nullspace_mod(a, p),
        lambda: Subspace.from_rows(a, p),
        lambda: Subspace.kernel(a, p),
        lambda: solve_right(a, a[0], p),
        lambda: inverse_mod(a, p),
        lambda: mat_mul(a, a, p),
    ]
    for call in refusals:
        with pytest.raises(ValueError, match="too large"):
            call()
    for accepted in (2**31 - 1, 3037000493):
        check_modulus(accepted)
        assert rank_mod(a, accepted) == 3
