"""Exact linear algebra over F_p: elimination, subspaces, quotients."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat.linalg import (
    BudgetError,
    PrimeMatrix,
    Quotient,
    Subspace,
    check_budget,
    induced_on_subquotient,
    inverse_mod,
    is_prime,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    random_invertible,
    rank_mod,
    rref,
    solve_right,
)
from frobcat.seeding import rng_for
from oracles import rref_naive

PRIMES = st.sampled_from([2, 3, 5, 7, 13])


def random_matrix(draw, p, max_dim=9):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rng = rng_for(draw(st.integers(0, 2**32)), 0)
    return rng.integers(0, p, size=(m, n)).astype(np.int64)


def test_is_prime():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


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
    a = random_matrix(data.draw, p)
    got_r, got_p = rref(a, p, window=3)
    want_r, want_p = rref_naive(a, p)
    assert got_p == want_p
    assert np.array_equal(got_r, want_r)
    # the echelon-only variant finds the same pivots and row space
    ech, piv = rref(a, p, window=3, reduced=False)
    assert piv == want_p
    assert np.array_equal(rref(ech, p)[0], want_r)


@settings(max_examples=100, deadline=None)
@given(st.data(), PRIMES)
def test_rank_transpose_and_nullity(data, p):
    a = random_matrix(data.draw, p)
    r = rank_mod(a, p)
    assert r == rank_mod(a.T, p) == PrimeMatrix.dense(a, p).rank()
    ns = nullspace_mod(a, p)
    assert ns.shape[0] == a.shape[1] - r
    if ns.size:
        assert not np.any(mat_mul(a, ns.T, p))
        assert not np.any(PrimeMatrix.dense(a, p).apply(ns.T))


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
    for dim in (1, 2, 5):
        q = random_invertible(p, dim, rng)
        assert np.array_equal(mat_mul(q, inverse_mod(q, p), p), np.eye(dim, dtype=int))
    with pytest.raises(ValueError):
        inverse_mod(np.zeros((2, 2), int), p)


def test_mat_mul_object_fallback_for_large_modulus():
    # (p-1)^2 already exceeds the float-exact bound, so the slow path runs
    p = 2**31 - 1
    a = np.array([[p - 1, p - 2]])
    b = np.array([[p - 1], [p - 3]])
    got = mat_mul(a, b, p)
    want = ((p - 1) * (p - 1) + (p - 2) * (p - 3)) % p
    assert got.tolist() == [[want]]


def test_mat_pow():
    a = np.array([[1, 1], [0, 1]])
    assert mat_pow(a, 5, 7).tolist() == [[1, 5], [0, 1]]
    assert mat_pow(a, 0, 7).tolist() == [[1, 0], [0, 1]]


def test_kron_arrays():
    a = np.array([[1, 2]])
    b = np.array([[3], [4]])
    assert kron_arrays(a, b, 5).tolist() == [[3, 1], [4, 3]]


def test_prime_matrix_validation():
    with pytest.raises(ValueError):
        PrimeMatrix.dense(np.eye(2, dtype=int), 4)
    with pytest.raises(ValueError, match="2-dimensional"):
        PrimeMatrix.dense(np.zeros(3, dtype=int), 3)
    with pytest.raises(ValueError, match="shape"):
        PrimeMatrix(p=3, rows=2, cols=2, _dense=np.zeros((1, 2), np.int64))


def test_subspace_operations():
    p = 5
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]]), p, 3)
    b = Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]]), p, 3)
    assert a.dim == b.dim == 2
    assert a.add(b).dim == 3
    meet = a.intersect(b)
    assert meet.dim == 1
    assert meet.contains_vectors(np.array([0, 3, 0]))
    assert not meet.contains_vectors(np.array([1, 0, 0]))
    assert Subspace.from_rows(np.array([[2, 0, 0], [1, 1, 0]]), p, 3) == a


def test_subspace_reduce_idempotent():
    p = 7
    s = Subspace.from_rows(np.array([[1, 2, 3], [0, 1, 4]]), p, 3)
    v = np.array([3, 1, 2])
    red = s.reduce(v)
    assert np.array_equal(s.reduce(red), red)
    assert s.contains_vectors((v - red) % p)


def test_quotient_coords():
    p = 3
    sup = Subspace.from_rows(np.eye(3, dtype=int), p, 3)
    sub = Subspace.from_rows(np.array([[1, 0, 0]]), p, 3)
    q = Quotient.of(sup, sub)
    assert q.dim == 2
    v = np.array([2, 1, 2])
    c = q.coords(v)
    rebuilt = (c @ q.lifts + 0) % p
    assert sub.contains_vectors((v - rebuilt) % p)
    with pytest.raises(ValueError):
        Quotient.of(sub, sup)


def test_quotient_rejects_outside_vectors():
    p = 5
    sup = Subspace.from_rows(np.array([[1, 0, 0]]), p, 3)
    sub = Subspace.zero(p, 3)
    q = Quotient.of(sup, sub)
    with pytest.raises(ValueError):
        q.coords(np.array([0, 1, 0]))


def test_induced_on_subquotient():
    p = 5
    # D on F_5^3 shifting e3 -> e2 -> e1 -> 0; induced map on Ker D^2 / Ker D
    d = np.zeros((3, 3), int)
    d[0, 1] = d[1, 2] = 1
    sup = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]]), p, 3)
    sub = Subspace.from_rows(np.array([[1, 0, 0]]), p, 3)
    ind = induced_on_subquotient(d, sup, sub)
    assert ind.shape == (1, 1) and ind.entries[0, 0] == 0
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


def test_budget_guards_dense_kron(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    big = np.ones((200, 200), dtype=int)
    with pytest.raises(BudgetError):
        kron_arrays(big, big, 3)
