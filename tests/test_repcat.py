"""Group representations over F_p: validation, tensor calculus, Green ring."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat.linalg import PrimeMatrix, mat_mul
from frobcat.repcat import (
    GroupRep,
    SymmetricTower,
    cyclic_group,
    cyclic_rep,
    decompose_cyclic,
    direct_sum,
    dual,
    evaluate_word,
    hom_basis,
    is_projective,
    permutation_rep,
    regular_cyclic_rep,
    random_cyclic_rep,
    rep_from_json,
    rep_to_json,
    restrict_to_nilmodule,
    symmetric_group,
    symmetric_perm_rep,
    symmetric_power,
    tensor,
    trivial_rep,
    validate,
)

from itertools import combinations_with_replacement
from math import comb

from oracles import quotient_symmetric_powers


def test_validate_messages():
    zero = GroupRep(
        group=cyclic_group(3), p=3, dim=1,
        matrices=(PrimeMatrix.dense(np.array([[0]]), 3),),
    )
    assert validate(zero) == ["generator 'a' is not invertible mod 3"]
    two = GroupRep(
        group=cyclic_group(3), p=3, dim=1,
        matrices=(PrimeMatrix.dense(np.array([[2]]), 3),),
    )
    problems = validate(two)
    assert problems[0] == "relation 'aaa' is violated"
    assert "sylow witness 'a'" in problems[1]
    assert validate(cyclic_rep(5, (3, 1))) == []


def test_evaluate_word():
    r = cyclic_rep(5, (2,))
    a = r.matrices[0].entries
    assert np.array_equal(evaluate_word(r, "aa"), mat_mul(a, a, 5))
    assert np.array_equal(evaluate_word(r, "aA"), np.eye(2, dtype=int))
    with pytest.raises(ValueError):
        evaluate_word(r, "ab")


def test_builders():
    assert regular_cyclic_rep(5).dim == 5
    assert symmetric_perm_rep(3).dim == 3
    assert trivial_rep(cyclic_group(7), 7).dim == 1
    with pytest.raises(ValueError):
        cyclic_rep(3, (4,))
    with pytest.raises(ValueError):
        # transposition squared is the identity, a 3-cycle squared is not
        permutation_rep(symmetric_group(3), 3, [[1, 2, 0], [1, 2, 0]])


def test_decompose_cyclic_tensor_square():
    two = cyclic_rep(3, (2,))
    assert decompose_cyclic(tensor(two, two)).parts == (3, 1)
    two2 = cyclic_rep(2, (2,))
    assert decompose_cyclic(tensor(two2, two2)).parts == (2, 2)
    with pytest.raises(ValueError):
        decompose_cyclic(symmetric_perm_rep(3))


def test_dual_and_direct_sum_preserve_type():
    r = cyclic_rep(5, (4, 2, 1))
    assert decompose_cyclic(dual(r)).parts == (4, 2, 1)
    s = direct_sum(r, cyclic_rep(5, (3,)))
    assert decompose_cyclic(s).parts == (4, 3, 2, 1)
    assert validate(s) == []


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32),
)
def test_green_product_commutes(p, da, db, seed):
    a = random_cyclic_rep(p, da, seed, 0)
    b = random_cyclic_rep(p, db, seed, 1)
    assert decompose_cyclic(tensor(a, b)) == decompose_cyclic(tensor(b, a))


def test_is_projective():
    assert is_projective(regular_cyclic_rep(5))
    assert not is_projective(cyclic_rep(5, (4,)))
    assert is_projective(cyclic_rep(3, (3, 3)))
    # the natural S_3 permutation rep is free over the 3-cycle
    assert is_projective(symmetric_perm_rep(3))
    assert not is_projective(trivial_rep(symmetric_group(3), 3))


def test_hom_basis_dimension_table():
    p = 5
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            ra, rb = cyclic_rep(p, (a,)), cyclic_rep(p, (b,))
            basis = hom_basis(ra, rb)
            assert len(basis) == min(a, b)
            ga, gb = ra.matrices[0].entries, rb.matrices[0].entries
            for f in basis:
                assert np.array_equal(
                    mat_mul(f.entries, ga, p), mat_mul(gb, f.entries, p)
                )


def test_hom_basis_zero_dim():
    p = 3
    zero = GroupRep(group=cyclic_group(p), p=p, dim=0, matrices=(
        PrimeMatrix.dense(np.zeros((0, 0), int), p),
    ))
    assert hom_basis(zero, cyclic_rep(p, (1,))) == []


def test_restrict_to_nilmodule():
    r = symmetric_perm_rep(3)
    m = restrict_to_nilmodule(r, "b", 3)
    assert m.dim == 3 and m.n == 3
    with pytest.raises(ValueError):
        restrict_to_nilmodule(r, "a", 3)  # transposition has order 2, not 3


def test_symmetric_tower_dims():
    r = random_cyclic_rep(5, 3, seed=2)
    tower = SymmetricTower(r)
    for m in range(0, 5):
        s = tower.power(m)
        assert s.dim == comb(m + 2, 2)
        assert validate(s) == []
    with pytest.raises(ValueError):
        tower.power(-1)


def test_symmetric_tower_matches_quotient_construction():
    # the monomial tower equals the relation-matrix quotient construction
    # after sorting the oracle's basis into lexicographic monomial order
    reps = [
        random_cyclic_rep(5, 4, seed=7),
        random_cyclic_rep(3, 3, seed=8),
        random_cyclic_rep(2, 2, seed=9),
        symmetric_perm_rep(3),
        direct_sum(symmetric_perm_rep(3), trivial_rep(symmetric_group(3), 3)),
    ]
    for r in reps:
        tower = SymmetricTower(r)
        for m, (honest, monos) in enumerate(quotient_symmetric_powers(r, 6)):
            order = {v: k for k, v in enumerate(combinations_with_replacement(range(r.dim), m))}
            perm = [order[v] for v in monos]
            assert sorted(perm) == list(range(len(order)))
            got = tower.power(m)
            for g, h in zip(got.matrices, honest.matrices):
                assert np.array_equal(g.entries[np.ix_(perm, perm)], h.entries)


def test_symmetric_tower_two_generators():
    s2 = symmetric_power(symmetric_perm_rep(3), 2)
    assert s2.dim == comb(4, 2)
    assert validate(s2) == []


def test_symmetric_power_zero_dim_rep():
    p = 3
    zero = GroupRep(group=cyclic_group(p), p=p, dim=0, matrices=(
        PrimeMatrix.dense(np.zeros((0, 0), int), p),
    ))
    assert symmetric_power(zero, 0).dim == 1
    assert symmetric_power(zero, 3).dim == 0


def test_json_round_trip():
    r = random_cyclic_rep(7, 4, seed=5)
    back = rep_from_json(rep_to_json(r))
    assert back.p == r.p and back.dim == r.dim
    assert np.array_equal(back.matrices[0].entries, r.matrices[0].entries)


def test_json_rejects_malformed_and_invalid():
    with pytest.raises(ValueError, match="malformed"):
        rep_from_json({"p": 3})
    obj = rep_to_json(cyclic_rep(3, (2,)))
    obj["matrices"][0][0][0] = 2  # breaks the relation a^3 = 1
    with pytest.raises(ValueError, match="relation"):
        rep_from_json(obj)


def test_tensor_rejects_mixed_groups():
    with pytest.raises(ValueError):
        tensor(cyclic_rep(3, (1,)), trivial_rep(symmetric_group(3), 3))
