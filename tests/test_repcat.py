"""Group representations over F_p: validation, tensor calculus, Green ring."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat.linalg import inverse_mod, mat_mul, random_invertible
from frobcat.nilmod import jordan_matrix
from frobcat.repcat import (
    GroupRep,
    SymmetricTower,
    cyclic_group,
    cyclic_rep,
    decompose_cyclic,
    direct_sum,
    evaluate_word,
    random_cyclic_rep,
    rep_from_json,
    rep_to_json,
    symmetric_group,
    tensor,
    trivial_rep,
    validate,
    witness_type,
)
from frobcat.seeding import rng_for

from itertools import combinations_with_replacement
from math import comb

from oracles import (
    hom_basis,
    iterated_image_ranks,
    permutation_rep,
    quotient_symmetric_powers,
    regular_cyclic_rep,
    restrict_to_nilmodule,
    symmetric_perm_rep,
)


def test_validate_messages():
    zero = GroupRep(group=cyclic_group(3), p=3, dim=1, matrices=(np.array([[0]]),))
    assert validate(zero) == ["generator 'a' is not invertible mod 3"]
    # Z/p states a^p = 1 once, as the witness's order, not again as a relation
    two = GroupRep(group=cyclic_group(3), p=3, dim=1, matrices=(np.array([[2]]),))
    assert validate(two) == ["sylow witness 'a' does not have order dividing 3"]
    assert validate(cyclic_rep(5, (3, 1))) == []
    # a relation failure is named: a 3-cycle for S_3's transposition a breaks
    # "aa" and "abab", while the witness b keeps order 3
    cycle = symmetric_perm_rep(3).matrices[1]
    bad = GroupRep(group=symmetric_group(3), p=3, dim=3, matrices=(cycle, cycle))
    assert validate(bad) == ["relation 'aa' is violated", "relation 'abab' is violated"]


def test_cyclic_rep_is_a_rep_by_construction(monkeypatch):
    # (1 + J)^p = 1 + J^p = 1 for blocks of size at most p: nothing to validate
    def refuse(rep):
        raise AssertionError("cyclic_rep validated its own construction")

    monkeypatch.setattr("frobcat.repcat.validate", refuse)
    rep = cyclic_rep(3, (3, 2, 1))
    assert decompose_cyclic(rep).parts == (3, 2, 1)


def test_group_rep_holds_reduced_read_only_generators():
    group = cyclic_group(3)
    # the rep checks its own modulus, once
    with pytest.raises(ValueError, match="not prime"):
        GroupRep(group=group, p=4, dim=1, matrices=(np.array([[1]]),))
    with pytest.raises(ValueError, match="too large"):
        GroupRep(group=group, p=4294967311, dim=1, matrices=(np.array([[1]]),))
    with pytest.raises(ValueError, match="2-dimensional"):
        GroupRep(group=group, p=3, dim=1, matrices=(np.array([1]),))
    with pytest.raises(ValueError, match="shape"):
        GroupRep(group=group, p=3, dim=2, matrices=(np.ones((2, 3), int),))
    with pytest.raises(ValueError, match="one matrix per generator"):
        GroupRep(group=group, p=3, dim=1, matrices=())
    given = np.array([[4, -2], [3, 7]])
    rep = GroupRep(group=group, p=3, dim=2, matrices=(given,))
    assert rep.matrices[0].tolist() == [[1, 1], [0, 1]]
    with pytest.raises(ValueError):
        rep.matrices[0][0, 0] = 2
    assert given.flags.writeable and given[0, 0] == 4


def test_evaluate_word():
    r = cyclic_rep(5, (2,))
    a = r.matrices[0]
    assert np.array_equal(evaluate_word(r, "aa"), mat_mul(a, a, 5))
    assert np.array_equal(evaluate_word(r, "aA"), np.eye(2, dtype=int))
    with pytest.raises(ValueError):
        evaluate_word(r, "ab")


def test_evaluate_word_squares_each_run(monkeypatch):
    # a lone letter costs no product, and no word costs more products
    # than multiplying letter by letter; a^p costs O(log p)
    import frobcat.linalg
    import frobcat.repcat

    calls = []

    def counted(a, b, p):
        calls.append(1)
        return mat_mul(a, b, p)

    monkeypatch.setattr(frobcat.linalg, "mat_mul", counted)
    monkeypatch.setattr(frobcat.repcat, "mat_mul", counted)
    for rep in (symmetric_perm_rep(3), symmetric_perm_rep(5), cyclic_rep(65521, (2,))):
        p = rep.p
        gens = rep.group.generators
        words = ["a", "aa", "aaa", "a" * p, "aA", "aAAa"]
        if gens == 2:
            words += ["b", "ab" * (p - 1), "b" * p, "aabbbA"]
        for word in words:
            want = np.eye(rep.dim, dtype=np.int64)
            for ch in word:
                idx = ord(ch.lower()) - 97
                g = rep.matrices[idx]
                want = want @ (g if ch.islower() else inverse_mod(g, p)) % p
            calls.clear()
            assert np.array_equal(evaluate_word(rep, word), want), word
            assert len(calls) <= len(word) - 1, word
        calls.clear()
        evaluate_word(rep, "a" * p)
        assert len(calls) <= 2 * p.bit_length()


def unvalidated(group, p, *gens):
    mats = tuple(np.array(g) for g in gens)
    return GroupRep(group=group, p=p, dim=mats[0].shape[0], matrices=mats)


@pytest.mark.parametrize(
    "rep",
    [
        unvalidated(cyclic_group(3), 3, [[2]]),
        unvalidated(cyclic_group(5), 5, [[4, 1, 0], [0, 4, 0], [0, 0, 1]]),  # -1 + N, order 2p
        unvalidated(cyclic_group(5), 5, [[1, 1, 0], [0, 1, 0], [0, 0, 2]]),  # 1 + N beside 2, order 4p
        unvalidated(cyclic_group(65521), 65521, [[2]]),
    ],
)
def test_order_check_on_a_generator_of_wrong_order(rep, monkeypatch):
    # (1 - u)^p = 1 - u^p in characteristic p: the check is read off the
    # rank sequence, which stops once the ranks do, and forms no power of u
    import frobcat.linalg
    import frobcat.nilmod
    import frobcat.repcat

    good, perm = cyclic_rep(5, (3, 1)), symmetric_perm_rep(3)  # validated before the patch

    def no_power(*args):
        raise AssertionError("mat_pow called")

    monkeypatch.setattr(frobcat.linalg, "mat_pow", no_power)
    monkeypatch.setattr(frobcat.repcat, "mat_pow", no_power)
    elims = []
    for name in ("rref", "restrict_to_image"):  # a restriction step takes one or the other
        real = getattr(frobcat.nilmod, name)
        monkeypatch.setattr(frobcat.nilmod, name, lambda *a, real=real: elims.append(1) or real(*a))
    with pytest.raises(ValueError, match="^generator does not have order dividing p; group is not Z/p$"):
        decompose_cyclic(rep)
    assert len(elims) <= rep.dim + 1
    with pytest.raises(ValueError, match=f"^sylow witness 'a' does not have order dividing {rep.p}$"):
        witness_type(rep)
    two = unvalidated(symmetric_group(3), 3, [[2]], [[2]])
    with pytest.raises(ValueError, match="^sylow witness 'b' does not have order dividing 3$"):
        witness_type(two)
    # a rep of the right order still decomposes, with no power formed
    assert decompose_cyclic(good).parts == (3, 1)
    assert witness_type(perm).parts == (3,)


@pytest.mark.parametrize("p, parts, m", [(5, (4, 3, 3, 2, 2, 1), 25), (7, (6,) * 30 + (5, 4, 3, 2, 1), 105)])
def test_order_check_after_restriction_steps(p, parts, m, monkeypatch):
    # D = q (J ⊕ 2 I_m) q^-1 at 40 and 300 dimensions: the ranks of D^k fall to
    # m and stay there, so the sequence stops on a repeated rank only after
    # max(parts) restriction steps, at r_p = m != 0: the order check refuses
    import frobcat.nilmod

    dim = sum(parts) + m
    block = np.zeros((dim, dim), np.int64)
    block[: dim - m, : dim - m] = jordan_matrix(parts)
    block[dim - m :, dim - m :] = 2 * np.eye(m, dtype=np.int64)
    q, q_inv = random_invertible(p, dim, rng_for(dim, 0))
    d = mat_mul(mat_mul(q, block, p), q_inv, p)
    rep = unvalidated(cyclic_group(p), p, (np.eye(dim, dtype=np.int64) - d) % p)
    steps, real = [], frobcat.nilmod.restrict_to_image

    def spied(a, p):
        steps.append(real(a, p))
        return steps[-1]

    monkeypatch.setattr(frobcat.nilmod, "restrict_to_image", spied)
    with pytest.raises(ValueError, match="^generator does not have order dividing p; group is not Z/p$"):
        decompose_cyclic(rep)
    # every restriction up to the repeated rank shrinks the operator; that last step's
    # product is empty, r_k x 0 x r_k
    assert len(steps) == max(parts) + 1 and max(parts) >= 2
    sizes = [len(a) for a in steps]
    assert sizes == sorted(set(sizes[:-1]), reverse=True) + [m] and sizes[-2] == m
    with pytest.raises(ValueError, match=f"^sylow witness 'a' does not have order dividing {p}$"):
        witness_type(rep)
    ranks = frobcat.nilmod._rank_sequence_arr(d, p, p)
    assert ranks == iterated_image_ranks(d, p, p)
    assert ranks[max(parts)] == ranks[-1] == m


@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_jordan_type_reads_ranks_up_to_the_dimension(p):
    # the ranks of a dim x dim D settle within dim steps, so the sequence
    # stops at min(p, dim), not at p; a single block J_d with d = dim is the
    # case where rank D^(dim - 1) is still nonzero
    for parts in [(d,) for d in range(1, 7)] + [(4, 1), (3, 1, 1), (2, 2)]:
        rep = cyclic_rep(p, parts)
        assert decompose_cyclic(rep).parts == parts
        assert witness_type(rep).parts == parts
    # a generator of the wrong order still raises: D = 1 - g is not nilpotent
    eye = np.eye(3, dtype=np.int64)
    for gen in (2 * eye, eye + jordan_matrix((3,)) + np.diag([1, 0, 0])):
        rep = unvalidated(cyclic_group(p), p, gen)
        with pytest.raises(ValueError, match="^generator does not have order dividing p"):
            decompose_cyclic(rep)
        with pytest.raises(ValueError, match=f"^sylow witness 'a' does not have order dividing {p}$"):
            witness_type(rep)


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
    dual = GroupRep(group=r.group, p=5, dim=r.dim, matrices=(inverse_mod(r.matrices[0], 5).T,))
    assert decompose_cyclic(dual).parts == (4, 2, 1)
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
    def is_projective(rep):
        # free over the order-p witness: every Jordan block of 1 - rho(w) has size p
        return all(k == rep.p for k in witness_type(rep).parts)

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
            ga, gb = ra.matrices[0], rb.matrices[0]
            for f in basis:
                assert np.array_equal(mat_mul(f, ga, p), mat_mul(gb, f, p))


def test_hom_basis_zero_dim():
    p = 3
    zero = GroupRep(group=cyclic_group(p), p=p, dim=0, matrices=(np.zeros((0, 0), int),))
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
                assert np.array_equal(g[np.ix_(perm, perm)], h)


def test_symmetric_tower_two_generators():
    s2 = SymmetricTower(symmetric_perm_rep(3)).power(2)
    assert s2.dim == comb(4, 2)
    assert validate(s2) == []


def test_symmetric_power_zero_dim_rep():
    p = 3
    zero = GroupRep(group=cyclic_group(p), p=p, dim=0, matrices=(np.zeros((0, 0), int),))
    assert SymmetricTower(zero).power(0).dim == 1
    assert SymmetricTower(zero).power(3).dim == 0


def test_json_round_trip():
    r = random_cyclic_rep(7, 4, seed=5)
    back = rep_from_json(rep_to_json(r))
    assert back.p == r.p and back.dim == r.dim
    assert np.array_equal(back.matrices[0], r.matrices[0])


def test_json_rejects_malformed_and_invalid():
    with pytest.raises(ValueError, match="malformed"):
        rep_from_json({"p": 3})
    obj = rep_to_json(cyclic_rep(3, (2,)))
    obj["matrices"][0][0][0] = 2  # the generator no longer has order 3
    with pytest.raises(ValueError, match="^sylow witness 'a' does not have order dividing 3$"):
        rep_from_json(obj)
    obj["group"]["relations"] = ["aaa"]  # a relation the file states is checked and named
    with pytest.raises(ValueError, match="^relation 'aaa' is violated; sylow witness 'a'"):
        rep_from_json(obj)


def test_rep_file_with_the_old_cyclic_relation_still_loads():
    # files written while Z/p carried the relation "a" * p: the word is
    # checked as any relation is, and the rep is the one written
    for p, parts in ((3, (2,)), (7, (7, 3, 1))):
        rep = cyclic_rep(p, parts)
        obj = rep_to_json(rep)
        assert obj["group"]["relations"] == []
        obj["group"]["relations"] = ["a" * p]
        back = rep_from_json(obj)
        assert back.group.relations == ("a" * p,) and validate(back) == []
        assert np.array_equal(back.matrices[0], rep.matrices[0])
        assert decompose_cyclic(back).parts == parts
    # its group is not cyclic_group(p), so it does not mix with one built here
    with pytest.raises(ValueError, match="different groups"):
        tensor(back, rep)
    assert rep_to_json(symmetric_perm_rep(5))["group"]["relations"] == ["aa", "ab" * 4]


def test_tensor_rejects_mixed_groups():
    with pytest.raises(ValueError):
        tensor(cyclic_rep(3, (1,)), trivial_rep(symmetric_group(3), 3))
