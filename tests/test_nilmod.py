"""Nilpotent-operator modules: Jordan data, functors, extensions."""
import ast
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frobcat
from frobcat.linalg import Quotient, Subspace, kron_arrays, mat_mul, random_invertible, rref
from frobcat.nilmod import (
    JordanType,
    NilModule,
    ShortExactSeq,
    _block_extension,
    _rank_sequence_arr,
    _type_from_ranks,
    extension_survey,
    functor_B,
    functor_E,
    jordan_matrix,
    jordan_module,
    jordan_type,
    multiplicity_space,
    multiplicity_vector,
    nil_module,
    random_nil_module,
    random_partition,
    rank_sequence,
)
from frobcat.seeding import rng_for
from frobcat.verlinde import green_product
from oracles import (
    _kernel_of_power,
    extension_from_phi,
    functor_L_and_Eis,
    general_preimage,
    intersected_hom_dims,
    intersected_multiplicity_space,
    intersected_subquotient,
    iterated_image_ranks,
    natfunc_hom_dims,
    random_extension,
    split_test,
)
from test_linalg import DIFF_MODULI

partitions = st.lists(st.integers(1, 5), min_size=0, max_size=5).map(
    lambda ks: tuple(sorted(ks, reverse=True))
)


def test_nil_module_validation():
    with pytest.raises(ValueError):
        nil_module(np.eye(2, dtype=int), 5, 3)  # identity is not nilpotent
    with pytest.raises(ValueError):
        jordan_module(5, 3, (4,))  # block larger than the order
    with pytest.raises(ValueError):
        nil_module(np.zeros((2, 2), int), 5, 0)
    with pytest.raises(ValueError, match="square"):
        nil_module(np.zeros((2, 3), int), 5, 3)
    with pytest.raises(ValueError, match="2-dimensional"):
        NilModule(5, 3, np.zeros(3, int))
    # the module checks its own modulus, once
    with pytest.raises(ValueError, match="not prime"):
        NilModule(4, 3, np.zeros((2, 2), int))
    with pytest.raises(ValueError, match="too large"):
        NilModule(4294967311, 3, np.zeros((2, 2), int))
    # and holds D reduced mod p, read-only
    given = np.array([[0, 0], [4, 3]])
    m = NilModule(3, 2, given)
    assert (m.p, m.n, m.dim) == (3, 2, 2) and m.D.tolist() == [[0, 0], [1, 0]]
    with pytest.raises(ValueError):
        m.D[0, 0] = 1
    assert given.flags.writeable


def test_jordan_type_basics():
    t = JordanType((3, 2, 2))
    assert t.dim == 7
    assert t.multiplicity(2) == 2 and t.multiplicity(1) == 0
    assert t.merge(JordanType((4, 1))).parts == (4, 3, 2, 2, 1)
    with pytest.raises(ValueError):
        JordanType((2, 3))
    with pytest.raises(ValueError):
        JordanType((2, 0))


def test_rank_sequence_single_block():
    m = jordan_module(7, 5, (5,))
    assert rank_sequence(m) == (5, 4, 3, 2, 1, 0)


def test_type_from_ranks_rejects_non_convex():
    # the last two rise again after a zero rank: the tail count refuses them
    for ranks in [(3, 1, 1, 0), (3, 0, 1, 0), (4, 2, 0, 0, 1)]:
        with pytest.raises(ValueError, match="^rank sequence is not convex; operator not nilpotent\\?$"):
            _type_from_ranks(ranks, len(ranks) - 1)


def _jordan_conjugate(p: int, parts: tuple[int, ...], rng) -> np.ndarray:
    """q J q^-1 for the Jordan matrix J of parts and a random q."""
    q, q_inv = random_invertible(p, sum(parts), rng)
    return mat_mul(mat_mul(q, jordan_matrix(parts), p), q_inv, p)


def _unipotent_conjugate(p: int, parts: tuple[int, ...], rng) -> np.ndarray:
    """1 + q J q^-1: its type is parts by construction."""
    return (np.eye(sum(parts), dtype=np.int64) + _jordan_conjugate(p, parts, rng)) % p


def _one_minus(g: np.ndarray, p: int) -> np.ndarray:
    return (np.eye(len(g), dtype=np.int64) - g) % p


def _ranks_of_type(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(sum(max(k - j, 0) for k in parts) for j in range(n + 1))


def _tensor_case(p: int = 7, dim: int = 30, seed: int = 17):
    """1 - g for g = g_x (x) g_y, two dim-dimensional unipotent conjugates:
    the 900 x 900 operator of greenhom's largest trials, and its type by
    Renaud's closed form."""
    rng = rng_for(seed, 0)
    px, py = random_partition(dim, p, rng), random_partition(dim, p, rng)
    g = kron_arrays(_unipotent_conjugate(p, px, rng), _unipotent_conjugate(p, py, rng)) % p
    want = JordanType(())
    for a in px:
        for b in py:
            want = want.merge(green_product(p, a, b))
    return _one_minus(g, p), want


def test_rank_sequence_on_the_tensor_of_two_30_dim_reps():
    d, want = _tensor_case()
    ranks = _rank_sequence_arr(d, 7, 7)
    assert ranks == iterated_image_ranks(d, 7, 7) == _ranks_of_type(want.parts, 7)
    assert _type_from_ranks(ranks, 7) == want


@pytest.mark.parametrize("p", [65521, 2**31 - 1, 3037000493])
def test_rank_sequence_at_large_p_matches_the_iterated_images(p):
    parts = random_partition(300, 12, rng_for(p, 0))
    d = _one_minus(_unipotent_conjugate(p, parts, rng_for(p, 1)), p)
    top = parts[0]
    # n below the longest block (no stop), at it (rank 0 at n) and past it (a zero tail)
    for n in (top - 1, top, top + 3):
        ranks = _rank_sequence_arr(d, n, p)
        assert ranks == iterated_image_ranks(d, n, p) == _ranks_of_type(parts, n)
    assert _type_from_ranks(ranks, top + 3).parts == parts


def test_rank_sequence_of_a_nil_module_below_p():
    parts = random_partition(40, 4, rng_for(29, 0))
    m = nil_module(_jordan_conjugate(7, parts, rng_for(29, 1)), 7, 4)
    assert rank_sequence(m) == iterated_image_ranks(m.D, m.n, m.p) == _ranks_of_type(parts, 4)
    assert jordan_type(m).parts == parts


def test_rank_sequence_works_on_the_restriction_to_the_image(monkeypatch):
    # past the first step every elimination is r_k x r_k and every product
    # operand at most r_k wide: no step goes back to an n-wide array
    import frobcat.nilmod

    d, _ = _tensor_case()
    elims, products = [], []
    real_rref, real_mul = frobcat.nilmod.rref, frobcat.nilmod.mat_mul
    monkeypatch.setattr(
        frobcat.nilmod, "rref", lambda a, *r, **k: elims.append(np.shape(a)) or real_rref(a, *r, **k)
    )
    monkeypatch.setattr(
        frobcat.nilmod, "mat_mul",
        lambda a, b, p: products.append((np.shape(a), np.shape(b))) or real_mul(a, b, p),
    )
    ranks = _rank_sequence_arr(d, 7, 7)
    n = len(d)
    steps = ranks.index(0)
    assert elims == [(r, r) for r in ranks[:steps]]
    assert products == [((ranks[k + 1], ranks[k]), (ranks[k], ranks[k + 1])) for k in range(steps - 1)]
    assert ranks[1] < n and all(max(a + b) < n for a, b in products[1:])


@settings(max_examples=80, deadline=None)
@given(partitions, st.sampled_from([2, 3, 5]), st.integers(0, 2**32))
def test_jordan_type_is_conjugation_invariant(parts, p, seed):
    n = max(parts, default=1)
    m = jordan_module(p, n, parts)
    assert jordan_type(m).parts == parts
    q, q_inv = random_invertible(p, m.dim, rng_for(seed, 0))
    conj = mat_mul(mat_mul(q, m.D, p), q_inv, p)
    assert jordan_type(nil_module(conj, p, n)).parts == parts


def test_functor_b_counts_blocks():
    m = jordan_module(5, 4, (4, 2, 2, 1))
    assert [functor_B(m, i).dim for i in range(1, 5)] == [1, 2, 0, 1]


def test_functor_e_single_block_table():
    # dim E_i(J_j) = min(i, j, n-i, n-j), checked for every (i, j) pair
    for n in range(1, 7):
        for j in range(1, n + 1):
            m = jordan_module(3, n, (j,))
            for i in range(0, n + 1):
                assert functor_E(m, i).dim == min(i, j, n - i, n - j)


@settings(max_examples=40, deadline=None)
@given(partitions, st.sampled_from([2, 3, 5]))
def test_functor_e_from_block_multiplicities(parts, p):
    n = max(parts, default=1) + 1
    m = jordan_module(p, n, parts)
    bdims = [functor_B(m, j).dim for j in range(1, n + 1)]
    for i in range(0, n + 1):
        want = sum(v * b for v, b in zip(multiplicity_vector(n, i), bdims))
        assert functor_E(m, i).dim == want


@settings(max_examples=40, deadline=None)
@given(partitions, partitions, st.sampled_from([2, 3]))
def test_functor_e_additive_on_direct_sums(xparts, zparts, p):
    n = max(max(xparts, default=1), max(zparts, default=1))
    x = jordan_module(p, n, xparts)
    z = jordan_module(p, n, zparts)
    y = nil_module(_block_extension(x.D, z.D), p, n)
    for i in range(0, n + 1):
        assert functor_E(y, i).dim == functor_E(x, i).dim + functor_E(z, i).dim


def test_functor_l_single_block_table():
    # the two-sided kernel slice is 1-dimensional exactly when i < size <= j
    n = 5
    for size in range(1, n + 1):
        m = jordan_module(3, n, (size,))
        for i in range(0, n + 1):
            for j in range(i, n + 1):
                want = 1 if i < size <= j else 0
                assert functor_L_and_Eis(m, i, j=j).dim == want


def test_partial_e_recursion_and_values():
    m = jordan_module(5, 6, (4, 3, 1))
    # s = i reproduces E_i, s = 0 is Im D^{n} -> full kernel-free slice
    for i in range(0, 7):
        assert functor_L_and_Eis(m, i, s=i).dim == functor_E(m, i).dim
        # below i = n, stage s adds the L-mode quotient at (i - s, n - s) to stage s - 1
        dims = [functor_L_and_Eis(m, i, s=s).dim for s in range(0, i + 1)]
        if i < m.n:
            for s in range(1, i + 1):
                assert dims[s] == functor_L_and_Eis(m, i - s, j=m.n - s).dim + dims[s - 1]


def test_functor_index_errors():
    m = jordan_module(3, 3, (2,))
    with pytest.raises(ValueError):
        functor_B(m, 0)
    with pytest.raises(ValueError):
        functor_E(m, 4)
    with pytest.raises(ValueError):
        functor_L_and_Eis(m, 1)
    with pytest.raises(ValueError):
        functor_L_and_Eis(m, 1, j=2, s=1)


def _same_quotient(q, r):
    return q.sup == r.sup and q.sub == r.sub and np.array_equal(q.lifts, r.lifts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_flag_matches_intersections(p):
    # every subquotient of the one flag against Zassenhaus meets of D^k built afresh
    rng = rng_for(0xF1A6, p)
    for n in range(1, 9):
        m = random_nil_module(p, n, int(rng.integers(0, 11)), seed=p, index=n)
        for i in range(0, n + 1):
            for j in range(i, n + 1):
                want = intersected_subquotient(m, i, j=j)
                assert _same_quotient(functor_L_and_Eis(m, i, j=j), want)
            for s in range(0, i + 1):
                want = intersected_subquotient(m, i, s=s)
                assert _same_quotient(functor_L_and_Eis(m, i, s=s), want)
        for j in range(1, n + 1):
            assert _same_quotient(functor_B(m, j), intersected_subquotient(m, j - 1, j=j))
            assert _same_quotient(multiplicity_space(m, j), intersected_multiplicity_space(m, j))
            assert multiplicity_space(m, j).dim == jordan_type(m).multiplicity(j)
        # i = n reaches Ker D^{n+1} = V in D Ker D^{i+1}
        for i in range(1, min(n, p - 1) + 1):
            assert natfunc_hom_dims(m, i) == intersected_hom_dims(m, i)


def test_functors_build_each_power_once(monkeypatch):
    # functor_B and functor_E over every index read the module's own D^1..D^n;
    # D^1 is the operator itself, so D^2..D^n cost one product each
    import frobcat.nilmod

    right_factors = []

    def counted(a, b, p):
        right_factors.append(b)
        return mat_mul(a, b, p)

    monkeypatch.setattr(frobcat.nilmod, "mat_mul", counted)
    m = random_nil_module(5, 6, 9, seed=3)
    for i in range(1, m.n + 1):
        functor_B(m, i)
    for i in range(0, m.n + 1):
        functor_E(m, i)
    assert sum(b is m.D for b in right_factors) == m.n - 1
    assert m.powers[1] is m.D
    for k, power in enumerate(m.powers):
        assert np.array_equal(power, np.linalg.matrix_power(m.D, k) % 5)


def test_kernel_flag_and_denominators_eliminate_once(monkeypatch):
    # Ker D^k is one elimination, of the operator D induces on V / Ker D^{k-1}: square and
    # dim V - dim Ker D^{k-1} wide, with no n-row reduction of D; the denominator of M_j
    # extends Ker D^{j-1} by D Ker D^{j+1}, eliminating only on Ker D^{j-1}'s free columns
    import frobcat.linalg

    p, n = 5, 6
    parts = tuple(k for k in range(n, 0, -1) for _ in range(2))
    g, g_inv = random_invertible(p, sum(parts), rng_for(7, 0))
    d = mat_mul(mat_mul(g, jordan_matrix(parts), p), g_inv, p)
    m = nil_module(d, p, n)
    shapes, reduced, widths = [], [], []

    def counted(a, p):
        shapes.append(np.shape(a))
        return rref(a, p)

    reduce_rows = frobcat.linalg.Subspace.reduce

    def spied(self, vecs):
        reduced.append(np.shape(vecs))
        return reduce_rows(self, vecs)

    monkeypatch.setattr(frobcat.linalg, "rref", counted)
    monkeypatch.setattr(frobcat.linalg.Subspace, "reduce", spied)
    for k in range(1, n + 1):
        m.kernel(k)
    assert [s for s in reduced if len(s) == 2 and s[0] == m.dim] == []
    assert shapes == [(m.dim - m.kernel(k - 1).dim,) * 2 for k in range(1, n + 1)]

    # Subspace.add eliminates its remainder block directly, not through rref
    eliminate, depth = frobcat.linalg._eliminate, []

    def counted_block(a, p):
        if not depth:  # a block, not one of the halves it recurses into
            widths.append(a.shape[1])
        depth.append(a)
        try:
            return eliminate(a, p)
        finally:
            depth.pop()

    monkeypatch.setattr(frobcat.linalg, "_eliminate", counted_block)
    for j in range(1, n + 1):
        widths.clear()
        assert multiplicity_space(m, j).dim == 2
        # blocks longer than j put D Ker D^{j+1} outside Ker D^{j-1} for j < n only
        assert len(widths) == (j < n)
        assert all(w <= m.dim - m.kernel(j - 1).dim for w in widths)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_kernel_flag_matches_powers_and_the_general_preimage(p):
    # random conjugated modules, dim up to 100 and n up to 8, some with blocks shorter
    # than n: every Ker D^s, and each stage's preimage (from Ker D^0 = 0 too), against
    # the kernel of D^s and the kernel over all n columns; the induced operator's
    # products split at the two largest moduli
    for index, (n, dim) in enumerate(((8, 100), (5, 64), (3, 40), (2, 17), (6, 9))):
        m = random_nil_module(p, n, dim, seed=24, index=index)
        for s in range(1, n + 3):
            below = m.kernel(s - 1)
            got = below.preimage(m.D)
            assert got == general_preimage(below, m.D), (n, dim, s)
            assert got == m.kernel(s) == _kernel_of_power(m, s), (n, dim, s)


def test_kernel_flag_edge_cases():
    for p in (2, 65521):
        empty = nil_module(np.zeros((0, 0), np.int64), p, 3)
        assert [empty.kernel(s).dim for s in range(5)] == [0] * 5
        zero = nil_module(np.zeros((5, 5), np.int64), p, 3)
        assert all(zero.kernel(s) == Subspace.from_rows(np.eye(5, dtype=np.int64), p) for s in range(1, 6))
        for n in (1, 4, 8):
            # a single J_n: Ker D^s spans the last min(s, n) basis vectors, for s past n too
            block = jordan_module(p, n, (n,))
            for s in range(n + 3):
                want = Subspace.from_rows(np.eye(n, dtype=np.int64)[n - min(s, n) :], p)
                assert block.kernel(s) == want, (n, s)


def test_kernel_flag_of_the_diagonal_power_module_at_n_1024():
    # the module of the lemm1 suite at p = 5, m = 4: D = 1 - u^(tensor 5) on
    # 4^5 = 1024 dimensions. Each Ker D^s is built as a preimage and each M_j
    # reads D itself; the oracles form D^s afresh and meet by Zassenhaus
    p, m = 5, 4
    u = np.eye(m, dtype=np.int64) + jordan_matrix((m,))
    mod = nil_module(np.eye(m**p, dtype=np.int64) - reduce(np.kron, [u] * p), p, p)
    assert "powers" not in mod.__dict__
    for s in range(p + 1):
        assert mod.kernel(s) == _kernel_of_power(mod, s), s
    for j in range(1, p + 1):
        got, want = multiplicity_space(mod, j), intersected_multiplicity_space(mod, j)
        assert "powers" not in mod.__dict__
        assert got.sup == want.sup and got.sub == want.sub, j
        assert got.dim == (j == p - 1) + 204 * (j == p)  # 204 J_5 blocks and one J_4


def _quotient_callers() -> set[str]:
    """The package's functions whose bodies call `Quotient.of`, read from the source."""
    names = set()
    for path in Path(frobcat.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            refs = (ref for ref in ast.walk(fn) if isinstance(ref, ast.Attribute))
            if isinstance(fn, ast.FunctionDef) and any(ast.unparse(ref) == "Quotient.of" for ref in refs):
                names.add(fn.name)
    return names


@pytest.fixture
def nestings(monkeypatch):
    """(caller, W ⊆ U) for each `Quotient.of(U, W)` call made while the test runs."""
    seen, of = [], Quotient.of.__func__

    def spied(cls, sup, sub):
        seen.append((sys._getframe(1).f_code.co_name, sup.contains_vectors(sub.basis)))
        return of(cls, sup, sub)

    monkeypatch.setattr(Quotient, "of", classmethod(spied))
    return seen


def _every_quotient(m):
    for i in range(m.n + 1):
        functor_E(m, i)
    for i in range(1, m.n + 1):
        functor_B(m, i)
        multiplicity_space(m, i)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_every_quotient_the_package_forms_is_nested(p, nestings):
    # Quotient.of takes W ⊆ U from its caller's flag without a check: on conjugated
    # modules with a block of every length up to n, and on random ones, each
    # caller's denominator lies in its numerator
    rng = rng_for(0x2E57, p)
    for parts in ((8, 7, 6, 5, 4, 3, 2, 1), (5, 5, 3, 2, 1, 1), (3, 3, 2, 1), (2, 1), (6, 4, 4, 1)):
        g, g_inv = random_invertible(p, sum(parts), rng)
        _every_quotient(nil_module(mat_mul(mat_mul(g, jordan_matrix(parts), p), g_inv, p), p, parts[0]))
    for index, (n, dim) in enumerate(((8, 40), (5, 24), (3, 9))):
        _every_quotient(random_nil_module(p, n, dim, seed=25, index=index))
    callers = {"functor_B", "functor_E", "multiplicity_space"}
    assert {caller for caller, _ in nestings} == _quotient_callers() == callers
    assert [caller for caller, nested in nestings if not nested] == []


def test_every_quotient_of_the_diagonal_power_module_at_n_1024_is_nested(nestings):
    # the lemm1 module at p = 5, m = 4, as in the kernel flag test above
    p, m = 5, 4
    u = np.eye(m, dtype=np.int64) + jordan_matrix((m,))
    _every_quotient(nil_module(np.eye(m**p, dtype=np.int64) - reduce(np.kron, [u] * p), p, p))
    assert {caller for caller, _ in nestings} == _quotient_callers()
    assert [caller for caller, nested in nestings if not nested] == []


def test_powers_are_read_only():
    m = jordan_module(3, 3, (3, 1))
    assert m.powers is m.powers and len(m.powers) == 4
    for arr in m.powers:
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    with pytest.raises(ValueError):
        m.powers[1].fill(0)
    assert m.powers[1].tolist() == m.D.tolist()


def test_multiplicity_space_index_errors():
    m = jordan_module(3, 3, (2,))
    for j in (0, 4):
        with pytest.raises(ValueError, match="outside"):
            multiplicity_space(m, j)


def test_multiplicity_vector():
    assert multiplicity_vector(4, 2) == (1, 2, 1, 0)
    assert multiplicity_vector(4, 0) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        multiplicity_vector(4, 5)


def test_ses_validation():
    p, n = 5, 2
    x = jordan_module(p, n, (1,))
    z = jordan_module(p, n, (1,))
    good = extension_from_phi(x, z, [[1]])
    assert jordan_type(good.y).parts == (2,)
    with pytest.raises(ValueError):
        # zero injection is not injective
        ShortExactSeq(x=x, y=good.y, z=z, inj=np.zeros((2, 1), int), surj=good.surj)
    with pytest.raises(ValueError):
        # swapped legs: composition b @ a is no longer zero
        ShortExactSeq(x=x, y=good.y, z=z, inj=np.array([[0], [1]]), surj=good.surj)
    # the maps are held reduced mod p and read-only
    again = ShortExactSeq(x=x, y=good.y, z=z, inj=[[6], [-5]], surj=[[0, -4]])
    assert again.inj.tolist() == [[1], [0]] and again.surj.tolist() == [[0, 1]]
    with pytest.raises(ValueError):
        again.inj[0, 0] = 2
    with pytest.raises(ValueError):
        # identity middle map intertwines nothing here: wrong shapes
        ShortExactSeq(x=x, y=good.y, z=good.y, inj=good.inj, surj=good.surj)


def test_split_test_known_cases():
    p, n = 3, 2
    x = jordan_module(p, n, (1,))
    z = jordan_module(p, n, (1,))
    joined = split_test(extension_from_phi(x, z, [[1]]))
    assert joined == {"e_additive": False, "split": False, "implication_holds": True}
    split = split_test(extension_from_phi(x, z, [[0]]))
    assert split == {"e_additive": True, "split": True, "implication_holds": True}


def test_random_partition_properties():
    rng = rng_for(11, 0)
    for _ in range(50):
        parts = random_partition(12, 4, rng)
        assert sum(parts) == 12
        assert all(1 <= k <= 4 for k in parts)
        assert parts == tuple(sorted(parts, reverse=True))
    assert random_partition(0, 3, rng) == ()


def test_random_nil_module_deterministic():
    a = random_nil_module(5, 4, 7, seed=42, index=3)
    b = random_nil_module(5, 4, 7, seed=42, index=3)
    c = random_nil_module(5, 4, 7, seed=42, index=4)
    assert np.array_equal(a.D, b.D)
    assert not np.array_equal(a.D, c.D)
    assert random_nil_module(3, 2, 0, seed=1).dim == 0


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(2, 4),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32),
)
def test_survey_matches_per_trial_route(p, n, dx, dz, seed):
    x = random_nil_module(p, n, dx, seed, 0)
    z = random_nil_module(p, n, dz, seed, 1)
    trials = 12
    report = extension_survey(x, z, trials, seed)
    direct = [split_test(random_extension(x, z, seed, t)) for t in range(trials)]
    assert report["trials"] == trials
    assert report["split"] == sum(r["split"] for r in direct)
    assert report["e_additive"] == sum(r["e_additive"] for r in direct)
    assert report["violations"] == []


def test_extension_couplings_read_the_modules_own_powers(monkeypatch):
    # a module forms no power on construction; the first coupling space forms
    # the powers of X and Z once each, later ones read them, and a sampled
    # extension's middle Y forms none
    import frobcat.nilmod

    formed = []
    power_list = frobcat.nilmod._power_list

    def spy(d, n, p):
        formed.append(d)
        return power_list(d, n, p)

    monkeypatch.setattr(frobcat.nilmod, "_power_list", spy)
    x = random_nil_module(3, 3, 4, seed=57, index=0)
    z = random_nil_module(3, 3, 3, seed=57, index=1)
    assert formed == []
    extension_survey(x, z, 6, seed=57)
    assert len(formed) == 2 and formed[0] is x.D and formed[1] is z.D
    formed.clear()
    extension_survey(x, z, 6, seed=57)
    s = random_extension(x, z, seed=57)
    assert formed == [] and "powers" not in s.y.__dict__


def test_survey_report_fields():
    x = jordan_module(3, 3, (2, 1))
    z = jordan_module(3, 3, (3,))
    report = extension_survey(x, z, 5, seed=9)
    assert set(report) == {"trials", "split", "e_additive", "violations"}
    assert 0 <= report["split"] <= 5
