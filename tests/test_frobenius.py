"""Shift-power functor calculus on representations mod p."""
import time
from functools import reduce
import tracemalloc

import numpy as np
import pytest

from frobcat.frobenius import (
    DIM_CAPS,
    _factor_permutations,
    _multiplicity_quotients,
    _permutation_induced,
    _rep_extension_space,
    _shift_perm,
    check_additivity,
    check_monoidality,
    cyclic_power,
    exactness_report,
    fpdim_of_F,
    frobenius_components,
    frobenius_on_simple,
    frobenius_order_abstract,
    random_rep_extension,
    random_rep_ses,
    six_periodic_check,
    sp_multiplicity_spaces,
)
from frobcat.linalg import BudgetError
from frobcat.nilmod import (
    JordanType,
    ShortExactSeq,
    _extension_space,
    extension_survey,
    functor_B,
    functor_E,
    jordan_matrix,
    jordan_module,
    nil_module,
)
from frobcat.repcat import (
    GroupRep,
    cyclic_group,
    cyclic_rep,
    decompose_cyclic,
    evaluate_word,
    random_cyclic_rep,
    validate,
)
from frobcat.seeding import rng_for
from frobcat.verlinde import _fuse_simples, fpdim_simple, simple
from oracles import (
    _word_digits,
    flag_multiplicity_space,
    frobenius_on_morphism,
    hom_basis,
    induced_on_subquotient,
    power_rep,
    power_space_image_of_simple,
    regular_cyclic_rep,
    rep_extension_from_phi,
    restrict_to_nilmodule,
    rotation_classes,
    six_periodic_pairs,
    subquotient_components,
    symmetric_perm_rep,
)


def witness_jordan(rep):
    """Jordan type of 1 - rho(witness); complete invariant for cyclic reps."""
    if rep.dim == 0:
        return JordanType(())
    u = evaluate_word(rep, rep.group.sylow_witness)
    d = (np.eye(rep.dim, dtype=np.int64) - u) % rep.p
    return decompose_cyclic(
        GroupRep(
            group=cyclic_group(rep.p),
            p=rep.p,
            dim=rep.dim,
            matrices=((np.eye(rep.dim, dtype=np.int64) - d) % rep.p,),
        )
    )


def _diag_indices(dim, power):
    """Indices of the constant words (k, k, ..., k)."""
    if dim == 0:
        return np.zeros(0, np.int64)
    step = (dim**power - 1) // (dim - 1) if dim > 1 else 1
    return np.arange(dim, dtype=np.int64) * step


def test_shift_structure():
    # `cyclic_power` takes these by construction: the rotation has order p,
    # fixes exactly the diagonal words and commutes with the diagonal action
    for d, p in ((2, 3), (3, 2), (3, 5)):
        sigma = _shift_perm(d, p)
        composed = np.arange(d**p)
        for _ in range(p):
            composed = sigma[composed]
        assert np.array_equal(composed, np.arange(d**p))
        fixed = np.nonzero(sigma == np.arange(d**p))[0]
        assert np.array_equal(fixed, _diag_indices(d, p))
        digits = _word_digits(d, p)
        assert digits.shape == (p, d**p)
        # the shift rolls the digit string one place
        rolled = np.roll(digits, 1, axis=0)
        weights = d ** (p - 1 - np.arange(p))
        assert np.array_equal(weights @ rolled, sigma)
    for x in (random_cyclic_rep(5, 3, seed=7), symmetric_perm_rep(3)):
        cp = cyclic_power(x)
        inv = np.argsort(cp.shift)
        rng = rng_for(0x5EED, x.dim * x.p)
        for k in range(x.group.generators):
            for _ in range(2):
                v = rng.integers(0, x.p, size=cp.size)
                assert np.array_equal(cp.apply_generator(k, v[inv]), cp.apply_generator(k, v)[inv])


def test_free_orbit_facts():
    # on one length-p shift orbit every B_i and E_i vanishes; a fixed basis
    # vector survives in every E_i and in B_1 only
    for p in (2, 3, 5, 7):
        free_block = restrict_to_nilmodule(regular_cyclic_rep(p), "a", p)
        fixed_block = nil_module(np.zeros((1, 1), np.int64), p, p)
        for i in range(1, p):
            assert functor_B(free_block, i).dim == 0
            assert functor_E(free_block, i).dim == 0
            assert functor_E(fixed_block, i).dim == 1
            assert functor_B(fixed_block, i).dim == (1 if i == 1 else 0)


def test_cyclic_power_budget_cap():
    with pytest.raises(BudgetError, match="exceeds the p = 7 cap"):
        cyclic_power(random_cyclic_rep(7, DIM_CAPS[7] + 1, seed=0))


def test_power_rep_dense_budget(monkeypatch):
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "1")
    cp = cyclic_power(random_cyclic_rep(5, 6, seed=1))
    with pytest.raises(BudgetError):
        power_rep(cp)


def test_first_component_is_the_identity_functor():
    # reading constant words raises entries to the p-th power: a no-op mod p
    for x in (cyclic_rep(3, (2, 1)), random_cyclic_rep(5, 4, seed=3), symmetric_perm_rep(3)):
        image = frobenius_components(x)
        assert image.f(1).dim == x.dim
        for got, src in zip(image.f(1).matrices, x.matrices):
            assert np.array_equal(got, src)
        for i in range(2, x.p):
            assert image.f(i).dim == 0
            assert image.g(i).dim == x.dim
        assert validate(image.f(1)) == []


def test_components_match_dense_subquotient_route():
    # independent route: the honest block and kernel subquotients of
    # 1 - shift on the dense power space, with the diagonal action induced
    for x in (
        random_cyclic_rep(2, 4, 0),
        random_cyclic_rep(3, 3, 1),
        random_cyclic_rep(5, 2, 2),
        symmetric_perm_rep(3),
    ):
        image = frobenius_components(x)
        fs, gs = subquotient_components(x)
        for i in range(1, x.p):
            for honest, target in ((fs[i - 1], image.f(i)), (gs[i - 1], image.g(i))):
                assert honest.dim == target.dim
                assert validate(honest) == []
                assert witness_jordan(honest) == witness_jordan(target)


def test_morphism_functoriality():
    p = 5
    a, b, c = cyclic_rep(p, (3,)), cyclic_rep(p, (4,)), cyclic_rep(p, (2,))
    f = hom_basis(a, b)[0]
    g = hom_basis(b, c)[0]
    ff = frobenius_on_morphism(f, a, b)
    gg = frobenius_on_morphism(g, b, c)
    comp = frobenius_on_morphism(g @ f % p, a, c)
    got = gg["f_maps"][0] @ ff["f_maps"][0] % p
    assert np.array_equal(comp["f_maps"][0], got)
    assert len(ff["g_maps"]) == p - 1
    not_equivariant = np.zeros((b.dim, a.dim), np.int64)
    not_equivariant[0, 0] = 1
    with pytest.raises(ValueError, match="intertwiner"):
        frobenius_on_morphism(not_equivariant, a, b)
    with pytest.raises(ValueError, match="shape"):
        frobenius_on_morphism(np.eye(a.dim, dtype=int), a, b)


def test_additivity_and_monoidality_fixed_pairs():
    for p in (2, 3):
        x = cyclic_rep(p, (2, 1) if p > 2 else (2,))
        y = cyclic_rep(p, (1,))
        add = check_additivity(x, y)
        assert add["ok"] and add["mismatches"] == []
        mon = check_monoidality(x, y)
        assert mon["ok"] and mon["mismatches"] == []


def test_rep_ses_validation_and_determinism():
    p = 3
    x = cyclic_rep(p, (1,))
    z = cyclic_rep(p, (2,))
    ses = rep_extension_from_phi(x, z, [[0, 0]])
    bad_surj = np.array([[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="composition"):
        ShortExactSeq(x=ses.x, y=ses.y, z=ses.z, inj=ses.inj, surj=bad_surj)
    # the maps are held reduced mod p and read-only
    shifted = ShortExactSeq(x=ses.x, y=ses.y, z=ses.z, inj=ses.inj + p, surj=ses.surj - p)
    assert np.array_equal(shifted.inj, ses.inj) and np.array_equal(shifted.surj, ses.surj)
    with pytest.raises(ValueError):
        shifted.surj[0, 0] = 1
    with pytest.raises(ValueError, match="wrong shape"):
        rep_extension_from_phi(cyclic_rep(p, (2,)), z, [[0, 0]])  # one row, not broadcast
    # one generator only, refused before anything is drawn
    s3 = symmetric_perm_rep(3)
    with pytest.raises(ValueError, match="one-generator"):
        random_rep_extension(s3, s3, seed=1)
    again = random_rep_ses(p, 8, seed=11, index=2)
    twice = random_rep_ses(p, 8, seed=11, index=2)
    assert np.array_equal(again.y.matrices[0], twice.y.matrices[0])
    other = random_rep_ses(p, 8, seed=11, index=3)
    assert not np.array_equal(again.y.matrices[0], other.y.matrices[0])



def test_coupling_spaces_are_formed_afresh_and_kept_nowhere():
    x, z = jordan_module(3, 3, (2, 1)), jordan_module(3, 3, (3,))
    xr, zr = cyclic_rep(3, (2,)), cyclic_rep(3, (1,))
    gx, gz = xr.matrices[0], zr.matrices[0]
    extension_survey(x, z, 4, seed=3)
    random_rep_extension(xr, zr, seed=3)
    for space in (_extension_space, _rep_extension_space):
        info = space.cache_info()
        assert (info.maxsize, info.currsize) == (0, 0)
    # equal inputs give equal bases in distinct arrays: no caller shares another's
    for first, second in (
        (_extension_space(x.powers, z.powers, 3, 3), _extension_space(x.powers, z.powers, 3, 3)),
        (_rep_extension_space(gx, gz, 3), _rep_extension_space(gx, gz, 3)),
    ):
        assert first is not second and np.array_equal(first, second)
        assert len(first)  # a nonzero coupling space


def test_one_exact_sequence_type_for_both_categories():
    p = 3
    x = z = cyclic_rep(p, (1,))
    ses = rep_extension_from_phi(x, z, [[1]])
    # exact as spaces, but the injection does not commute with the generator
    with pytest.raises(ValueError, match="injection does not intertwine"):
        ShortExactSeq(x=x, y=ses.y, z=z, inj=[[1], [1]], surj=[[-1, 1]])
    # a nil-module of the same dimension and modulus is in another category
    nil = nil_module(np.zeros((1, 1), np.int64), p, p)
    with pytest.raises(ValueError, match="one category"):
        ShortExactSeq(x=nil, y=ses.y, z=z, inj=ses.inj, surj=ses.surj)
    assert nil.category == (p, p) and ses.y.category == (ses.y.group, p)
    assert nil.operators[0] is nil.D and ses.y.operators is ses.y.matrices


def test_six_periodic_minimal_example():
    p = 3
    x = cyclic_rep(p, (1,))
    z = cyclic_rep(p, (1,))
    ses = rep_extension_from_phi(x, z, [[1]])
    report = six_periodic_check(ses)
    assert report["ok"] and report["period"] == 6
    assert report["pairs"][0]["dims"] == [1, 2, 1, 1, 2, 1]
    assert report["pairs"][0]["exact"] == [True] * 6
    assert report["pairs"][0]["alternating_sum"] == 0
    assert six_periodic_pairs(ses) == report["pairs"]


def test_six_periodic_random_and_period_two():
    for p, cap, count in ((2, 8, 4), (3, 6, 3)):
        for k in range(count):
            report = six_periodic_check(random_rep_ses(p, cap, seed=21, index=k))
            assert report["ok"]
            if p == 2:
                assert report["period"] == 3


def test_six_periodic_budget():
    # dim Y = 7 is above the p = 5 cap of `cyclic_power`; the closed form
    # never builds the power space, so it needs no budget for it
    p = 5
    x = cyclic_rep(p, (4,))
    z = cyclic_rep(p, (3,))
    ses = rep_extension_from_phi(x, z, np.zeros((4, 3), int))
    assert ses.y.dim > DIM_CAPS[p]
    report = six_periodic_check(ses)
    assert report["ok"]
    assert [pair["dims"] for pair in report["pairs"]] == [[4, 7, 3, 4, 7, 3]] * 2


@pytest.mark.parametrize("p, cap, count", [(2, 6, 6), (3, 4, 5), (5, 3, 4)])
def test_six_periodic_matches_the_power_space_oracle(p, cap, count):
    # the oracle induces alpha_i, beta_i on the dense power spaces and
    # asserts what forces every connecting map to vanish
    for k in range(count):
        ses = random_rep_ses(p, cap, seed=41, index=k)
        assert six_periodic_pairs(ses) == six_periodic_check(ses)["pairs"]


def test_fpdim_of_f_preserved():
    for p, dim in ((2, 5), (3, 4), (5, 3)):
        x = random_cyclic_rep(p, dim, seed=6)
        assert abs(fpdim_of_F(x) - dim) < 1e-9


def test_exactness_report_clean_sample():
    ses_list = [random_rep_ses(3, 8, seed=31, index=k) for k in range(3)]
    report = exactness_report(ses_list)
    assert report["instances"] == 3
    assert report["violations"] == []


def test_frobenius_order_abstract():
    assert frobenius_order_abstract({"x"}, {"x": ("y",), "y": ()}, {"y"}) == 1
    assert (
        frobenius_order_abstract({"x"}, {"x": ("y",), "y": ("z",), "z": ()}, {"z"}) == 2
    )
    assert frobenius_order_abstract({"z"}, {"z": ()}, {"z"}) == 0
    assert (
        frobenius_order_abstract({"x"}, {"x": ("y",), "y": ("x",)}, set())
        == "infinite within bound"
    )
    assert frobenius_order_abstract({"x"}, lambda s: (), set()) == 1
    with pytest.raises(ValueError, match="not total"):
        frobenius_order_abstract({"x"}, {"y": ()}, set())


def test_multiplicity_quotients_match_dense_decomposition():
    # independent route: decompose the dense power generator directly
    for p, m in ((3, 1), (3, 2), (5, 2)):
        quotients, n = list(_multiplicity_quotients(p, m)), m**p
        u = (np.eye(m, dtype=np.int64) + jordan_matrix((m,))) % p
        upow = np.array([[1]], np.int64)
        for _ in range(p):
            upow = np.kron(upow, u) % p
        rep = GroupRep(group=cyclic_group(p), p=p, dim=n, matrices=(upow,))
        t = decompose_cyclic(rep)
        assert [q.dim for q in quotients] == [t.multiplicity(j) for j in range(1, p)]
    with pytest.raises(ValueError):
        _multiplicity_quotients(5, 5)


def _diagonal_power_module(p, m):
    u = np.eye(m, dtype=np.int64) + jordan_matrix((m,))
    return nil_module(np.eye(m**p, dtype=np.int64) - reduce(np.kron, [u] * p), p, p)


def test_streamed_multiplicity_spaces_match_the_kept_flag():
    # each streamed M_j against M_j from the module's kept flag, Ker D^p = V formed there:
    # the same lifts, coordinate columns and denominator basis, so the same induced S_p action
    for p in (3, 5):
        for m in range(1, p):
            module, perms = _diagonal_power_module(p, m), _factor_permutations(m, p)
            streamed = list(_multiplicity_quotients(p, m))
            assert len(streamed) == p - 1
            for j, q in enumerate(streamed, start=1):
                want = flag_multiplicity_space(module, j)
                assert q.sup == want.sup and q.sub == want.sub, (p, m, j)
                assert np.array_equal(q.lifts, want.lifts) and q.coord_columns == want.coord_columns
                for perm in perms:
                    got = _permutation_induced(q, perm)
                    assert np.array_equal(got, _permutation_induced(want, perm)), (p, m, j)


def test_multiplicity_quotients_refuse_before_allocating(monkeypatch):
    # m = 4 at p = 5 streams Du and three kernel stages, 1024 wide: priced at 6.5 words
    # per n^2 from the shapes before Du is built, so a 30 MB budget refuses up front
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "30")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"diagonal power module.* needs {52 * 1024**2} bytes"):
            _multiplicity_quotients(5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_multiplicity_quotients_stay_within_their_price(monkeypatch):
    # a whole lemm1 trial at p = 5, m = 4 (n = 1024) against the streamed price, and
    # against 4.9 words per n^2 entries: its measured peak is 4.78
    import frobcat.frobenius

    prices, check = [], frobcat.frobenius.check_budget

    def spy(nbytes, what):
        prices.append((nbytes, what))
        check(nbytes, what)

    monkeypatch.setattr(frobcat.frobenius, "check_budget", spy)
    n = 4**5
    tracemalloc.start()
    try:
        result = sp_multiplicity_spaces(5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.dim for rep in result["components"]] == [0, 0, 0, 1]
    price = [nbytes for nbytes, what in prices if what.startswith("diagonal power module")]
    assert price == [52 * n * n] and peak <= price[0]
    assert peak <= 4.9 * n * n * 8


def test_no_price_after_the_multiplicity_quotients_price_exceeds_it(monkeypatch):
    # every request of a lemm1 trial at p = 5, m = 4 after the up-front price is at most that
    # price, so a budget refuses before Du is built or lets the trial finish; at 56 and 60 MiB
    # `Subspace.preimage` once asked 67556476 bytes for the first kernel stage, after Du
    import sys

    import frobcat.cli

    requests, check = [], frobcat.linalg.check_budget

    def spy(nbytes, what):
        requests.append((nbytes, what))
        check(nbytes, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("frobcat") and getattr(module, "check_budget", None) is check:
            monkeypatch.setattr(module, "check_budget", spy)
    sp_multiplicity_spaces(5, 4)
    first = [what for _, what in requests].index("diagonal power module and three stages of its kernel flag")
    assert requests[first][0] == 52 * 4**10
    assert max(nbytes for nbytes, _ in requests[first + 1 :]) <= requests[first][0]
    monkeypatch.undo()
    for mb in ("56", "60"):
        monkeypatch.setenv("FROBCAT_BUDGET_MB", mb)
        assert frobcat.cli.run(["check", "--suite", "lemm1", "--p", "5"]) == 0, mb


def test_frobenius_on_simple_small_values():
    assert frobenius_on_simple(2, 1) == (simple(2, 1),)
    assert frobenius_on_simple(3, 1) == (simple(3, 1), simple(3, 2).scale(0))
    got = frobenius_on_simple(3, 2)
    assert got[0] == simple(3, 2) and got[1].is_zero
    with pytest.raises(ValueError):
        power_space_image_of_simple(7, 1)


def test_closed_form_on_simples_matches_the_power_space():
    for p in (2, 3, 5):
        for m in range(1, p):
            assert frobenius_on_simple(p, m) == power_space_image_of_simple(p, m), (p, m)
    for m in (1, 2):  # power spaces of 7 and 128 dimensions
        assert frobenius_on_simple(7, m) == rotation_classes(7, m), m


def test_frobenius_on_simple_at_large_p():
    p = 101
    for m in range(1, p):
        table = np.array([c.mult for c in frobenius_on_simple(p, m)])
        # one simple of Ver_p ⊠ Ver_p, with the FP-dimension of L_m
        assert table.sum() == 1
        i, j = (int(k) + 1 for k in np.argwhere(table)[0])
        assert abs(fpdim_simple(p, i) * fpdim_simple(p, j) - fpdim_simple(p, m)) < 1e-9
    for bad in ((p, 0), (p, p), (100, 1)):
        with pytest.raises(ValueError):
            frobenius_on_simple(*bad)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="fusion classes"):
        frobenius_on_simple(2147483647, 1)
    assert time.perf_counter() - start < 1.0


def _fuse_tables(p, a, b):
    """Product in Ver_p ⊠ Ver_p of two classes held as (p-1) x (p-1) tables,
    entry [i-1, j-1] counting L_i ⊠ L_j."""
    out = np.zeros((p - 1, p - 1), np.int64)
    for i1, j1 in np.argwhere(a):
        for i2, j2 in np.argwhere(b):
            left = _fuse_simples(p, int(i1) + 1, int(i2) + 1).mult
            right = _fuse_simples(p, int(j1) + 1, int(j2) + 1).mult
            out += a[i1, j1] * b[i2, j2] * np.outer(left, right)
    return out


def _first_non_monoidal_pair(p, tables, pairs):
    """The first pair (a, b) with F(L_a ⊗ L_b) != F(L_a) F(L_b), or None;
    tables[m - 1] is F(L_m)."""
    for a, b in pairs:
        whole = np.tensordot(_fuse_simples(p, a, b).mult, tables, axes=1)
        if not np.array_equal(whole, _fuse_tables(p, tables[a - 1], tables[b - 1])):
            return a, b
    return None


def test_frobenius_on_simples_is_monoidal():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 53, 71, 101):
        tables = np.array([[c.mult for c in frobenius_on_simple(p, m)] for m in range(1, p)])
        if p <= 31:
            pairs = [(a, b) for a in range(1, p) for b in range(1, p)]
        else:
            pairs = [tuple(int(k) for k in rng_for(p, t).integers(1, p, size=2)) for t in range(40)]
        assert _first_non_monoidal_pair(p, tables, pairs) is None, p
        # the same closed form with the labels L_1 and L_{p-1} swapped is not monoidal
        swapped = tables.copy()
        swapped[:, :, [0, -1]] = tables[:, :, [-1, 0]]
        assert p == 2 or _first_non_monoidal_pair(p, swapped, pairs), p


def test_sp_multiplicity_p3():
    one = sp_multiplicity_spaces(3, 1)
    assert one["exceptional_index"] == 1
    assert one["core_dims"] == (1, 0)
    assert one["projective"] == (False, True)
    two = sp_multiplicity_spaces(3, 2)
    assert two["exceptional_index"] == 2
    assert two["core_dims"] == (0, 1)


def test_sp_multiplicity_past_p_5():
    # the claim is the closed form, at p = 2 and past 5 too: one core block J_r,
    # r = m or p - m, at j = 1 or p - 1 (power spaces of 1 and 128 dimensions)
    for p, m in ((2, 1), (7, 1), (7, 2), (11, 1), (13, 1)):
        result = sp_multiplicity_spaces(p, m)
        exceptional, r = (1, m) if m % 2 else (p - 1, p - m)
        assert result["exceptional_index"] == exceptional
        assert result["core_dims"] == tuple(r * (j == exceptional) for j in range(1, p)), (p, m)


def test_sp_multiplicity_refusals():
    # refused before the power space is built: a bad p or m, a p past numpy's axes,
    # and m = 2 at p = 13 (8192 dimensions) by the streamed price
    for p, m, error, match in (
        (4, 1, ValueError, "not prime"),
        (5, 0, ValueError, "outside"),
        (5, 5, ValueError, "outside"),
        (67, 1, ValueError, "above 64"),
        (2147483647, 1, ValueError, "above 64"),
        (13, 2, BudgetError, "diagonal power module"),
    ):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                sp_multiplicity_spaces(p, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and time.perf_counter() - start < 1.0, (p, m)


def swapped_closed_form(p, m):
    """`frobenius_on_simple` with L_m and L_{p-m} swapped for even m: a broken closed form."""
    classes = list(frobenius_on_simple(p, m))
    if m % 2 == 0:
        classes[m - 1], classes[p - m - 1] = classes[p - m - 1], classes[m - 1]
    return tuple(classes)


def test_a_broken_closed_form_fails_the_core_claim(monkeypatch):
    import frobcat.frobenius

    monkeypatch.setattr(frobcat.frobenius, "frobenius_on_simple", swapped_closed_form)
    for m in (1, 3):
        sp_multiplicity_spaces(5, m)
    for m in (2, 4):
        with pytest.raises(AssertionError, match="rotation cores give"):
            sp_multiplicity_spaces(5, m)


def test_sp_sign_character_p3_m2():
    # the surviving one-dimensional space carries the sign of the two-cycle
    rep = sp_multiplicity_spaces(3, 2)["components"][1]
    assert rep.dim == 1
    restricted = restrict_to_nilmodule(rep, "b", 3)
    b1 = functor_B(restricted, 1)
    induced = induced_on_subquotient(evaluate_word(rep, "a"), b1.sup, b1.sub)
    assert induced.tolist() == [[2]]
