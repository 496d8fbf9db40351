"""Shift-power functor calculus on representations mod p."""
import numpy as np
import pytest

from frobcat.frobenius import (
    DIM_CAPS,
    _diag_indices,
    _free_orbit_facts,
    _multiplicity_quotients,
    _shift_perm,
    _word_digits,
    check_additivity,
    check_monoidality,
    cyclic_power,
    exactness_report,
    fpdim_of_F,
    frobenius_components,
    frobenius_on_morphism,
    frobenius_on_simple,
    frobenius_order_abstract,
    random_rep_extension,
    random_rep_ses,
    rep_extension_from_phi,
    RepSES,
    six_periodic_check,
    sp_multiplicity_spaces,
)
from frobcat.linalg import BudgetError, PrimeMatrix, induced_on_subquotient
from frobcat.nilmod import JordanType, functor_B, jordan_matrix
from frobcat.repcat import (
    GroupRep,
    cyclic_group,
    cyclic_rep,
    decompose_cyclic,
    evaluate_word,
    hom_basis,
    random_cyclic_rep,
    restrict_to_nilmodule,
    symmetric_perm_rep,
    validate,
)
from frobcat.verlinde import simple
from oracles import power_rep, subquotient_components


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
            matrices=(PrimeMatrix.dense((np.eye(rep.dim, dtype=np.int64) - d) % rep.p, rep.p),),
        )
    )


def test_shift_structure():
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


def test_free_orbit_facts():
    for p in (2, 3, 5, 7):
        assert _free_orbit_facts(p)


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
            assert np.array_equal(got.entries, src.entries)
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
    f = hom_basis(a, b)[0].entries
    g = hom_basis(b, c)[0].entries
    ff = frobenius_on_morphism(f, a, b)
    gg = frobenius_on_morphism(g, b, c)
    comp = frobenius_on_morphism(g @ f % p, a, c)
    got = gg["f_maps"][0].entries @ ff["f_maps"][0].entries % p
    assert np.array_equal(comp["f_maps"][0].entries, got)
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
    bad_surj = PrimeMatrix.dense(np.array([[1, 0, 0], [0, 0, 1]]), p)
    with pytest.raises(ValueError, match="composition"):
        RepSES(x=ses.x, y=ses.y, z=ses.z, inj=ses.inj, surj=bad_surj)
    again = random_rep_ses(p, 8, seed=11, index=2)
    twice = random_rep_ses(p, 8, seed=11, index=2)
    assert np.array_equal(again.y.matrices[0].entries, twice.y.matrices[0].entries)
    other = random_rep_ses(p, 8, seed=11, index=3)
    assert not np.array_equal(again.y.matrices[0].entries, other.y.matrices[0].entries)


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


def test_six_periodic_random_and_period_two():
    for p, cap, count in ((2, 8, 4), (3, 6, 3)):
        for k in range(count):
            report = six_periodic_check(random_rep_ses(p, cap, seed=21, index=k))
            assert report["ok"]
            if p == 2:
                assert report["period"] == 3


def test_six_periodic_budget():
    p = 5
    x = cyclic_rep(p, (4,))
    z = cyclic_rep(p, (3,))
    ses = rep_extension_from_phi(x, z, np.zeros((4, 3), int))
    with pytest.raises(BudgetError):
        six_periodic_check(ses)


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
        quotients, n = _multiplicity_quotients(p, m)
        u = (np.eye(m, dtype=np.int64) + jordan_matrix((m,))) % p
        upow = np.array([[1]], np.int64)
        for _ in range(p):
            upow = np.kron(upow, u) % p
        rep = GroupRep(
            group=cyclic_group(p), p=p, dim=n,
            matrices=(PrimeMatrix.dense(upow, p),),
        )
        t = decompose_cyclic(rep)
        assert [q.dim for q in quotients] == [t.multiplicity(j) for j in range(1, p)]
    with pytest.raises(ValueError):
        _multiplicity_quotients(5, 5)


def test_frobenius_on_simple_small_values():
    assert frobenius_on_simple(2, 1) == (simple(2, 1),)
    assert frobenius_on_simple(3, 1) == (simple(3, 1), simple(3, 2).scale(0))
    got = frobenius_on_simple(3, 2)
    assert got[0] == simple(3, 2) and got[1].is_zero
    with pytest.raises(ValueError):
        frobenius_on_simple(7, 1)


def test_sp_multiplicity_p3():
    one = sp_multiplicity_spaces(3, 1)
    assert one["exceptional_index"] == 1
    assert one["core_dims"] == (1, 0)
    assert one["projective"] == (False, True)
    two = sp_multiplicity_spaces(3, 2)
    assert two["exceptional_index"] == 2
    assert two["core_dims"] == (0, 1)
    with pytest.raises(ValueError):
        sp_multiplicity_spaces(7, 1)


def test_sp_sign_character_p3_m2():
    # the surviving one-dimensional space carries the sign of the two-cycle
    rep = sp_multiplicity_spaces(3, 2)["components"][1]
    assert rep.dim == 1
    restricted = restrict_to_nilmodule(rep, "b", 3)
    b1 = functor_B(restricted, 1)
    induced = induced_on_subquotient(evaluate_word(rep, "a"), b1.sup, b1.sub)
    assert induced.entries.tolist() == [[2]]
