"""Fusion ring of the semisimplified cyclic category."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat.nilmod import jordan_module
from frobcat.repcat import (
    cyclic_rep,
    decompose_cyclic,
    random_cyclic_rep,
    tensor,
)
from frobcat.verlinde import (
    FusionElement,
    WeightVector,
    _fuse_simples,
    concave_weights_to_cone,
    fpdim_simple,
    fusion_tensor,
    green_product,
    semisimplify,
    simple,
    verlinde_cone_report,
    verlinde_weights,
)
from oracles import fpdim, fpdim_perron, fusion_matrix, natfunc_hom_dims, restrict_to_nilmodule

FUSION_PRIMES = st.sampled_from([2, 3, 5, 7, 11])


def sine_sum_multiplicity(p, r, s, t):
    """Independent route to the structure constants via the character sum."""
    total = 0.0
    for j in range(1, p):
        th = math.pi * j / p
        total += math.sin(r * th) * math.sin(s * th) * math.sin(t * th) / math.sin(th)
    return 2.0 * total / p


def test_fusion_element_validation():
    with pytest.raises(ValueError):
        FusionElement(4, (0, 0, 0))
    with pytest.raises(ValueError):
        FusionElement(5, (1, 0))
    with pytest.raises(ValueError):
        FusionElement(3, (-1, 0))
    with pytest.raises(ValueError):
        simple(5, 5)
    with pytest.raises(ValueError):
        simple(5, 0)


def test_fusion_element_arithmetic():
    a = simple(5, 2)
    b = (a + a).scale(3)
    assert b.mult == (0, 6, 0, 0)
    assert not b.is_zero
    assert FusionElement(5, (0, 0, 0, 0)).is_zero
    assert a.to_json() == {"p": 5, "mult": [0, 1, 0, 0]}
    with pytest.raises(ValueError):
        a + simple(7, 2)


def test_fusion_p7_table_row():
    # L_3 (x) L_4 and L_3 (x) L_3 at p = 7, worked out by hand
    assert _fuse_simples(7, 3, 4).mult == (0, 1, 0, 1, 0, 1)
    assert _fuse_simples(7, 3, 3).mult == (1, 0, 1, 0, 1, 0)
    assert _fuse_simples(7, 6, 6).mult == (1, 0, 0, 0, 0, 0)
    assert _fuse_simples(7, 1, 4).mult == (0, 0, 0, 1, 0, 0)


def test_fusion_matches_sine_sum_oracle():
    for p in (2, 3, 5, 7):
        for r in range(1, p):
            for s in range(1, p):
                got = fusion_tensor(simple(p, r), simple(p, s))
                for t in range(1, p):
                    want = sine_sum_multiplicity(p, r, s, t)
                    assert abs(got.mult[t - 1] - want) < 1e-9


@settings(max_examples=60, deadline=None)
@given(FUSION_PRIMES, st.data())
def test_fusion_commutative_and_unital(p, data):
    r = data.draw(st.integers(1, p - 1))
    s = data.draw(st.integers(1, p - 1))
    assert fusion_tensor(simple(p, r), simple(p, s)) == fusion_tensor(simple(p, s), simple(p, r))
    assert fusion_tensor(simple(p, 1), simple(p, r)) == simple(p, r)


@settings(max_examples=40, deadline=None)
@given(FUSION_PRIMES, st.data())
def test_fusion_associative(p, data):
    r = data.draw(st.integers(1, p - 1))
    s = data.draw(st.integers(1, p - 1))
    t = data.draw(st.integers(1, p - 1))
    left = fusion_tensor(fusion_tensor(simple(p, r), simple(p, s)), simple(p, t))
    right = fusion_tensor(simple(p, r), fusion_tensor(simple(p, s), simple(p, t)))
    assert left == right


def test_fusion_matrices_commute():
    p = 11
    mats = [fusion_matrix(p, r) for r in range(1, p)]
    assert np.array_equal(mats[0], np.eye(p - 1, dtype=int))
    for a in mats:
        for b in mats:
            assert np.array_equal(a @ b, b @ a)


def test_fpdim_golden_ratio():
    assert abs(fpdim_simple(5, 2) - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(fpdim_simple(7, 1) - 1.0) < 1e-12
    assert abs(fpdim(simple(5, 2) + simple(5, 2)) - (1 + math.sqrt(5))) < 1e-12


def test_fpdim_perron_agrees_with_sine_formula():
    for p in (2, 3, 5, 7, 13):
        vec = fpdim_perron(p)
        for r in range(1, p):
            assert abs(vec[r - 1] - fpdim_simple(p, r)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(FUSION_PRIMES, st.data())
def test_fpdim_is_multiplicative(p, data):
    r = data.draw(st.integers(1, p - 1))
    s = data.draw(st.integers(1, p - 1))
    prod = fusion_tensor(simple(p, r), simple(p, s))
    assert abs(fpdim(prod) - fpdim_simple(p, r) * fpdim_simple(p, s)) < 1e-9


def test_semisimplify_drops_full_blocks():
    m = jordan_module(3, 3, (3, 2, 1))
    assert semisimplify(m).mult == (1, 1)
    with pytest.raises(ValueError):
        semisimplify(jordan_module(3, 4, (4,)))
    with pytest.raises(ValueError):
        semisimplify("not a module")


def test_semisimplify_rep_and_module_routes_agree():
    for p in (2, 3, 5):
        for seed in range(5):
            rep = random_cyclic_rep(p, 6, seed)
            via_rep = semisimplify(rep)
            via_module = semisimplify(restrict_to_nilmodule(rep, "a", p))
            assert via_rep == via_module


def test_green_product_matches_dense_tensor():
    # the closed form against Jordan types of the dense tensor products
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                t = decompose_cyclic(tensor(cyclic_rep(p, (a,)), cyclic_rep(p, (b,))))
                assert green_product(p, a, b) == t
                if a < p and b < p:
                    want = tuple(t.multiplicity(k) for k in range(1, p))
                    assert fusion_tensor(simple(p, a), simple(p, b)).mult == want


def test_green_product_known_values_and_errors():
    assert green_product(7, 3, 4).parts == (6, 4, 2)
    assert green_product(7, 5, 4).parts == (7, 7, 4, 2)
    assert green_product(7, 7, 3).parts == (7, 7, 7)
    assert green_product(2, 1, 1).parts == (1,)
    for a, b in ((0, 2), (2, 8)):
        with pytest.raises(ValueError, match="block sizes"):
            green_product(7, a, b)


def test_natfunc_hom_dims_known_module():
    x = jordan_module(5, 4, (3, 2, 2, 1))
    got = natfunc_hom_dims(x, 2)
    # hom = sum min(part, 2); negligible counted blockwise by inclusion-exclusion
    assert got == {
        "hom": 7,
        "negligible": 5,
        "quotient_dim": 2,
        "iso_onto_block_space": True,
    }
    with pytest.raises(ValueError):
        natfunc_hom_dims(x, 5)


def test_cone_coordinates_p5():
    x = concave_weights_to_cone(verlinde_weights(5))
    phi = (1 + math.sqrt(5)) / 2
    assert abs(x[0] - (2 - phi)) < 1e-12
    assert abs(x[1] - (phi - 1)) < 1e-12


def test_cone_p2_edge():
    x = concave_weights_to_cone(verlinde_weights(2))
    assert x.shape == (1,) and abs(x[0] - 1.0) < 1e-12


def test_cone_even_length_weights():
    # the middle coordinate of an even index range takes the step value
    w = WeightVector(4, (0.0, 1.0, 2.0, 1.0, 0.0))
    x = concave_weights_to_cone(w)
    assert np.allclose(x, [0.0, 1.0])


def test_cone_input_validation():
    with pytest.raises(ValueError):
        concave_weights_to_cone(WeightVector(3, (1.0, 1.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        concave_weights_to_cone(WeightVector(3, (0.0, 2.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        # convex kink in the middle
        concave_weights_to_cone(WeightVector(4, (0.0, 1.0, 5.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        WeightVector(3, (0.0, 1.0, 0.0))


def test_cone_report_proportionality():
    for p in (3, 5, 7, 11):
        report = verlinde_cone_report(p)
        assert report["ratio_spread"] < 1e-9
        assert all(v > 0 for v in report["x"])
        assert abs(report["constant_over_tan_half_angle"] - 2.0) < 1e-9
