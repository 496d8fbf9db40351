"""Exact mod-p functor calculus at desk scale.

Kernel/image subquotients of nilpotent operators, the fusion ring of the
semisimplified cyclic-group category, and the shift functors on p-th tensor
powers, all over F_p with integer matrices and explicit budgets.
"""

from .linalg import (
    BudgetError,
    PrimeMatrix,
    Quotient,
    Subspace,
    inverse_mod,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    rank_mod,
    rref,
    solve_right,
)
from .nilmod import (
    JordanType,
    NilModule,
    ShortExactSeq,
    direct_sum_module,
    extension_from_phi,
    extension_survey,
    functor_B,
    functor_E,
    functor_L_and_Eis,
    jordan_module,
    jordan_type,
    multiplicity_vector,
    nil_module,
    random_extension,
    random_nil_module,
    rank_sequence,
    split_test,
)
from .repcat import (
    GroupRep,
    GroupSpec,
    SymmetricTower,
    cyclic_group,
    cyclic_rep,
    decompose_cyclic,
    direct_sum,
    dual,
    hom_basis,
    is_projective,
    permutation_rep,
    regular_cyclic_rep,
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
from .verlinde import (
    FusionElement,
    fpdim,
    fpdim_perron,
    fpdim_simple,
    fusion_matrix,
    fusion_tensor,
    natfunc_hom_dims,
    semisimplify,
    verlinde_cone_report,
    verlinde_weights,
)
from .frobenius import (
    DIM_CAPS,
    CyclicPower,
    FrobeniusImage,
    RepSES,
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
    six_periodic_check,
    sp_multiplicity_spaces,
)
from .series import TruncSeries, growth_check, hilbert_coeffs
from .seeding import mix64, rng_for

__version__ = "0.1.0"
