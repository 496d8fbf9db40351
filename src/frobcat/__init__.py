"""Exact mod-p functor calculus at desk scale.

Kernel/image subquotients of nilpotent operators, the fusion ring of the
semisimplified cyclic-group category, and the shift functors on p-th tensor
powers, all over F_p with integer matrices and explicit budgets.
"""

from .linalg import (
    BudgetError,
    Quotient,
    Subspace,
    inverse_mod,
    kron_arrays,
    mat_mul,
    mat_pow,
    nullspace_mod,
    rank_mod,
    rref,
)
from .nilmod import (
    JordanType,
    NilModule,
    ShortExactSeq,
    extension_survey,
    functor_B,
    functor_E,
    jordan_module,
    jordan_type,
    multiplicity_vector,
    nil_module,
    random_nil_module,
    rank_sequence,
)
from .repcat import (
    GroupRep,
    GroupSpec,
    SymmetricTower,
    cyclic_group,
    cyclic_rep,
    decompose_cyclic,
    direct_sum,
    rep_from_json,
    rep_to_json,
    symmetric_group,
    tensor,
    trivial_rep,
    validate,
)
from .verlinde import (
    FusionElement,
    fpdim_simple,
    fusion_tensor,
    semisimplify,
    verlinde_cone_report,
    verlinde_weights,
)
from .frobenius import (
    DIM_CAPS,
    CyclicPower,
    FrobeniusImage,
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
from .series import TruncSeries, growth_check, hilbert_coeffs
from .seeding import mix64, rng_for

__version__ = "0.1.0"
