"""Executable calculus for operator pairs satisfying [S,T] = 1 in weak sense.

Symbolic normal ordering in the free *-algebra over S, T, S', T', truncated
Fock matrix models with defect measures for the weak / quasi-strong / Weyl
forms of the relation, eigenvector ladders with biorthogonal families and
intertwiners, a weighted-L2 realization on polynomial domains, and the two
uncertainty relations the weak relation implies.
"""

from .algebra import (
    GEN_S,
    GEN_SD,
    GEN_T,
    GEN_TD,
    UNBOUNDED,
    BoxExpr,
    GaussRational,
    NCPoly,
    PowerProfile,
    adjoint,
    box_level,
    fock_eval,
    is_regular,
    multiply,
    normal_order,
    profile_from_membership,
    render,
)
from .fock import (
    OperatorPair,
    StateVector,
    TruncatedOperator,
    basis_state,
    boson_pair,
    coherent_state,
    identity,
    lowering,
    matrix2x2_pair,
    quasi_strong_defect,
    raising,
    swanson_pair,
    weak_defect,
    weyl_defect,
)
from .ladder import (
    LadderFamily,
    biorthogonality_gram,
    build_ladder,
    commutation_power_check,
    eigen_check,
    intertwiners,
    kernel_vector,
    restricted_spectrum,
    tail_mass_membership,
)
from .uncertainty import (
    DeltaReport,
    URResult,
    delta,
    delta_report,
    matrix2x2_report,
    saturation_scan,
    swanson_closed_form,
    ur1_check,
    ur2_check,
)
from .weights import (
    MomentTable,
    PolyFunc,
    Weight,
    apply_S,
    apply_T,
    gaussian_eigen_check,
    gaussian_weight,
    inner_product,
    ladder_length,
    moment,
    rational_weight,
    sdagger_pair,
    weak_cr_check,
)
from .expr import parse_to_poly, pretty_print

__version__ = "0.1.0"
