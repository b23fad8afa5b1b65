"""Executable calculus for operator pairs satisfying [S,T] = 1 in weak sense.

Symbolic normal ordering in the free *-algebra over S, T, S', T', truncated
Fock matrix models with defect measures for the weak / quasi-strong / Weyl
forms of the relation, eigenvector ladders with biorthogonal families and
intertwiners, a weighted-L2 realization on polynomial domains, and the two
uncertainty relations the weak relation implies.

Every name below, and every layer module (``weakcr.fock``), loads its module
on first use, so a caller pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

#: each layer module and the names the package re-exports from it
_EXPORTS = {
    "algebra": (
        "GEN_S", "GEN_SD", "GEN_T", "GEN_TD", "UNBOUNDED", "GaussRational", "NCPoly",
        "PowerProfile", "adjoint", "fock_eval", "is_regular", "normal_order",
        "render",
    ),
    "fock": (
        "OperatorPair", "StateVector", "TruncatedOperator", "basis_state", "boson_pair",
        "coherent_state", "identity", "lowering", "matrix2x2_pair", "quasi_strong_defect",
        "raising", "swanson_pair", "weak_defect", "weyl_defect",
    ),
    "ladder": (
        "LadderFamily", "biorthogonality_gram", "build_ladder", "eigen_check",
        "intertwiners", "kernel_vector", "restricted_spectrum", "tail_mass_membership",
    ),
    "uncertainty": (
        "DeltaReport", "URResult", "delta", "delta_report", "matrix2x2_report",
        "saturation_scan", "swanson_closed_form", "ur1_check", "ur2_check",
    ),
    "weights": (
        "MomentTable", "PolyFunc", "Weight", "apply_S", "apply_T", "gaussian_eigen_check",
        "gaussian_weight", "inner_product", "ladder_length", "moment", "rational_weight",
        "sdagger_pair", "weak_cr_check",
    ),
    "expr": ("parse_to_poly",),
}
_MODULES = (*_EXPORTS, "cli", "errors")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__all__})
