"""Generalized uncertainties for non-self-adjoint operator pairs.

For unit xi and center z, delta(A, xi, z) = ||(A - z) xi||; at the
expectation center z = <A xi, xi> this is the usual uncertainty.  Two
inequalities follow from the weak commutation relation [S,T] = 1:

    UR1:  |<xi, C xi>|      <=  2 max(dS, dS') max(dT, dT')
    UR2:  |Re <xi, C xi>|   <=  (dS + dS') (dT + dT')

with C = 1 by default; UR2 additionally assumes [S',T] - [S,T'] = 0, whose
defect is measured and reported rather than assumed.  The deformed-pair
closed forms express all four deltas through the two state moments
C_phi = <a* a> - |<a>|^2 and E_phi = Im(<a*^2> - <a*>^2), and the 2x2 model
admits fully explicit formulas; both are cross-validated against direct
matrix computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import NCPoly, fock_eval
from .errors import ClosedFormInconsistencyError, InvalidDimensionError, PreconditionError
from .fock import (
    OperatorPair,
    StateVector,
    TruncatedOperator,
    band_adjoint,
    band_commutator,
    basis_state,
    block_max_abs,
    coherent_state,
    matrix2x2_pair,
    norm,
    swanson_pair,
)

SATURATION_TOL = 1e-6


def expectation(A: TruncatedOperator, xi: StateVector):
    """<A xi, xi> (the matrix expectation xi^H A xi)."""
    return complex(np.vdot(xi.components, A @ xi.components))


def _require_unit(xi: StateVector):
    if abs(xi.norm - 1.0) > 1e-10:
        raise PreconditionError(f"state must be unit norm, got {xi.norm!r}")


def delta(A: TruncatedOperator, xi: StateVector, z):
    """||(A - z) xi|| for unit xi."""
    _require_unit(xi)
    return norm(A @ xi.components - complex(z) * xi.components)


@dataclass(frozen=True)
class DeltaReport:
    """The four uncertainties of a pair at centers (z, z-bar) and (w, w-bar)."""

    dS: float
    dSd: float
    dT: float
    dTd: float
    z: complex
    w: complex
    state_norm: float

    def as_tuple(self):
        return (self.dS, self.dSd, self.dT, self.dTd)


def delta_report(pair: OperatorPair, xi: StateVector, z=None, w=None):
    """Deltas of S, S', T, T' on xi; centers default to the expectations."""
    _require_unit(xi)
    x = xi.components
    Sx, Tx = pair.S @ x, pair.T @ x
    z = complex(np.vdot(x, Sx) if z is None else z)
    w = complex(np.vdot(x, Tx) if w is None else w)
    return DeltaReport(
        dS=norm(Sx - z * x),
        dSd=norm(pair.S.adjoint() @ x - z.conjugate() * x),
        dT=norm(Tx - w * x),
        dTd=norm(pair.T.adjoint() @ x - w.conjugate() * x),
        z=z,
        w=w,
        state_norm=xi.norm,
    )


@dataclass(frozen=True)
class URResult:
    kind: str
    lhs: float
    rhs: float
    gap: float  # rhs - lhs; >= 0 means the inequality holds
    saturated: bool
    c_expectation: complex
    cross_condition_defect: float | None = None
    hypothesis_violated: bool = False


def _c_expectation(pair, xi, C):
    if C is None:
        return complex(xi.norm**2)
    mat = fock_eval(C, pair) if isinstance(C, NCPoly) else C
    return expectation(mat, xi)


def _ur(kind, lhs, rhs, c_exp, tol, **hypothesis):
    gap = rhs - lhs
    return URResult(kind=kind, lhs=lhs, rhs=rhs, gap=gap, saturated=bool(abs(gap) <= tol),
                    c_expectation=c_exp, **hypothesis)


def _ur1(report: DeltaReport, c_exp, tol):
    rhs = 2.0 * max(report.dS, report.dSd) * max(report.dT, report.dTd)
    return _ur("UR1", abs(c_exp), rhs, c_exp, tol)


def _ur2(report: DeltaReport, c_exp, defect, tol):
    rhs = (report.dS + report.dSd) * (report.dT + report.dTd)
    return _ur("UR2", abs(c_exp.real), rhs, c_exp, tol,
               cross_condition_defect=defect, hypothesis_violated=bool(defect > 1e-8))


def ur1_check(pair, xi, z=None, w=None, C=None, tol=SATURATION_TOL):
    """Max-product inequality: 2 max(dS, dS') max(dT, dT') >= |<xi, C xi>|."""
    return _ur1(delta_report(pair, xi, z=z, w=w), _c_expectation(pair, xi, C), tol)


def cross_condition_defect(pair):
    """Entrywise defect of [S', T] = [S, T'] on the safe block.

    Since [S, T'] = -[S', T]', the defect matrix is X + X' with X = [S', T],
    one commutator formed on the diagonals of S and T.
    """
    X = band_commutator(band_adjoint(pair.S.diagonals), pair.T.diagonals)
    return block_max_abs(X + band_adjoint(X), pair.safe_rank)


def ur2_check(pair, xi, C=None, tol=SATURATION_TOL):
    """Sum-product inequality: (dS + dS') (dT + dT') >= |Re <xi, C xi>|.

    Needs the cross condition [S',T] - [S,T'] = 0; its defect is always
    computed and the result is flagged ``hypothesis_violated`` (never
    suppressed) when the defect exceeds 1e-8.
    """
    return _ur2(delta_report(pair, xi), _c_expectation(pair, xi, C), cross_condition_defect(pair), tol)


# ---------------------------------------------------------------------------
# deformed-pair closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwansonMoments:
    """State moments driving the closed forms; C_phi >= 0 always."""

    C_phi: float
    E_phi: float


def swanson_moments(xi: StateVector):
    """C_phi = <a* a> - |<a>|^2 and E_phi = Im(<a*^2> - <a*>^2) for unit xi."""
    _require_unit(xi)
    if xi.dim < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {xi.dim}")
    # a and a* act as index shifts weighted by sqrt(k): a e_k = sqrt(k) e_(k-1)
    x = xi.components
    root = np.sqrt(np.arange(1, xi.dim))
    zero = np.zeros(1, dtype=complex)
    a_x = np.concatenate((root * x[1:], zero))
    ad_x = np.concatenate((zero, root * x[:-1]))
    mean_a = complex(np.vdot(x, a_x))
    mean_n = complex(np.vdot(x, np.concatenate((zero, root * a_x[:-1]))))
    mean_ad2 = complex(np.vdot(x, np.concatenate((zero, root * ad_x[:-1]))))
    c_phi = mean_n.real - abs(mean_a) ** 2
    e_phi = (mean_ad2 - mean_a.conjugate() ** 2).imag
    return SwansonMoments(C_phi=c_phi, E_phi=e_phi)


@dataclass(frozen=True)
class SwansonReport:
    moments: SwansonMoments
    deltas: DeltaReport
    matrix_deltas: DeltaReport
    matrix_discrepancy: float


def swanson_closed_form(theta, xi: StateVector):
    """Closed-form deltas of the deformed pair, checked against the matrices.

    (dS)^2 = C + sin^2(t) - sin(2t) E        (dS')^2 = C + cos^2(t) - sin(2t) E
    (dT)^2 = C + cos^2(t) + sin(2t) E        (dT')^2 = C + sin^2(t) + sin(2t) E

    A squared delta below -1e-12 signals a truncation failure and raises;
    tiny negatives are clipped to zero.
    """
    moments = swanson_moments(xi)
    c, e = moments.C_phi, moments.E_phi
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    s2t = math.sin(2.0 * theta)
    squares = {
        "dS": c + s2 - s2t * e,
        "dSd": c + c2 - s2t * e,
        "dT": c + c2 + s2t * e,
        "dTd": c + s2 + s2t * e,
    }
    for name, value in squares.items():
        if value < -1e-12:
            raise ClosedFormInconsistencyError(
                f"closed form ({name})^2 = {value:.3e} is negative"
            )
    pair = swanson_pair(theta, xi.dim)
    matrix = delta_report(pair, xi)
    closed = DeltaReport(
        dS=math.sqrt(max(squares["dS"], 0.0)),
        dSd=math.sqrt(max(squares["dSd"], 0.0)),
        dT=math.sqrt(max(squares["dT"], 0.0)),
        dTd=math.sqrt(max(squares["dTd"], 0.0)),
        z=matrix.z,
        w=matrix.w,
        state_norm=xi.norm,
    )
    discrepancy = max(
        abs(a - b) for a, b in zip(closed.as_tuple(), matrix.as_tuple())
    )
    return SwansonReport(
        moments=moments,
        deltas=closed,
        matrix_deltas=matrix,
        matrix_discrepancy=discrepancy,
    )


# ---------------------------------------------------------------------------
# the 2x2 model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix2x2Report:
    """Closed forms, their matrix cross-check, both inequalities, and the
    model's explicit saturation conditions.

    ``ur1_condition_value`` is ||phi1|^2 - |phi2|^2| (saturation when it
    equals 1) and ``ur2_condition_value`` is
    max(|phi1|^2, |phi2|^2) - sqrt(||phi1|^2 - |phi2|^2| / 2) (saturation
    when it vanishes, which never happens on the unit circle).
    """

    deltas: DeltaReport
    closed_form_deltas: tuple
    closed_form_discrepancy: float
    ur1: URResult
    ur2: URResult
    ur1_condition_value: float
    ur1_condition_met: bool
    ur2_condition_value: float
    ur2_condition_met: bool


def matrix2x2_report(s, q, phi1, phi2, tol=SATURATION_TOL):
    """Everything about the model S = [[0,s],[0,0]], T = [[0,0],[q,0]].

    The commutator [S, T] = s q diag(1, -1) is computed symbolically and fed
    to both inequalities; it is not the identity, so the generalized forms
    are the meaningful ones.
    """
    phi1, phi2 = complex(phi1), complex(phi2)
    xi = StateVector(np.array([phi1, phi2]), label="phi")
    _require_unit(xi)
    pair = matrix2x2_pair(s, q)
    p1, p2 = abs(phi1) ** 2, abs(phi2) ** 2

    closed = (abs(s) * p2, abs(s) * p1, abs(q) * p1, abs(q) * p2)
    deltas = delta_report(pair, xi)
    discrepancy = max(abs(a - b) for a, b in zip(closed, deltas.as_tuple()))

    S_gen, T_gen = NCPoly.gen("S"), NCPoly.gen("T")
    c_exp = _c_expectation(pair, xi, S_gen * T_gen - T_gen * S_gen)
    ur1 = _ur1(deltas, c_exp, tol)
    ur2 = _ur2(deltas, c_exp, cross_condition_defect(pair), tol)

    ur1_value = abs(p1 - p2)
    ur2_value = max(p1, p2) - math.sqrt(abs(p1 - p2) / 2.0)
    return Matrix2x2Report(
        deltas=deltas,
        closed_form_deltas=closed,
        closed_form_discrepancy=discrepancy,
        ur1=ur1,
        ur2=ur2,
        ur1_condition_value=ur1_value,
        ur1_condition_met=bool(abs(ur1_value - 1.0) <= tol),
        ur2_condition_value=ur2_value,
        ur2_condition_met=bool(abs(ur2_value) <= tol),
    )


# ---------------------------------------------------------------------------
# saturation scans
# ---------------------------------------------------------------------------


@dataclass
class ScanTable:
    model: str
    columns: list
    rows: list
    summary: dict


def coherent_grid_states(dim, nx=5, ny=5):
    """Labeled probe states: an nx-by-ny coherent grid on [-1, 1]^2 plus e0..e4."""
    states = []
    for re in np.linspace(-1.0, 1.0, nx):
        for im in np.linspace(-1.0, 1.0, ny):
            z = complex(re, im)
            states.append(coherent_state(z, dim))
    for k in range(5):
        states.append(basis_state(k, dim))
    return states


def _swanson_scan(theta, dim, states, tol):
    rows = []
    pair = swanson_pair(theta, dim)
    defect = cross_condition_defect(pair)
    for xi in states:
        moments = swanson_moments(xi)
        deltas = delta_report(pair, xi)
        c_exp = _c_expectation(pair, xi, None)
        ur1 = _ur1(deltas, c_exp, tol)
        ur2 = _ur2(deltas, c_exp, defect, tol)
        c, e = moments.C_phi, moments.E_phi
        # both readings of the ambiguous quarter-turn saturation functional
        sq_arg = (c + 0.5) ** 2 - e**2
        lin_arg = (c + 0.5) - e**2
        rows.append(
            {
                "state": xi.label,
                "C_phi": c,
                "E_phi": e,
                "ur1_lhs": ur1.lhs,
                "ur1_rhs": ur1.rhs,
                "ur1_gap": ur1.gap,
                "ur1_saturated": ur1.saturated,
                "ur2_lhs": ur2.lhs,
                "ur2_rhs": ur2.rhs,
                "ur2_gap": ur2.gap,
                "ur2_saturated": ur2.saturated,
                "cross_defect": ur2.cross_condition_defect,
                "functional_squared_reading": math.sqrt(sq_arg) if sq_arg >= 0 else float("nan"),
                "functional_linear_reading": math.sqrt(lin_arg) if lin_arg >= 0 else float("nan"),
            }
        )
    f_sq = [r["functional_squared_reading"] for r in rows if not math.isnan(r["functional_squared_reading"])]
    summary = {
        "min_ur1_gap": min(r["ur1_gap"] for r in rows),
        "min_ur2_gap": min(r["ur2_gap"] for r in rows),
        "ur1_saturated_count": sum(r["ur1_saturated"] for r in rows),
        "ur2_saturated_count": sum(r["ur2_saturated"] for r in rows),
        "min_abs_functional_sq_minus_half": min(abs(f - 0.5) for f in f_sq),
        "min_abs_functional_sq_minus_quarter": min(abs(f - 0.25) for f in f_sq),
    }
    return ScanTable(
        model=f"swanson:{theta:g}",
        columns=list(rows[0].keys()),
        rows=rows,
        summary=summary,
    )


def _matrix2x2_scan(s, q, ts, tol):
    rows = []
    for t in ts:
        report = matrix2x2_report(s, q, math.sqrt(t), math.sqrt(1.0 - t), tol=tol)
        rows.append(
            {
                "t": float(t),
                "dS": report.deltas.dS,
                "dSd": report.deltas.dSd,
                "dT": report.deltas.dT,
                "dTd": report.deltas.dTd,
                "ur1_gap": report.ur1.gap,
                "ur1_saturated": report.ur1.saturated,
                "ur2_gap": report.ur2.gap,
                "ur2_saturated": report.ur2.saturated,
                "ur1_condition_value": report.ur1_condition_value,
                "ur1_condition_met": report.ur1_condition_met,
                "ur2_condition_value": report.ur2_condition_value,
                "ur2_condition_met": report.ur2_condition_met,
            }
        )
    summary = {
        "ur1_condition_met_at": [r["t"] for r in rows if r["ur1_condition_met"]],
        "ur2_condition_met_any": any(r["ur2_condition_met"] for r in rows),
        "min_ur1_gap": min(r["ur1_gap"] for r in rows),
        "min_ur2_gap": min(r["ur2_gap"] for r in rows),
    }
    return ScanTable(
        model=f"matrix2x2:{s:g},{q:g}",
        columns=list(rows[0].keys()),
        rows=rows,
        summary=summary,
    )


def saturation_scan(kind, params=(), dim=64, states=None, grid=None, tol=SATURATION_TOL):
    """Scan a model over probe states (or the 2x2 circle) and tabulate gaps.

    kind: "swanson" (params = (theta,)), "boson_rotation" (the quarter-turn
    pair), or "matrix2x2" (params = (s, q), grid = iterable of t values).
    """
    if kind == "boson_rotation":
        kind, params = "swanson", (math.pi / 4.0,)
    if kind == "swanson":
        (theta,) = params
        if states is None:
            states = coherent_grid_states(dim)
        return _swanson_scan(theta, dim, states, tol)
    if kind == "matrix2x2":
        s, q = params
        ts = grid if grid is not None else [round(0.1 * i, 10) for i in range(11)]
        return _matrix2x2_scan(s, q, ts, tol)
    raise ValueError(f"unknown scan model {kind!r}")
