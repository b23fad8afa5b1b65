"""Generalized uncertainties for non-self-adjoint operator pairs.

For unit xi and center z, delta(A, xi, z) = ||(A - z) xi||; at the
expectation center z = <A xi, xi> this is the usual uncertainty.  Two
inequalities follow from the weak commutation relation [S,T] = 1:

    UR1:  |<xi, C xi>|      <=  2 max(dS, dS') max(dT, dT')
    UR2:  |Re <xi, C xi>|   <=  (dS + dS') (dT + dT')

with C = 1 by default; the swanson reports and scans pass the truncated
pair's own <xi, [S, T] xi> = |xi|^2 - N |x_(N-1)|^2 instead.  UR2
additionally assumes [S',T] - [S,T'] = 0, whose defect is measured and
reported rather than assumed.  The deformed-pair closed forms express all
four deltas through the two state moments C_phi = <a* a> - |<a>|^2 and
E_phi = Im(<a*^2> - <a*>^2) plus the exact weight the truncation drops,
and the 2x2 model admits fully explicit formulas; both are cross-validated
against direct matrix computation.

Per-state quantities come from one pass that applies S, S', T, T' and C once
each to the N x L block of a batch of states, and reduces each state on its
own contiguous column, so a batch gives the bits of one state at a time.
What depends only on the pair is formed once per pair and batch: the
cross-condition defect, a polynomial C's matrix, and the 2x2 model's pair
and [S, T], so a scan over the 2x2 circle makes one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormInconsistencyError, DomainParameterError, PreconditionError, TruncationError
from .fock import (
    OperatorPair,
    StateVector,
    TruncatedOperator,
    basis_state,
    coherent_state,
    lowering,
    matrix2x2_pair,
    norm,
    relation_block,
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

    def as_tuple(self):
        return (self.dS, self.dSd, self.dT, self.dTd)


def delta_report(pair: OperatorPair, xi: StateVector, z=None, w=None):
    """Deltas of S, S', T, T' on xi; centers default to the expectations.

    This is the one-state case of ``_pass``, the batch pass every check reads.
    """
    return _pass(pair, [xi], z, w)[0][0]


def _pass(pair, states, z=None, w=None, C=None, moments=False):
    """DeltaReports, <xi, C xi> and, with ``moments``, SwansonMoments of a batch of unit states.

    C is None for C = 1 (giving |xi|^2), an NCPoly, evaluated by fock_eval
    once per batch, or an operator.  S, S', T, T' and C are each applied
    once to the column-major N x L block X of the states.  A block matvec
    gives each column bit for bit as a vector matvec, and every product's
    columns stay contiguous, so each reduction (np.vdot, norm) sees the
    vectors a single state would.
    """
    for xi in states:
        _require_unit(xi)
    xs = [xi.components for xi in states]
    X = np.array(xs).T
    if C is not None and not isinstance(C, TruncatedOperator):
        from .algebra import NCPoly, fock_eval  # only a polynomial C needs the algebra

        if isinstance(C, NCPoly):
            C = fock_eval(C, pair)
    SX, SdX, TX, TdX = ((A @ X).T for A in (pair.S, pair.S.adjoint(), pair.T, pair.T.adjoint()))
    CX = [None] * len(xs) if C is None else (C @ X).T
    reports, c_exps = [], []
    for xi, x, Sx, Sdx, Tx, Tdx, Cx in zip(states, xs, SX, SdX, TX, TdX, CX):
        zj = complex(np.vdot(x, Sx) if z is None else z)
        wj = complex(np.vdot(x, Tx) if w is None else w)
        reports.append(DeltaReport(
            dS=norm(Sx - zj * x),
            dSd=norm(Sdx - zj.conjugate() * x),
            dT=norm(Tx - wj * x),
            dTd=norm(Tdx - wj.conjugate() * x),
            z=zj,
            w=wj,
        ))
        c_exps.append(complex(xi.norm**2) if Cx is None else complex(np.vdot(x, Cx)))
    return reports, c_exps, (_moments(X, xs) if moments else None)


@dataclass(frozen=True)
class URResult:
    lhs: float
    rhs: float
    gap: float  # rhs - lhs; >= 0 means the inequality holds
    saturated: bool
    c_expectation: complex
    cross_condition_defect: float | None = None
    hypothesis_violated: bool = False


def _ur(bound, lhs, rhs, c_exp, tol, **hypothesis):
    """The URResult of lhs <= rhs; a bound past the float range has no gap to report."""
    if not math.isfinite(rhs):
        raise DomainParameterError(f"the {bound} overflows the float range")
    gap = rhs - lhs
    return URResult(lhs=lhs, rhs=rhs, gap=gap, saturated=bool(abs(gap) <= tol),
                    c_expectation=c_exp, **hypothesis)


def _ur1(report: DeltaReport, c_exp, tol):
    rhs = 2.0 * max(report.dS, report.dSd) * max(report.dT, report.dTd)
    return _ur("UR1 bound 2 max(dS, dS') max(dT, dT')", abs(c_exp), rhs, c_exp, tol)


def _ur2(report: DeltaReport, c_exp, defect, tol):
    rhs = (report.dS + report.dSd) * (report.dT + report.dTd)
    return _ur("UR2 bound (dS + dS') (dT + dT')", abs(c_exp.real), rhs, c_exp, tol,
               cross_condition_defect=defect, hypothesis_violated=bool(defect > 1e-8))


def ur1_check(pair, xi, z=None, w=None, C=None, tol=SATURATION_TOL):
    """Max-product inequality: 2 max(dS, dS') max(dT, dT') >= |<xi, C xi>|.

    C defaults to 1, the untruncated relation; a truncated pair's own
    commutator can be passed as C (an NCPoly or an operator).
    """
    (report,), (c_exp,), _ = _pass(pair, [xi], z, w, C)
    return _ur1(report, c_exp, tol)


def ur2_check(pair, xi, C=None, tol=SATURATION_TOL):
    """Sum-product inequality: (dS + dS') (dT + dT') >= |Re <xi, C xi>|.

    C defaults to 1, as in ``ur1_check``.  Needs the cross condition
    [S',T] - [S,T'] = 0; its defect, formed once per pair, is always
    reported and the result is flagged ``hypothesis_violated`` (never
    suppressed) when it exceeds 1e-8.
    """
    (report,), (c_exp,), _ = _pass(pair, [xi], C=C)
    return _ur2(report, c_exp, pair.cross_defect, tol)


# ---------------------------------------------------------------------------
# deformed-pair closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwansonMoments:
    """State moments driving the closed forms; C_phi >= 0 always."""

    C_phi: float
    E_phi: float


def swanson_moments(xi: StateVector):
    """C_phi = <a* a> - |<a>|^2 and E_phi = Im(<a*^2> - <a*>^2) for unit xi.

    a = lowering(N) and a* = raising(N) act on xi as on a batch in ``_pass``;
    C_phi is formed as |a xi - <a> xi|^2, without cancellation.
    """
    _require_unit(xi)
    return _moments(xi.components[:, None], [xi.components])[0]


def _moments(X, xs):
    """SwansonMoments of the unit states xs, the columns of the N x L block X.

    C_phi is formed as |a x - <a> x|^2, which equals <a* a> - |<a>|^2 for
    unit x without subtracting two numbers of size |<a>|^2, whose rounding
    (about 1e-12 at |<a>| = 50) would swamp a C_phi near zero.
    """
    a = lowering(X.shape[0])
    ad = a.adjoint()
    aX = a @ X
    moments = []
    for x, ax, ad2x in zip(xs, aX.T, (ad @ (ad @ X)).T):
        mean_a = complex(np.vdot(x, ax))
        mean_ad2 = complex(np.vdot(x, ad2x))
        moments.append(SwansonMoments(C_phi=norm(ax - mean_a * x) ** 2,
                                      E_phi=(mean_ad2 - mean_a.conjugate() ** 2).imag))
    return moments


@dataclass(frozen=True)
class SwansonReport:
    moments: SwansonMoments
    deltas: DeltaReport
    matrix_deltas: DeltaReport
    matrix_discrepancy: float


def swanson_closed_form(theta, xi: StateVector):
    """Closed-form deltas of the deformed pair, checked against the matrices.

    With w = N |x_(N-1)|^2, the weight the truncated a* loses (it sends
    e_(N-1) to 0):

    (dS)^2 = C + sin^2(t) - sin(2t) E - sin^2(t) w
    (dS')^2 = C + cos^2(t) - sin(2t) E - cos^2(t) w
    (dT)^2 = C + cos^2(t) + sin(2t) E - cos^2(t) w
    (dT')^2 = C + sin^2(t) + sin(2t) E - sin^2(t) w

    Without the w terms these are the untruncated pair's identities.  The
    truncation also gives <xi, [S, T] xi> = 1 - w, so w is the weak-relation
    defect on xi, and the swanson UR checks take 1 - w as <xi, C xi>.  Past
    1e-5 (above the 2.9e-6 of any state coherent_state accepts) a
    TruncationError carrying w is raised instead of a report.  A squared
    delta below -1e-12 raises as well; tiny negatives are clipped to zero.
    """
    return _closed_form(theta, swanson_pair(theta, xi.dim), xi)[0]


def _closed_form(theta, pair, xi):
    """The SwansonReport and <xi, [S, T] xi> of xi for ``pair = swanson_pair(theta, N)``, from one pass."""
    (matrix,), (c_exp,), (moments,) = _pass(pair, [xi], moments=True)
    weight = _edge_weight(xi)
    if weight > 1e-5:
        raise TruncationError(
            f"state weight N|x_(N-1)|^2 = {weight:.3e} at dimension {xi.dim} exceeds "
            "1e-5; the truncated a* drops it from the squared deltas",
            tail_mass=weight,
        )
    c, e = moments.C_phi, moments.E_phi
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    s2t = math.sin(2.0 * theta)
    squares = {
        "dS": c + s2 - s2t * e - s2 * weight,
        "dSd": c + c2 - s2t * e - c2 * weight,
        "dT": c + c2 + s2t * e - c2 * weight,
        "dTd": c + s2 + s2t * e - s2 * weight,
    }
    for name, value in squares.items():
        if value < -1e-12:
            raise ClosedFormInconsistencyError(
                f"closed form ({name})^2 = {value:.3e} is negative"
            )
    closed = DeltaReport(
        dS=math.sqrt(max(squares["dS"], 0.0)),
        dSd=math.sqrt(max(squares["dSd"], 0.0)),
        dT=math.sqrt(max(squares["dT"], 0.0)),
        dTd=math.sqrt(max(squares["dTd"], 0.0)),
        z=matrix.z,
        w=matrix.w,
    )
    discrepancy = max(
        abs(a - b) for a, b in zip(closed.as_tuple(), matrix.as_tuple())
    )
    return SwansonReport(
        moments=moments,
        deltas=closed,
        matrix_deltas=matrix,
        matrix_discrepancy=discrepancy,
    ), c_exp - weight


def _edge_weight(xi):
    """w = N |x_(N-1)|^2, so that <xi, [S, T] xi> = |xi|^2 - w on a truncated swanson pair."""
    return xi.dim * abs(xi.components[-1]) ** 2


def _swanson_state(theta, pair, xi, tol):
    """Closed-form report, UR1 and UR2 of xi for ``pair = swanson_pair(theta, N)``, from one pass."""
    closed, c_exp = _closed_form(theta, pair, xi)
    deltas = closed.matrix_deltas
    return closed, _ur1(deltas, c_exp, tol), _ur2(deltas, c_exp, pair.cross_defect, tol)


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

    The commutator [S, T] = s q diag(1, -1), the pair's ``relation_block``,
    is the C fed to both inequalities; it is not the
    identity, so the generalized forms are the meaningful ones.  This is the
    one-state case of ``_matrix2x2_reports``.
    """
    return _matrix2x2_reports(s, q, [(phi1, phi2)], tol)[0]


def _matrix2x2_reports(s, q, phis, tol):
    """Matrix2x2Reports of the states (phi1, phi2) in ``phis``, from one pair and one pass.

    The pair, its [S, T] and its cross-condition defect are formed once.
    """
    phis = [(complex(phi1), complex(phi2)) for phi1, phi2 in phis]
    states = [StateVector(np.array(phi), label="phi") for phi in phis]
    pair = matrix2x2_pair(s, q)
    commutator = TruncatedOperator.banded(relation_block(pair.S.band, pair.T.band, pair.dim)[0])
    all_deltas, c_exps, _ = _pass(pair, states, C=commutator)
    reports = []
    for (phi1, phi2), deltas, c_exp in zip(phis, all_deltas, c_exps):
        p1, p2 = abs(phi1) ** 2, abs(phi2) ** 2
        closed = (abs(s) * p2, abs(s) * p1, abs(q) * p1, abs(q) * p2)
        ur1_value = abs(p1 - p2)
        ur2_value = max(p1, p2) - math.sqrt(abs(p1 - p2) / 2.0)
        reports.append(Matrix2x2Report(
            deltas=deltas,
            closed_form_deltas=closed,
            closed_form_discrepancy=max(abs(a - b) for a, b in zip(closed, deltas.as_tuple())),
            ur1=_ur1(deltas, c_exp, tol),
            ur2=_ur2(deltas, c_exp, pair.cross_defect, tol),
            ur1_condition_value=ur1_value,
            ur1_condition_met=bool(abs(ur1_value - 1.0) <= tol),
            ur2_condition_value=ur2_value,
            ur2_condition_met=bool(abs(ur2_value) <= tol),
        ))
    return reports


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
    for xi, deltas, c_exp, moments in zip(states, *_pass(pair, states, moments=True)):
        c_exp -= _edge_weight(xi)
        ur1 = _ur1(deltas, c_exp, tol)
        ur2 = _ur2(deltas, c_exp, pair.cross_defect, tol)
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
    reports = _matrix2x2_reports(s, q, [(math.sqrt(t), math.sqrt(1.0 - t)) for t in ts], tol)
    for t, report in zip(ts, reports):
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

    kind: "swanson" (params = (theta,)) or "matrix2x2" (params = (s, q),
    grid = iterable of t values).
    """
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
