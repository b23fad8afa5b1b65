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

States travel as blocks, one state per row: a single state is its
components as a 1 x N block, and a scan reads (labels, block) batches that
``coherent_grid_states`` forms one at a time.  Per-state quantities come
from one pass over the blocks in row slices of at most BATCH_ENTRIES
entries.  It applies S, S', T, T' and C once each to a slice, forms every
residual A x - z x as one elementwise operation on it, and forms each
reduction (the centers, the norms) as one np.vecdot over its rows, which
runs on each row the BLAS dot that np.vdot or the norm runs on one state,
so a batch gives the bits of one state at a time.  A grid scan holds one
batch of states at a time, so its memory grows with its rows, not with its
states.  What depends only on the pair is formed once per pass or per
pair: the cross-condition defect, a polynomial C's matrix, ``lowering(N)``,
and the 2x2 model's pair, so a scan over the 2x2 circle makes one pass.
The 2x2 model's [S, T] = diag(s q, -q s) and its cross-condition defect,
0, are read from their closed forms, with no commutator routine.  Each
state's values leave it as plain numbers, which one rule, ``_bound``,
takes to UR1 or UR2; result objects are built only where a public
function returns one.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClosedFormInconsistencyError,
    DomainParameterError,
    InvalidDimensionError,
    PreconditionError,
    TruncationError,
)
from .fock import (
    OperatorPair,
    StateVector,
    TruncatedOperator,
    _coherent_label,
    coherent_states,
    lowering,
    matrix2x2_pair,
    norm,
    row_norms,
    swanson_pair,
)

SATURATION_TOL = 1e-6

#: entries (states x N) of the block that one batch of ``_pass`` holds: 4 MB of complex
BATCH_ENTRIES = 2**18


def expectation(A: TruncatedOperator, xi: StateVector):
    """<A xi, xi> (the matrix expectation xi^H A xi)."""
    _require_dim(A.dim, xi.dim)
    return complex(np.vdot(xi.components, A @ xi.components))


def _require_dim(n, dim):
    if dim != n:
        raise InvalidDimensionError(f"state of dimension {dim} does not fit operators of dimension {n}")


def _require_unit(length):
    if not abs(length - 1.0) <= 1e-10:  # a NaN norm fails too
        raise PreconditionError(f"state must be unit norm, got {length!r}")


def delta(A: TruncatedOperator, xi: StateVector, z):
    """||(A - z) xi|| for unit xi."""
    _require_dim(A.dim, xi.dim)
    _require_unit(xi.norm)
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
    return DeltaReport(*_pass(pair, xi.components[None], z, w)[0][0])


def _pass(pair, blocks, z=None, w=None, C=None, moments=False):
    """Per unit state, as plain numbers: (dS, dS', dT, dT', z, w), <xi, C xi> and, with ``moments``, (C_phi, E_phi).

    ``blocks`` is one L x N block with one state per C-contiguous row (one
    state is ``xi.components[None]``), or an iterable of such blocks, read
    as it is formed: a scan's batches.  C is None for C = 1 (giving
    |xi|^2), an NCPoly, or an operator; C's matrix and ``lowering(N)`` are
    formed once per call, not once per batch.  Each block is read in row
    slices of BATCH_ENTRIES // N rows, views with no copy.  S, S', T, T' and
    C are each applied once to a slice X (a block matvec gives each state
    bit for bit as a vector matvec), and each residual A x - z x is one
    elementwise operation on X, which does on each entry what it does on
    one vector.  Each reduction is one np.vecdot over X's rows: the norms
    ||x|| (the unit check and <xi, xi> = ||xi||^2), the centers and the
    residual norms, so a batch gives the bits of one state at a time.  No
    rows at all, or a block or C whose dimension is not the pair's, is an
    InvalidDimensionError; a C of any other type, or a state whose norm is
    not 1 (NaN included), is a PreconditionError.  A block's dimension is
    checked before its norms.
    """
    if isinstance(blocks, np.ndarray):
        blocks = (blocks,)
    if C is not None and not isinstance(C, TruncatedOperator):
        from .algebra import NCPoly, fock_eval  # only a polynomial C needs the algebra

        if not isinstance(C, NCPoly):
            raise PreconditionError(f"C must be None, an NCPoly or a TruncatedOperator, got {type(C).__name__}")
        C = fock_eval(C, pair)
    if C is not None and C.dim != pair.dim:
        raise InvalidDimensionError(f"C of dimension {C.dim} does not fit operators of dimension {pair.dim}")
    a = lowering(pair.dim) if moments else None
    size = max(1, BATCH_ENTRIES // pair.dim)
    deltas, c_exps, all_moments = [], [], []
    for block in blocks:
        _require_dim(pair.dim, block.shape[1])
        for start in range(0, len(block), size):
            X = block[start : start + size]
            norms = row_norms(X).tolist()
            for n in norms:
                _require_unit(n)
            XT = np.ascontiguousarray(X.T)
            zs, dS = _residuals(pair.S, X, XT, z)
            dSd = _residuals(pair.S.adjoint(), X, XT, zs.conj())[1]
            ws, dT = _residuals(pair.T, X, XT, w)
            dTd = _residuals(pair.T.adjoint(), X, XT, ws.conj())[1]
            deltas += zip(dS, dSd, dT, dTd, zs.tolist(), ws.tolist())
            if C is None:
                c_exps += [complex(n**2) for n in norms]
            else:
                c_exps += _centers(X, _apply(C, XT)).tolist()
            if moments:
                all_moments += _moments(X, XT, a)
    if not deltas:
        raise InvalidDimensionError("the batch of states is empty")
    return deltas, c_exps, (all_moments if moments else None)


def _apply(A, XT):
    """A applied to each column of the N x L block XT (C order), as L x N contiguous rows.

    On XT each diagonal scales runs of L entries, which at modest N is
    faster than running down each state's column, and each entry gets the
    arithmetic it gets in a vector matvec.  The copy back to rows costs one
    pass over the block.
    """
    return np.ascontiguousarray((A @ XT).T)


def _residuals(A, X, XT, center=None):
    """Centers c (an array) and ||A x - c x|| of the rows x of X, from one product of A with XT = X.T in C order.

    c is <x, A x>, or ``center``: one value, or one per row (S' and T' take the conjugates of S's and T's).
    """
    AX = _apply(A, XT)
    if center is None:
        center = _centers(X, AX)
    elif np.ndim(center) == 0:
        center = np.full(len(X), complex(center))
    AX -= center[:, None] * X
    return center, row_norms(AX).tolist()


def _centers(X, AX):
    """<x, A x> of each row x of X, with A x the same row of AX, as one array.

    np.vecdot conjugates X as np.vdot does, and runs on each row the BLAS
    dot that np.vdot runs on one state, so each center has its bits.
    """
    return np.vecdot(X, AX)


@dataclass(frozen=True)
class URResult:
    lhs: float
    rhs: float
    gap: float  # rhs - lhs; >= 0 means the inequality holds
    saturated: bool
    c_expectation: complex
    cross_condition_defect: float | None = None
    hypothesis_violated: bool = False


def _bound(ur, deltas, c_exp, tol):
    """(lhs, rhs, gap, saturated) of UR1 (ur = 1) or UR2 (ur = 2) from a state's deltas and <xi, C xi>.

    ``deltas`` leads with (dS, dS', dT, dT'); gap = rhs - lhs.  A bound past
    the float range has no gap to report, so it raises DomainParameterError.
    """
    dS, dSd, dT, dTd = deltas[:4]
    if ur == 1:
        lhs, rhs, text = abs(c_exp), 2.0 * max(dS, dSd) * max(dT, dTd), "2 max(dS, dS') max(dT, dT')"
    else:
        lhs, rhs, text = abs(c_exp.real), (dS + dSd) * (dT + dTd), "(dS + dS') (dT + dT')"
    if not math.isfinite(rhs):
        raise DomainParameterError(f"the UR{ur} bound {text} overflows the float range")
    gap = rhs - lhs
    return lhs, rhs, gap, bool(abs(gap) <= tol)


def _cross(pair):
    """UR2's hypothesis fields of a URResult: the pair's cross-condition defect and whether it passes 1e-8."""
    return pair.cross_defect, bool(pair.cross_defect > 1e-8)


def ur1_check(pair, xi, z=None, w=None, C=None, tol=SATURATION_TOL):
    """Max-product inequality: 2 max(dS, dS') max(dT, dT') >= |<xi, C xi>|.

    C defaults to 1, the untruncated relation; a truncated pair's own
    commutator can be passed as C (an NCPoly or an operator).
    """
    (deltas,), (c_exp,), _ = _pass(pair, xi.components[None], z, w, C)
    return URResult(*_bound(1, deltas, c_exp, tol), c_exp)


def ur2_check(pair, xi, C=None, tol=SATURATION_TOL):
    """Sum-product inequality: (dS + dS') (dT + dT') >= |Re <xi, C xi>|.

    C defaults to 1, as in ``ur1_check``.  Needs the cross condition
    [S',T] - [S,T'] = 0; its defect, formed once per pair, is always
    reported and the result is flagged ``hypothesis_violated`` (never
    suppressed) when it exceeds 1e-8.  Only UR2 is evaluated: a UR1 bound
    past the float range does not stop it.
    """
    (deltas,), (c_exp,), _ = _pass(pair, xi.components[None], C=C)
    return URResult(*_bound(2, deltas, c_exp, tol), c_exp, *_cross(pair))


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
    _require_unit(xi.norm)
    x = xi.components
    return SwansonMoments(*_moments(x[None, :], x[:, None], lowering(xi.dim))[0])


def _moments(X, XT, a):
    """(C_phi, E_phi) of the unit states in the rows of X, with XT = X.T in C order and a = lowering(N).

    C_phi is formed as |a x - <a> x|^2, which equals <a* a> - |<a>|^2 for
    unit x without subtracting two numbers of size |<a>|^2, whose rounding
    (about 1e-12 at |<a>| = 50) would swamp a C_phi near zero.
    """
    means, spreads = _residuals(a, X, XT)
    ad = a.adjoint()
    means_ad2 = _centers(X, _apply(ad, ad @ XT)).tolist()
    return [(spread**2, (mean_ad2 - mean_a.conjugate() ** 2).imag)
            for mean_a, mean_ad2, spread in zip(means.tolist(), means_ad2, spreads)]


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
    (matrix,), (c_exp,), ((c, e),) = _pass(pair, xi.components[None], moments=True)
    weight = _edge_weight(xi.components)
    if weight > 1e-5:
        raise TruncationError(
            f"state weight N|x_(N-1)|^2 = {weight:.3e} at dimension {xi.dim} exceeds "
            "1e-5; the truncated a* drops it from the squared deltas",
            tail_mass=weight,
        )
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
    closed = [math.sqrt(max(value, 0.0)) for value in squares.values()]
    return SwansonReport(
        moments=SwansonMoments(c, e),
        deltas=DeltaReport(*closed, *matrix[4:]),
        matrix_deltas=DeltaReport(*matrix),
        matrix_discrepancy=max(abs(a - b) for a, b in zip(closed, matrix)),
    ), c_exp - weight


def _edge_weight(x):
    """w = N |x_(N-1)|^2 of the components x, so that <xi, [S, T] xi> = |xi|^2 - w on a truncated swanson pair."""
    return len(x) * abs(x[-1]) ** 2


def _swanson_state(theta, pair, xi, tol):
    """Closed-form report, UR1 and UR2 of xi for ``pair = swanson_pair(theta, N)``, from one pass."""
    closed, c_exp = _closed_form(theta, pair, xi)
    deltas = closed.matrix_deltas.as_tuple()
    return (closed, URResult(*_bound(1, deltas, c_exp, tol), c_exp),
            URResult(*_bound(2, deltas, c_exp, tol), c_exp, *_cross(pair)))


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

    The commutator [S, T] = s q diag(1, -1), read from its closed form, is
    the C fed to both inequalities; it is not the identity, so the
    generalized forms are the meaningful ones.  The cross condition holds
    exactly: S = s a and T = q a* give [S', T] = s-bar q [a*, a*] = 0 and
    [S, T'] = s q-bar [a, a] = 0, so UR2's defect is 0.0.  This is the
    one-state case of ``_matrix2x2_values``.
    """
    deltas, closed, discrepancy, ur1, ur2, c_exp, *conditions = _matrix2x2_values(s, q, [(phi1, phi2)], tol)[0]
    return Matrix2x2Report(DeltaReport(*deltas), closed, discrepancy, URResult(*ur1, c_exp),
                           URResult(*ur2, c_exp, 0.0, False), *conditions)


def _matrix2x2_values(s, q, phis, tol):
    """Per state (phi1, phi2), from one pair and one pass: (deltas, closed-form deltas, their
    discrepancy, UR1's and UR2's ``_bound``, <xi, C xi>, then each condition's value and flag).

    C = [S, T] = s q (1 - N e_1 e_1^T) = diag(s q, -q s): each product is
    summed into zero as ``band_product`` sums it, and q s is subtracted from
    zero as ``relation_block`` subtracts it, so C has that routine's bits,
    signed zeros included.
    """
    phis = [(complex(phi1), complex(phi2)) for phi1, phi2 in phis]
    pair = matrix2x2_pair(s, q)
    sq, qs = np.zeros(2, complex) + np.array([s, q], complex) * np.array([q, s], complex)
    commutator = TruncatedOperator.banded((0, [[sq, 0j - qs]]))
    values = []
    for (phi1, phi2), deltas, c_exp in zip(phis, *_pass(pair, np.array(phis).reshape(-1, 2), C=commutator)[:2]):
        p1, p2 = abs(phi1) ** 2, abs(phi2) ** 2
        closed = (abs(s) * p2, abs(s) * p1, abs(q) * p1, abs(q) * p2)
        ur1_value = abs(p1 - p2)
        ur2_value = max(p1, p2) - math.sqrt(abs(p1 - p2) / 2.0)
        values.append((deltas, closed, max(abs(a - b) for a, b in zip(closed, deltas)),
                       _bound(1, deltas, c_exp, tol), _bound(2, deltas, c_exp, tol), c_exp,
                       ur1_value, bool(abs(ur1_value - 1.0) <= tol), ur2_value, bool(abs(ur2_value) <= tol)))
    return values


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
    """Labeled probe states as (labels, block) batches: an nx-by-ny coherent grid on [-1, 1]^2, then e0..e4.

    The arguments are checked here; the basis probes need dim >= 5.  The
    batches are then formed one at a time, as the scan reads them: each
    coherent batch is one ``coherent_states`` block of BATCH_ENTRIES // dim
    rows, as ``_pass`` reads them, and the basis probes are the last batch.
    """
    try:
        nx, ny = operator.index(nx), operator.index(ny)
    except TypeError:
        raise DomainParameterError(f"a coherent grid needs integral counts, got nx = {nx!r}, ny = {ny!r}") from None
    if nx < 0 or ny < 0:
        raise DomainParameterError(f"a coherent grid needs counts >= 0, got nx = {nx}, ny = {ny}")
    if dim < 5:
        raise InvalidDimensionError(f"a coherent grid's basis probes e0..e4 need dimension >= 5, got {dim}")
    ims = np.linspace(-1.0, 1.0, ny).tolist()
    zs = [complex(re, im) for re in np.linspace(-1.0, 1.0, nx).tolist() for im in ims]
    size = max(1, BATCH_ENTRIES // dim)

    def batches():
        for start in range(0, len(zs), size):
            batch = zs[start : start + size]
            yield [_coherent_label(z) for z in batch], coherent_states(batch, dim)
        yield [f"e{k}" for k in range(5)], np.eye(5, dim, dtype=complex)

    return batches()


def _state_batches(states, dim):
    """A list of StateVectors as one (labels, block) batch; every dimension is checked before any norm."""
    for xi in states:
        _require_dim(dim, xi.dim)
    return [([xi.label for xi in states], np.array([xi.components for xi in states]).reshape(len(states), dim))]


#: the columns of a swanson scan's rows
_SWANSON_COLUMNS = ("state", "C_phi", "E_phi", "ur1_lhs", "ur1_rhs", "ur1_gap", "ur1_saturated",
                    "ur2_lhs", "ur2_rhs", "ur2_gap", "ur2_saturated", "cross_defect",
                    "functional_squared_reading", "functional_linear_reading")


def _swanson_scan(theta, dim, batches, tol):
    """The scan's rows from one pass over (labels, block) batches: each state's values go straight into its row."""
    pair = swanson_pair(theta, dim)
    labels, weights = [], []

    def blocks():  # keeps each batch's labels and edge weights as the pass reads it
        for names, X in batches:
            labels.extend(names)
            weights.extend(map(_edge_weight, X))
            yield X

    defect, rows = pair.cross_defect, []
    for label, weight, deltas, c_exp, (c, e) in zip(labels, weights, *_pass(pair, blocks(), moments=True)):
        c_exp -= weight
        # both readings of the ambiguous quarter-turn saturation functional
        sq_arg = (c + 0.5) ** 2 - e**2
        lin_arg = (c + 0.5) - e**2
        rows.append(dict(zip(_SWANSON_COLUMNS, (
            label, c, e, *_bound(1, deltas, c_exp, tol), *_bound(2, deltas, c_exp, tol), defect,
            math.sqrt(sq_arg) if sq_arg >= 0 else float("nan"),
            math.sqrt(lin_arg) if lin_arg >= 0 else float("nan"),
        ))))
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
        columns=list(_SWANSON_COLUMNS),
        rows=rows,
        summary=summary,
    )


#: the columns of a 2x2 scan's rows
_MATRIX2X2_COLUMNS = ("t", "dS", "dSd", "dT", "dTd", "ur1_gap", "ur1_saturated", "ur2_gap", "ur2_saturated",
                      "ur1_condition_value", "ur1_condition_met", "ur2_condition_value", "ur2_condition_met")


def _matrix2x2_scan(s, q, ts, tol):
    """The scan's rows from one pass: each point's values go straight from its tuples into its row."""
    values = _matrix2x2_values(s, q, [(math.sqrt(t), math.sqrt(1.0 - t)) for t in ts], tol)
    rows = [dict(zip(_MATRIX2X2_COLUMNS, (float(t), *deltas[:4], *ur1[2:], *ur2[2:], *conditions)))
            for t, (deltas, _, _, ur1, ur2, _, *conditions) in zip(ts, values)]
    summary = {
        "ur1_condition_met_at": [r["t"] for r in rows if r["ur1_condition_met"]],
        "ur2_condition_met_any": any(r["ur2_condition_met"] for r in rows),
        "min_ur1_gap": min(r["ur1_gap"] for r in rows),
        "min_ur2_gap": min(r["ur2_gap"] for r in rows),
    }
    return ScanTable(
        model=f"matrix2x2:{s:g},{q:g}",
        columns=list(_MATRIX2X2_COLUMNS),
        rows=rows,
        summary=summary,
    )


def saturation_scan(kind, params=(), dim=64, states=None, grid=None, tol=SATURATION_TOL):
    """Scan a model over probe states (or the 2x2 circle) and tabulate gaps.

    kind: "swanson" (params = (theta,)) or "matrix2x2" (params = (s, q),
    grid = iterable of t values in [0, 1]).  A swanson scan's ``states`` are
    ``coherent_grid_states``' batches (by default its 5 x 5 grid) or a list of StateVectors.
    """
    names = {"swanson": ("theta",), "matrix2x2": ("s", "q")}.get(kind)
    if names is None:
        raise ValueError(f"unknown scan model {kind!r}")
    if len(params) != len(names):
        raise DomainParameterError(f"the {kind} model takes the parameters ({', '.join(names)}), got {tuple(params)!r}")
    if kind == "swanson":
        if states is None:
            states = coherent_grid_states(dim)
        elif not isinstance(states, Iterator):
            states = _state_batches(states, dim)
        return _swanson_scan(*params, dim, states, tol)
    ts = list(grid) if grid is not None else [round(0.1 * i, 10) for i in range(11)]
    outside = [t for t in ts if not 0.0 <= t <= 1.0]
    if outside:
        raise DomainParameterError(f"matrix2x2 scan point t = {outside[0]!r} lies outside [0, 1]")
    return _matrix2x2_scan(*params, ts, tol)
