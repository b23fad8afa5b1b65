"""Truncated Fock-space matrix models and commutation-relation defects.

An N-dimensional truncation of the boson pair (a, a*) and its deformations
stands in for the unbounded operators; every identity is checked only on a
leading "safe" block of basis indices, read off the operators' band, that
finite truncation cannot corrupt.  For the semigroup checks that block is
cut by the margin ceil(10 * alpha * sqrt(N)) of ``semigroup_band``, a
heuristic that nothing certifies yet.  Defects come in three strengths: the
weak (inner-product) form, the semigroup form
V_S(alpha) T - T V_S(alpha) = alpha V_S(alpha), and the Weyl form between
two semigroups.

Operators are stored only as a ``Band``, their diagonals at offsets lo..hi;
construction, adjoints, matrix-vector products and every defect work on
those (banded products, and the closed form exp(alpha (x a + y a*)) =
exp(alpha y a*) exp(alpha x a) exp(alpha^2 x y / 2) for each semigroup,
taken in steps where the one product would cancel), so the defect chain
forms nothing of size N x N.  Each band's offsets are fixed when it is
built, so a triangular semigroup is stored and multiplied on its one side
only, and a banded product takes one pass per diagonal of whichever factor
stores fewer, with every entry's sum in the same order either way.  Each
semigroup is formed once per pair and parameter, and shared by the
quasi-strong and Weyl defects; one taken in steps drops, after each step,
the outer diagonals below unit roundoff of the largest entry in each row.
Every relation X Y - c Y X = R, and the UR2 cross condition, is formed by
``relation_block`` on its band's rows only, with its rounding scale;
``weak_with_scale`` and the other ``*_with_scale`` functions return each
defect, the max-abs entry of its block, with its scale, and ``*_defect``
the defect.  The Weyl block's entries cancel far more than the others',
so its scale is the entrywise rounding bound max |V_S||V_T| of the
product, and past a derived limit on that cancellation it gives no verdict
but a ConditioningError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditioningError,
    DomainParameterError,
    InvalidDimensionError,
    TruncationError,
)

DEFAULT_DIM = 128

#: inner product, linear in the first argument
def inner(u, v):
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    return complex(np.vdot(v, u))


def norm(u):
    """The 2-norm of u raveled: np.linalg.norm's arithmetic, sqrt(re.re + im.im), without its dispatch."""
    x = np.asarray(u).ravel()
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(x.dot(x))


def row_norms(X):
    """The 2-norms of the rows of the complex block X as one array: ``norm``'s arithmetic on each row.

    One np.vecdot over the rows of each part runs the BLAS dot that ``norm``
    runs on one row, so each value has the bits ``norm`` gives its row.
    """
    re, im = X.real, X.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


class Band(NamedTuple):
    """A matrix's diagonals at offsets lo..hi: ``diagonals[r, i] = A[i, i + lo + r]``.

    The slots where i + lo + r falls outside the matrix hold zeros, and every
    helper below keeps them so.  ``diagonals`` may have fewer columns than
    the matrix has: then it holds that many leading rows.
    """

    lo: int
    diagonals: np.ndarray

    @property
    def hi(self):
        return self.lo + len(self.diagonals) - 1


@dataclass(frozen=True, init=False, eq=False)
class TruncatedOperator:
    """N x N complex matrix stored only as its ``Band``, the diagonals at offsets lo..hi.

    ``TruncatedOperator(entries)`` reads a dense matrix once, and its band is
    the nonzero pattern's; ``banded((lo, D))`` takes diagonals.
    """

    band: Band

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidDimensionError(f"entries must be a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidDimensionError("entries contain NaN or Inf")
        vars(self).update(band=diagonals(arr))

    @classmethod
    def banded(cls, band):
        """The operator with D[r, i] = A[i, i + lo + r], for band = (lo, D).

        Slots outside the matrix are ignored, and diagonals that miss it dropped.
        """
        lo, D = band
        D = np.array(D, dtype=complex)
        if D.ndim != 2 or D.shape[0] < 1 or D.shape[1] < 1:
            raise InvalidDimensionError(f"diagonals must be a rows x N array with rows, N >= 1, got shape {D.shape}")
        if not isinstance(lo, (int, np.integer)):
            raise InvalidDimensionError(f"the lowest offset must be an integer, got {lo!r}")
        if not np.isfinite(D).all():
            raise InvalidDimensionError("diagonals contain NaN or Inf")
        op = cls.__new__(cls)
        vars(op).update(band=_leading_block(Band(int(lo), D), D.shape[1]))
        return op

    @property
    def dim(self):
        return self.band.diagonals.shape[1]

    @property
    def entries(self):
        """The dense N x N matrix, rebuilt on request (for oracles and word evaluation)."""
        return _dense(self.band)

    def adjoint(self):
        return self._adjoint

    @cached_property
    def _adjoint(self):  # formed once: per-state code applies S' and T' to every state
        return TruncatedOperator.banded(band_adjoint(self.band))

    def __matmul__(self, x):
        """A x for a vector or an N x L block of columns, on the diagonals.

        Diagonal 0 comes first, then +1, -1, +2, -2, ..., each skipped where
        the band has none.
        """
        lo, D = self.band
        hi, n = lo + len(D) - 1, D.shape[1]
        x = np.asarray(x)
        if x.ndim == 2:
            D = D[:, :, None]
        # the zeros take x's memory order, as the product D[-lo] * x does
        y = D[-lo] * x if lo <= 0 <= hi else np.zeros_like(x, dtype=np.result_type(D, x))
        for d in range(1, max(hi, -lo) + 1):
            # each sum goes into a view of y in place; y[a:b] += ... would also store the view back on itself
            if lo <= d <= hi:
                head = y[: n - d]
                head += D[d - lo, : n - d] * x[d:]
            if lo <= -d <= hi:
                tail = y[d:]
                tail += D[-d - lo, d:] * x[: n - d]
        return y


@dataclass(frozen=True)
class StateVector:
    """Complex vector in the truncated model."""

    components: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=complex).reshape(-1)
        if arr.size < 1:
            raise InvalidDimensionError("state vector must have positive length")
        if not np.isfinite(arr).all():
            raise InvalidDimensionError("state vector contains NaN or Inf")
        object.__setattr__(self, "components", arr)

    @property
    def dim(self):
        return self.components.size

    @cached_property
    def norm(self):  # formed once: the one-state checks (delta, swanson_moments) read it on every call
        return norm(self.components)


@dataclass(frozen=True)
class OperatorPair:
    """A pair (S, T) of truncated operators on the same dimension N."""

    S: TruncatedOperator
    T: TruncatedOperator

    def __post_init__(self):
        if self.S.dim != self.T.dim:
            raise InvalidDimensionError("S and T must act on the same truncation")
        if self.S.dim < 2:
            raise InvalidDimensionError(f"need dimension >= 2, got {self.S.dim}")

    @property
    def safe_rank(self):
        """Leading basis vectors on which degree-1 words are free of truncation artifacts.

        A generator with offsets lo..hi moves a basis vector by at most
        max(-lo, hi) indices, so the block of the first N minus the largest
        such reach of S and T (at least 1) is certified; higher-degree checks
        shrink it further.
        """
        S, T = self.S.band, self.T.band
        return self.dim - max(-S.lo, S.hi, -T.lo, T.hi, 1)

    @property
    def dim(self):
        return self.S.dim

    def semigroup(self, generator, alpha):
        """Band of V_S(alpha) = exp(alpha S) ("S") or V_T(alpha) ("T"), formed once per pair.

        The generator must be x a + y a* (DomainParameterError otherwise).
        V is W^s, with W = V(alpha / s) the closed form of ``_exp_ladder``.
        That one product loses digits to cancellation as
        alpha min(|x|, |y|) sqrt(N) grows (at min(|x|, |y|) = 0 it is
        triangular and nothing cancels), so s = ceil(alpha min(|x|, |y|)
        sqrt(N) / 2) steps hold that quantity at 2 or less in each factor.
        The divisor 2 is measured, not derived: in one product,
        swanson:0.5 at alpha = 1, N = 512 read a Weyl defect (then the
        block's spectral norm over max|V_S V_T|) of 7.3e-12, a false FAIL,
        and in its 6 steps 5.4e-14.  Each of the s - 1 step products
        drops its outer diagonals whose entries are each below u times the
        largest in their row (``_trimmed``), so the band does not widen by
        W's width at every step; at s = 1 nothing is cut.  The
        quasi-strong and Weyl defects at the same parameter share V_S.  The
        cached band's array is read-only, since every caller reads the same
        one.
        """
        key = (generator, alpha)
        if key not in self._semigroups:
            x, y = _ladder_coefficients(getattr(self, generator).band)
            steps = max(1, math.ceil(alpha * min(abs(x), abs(y)) * math.sqrt(self.dim) / 2))
            W = _exp_ladder(x, y, alpha / steps, self.dim)
            V = W
            for _ in range(steps - 1):
                V = _trimmed(band_product(W, V))
            V.diagonals.flags.writeable = False
            self._semigroups[key] = V
        return self._semigroups[key]

    @cached_property
    def _semigroups(self):
        return {}

    @cached_property
    def cross_defect(self):
        """Entrywise defect of [S', T] = [S, T'] on the safe block, formed once per pair.

        Since [S, T'] = -[S', T]', the defect matrix is X + X' with X = [S', T],
        one ``relation_block`` of the bands of S' (S's cached adjoint, which the
        uncertainty pass applies too) and T; the adjoint of its leading block
        is the leading block of X'.  The two are added on the
        union of their offsets.
        """
        X = relation_block(self.S.adjoint().band, self.T.band, self.safe_rank)[0]
        lo, hi = min(X.lo, -X.hi), max(X.hi, -X.lo)
        return float(np.abs(_on_offsets(X, lo, hi) + _on_offsets(band_adjoint(X), lo, hi)).max())


def lowering(n):
    """Annihilation matrix: entry sqrt(j+1) at (j, j+1)."""
    if n < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {n}")
    return TruncatedOperator.banded((1, [np.sqrt(np.arange(1, n + 1))]))


def raising(n):
    """Creation matrix, the adjoint of lowering(n)."""
    return lowering(n).adjoint()


def identity(n):
    return TruncatedOperator.banded((0, np.ones((1, n))))


def boson_pair(n=DEFAULT_DIM):
    """The reference model S = a, T = a*: the swanson pair at theta = 0, to the bit."""
    return swanson_pair(0.0, n)


def coherent_tail_mass(z, n):
    """Share of the coherent state's squared norm past dimension n.

    That is e^(-x) sum_{k >= n} x^k / k! with x = |z|^2, the regularized
    lower incomplete gamma function P(n, x).  The Poisson weights are formed
    from one log-space value (math.lgamma) and their ratio recurrence, so
    nothing overflows.  Past the mode (n > x) the tail is summed from k = n
    on; below it the tail is about one half or more, and is one minus the
    head, so nothing cancels either way.
    """
    mod = abs(complex(z))
    x = mod * mod  # mod ** 2 would raise OverflowError past 1e154
    if x == 0:
        return 0.0
    if x == math.inf:
        return 1.0

    def weight(k):
        return math.exp(k * math.log(x) - math.lgamma(k + 1) - x)

    if n > x:
        term = tail = weight(n)
        k = n
        while term > 1e-17 * tail:
            k += 1
            term *= x / k
            tail += term
        return tail
    term = head = weight(n - 1)
    for k in range(n - 1, 0, -1):
        term *= k / x
        head += term
    return 1.0 - head


def coherent_state(z, n):
    """Normalized truncation of the coherent state with eigenvalue z: row 0 of ``coherent_states([z], n)``."""
    z = complex(z)
    return StateVector(coherent_states([z], n)[0], label=_coherent_label(z))


def _coherent_label(z):
    """The label of the coherent state with eigenvalue z, as reports and scan rows print it."""
    return f"coh({z.real:g},{z.imag:g})"


def coherent_states(zs, n):
    """Normalized truncations of the coherent states with eigenvalues zs, formed as one block.

    Components are proportional to z^k / sqrt(k!).  The discarded share of
    each norm, ``coherent_tail_mass(z, n)``, must be below 1e-12; otherwise a
    TruncationError carrying it is raised (a NaN z is a DomainParameterError).
    |z^k / sqrt(k!)| rises to its mode floor(|z|^2) and falls after it, so
    the ratio recurrence x_k = x_(k-1) z / sqrt(k) runs outward from
    x_m = 1, with m = min(floor(|z|^2), n - 1): up by the ratios, down by
    their reciprocals.  No component leaves [0, 1], so nothing overflows;
    components far from the mode underflow to subnormals or zero, as
    normalization would make them anyway.  Phase convention: x_m is real and
    positive.  For |z| < 1 that is x_0; otherwise the state differs from
    the one with x_0 > 0 by the global phase e^(-i m arg z), which no
    expectation, delta or uncertainty report reads.

    The ratios of every z come from one outer division, the states that
    share a mode from one ``cumprod`` along the rows, and the block is
    divided by its ``row_norms``, each row by its own norm.  Each of these
    does the same arithmetic on each entry as it would on one state, so
    every state has the bits it has alone.  The block is returned: one
    state per row, len(zs) x n, finite by construction.
    """
    if n < 1:
        raise InvalidDimensionError(f"need dimension >= 1, got {n}")
    zs = [complex(z) for z in zs]
    for z in zs:
        if cmath.isnan(z):
            raise DomainParameterError(f"coherent-state eigenvalue z must not be NaN, got {z}")
        tail = coherent_tail_mass(z, n)
        if tail >= 1e-12:
            raise TruncationError(
                f"coherent-state tail mass {tail:.3e} at dimension {n} exceeds 1e-12",
                tail_mass=tail,
            )
    modes = {}
    for i, z in enumerate(zs):
        modes.setdefault(min(math.floor(abs(z) ** 2), n - 1), []).append(i)
    ratios = np.array(zs, dtype=complex)[:, None] / np.sqrt(np.arange(1, n))  # x_k / x_(k-1) at k = 1..n-1
    block = np.ones((len(zs), n), dtype=complex)
    for m, rows in modes.items():
        if len(modes) == 1:
            rows = slice(None)  # one mode gathers nothing
        R = ratios[rows]
        block[rows, m + 1 :] = np.cumprod(R[:, m:], axis=1)
        if m > 0:
            block[rows, :m] = np.cumprod(1 / R[:, :m][:, ::-1], axis=1)[:, ::-1]
    # each row over its norm + 0j, the divisor numpy's division by a float norm casts to
    block /= row_norms(block).astype(complex)[:, None]
    return block


def basis_state(k, n):
    if not 0 <= k < n:
        raise InvalidDimensionError(f"basis index {k} outside [0, {n})")
    comps = np.zeros(n, dtype=complex)
    comps[k] = 1.0
    return StateVector(comps, label=f"e{k}")


def swanson_pair(theta, n=DEFAULT_DIM):
    """Deformed boson pair S = cos(t) a + i sin(t) a*, T = cos(t) a* + i sin(t) a.

    At theta = 0 this is (a, a*); for every theta the pair satisfies the
    weak commutation relation on the safe block.
    """
    a = _on_offsets(lowering(n).band, -1, 1)  # a and a* both at offsets -1..1
    ad = band_adjoint(Band(-1, a)).diagonals
    c, s = math.cos(theta), math.sin(theta)
    S = TruncatedOperator.banded((-1, c * a + 1j * s * ad))
    T = TruncatedOperator.banded((-1, c * ad + 1j * s * a))
    return OperatorPair(S, T)


def matrix2x2_pair(s, q):
    """The 2x2 model S = [[0, s], [0, 0]], T = [[0, 0], [q, 0]].

    Its commutator is s q diag(1, -1), so s q must be finite, and so must
    |s|^2 and |q|^2, which the squared norms |S xi|^2 = |s|^2 |phi_2|^2 and
    |T xi|^2 reach; both are checked on Python floats, before any array
    product can overflow.
    """
    s_abs, q_abs = float(abs(s)), float(abs(q))
    if not math.isfinite(s_abs * q_abs):
        raise DomainParameterError(f"the 2x2 model needs a finite product s q, got s = {s:g}, q = {q:g}")
    if not math.isfinite(max(s_abs, q_abs) * max(s_abs, q_abs)):
        raise DomainParameterError(
            "the 2x2 model needs finite |s|^2 and |q|^2 (|s|, |q| up to about 1.3e154), "
            f"got s = {s:g}, q = {q:g}"
        )
    S = TruncatedOperator.banded((1, [[s, 0]]))
    T = TruncatedOperator.banded((-1, [[0, q]]))
    return OperatorPair(S, T)


# ---------------------------------------------------------------------------
# banded storage
# ---------------------------------------------------------------------------
#
# Every pair in this package is banded (boson, swanson and 2x2 pairs are
# tridiagonal), so the defect chain works on diagonals, never on dense N x N
# products.  A matrix is held as a Band (lo, D): D has one row per offset
# lo..hi, D[r, i] = A[i, i + lo + r], and zeros where i + lo + r falls
# outside [0, N).  Each band gets its offsets once, where it is built:
# ``diagonals`` reads them off the nonzero pattern, ``band_adjoint`` turns
# lo..hi into -hi..-lo, ``band_product`` adds them, and the closed-form
# factors of ``_exp_ladder`` are triangular.  No helper scans its operands
# for zero diagonals, so a diagonal is either stored or known to be zero.


def _zero_band(n):
    return Band(0, np.zeros((1, n), dtype=complex))


def _diagonal_view(padded, lo, rows):
    """Diagonals lo..lo + rows - 1, as a strided view, of an n x (n + 2P) array holding A at column offset P.

    Entry (i, i + d) sits at flat offset i (n + 2P + 1) + P + d; slots outside A hit the padding.
    """
    n = padded.shape[0]
    step = padded.strides[1]
    start = ((padded.shape[1] - n) // 2 + lo) * step
    return np.ndarray((rows, n), padded.dtype, padded, start, strides=(step, padded.strides[0] + step))


def diagonals(entries):
    """The ``Band`` of a dense square matrix: the offsets of its nonzero pattern.

    The offsets are read off which diagonals of the nonzero mask, viewed at
    full width, hold a True (the zero matrix keeps its main diagonal).  A
    wide (even full) matrix is stored exactly, only with more diagonals.
    """
    n = entries.shape[0]
    nonzero = np.zeros((n, 3 * n - 2), dtype=bool)  # every diagonal fits at padding n - 1
    np.not_equal(entries, 0, out=nonzero[:, n - 1 : 2 * n - 1])
    used = np.flatnonzero(_diagonal_view(nonzero, 1 - n, 2 * n - 1).any(axis=1))
    lo, hi = (int(used[0]) + 1 - n, int(used[-1]) + 1 - n) if used.size else (0, 0)
    reach = max(-lo, hi)
    padded = np.zeros((n, n + 2 * reach), dtype=complex)
    padded[:, reach : reach + n] = entries
    return Band(lo, _diagonal_view(padded, lo, hi - lo + 1).copy())


def _dense(band):
    """The dense matrix of a band whose slots outside the matrix are zero."""
    reach, n = max(-band.lo, band.hi, 0), band.diagonals.shape[1]
    padded = np.zeros((n, n + 2 * reach), dtype=band.diagonals.dtype)
    _diagonal_view(padded, band.lo, len(band.diagonals))[...] = band.diagonals
    return padded[:, reach : reach + n].copy()


def _on_offsets(band, lo, hi):
    """The band's diagonals at offsets lo..hi, a range holding its own; the others are zero."""
    D = np.zeros((hi - lo + 1, band.diagonals.shape[1]), dtype=band.diagonals.dtype)
    D[band.lo - lo : band.hi - lo + 1] = band.diagonals
    return D


def _leading_block(band, k):
    """The band of the leading k x k block, k at most its columns: offsets cut to |d| < k.

    The result is a view of the band's diagonals, whose slots outside the
    block (the last d of diagonal d > 0, the first -d of diagonal d < 0) are
    zeroed in place: one slice write per diagonal for a narrow band, and for
    a wide one (past 16 diagonals, where the masks cost less) two corner
    masks, the last hi columns and the first -lo.
    """
    lo, hi = max(band.lo, 1 - k), min(band.hi, k - 1)
    if lo > hi:
        return _zero_band(k)
    D = band.diagonals[lo - band.lo : hi - band.lo + 1, :k]
    if len(D) <= 16:
        for r in range(len(D)):
            d = lo + r
            if d > 0:
                D[r, k - d :] = 0
            elif d < 0:
                D[r, :-d] = 0
    else:
        r = np.arange(len(D))[:, None]  # at offset d = lo + r
        if hi > 0:  # column k - hi + c is outside where c >= hi - d
            np.copyto(D[:, k - hi :], 0, where=r + np.arange(hi) >= hi - lo)
        if lo < 0:  # column j is outside where j < -d
            np.copyto(D[:, :-lo], 0, where=r + np.arange(-lo) < -lo)
    return Band(lo, D)


def band_adjoint(band):
    """Band of A' from A's, at offsets -hi..-lo: A'[i, i + d] = conj(A[i + d, i]).

    Row r of A', at offset d = r - hi, is A's diagonal -d read d entries
    further along, zero where that leaves the matrix.  With A's rows reversed
    and padded by P = max(-lo, hi) zeros on each side, row r starts r entries
    further along than row 0, so A' is one strided read of the padded copy.
    """
    lo, D, n = -band.hi, band.diagonals[::-1], band.diagonals.shape[1]
    reach = max(-band.lo, band.hi, 0)
    padded = np.zeros((len(D), n + 2 * reach), dtype=D.dtype)
    padded[:, reach : reach + n] = D
    step = padded.strides[1]
    shifted = np.ndarray(D.shape, D.dtype, padded, (reach + lo) * step, (padded.strides[0] + step, step))
    return Band(lo, shifted.conj())


def band_product(A, B, rows=None):
    """Band of the product of two matrices given by their bands.

    Its offsets are lo_A + lo_B..hi_A + hi_B, cut to the matrix; each entry
    sums A[i, i + a] B[i + a, i + a + b] over A's stored offsets a in
    ascending order, so only products with a stored factor are formed.  The
    loop runs over the factor that stores fewer diagonals, one pass per
    diagonal: over A, each row of A times B's rows shifted by its offset;
    over B, each row of B, read along a strided view at every shift a, times
    all of A's rows, with B's offsets from hi down to lo, so that every
    entry still adds its terms in ascending a.  Either way each term is the
    same out-of-place product, A's entry times B's, so every entry keeps its
    bits whichever factor is narrower.  A one-column product loops over A:
    there numpy multiplies 1 x 1 operands without the fused multiply-add of
    its vector loops, and only that loop's shapes keep those bits.

    With ``rows``, only the product's leading ``rows`` rows are formed, so
    the result has that many columns and no offset below 1 - rows; each
    entry is computed exactly as in the full product.  A product with no
    offset left is the zero band.
    """
    n = A.diagonals.shape[1]
    m = n if rows is None else min(rows, n)
    left = max(0, -A.lo)
    # B's columns padded by zeros, so every shift below is a slice
    padded = np.zeros((len(B.diagonals), n + left + max(0, A.hi)), dtype=B.diagonals.dtype)
    padded[:, left : left + n] = B.diagonals
    C = np.zeros((A.hi + B.hi - A.lo - B.lo + 1, m), dtype=np.result_type(A.diagonals, B.diagonals))
    if len(A.diagonals) <= len(B.diagonals) or m == 1:
        for r in range(len(A.diagonals)):
            # with a = A.lo + r: C[i, i + a + b] += A[i, i + a] * B[i + a, i + a + b]
            start = left + A.lo + r
            C[r : r + len(B.diagonals)] += A.diagonals[r, :m] * padded[:, start : start + m]
    else:
        step = padded.strides[1]
        for s in range(len(B.diagonals) - 1, -1, -1):
            # with b = B.lo + s, row r of the view is B[i + a, i + a + b] at a = A.lo + r
            shifted = np.ndarray((len(A.diagonals), m), padded.dtype, padded,
                                 s * padded.strides[0] + (left + A.lo) * step, (step, step))
            C[s : s + len(A.diagonals)] += A.diagonals[:, :m] * shifted
    lo, hi = max(A.lo + B.lo, 1 - m), min(A.hi + B.hi, n - 1)  # the others are all zero
    if lo > hi:
        return _zero_band(m)
    return Band(lo, C[lo - A.lo - B.lo : hi - A.lo - B.lo + 1])


_EPS = np.finfo(float).eps / 2  # unit roundoff 2^-53


def _ladder_coefficients(band):
    """(x, y) with A = x a + y a* for the matrix A with this band.

    x and y are read off the first entries of the +1 and -1 diagonals, and
    are 0 where the band has no such diagonal; every entry must match
    x sqrt(k + 1) and y sqrt(k + 1) to within a few roundings (8 u relative),
    and every other diagonal must be zero.  Any other operator raises
    DomainParameterError.  The match is taken on the unit scale, D / m
    against (x / m) sqrt(k + 1) with m = max|D|, so entries near the float
    range do not overflow.
    """
    (lo, D), n = band, band.diagonals.shape[1]
    x = y = 0j
    m = float(np.abs(D).max()) or 1.0
    want = np.zeros_like(D)
    root = np.sqrt(np.arange(1.0, n))
    if lo <= 1 <= band.hi:
        x = complex(D[1 - lo, 0])
        want[1 - lo, : n - 1] = x / m * root
    if lo <= -1 <= band.hi:
        y = complex(D[-1 - lo, 1])
        want[-1 - lo, 1:] = y / m * root
    if not np.all(np.abs(D / m - want) <= 8 * _EPS * np.abs(want)):
        raise DomainParameterError(
            "the closed-form semigroups and vacua need an operator x a + y a*"
        )
    return x, y


def _exp_lowering(z, n):
    """Band of the upper triangular exp(z a), offsets 0..K: entry (k, k + d) is z^d / d! sqrt((k+1)...(k+d)).

    Diagonal d is diagonal d - 1 times z sqrt(k + d) / d.  Once
    |z| sqrt(N + d) / (d + 1) < 1/2, each later diagonal is less than half the
    one before, so the recurrence stops at the first diagonal below unit
    roundoff of the largest: all that it leaves out is smaller than that.
    A diagonal's size is its last entry's modulus: along diagonal d the
    modulus grows with k by the factor sqrt((k + 1 + d) / (k + 1)) >=
    sqrt(1 + d / N), far above the few roundings each entry carries, so
    the last entry is the largest and the stop picks the diagonal a scan
    of every entry would.  Past the float range the last entry overflows
    first and reads inf, as the scan does, and an infinite or NaN size
    stops nothing.
    """
    root = np.sqrt(np.arange(n)).astype(complex)  # the cast each complex product would make of it
    rows, largest = [np.ones(n, dtype=complex)], 1.0
    for d in range(1, n):
        row = rows[-1][: n - d] * root[d:] * (z / d)
        # the last entry is the largest; np.abs keeps the bits np.abs(row) gives
        # it, which the builtin abs does not
        size = float(np.abs(row[-1]))
        if size < _EPS * largest and abs(z) * math.sqrt(n + d) / (d + 1) < 0.5:
            break
        largest = max(largest, size)
        rows.append(row)
    E = np.zeros((len(rows), n), dtype=complex)
    for d, row in enumerate(rows):
        E[d, : n - d] = row
    return Band(0, E)


def _trimmed(band):
    """The band without its outer diagonals each of whose entries is below unit roundoff of the largest in its row.

    It is the cut ``_exp_lowering`` makes, taken from both ends and row by
    row: row i of the matrix is column i of the diagonals, and no row loses
    more than u times its largest entry.  Against the one largest entry of
    the band, max|V|, the cut would drop diagonals that carry the leading
    rows: a semigroup's entries grow along the rows (swanson:0.3's V_S(3)
    at N = 2048 has a largest entry of 23 in row 0 and of 4.7e56 in all).
    The kept diagonals are copied, so the product they were cut from is
    freed.
    """
    moduli = np.abs(band.diagonals)
    kept = np.flatnonzero(~(moduli < _EPS * moduli.max(axis=0)).all(axis=1))
    return Band(band.lo + int(kept[0]), band.diagonals[kept[0] : kept[-1] + 1].copy())


def _exp_ladder(x, y, alpha, n):
    """Band of the N x N block of exp(alpha (x a + y a*)) on the untruncated space.

    [a, a*] = 1 is central, so exp(alpha (x a + y a*)) =
    exp(alpha y a*) exp(alpha x a) exp(alpha^2 x y / 2), the Heisenberg
    group's disentangling identity.  The first factor is lower and the second
    upper triangular, so their product's inner index runs only up to
    min(i, j): the product of the truncated triangles is the block itself.
    Its offsets run from -K_lower to K_upper, and only those are formed.
    """
    upper = _exp_lowering(alpha * x, n)
    lower = band_adjoint(_exp_lowering((alpha * y).conjugate(), n))  # exp(w a*) = exp(conj(w) a)'
    V = band_product(lower, upper)
    return Band(V.lo, V.diagonals * cmath.exp(alpha * alpha * x * y / 2))


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------


def relation_block(X, Y, rows, c=1.0, R=None):
    """The ``Band`` of the leading rows x rows block of X Y - c Y X - R, and its scale.

    X, Y and R (None for zero) are bands.  X Y and Y X share the offsets
    lo_X + lo_Y..hi_X + hi_Y, and the block holds those and R's, cut to
    |d| < rows.  Of each product only the leading ``rows`` rows are formed,
    each entry exactly as in the full product; the block's slots outside it
    are zero.  Both products are cut to the block, so without R their
    difference is cut too; with R the block is cut once more, for R's slots.

    The scale is the max-abs entry of X Y on the block, at least 1: each
    entry cancels entries of X Y against c Y X, so its rounding error grows
    with them, like N for S T on the boson and swanson pairs, roughly like
    e^(a sqrt(N)) for V_S(a) T and quickly with N for V_S(a) V_T(b).  Below 1
    the block is judged absolutely; the 1 is the identity's entry, as in
    normal-order's soundness scale.
    """
    M = _leading_block(band_product(X, Y, rows), rows)
    scale = max(1.0, float(np.abs(M.diagonals).max()))
    YX = _leading_block(band_product(Y, X, rows), rows).diagonals  # on M's offsets
    if c != 1:  # skipped at 1, where (1 + 0i) z could flip the sign of a zero part of z
        YX *= c
    M.diagonals[...] -= YX
    if R is None:  # the difference of two cut blocks is cut
        return M, scale
    lo, hi = max(R.lo, 1 - rows), min(R.hi, rows - 1)  # R's offsets in the block
    if lo <= hi:
        if lo < M.lo or hi > M.hi:  # R reaches offsets that X Y does not
            M = Band(min(lo, M.lo), _on_offsets(M, min(lo, M.lo), max(hi, M.hi)))
        M.diagonals[lo - M.lo : hi - M.lo + 1] -= R.diagonals[lo - R.lo : hi - R.lo + 1, :rows]
    return _leading_block(M, rows), scale


def weak_with_scale(pair):
    """``(weak_defect, scale)``: S T - T S - 1 as a ``relation_block`` on the safe block."""
    block, scale = relation_block(pair.S.band, pair.T.band, pair.safe_rank, R=identity(pair.dim).band)
    return float(np.abs(block.diagonals).max()), scale


def weak_defect(pair):
    """Entrywise defect of the weak commutation relation on the safe block.

    max over basis indices i, j < safe_rank of
    |<T e_i, S' e_j> - <S e_i, T' e_j> - delta_ij|, which in matrix form is
    the max-abs entry of the leading block of S T - T S - 1, formed on the
    diagonals of S and T.
    """
    return weak_with_scale(pair)[0]


def semigroup_band(pair, alpha):
    """Safe band for semigroup checks: safe_rank minus the spreading margin.

    exp(alpha S) spreads mass roughly alpha*sqrt(N) indices past the diagonal
    before superexponential damping, so the band shrinks by
    ceil(10 * alpha * sqrt(N)).  A margin past the float range is infinite;
    the error message shows the margin to six significant digits.
    """
    margin = 10.0 * alpha * math.sqrt(pair.dim)
    if margin < math.inf:
        margin = math.ceil(margin)
    band = pair.safe_rank - margin
    if not band >= 1:  # a NaN margin leaves no band either
        raise TruncationError(
            f"dimension {pair.dim} too small for semigroup parameter {alpha} "
            f"(margin {margin:.6g} exhausts safe rank {pair.safe_rank})"
        )
    return band


def quasi_strong_with_scale(pair, alpha):
    """``(quasi_strong_defect, scale)``: V_S(a) T - T V_S(a) - a V_S(a) as a ``relation_block``.

    V_S(a) = exp(a S) is the pair's cached closed-form ``semigroup``.
    """
    if not 0 <= alpha < math.inf:
        raise DomainParameterError(f"semigroup parameter must be finite and >= 0, got {alpha}")
    band = semigroup_band(pair, alpha)
    V = pair.semigroup("S", alpha)
    block, scale = relation_block(V, pair.T.band, band, R=Band(V.lo, alpha * V.diagonals))
    return float(np.abs(block.diagonals).max()), scale


def quasi_strong_defect(pair, alpha):
    """Entrywise defect of V_S(a) T - T V_S(a) = a V_S(a) on the reduced band."""
    return quasi_strong_with_scale(pair, alpha)[0]


#: The Weyl check's limit on its cancellation ratio rho (see ``weyl_with_scale``).
#: T scaled by 1 + delta turns e^(ab) into e^(ab (1 + delta)), so the block
#: reads about a b delta max|V_S V_T|, that is a b delta / rho on the
#: |V_S||V_T| scale (to 1e-5 relative at each of 93 measured points, N = 128
#: to 1024, a = b = 0.1 to 1.5).  At the default a = b = 0.1, a break of
#: delta = 1e-6 reads above the tolerance 1e-12 only while rho stays below
#: this limit.
_WEYL_RATIO_LIMIT = 0.1 * 0.1 * 1e-6 / 1e-12


def weyl_with_scale(pair, alpha, beta):
    """``(weyl_defect, scale, rho)``: V_S(a) V_T(b) - e^(ab) V_T(b) V_S(a) as a ``relation_block``.

    Both semigroups are the pair's cached banded ``semigroup``s, so V_S is
    shared with ``quasi_strong_defect`` at the same parameter.  The defect is
    the block's max-abs entry.  Each entry of V_S V_T is a sum of terms that
    can be far larger than the sum, and a computed product's error is bounded
    entrywise by gamma_k |V_S||V_T| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 3.5), so the scale is max(1, max |V_S||V_T|)
    on the block: one real ``band_product`` of the moduli, on the band's rows
    only.  rho, the cancellation ratio, is that scale over ``relation_block``'s
    max(1, max|V_S V_T|).  A break delta of [S, T] = 1 reads about
    a b delta / rho on this scale, so past ``_WEYL_RATIO_LIMIT`` the check
    cannot tell a relation broken by 1e-6 from a correct one, and raises
    ConditioningError, naming rho, the limit, N, a and b.
    """
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise DomainParameterError(
            f"semigroup parameters must be finite and >= 0, got ({alpha}, {beta})"
        )
    band = semigroup_band(pair, max(alpha, beta))
    VS, VT = pair.semigroup("S", alpha), pair.semigroup("T", beta)
    block, product = relation_block(VS, VT, band, math.exp(alpha * beta))
    moduli = band_product(Band(VS.lo, np.abs(VS.diagonals)), Band(VT.lo, np.abs(VT.diagonals)), band)
    scale = max(1.0, float(_leading_block(moduli, band).diagonals.max()))
    rho = scale / product
    if rho > _WEYL_RATIO_LIMIT:
        raise ConditioningError(
            f"the Weyl block at N = {pair.dim}, alpha = {alpha:g}, beta = {beta:g} cancels past what "
            f"float64 can judge: its cancellation ratio rho = {rho:.3e} (max |V_S||V_T| over "
            f"max |V_S V_T|) exceeds the limit {_WEYL_RATIO_LIMIT:g}, past which a relation broken "
            "by 1e-6 would read below the tolerance"
        )
    return float(np.abs(block.diagonals).max()), scale, rho


def weyl_defect(pair, alpha, beta):
    """Entrywise defect of V_S(a) V_T(b) = e^(ab) V_T(b) V_S(a) on the band: ``weyl_with_scale``'s first value."""
    return weyl_with_scale(pair, alpha, beta)[0]
