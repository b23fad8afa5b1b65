"""Truncated Fock-space matrix models and commutation-relation defects.

An N-dimensional truncation of the boson pair (a, a*) and its deformations
stands in for the unbounded operators; every identity is checked only on a
leading "safe" block of basis indices, read off the operators' bandwidth,
that finite truncation cannot corrupt.  For the semigroup checks that block
is cut by the margin ceil(10 * alpha * sqrt(N)) of ``semigroup_band``, a
heuristic that nothing certifies yet.  Defects come in three strengths: the
weak (inner-product) form, the semigroup form
V_S(alpha) T - T V_S(alpha) = alpha V_S(alpha), and the Weyl form between
two semigroups.

Operators are stored only as their diagonals; construction, adjoints,
matrix-vector products and every defect work on those (banded products, a
Taylor series for exp that forms each term only on the diagonals the
generator's nonzero ones can reach, with the bits of the full-band series,
and the plain three-term Lanczos recurrence on M'M, which keeps two vectors
and no basis (Paige, Linear Algebra Appl. 34, 1980), for the spectral norm
of the Weyl block M), so the defect chain forms nothing of size N x N.
Each semigroup is formed once per pair and parameter, and shared by the
quasi-strong and Weyl defects.  Every relation X Y - c Y X = R, and the UR2
cross condition, is formed by ``relation_block`` on its band's rows only,
with its rounding scale; ``weak_with_scale`` and the other ``*_with_scale``
functions return each defect with that scale, and ``*_defect`` the defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
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
    return float(np.linalg.norm(np.asarray(u).reshape(-1)))


@dataclass(frozen=True, init=False, eq=False)
class TruncatedOperator:
    """N x N complex matrix of bandwidth K, stored only as its (2K+1) x N diagonals.

    ``TruncatedOperator(entries)`` reads a dense matrix once; ``banded(D)`` takes diagonals.
    """

    diagonals: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidDimensionError(f"entries must be a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidDimensionError("entries contain NaN or Inf")
        vars(self).update(diagonals=diagonals(arr))

    @classmethod
    def banded(cls, D):
        """The operator with D[K + d, i] = A[i, i + d]; slots outside the matrix are ignored."""
        D = np.asarray(D, dtype=complex)
        if D.ndim != 2 or D.shape[0] % 2 == 0 or D.shape[1] < 1:
            raise InvalidDimensionError(f"diagonals must be (2K+1) x N with N >= 1, got shape {D.shape}")
        if not np.isfinite(D).all():
            raise InvalidDimensionError("diagonals contain NaN or Inf")
        op = cls.__new__(cls)
        vars(op).update(diagonals=_leading_block(D, D.shape[1]))
        return op

    @property
    def dim(self):
        return self.diagonals.shape[1]

    @property
    def entries(self):
        """The dense N x N matrix, rebuilt on request (for oracles and word evaluation)."""
        return _dense(self.diagonals)

    def adjoint(self):
        return self._adjoint

    @cached_property
    def _adjoint(self):  # formed once: per-state code applies S' and T' to every state
        return TruncatedOperator.banded(band_adjoint(self.diagonals))

    def __matmul__(self, x):
        """A x for a vector or an N x L block of columns, on the diagonals."""
        D, n = self.diagonals, self.dim
        x = np.asarray(x)
        if x.ndim == 2:
            D = D[:, :, None]
        width = _width(D)
        y = D[width] * x
        for d in range(1, width + 1):
            y[: n - d] += D[width + d, : n - d] * x[d:]
            y[d:] += D[width - d, d:] * x[: n - d]
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
        if not np.all(np.isfinite(arr)):
            raise InvalidDimensionError("state vector contains NaN or Inf")
        object.__setattr__(self, "components", arr)

    @property
    def dim(self):
        return self.components.size

    @cached_property
    def norm(self):  # formed once: the unit check, the report and <xi, xi> all read it
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

        A generator of bandwidth K moves a basis vector by at most K indices,
        so the block of the first N - max(K_S, K_T, 1) indices is certified;
        higher-degree checks shrink it further.
        """
        return self.dim - max(_width(self.S.diagonals), _width(self.T.diagonals), 1)

    @property
    def dim(self):
        return self.S.dim

    def semigroup(self, generator, alpha):
        """Diagonals of V_S(alpha) = exp(alpha S) ("S") or V_T(alpha) ("T"), formed once per pair.

        The quasi-strong and Weyl defects at the same parameter share V_S.
        The cached array is read-only, since every caller reads the same one.
        """
        key = (generator, alpha)
        if key not in self._semigroups:
            V = band_expm(getattr(self, generator).diagonals, alpha)
            V.flags.writeable = False
            self._semigroups[key] = V
        return self._semigroups[key]

    @cached_property
    def _semigroups(self):
        return {}

    @cached_property
    def cross_defect(self):
        """Entrywise defect of [S', T] = [S, T'] on the safe block, formed once per pair.

        Since [S, T'] = -[S', T]', the defect matrix is X + X' with X = [S', T],
        one ``relation_block`` of the diagonals of S and T; the adjoint of its
        leading block is the leading block of X'.
        """
        X = relation_block(band_adjoint(self.S.diagonals), self.T.diagonals, self.safe_rank)[0]
        return float(np.abs(X + band_adjoint(X)).max())


def lowering(n):
    """Annihilation matrix: entry sqrt(j+1) at (j, j+1)."""
    if n < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {n}")
    return TruncatedOperator.banded([np.zeros(n), np.zeros(n), np.sqrt(np.arange(1, n + 1))])


def raising(n):
    """Creation matrix, the adjoint of lowering(n)."""
    return lowering(n).adjoint()


def identity(n):
    return TruncatedOperator.banded(np.ones((1, n)))


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
    """Normalized truncation of the coherent state with eigenvalue z.

    Components are proportional to z^k / sqrt(k!).  The discarded share of
    the norm, ``coherent_tail_mass(z, n)``, must be below 1e-12; otherwise a
    TruncationError carrying it is raised.  Where the recurrence would pass
    2^1000, every component so far is scaled by 2^-512, at the steps
    ``_coherent_rescales`` reads off the closed-form magnitude.  Before
    normalizing, the components are scaled by the power of two that brings
    their largest real or imaginary part into [1, 2), so the squares inside
    the norm cannot overflow.  Both scalings are exact, so the normalized
    components keep their bits (short of those that fall below the normal
    range, which normalization would push there anyway).
    """
    if n < 1:
        raise InvalidDimensionError(f"need dimension >= 1, got {n}")
    z = complex(z)
    tail = coherent_tail_mass(z, n)
    if tail >= 1e-12:
        raise TruncationError(
            f"coherent-state tail mass {tail:.3e} at dimension {n} exceeds 1e-12",
            tail_mass=tail,
        )
    comps = np.zeros(n, dtype=complex)
    comps[0] = 1.0
    parts = comps.view(float)  # scaled as real and imaginary parts, so signed zeros keep their sign
    start = 1
    for stop in (*_coherent_rescales(abs(z), n), n):
        for k in range(start, stop):
            comps[k] = comps[k - 1] * z / math.sqrt(k)
        if stop < n:
            parts[: 2 * stop] *= 2.0**-512
        start = stop
    parts *= math.ldexp(1.0, 1 - math.frexp(np.max(np.abs(parts)))[1])
    comps /= np.linalg.norm(comps)
    return StateVector(comps, label=f"coh({z.real:g},{z.imag:g})")


def _coherent_rescales(mod, n):
    """The steps k before which the recurrence, after the rescales so far, would pass 2^1000.

    |z^k / sqrt(k!)| = 2^((k ln|z| - lgamma(k + 1) / 2) / ln 2) rises only up
    to k = floor(|z|^2), so only those steps can rescale; a recurrence that
    stays below 2^1000 never does.
    """
    steps = []
    for k in range(1, min(n - 1, math.floor(mod * mod)) + 1):
        if k * math.log2(mod) - math.lgamma(k + 1) / (2 * math.log(2)) > 1000 + 512 * len(steps):
            steps.append(k)
    return steps


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
    a, ad = lowering(n).diagonals, raising(n).diagonals
    c, s = math.cos(theta), math.sin(theta)
    S = TruncatedOperator.banded(c * a + 1j * s * ad)
    T = TruncatedOperator.banded(c * ad + 1j * s * a)
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
    S = TruncatedOperator.banded([[0, 0], [0, 0], [s, 0]])
    T = TruncatedOperator.banded([[0, q], [0, 0], [0, 0]])
    return OperatorPair(S, T)


# ---------------------------------------------------------------------------
# banded storage
# ---------------------------------------------------------------------------
#
# Every pair in this package is banded (boson, swanson and 2x2 pairs are
# tridiagonal), so the defect chain works on diagonals, never on dense N x N
# products.  A matrix of bandwidth K is held as a (2K+1) x N array D with
# D[K + d, i] = A[i, i + d] and zeros where i + d falls outside [0, N).


def _width(D):
    return D.shape[0] // 2


def _diagonal_view(padded, width):
    """The diagonals, as a strided view, of an n x (n + 2K) array holding A at column offset K.

    Entry (i, i + d) sits at flat offset i (n + 2K + 1) + K + d; slots outside A hit the padding.
    """
    step = padded.strides[1]
    return np.ndarray(
        (2 * width + 1, padded.shape[0]), padded.dtype, padded, strides=(step, padded.strides[0] + step)
    )


def diagonals(entries):
    """Diagonals of a dense square matrix; the bandwidth is its nonzero pattern's.

    The bandwidth is read off which diagonals of the nonzero mask, viewed at
    full width, hold a True.  A wide (even full) matrix is stored exactly,
    only with more diagonals.
    """
    n = entries.shape[0]
    nonzero = np.zeros((n, 3 * n - 2), dtype=bool)  # every diagonal fits at width n - 1
    np.not_equal(entries, 0, out=nonzero[:, n - 1 : 2 * n - 1])
    used = np.flatnonzero(_diagonal_view(nonzero, n - 1).any(axis=1))
    width = int(max(n - 1 - used[0], used[-1] - (n - 1))) if used.size else 0
    padded = np.zeros((n, n + 2 * width), dtype=complex)
    padded[:, width : width + n] = entries
    return _diagonal_view(padded, width).copy()


def _dense(D):
    """The dense matrix with diagonals D, whose slots outside the matrix are zero."""
    width, n = _width(D), D.shape[1]
    padded = np.zeros((n, n + 2 * width), dtype=D.dtype)
    _diagonal_view(padded, width)[...] = D
    return padded[:, width : width + n].copy()


def _leading_block(D, k):
    """Diagonals of the leading k x k block (slots outside it zeroed, diagonals missing it dropped)."""
    outer = _width(D)
    width = min(outer, k - 1)
    return _clear_outside(D[outer - width : outer + width + 1, :k].copy())


def _middle(D, width):
    """The view of D's diagonals at offsets -width..width (width at most D's)."""
    return D[_width(D) - width : _width(D) + width + 1]


def _clear_outside(B):
    """Zero, in place, B's slots outside its k x k matrix, k = B.shape[1] > its bandwidth."""
    width, k = _width(B), B.shape[1]
    for d in range(1, width + 1):
        B[width + d, k - d :] = 0
        B[width - d, :d] = 0
    return B


def _shifted(D, sign):
    """G[K + d, i] = D[K + d, i + sign * d], zero where that leaves the matrix.

    With D padded by K zeros on each side, row r of G starts sign * r entries
    further along than row 0, so G is one strided read of the padded copy.
    """
    width, n = _width(D), D.shape[1]
    padded = np.zeros((2 * width + 1, n + 2 * width), dtype=D.dtype)
    padded[:, width : width + n] = D
    step = padded.strides[1]
    strides = (padded.strides[0] + sign * step, step)
    return np.ndarray(D.shape, D.dtype, padded, (1 - sign) * width * step, strides).copy()


def band_adjoint(D):
    """Diagonals of A' from those of A: A'[i, i + d] = conj(A[i + d, i])."""
    return _shifted(D[::-1], 1).conj()


def band_columns(D):
    """Column-indexed diagonals, C[K + d, j] = A[j - d, j] (LAPACK-style layout)."""
    return _shifted(D, -1)


def band_product(A, B, rows=None):
    """Diagonals of the product of two matrices given by their diagonals.

    With ``rows``, only the product's leading ``rows`` rows are formed, so the
    result has that many columns; each entry is computed exactly as in the
    full product.
    """
    ka, kb, n = _width(A), _width(B), A.shape[1]
    m = n if rows is None else min(rows, n)
    # B's columns padded by ka zeros on each side, so every shift below is a slice
    padded = np.zeros((2 * kb + 1, n + 2 * ka), dtype=B.dtype)
    padded[:, ka : ka + n] = B
    C = np.zeros((2 * (ka + kb) + 1, m), dtype=np.result_type(A, B))
    for r in range(2 * ka + 1):
        # with d = r - ka: C[i, i + d + f] += A[i, i + d] * B[i + d, i + d + f]
        C[r : r + 2 * kb + 1] += A[r, :m] * padded[:, r : r + m]
    excess = max(0, ka + kb - (n - 1))  # diagonals beyond the matrix are all zero
    return C[excess : C.shape[0] - excess]


_EPS = np.finfo(float).eps / 2  # unit roundoff 2^-53

#: theta_m of Al-Mohy & Higham (2011) for unit roundoff 2^-53 (the values
#: scipy.sparse.linalg.expm_multiply uses): the largest ||A||_1 for which the
#: degree-m Taylor polynomial of exp(A) is accurate to that roundoff.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.70, 40: 6.00,
    45: 7.20, 50: 8.50, 55: 9.90,
}


def band_expm(D, alpha):
    """Diagonals of exp(alpha A) by a truncated Taylor series on the diagonals.

    Steps s and degree m minimise s * m subject to ||alpha A||_1 / s <= theta_m
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)); the series of each
    step stops early once two consecutive terms fall below unit roundoff
    relative to the partial sum.

    If A's nonzero diagonals sit at offsets lo, lo + g, ..., hi (g the gcd of
    their differences), term j can reach only the offsets j lo + g t up to
    j hi, so only those inside +-(N - 1) are held and formed: each from term
    j - 1 by one shifted product per nonzero diagonal of A, in ascending
    offset.  That is the order in which ``band_product`` adds them, and the
    products it adds beyond them are zeros, so every entry has the bits of
    the full-band series.  The result keeps the full band of the last term,
    min(j K, N - 1) for bandwidth K, whose unreached diagonals are zero.
    """
    A = alpha * D
    norm1 = float(np.max(np.sum(np.abs(band_columns(A)), axis=0)))
    steps, degree = min(
        ((max(1, math.ceil(norm1 / theta)), m) for m, theta in _TAYLOR_THETA.items()),
        key=lambda sm: (sm[0] * sm[1], sm[1]),
    )
    A /= steps
    width, n = _width(D), D.shape[1]
    used = [d for d in range(-width, width + 1) if A[width + d].any()] or [0]  # [0] for alpha A = 0
    lo, hi = used[0], used[-1]
    g = math.gcd(*(d - lo for d in used)) or 1
    widest = min(degree * width, n - 1)
    total = np.zeros((2 * widest + 1, n), dtype=complex)
    total[widest] = 1.0
    term, first = np.ones((1, n), dtype=complex), 0  # term j's diagonals, at offsets first + g t
    previous, bound = 0.0, 1.0  # bound >= max|total|, so max|total| is read only near the end
    for j in range(1, degree + 1):
        # with B = term j - 1, padded by K zeros on each side: (A B)[i, i + e] gets
        # A[i, i + d] B[i + d, i + e] for each d, as in band_product
        padded = np.zeros((len(term), n + 2 * width), dtype=complex)
        padded[:, width : width + n] = term
        # term j's offsets j lo + g t inside +-(N - 1): t from low, count of them
        low = max(0, -((j * lo + n - 1) // g))
        count = min(j * (hi - lo), n - 1 - j * lo) // g - low + 1
        reached = j * lo + g * low
        term = np.zeros((max(count, 0), n), dtype=complex)
        for d in used:
            t = (d + first - reached) // g  # where B's first diagonal lands
            s, stop = max(0, -t), min(len(padded), count - t)
            if s < stop:
                term[t + s : t + stop] += A[width + d] * padded[s:stop, width + d : width + d + n]
        first = reached
        term /= j
        total[widest + first : widest + first + g * len(term) : g] += term
        size = float(np.max(np.abs(term), initial=0.0))
        bound += size
        if size + previous <= _EPS * bound and size + previous <= _EPS * np.max(np.abs(total)):
            break
        previous = size
    reach = min(j * width, n - 1)  # the last term's whole band, as the full-band series holds it
    total = total[widest - reach : widest + reach + 1]
    V = total
    for _ in range(steps - 1):
        V = band_product(total, V)
    return V


#: the Lanczos norm stops once its top Ritz pair's residual is this share of lambda
_LANCZOS_TOL = 4 * _EPS
_GOLDEN = (math.sqrt(5) - 1) / 2


def spectral_norm(D):
    """Largest singular value of the matrix with diagonals D, by plain Lanczos on A'A.

    The three-term Lanczos recurrence on the Hermitian A'A, from a fixed unit
    vector v_1: each step takes w = A'(A v_k), alpha_k = Re<w, v_k> and
    w - alpha_k v_k - beta_{k-1} v_{k-1}, of norm beta_k, so only v_{k-1} and
    v_k are kept.  The top eigenpair (lambda, x) of the k x k tridiagonal T_k
    of the alphas and betas has Ritz residual bound beta_k |x_k|, and the
    iteration stops once that is at most 4 u lambda (u = 2^-53), on breakdown
    (a zero beta) or at k = N; the norm is sqrt(lambda).  Nothing is
    reorthogonalized: the v lose orthogonality only along Ritz vectors that
    have converged, and a Ritz value with a small residual bound stays
    accurate all the same (Paige, Linear Algebra Appl. 34, 1980).  A and A'
    are each applied once per step, as one einsum over a strided window of
    the zero-padded vector, so nothing of size N x N is formed.  The all-zero
    matrix gives exactly 0.0, and the fixed start vector makes the result the
    same, bit for bit, on every call.  D's slots outside the matrix must be
    zero, as every band helper here leaves them.
    """
    D = np.asarray(D, dtype=complex)
    n = D.shape[1]
    if not D.any():
        return 0.0
    apply_A, apply_AH = _window_matvec(D), _window_matvec(band_adjoint(D))
    # v_1 has equal moduli and golden-ratio phases: fixed like a seeded random
    # vector, without loading numpy.random (6 MB and 10-15 ms in a fresh interpreter)
    v = np.exp(2j * math.pi * (np.arange(n) * _GOLDEN % 1.0)) / math.sqrt(n)
    previous, beta = None, 0.0
    tridiagonal = np.zeros((1, 1))  # T_k in its leading k x k block, upper triangle only
    for k in range(n):
        if k == len(tridiagonal):  # doubled, up to N x N
            tridiagonal = np.pad(tridiagonal, (0, min(k, n - k)))
        w = apply_AH(apply_A(v))
        alpha = tridiagonal[k, k] = np.vdot(v, w).real
        w -= alpha * v
        if k:
            w -= beta * previous
            tridiagonal[k - 1, k] = beta
        beta = norm(w)
        lam, X = np.linalg.eigh(tridiagonal[: k + 1, : k + 1], UPLO="U")
        if beta * abs(X[-1, -1]) <= _LANCZOS_TOL * lam[-1] or k + 1 == n:
            return math.sqrt(lam[-1])
        previous, v = v, w / beta


def _window_matvec(D):
    """x -> A x for the matrix with diagonals D, as one einsum over shifted copies of x.

    Row i of the window is the zero-padded x from index i - K on, a strided
    view, so (A x)[i] = sum_d D[d, i] window[i, d].  D is read as its
    contiguous transpose, so each row's sum runs over adjacent entries: at
    N = 10^4 that makes the Weyl block's norm 2.5 times as fast as summing
    down the diagonals.
    """
    width, n = _width(D), D.shape[1]
    rows = np.ascontiguousarray(D.T)
    padded = np.zeros(n + 2 * width, dtype=complex)
    step = padded.strides[0]
    window = np.ndarray(rows.shape, complex, padded, strides=(step, step))

    def apply(x):
        padded[width : width + n] = x
        return np.einsum("id,id->i", rows, window)

    return apply


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------


def relation_block(X, Y, rows, c=1.0, R=None):
    """The leading rows x rows block of X Y - c Y X - R, on its diagonals, and its scale.

    X, Y and R (None for zero, of bandwidth at most X Y's) are diagonals.  Of
    each product only the leading ``rows`` rows are formed, each entry exactly
    as in the full product; the block's slots outside it are zero.

    The scale is the max-abs entry of X Y on the block, at least 1: each
    entry cancels entries of X Y against c Y X, so its rounding error grows
    with them, like N for S T on the boson and swanson pairs, roughly like
    e^(a sqrt(N)) for V_S(a) T and quickly with N for V_S(a) V_T(b).  Below 1
    the block is judged absolutely; the 1 is the identity's entry, as in
    normal-order's soundness scale.
    """
    M = band_product(X, Y, rows)
    width = min(_width(M), M.shape[1] - 1)  # the block's bandwidth
    M = _clear_outside(_middle(M, width))
    scale = max(1.0, float(np.abs(M).max()))
    YX = _middle(band_product(Y, X, rows), width)
    if c != 1:  # skipped at 1, where (1 + 0i) z could flip the sign of a zero part of z
        YX *= c
    M -= YX
    if R is not None:
        reach = min(_width(R), width)
        M[width - reach : width + reach + 1] -= _middle(R, reach)[:, : M.shape[1]]
    return _clear_outside(M), scale


def weak_with_scale(pair):
    """``(weak_defect, scale)``: S T - T S - 1 as a ``relation_block`` on the safe block."""
    S, T = pair.S.diagonals, pair.T.diagonals
    block, scale = relation_block(S, T, pair.safe_rank, R=identity(pair.dim).diagonals)
    return float(np.abs(block).max()), scale


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

    V_S(a) = exp(a S) is the pair's cached ``semigroup`` (band_expm).
    """
    if not 0 <= alpha < math.inf:
        raise DomainParameterError(f"semigroup parameter must be finite and >= 0, got {alpha}")
    band = semigroup_band(pair, alpha)
    V = pair.semigroup("S", alpha)
    block, scale = relation_block(V, pair.T.diagonals, band, R=alpha * V)
    return float(np.abs(block).max()), scale


def quasi_strong_defect(pair, alpha):
    """Entrywise defect of V_S(a) T - T V_S(a) = a V_S(a) on the reduced band."""
    return quasi_strong_with_scale(pair, alpha)[0]


def weyl_with_scale(pair, alpha, beta):
    """``(weyl_defect, scale)``: V_S(a) V_T(b) - e^(ab) V_T(b) V_S(a) as a ``relation_block``.

    Both semigroups are the pair's cached banded ``semigroup``s, so V_S is
    shared with ``quasi_strong_defect`` at the same parameter.  The block's
    spectral norm is ``spectral_norm``'s Lanczos iteration on its
    diagonals, so nothing of size band x band is formed.
    """
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise DomainParameterError(
            f"semigroup parameters must be finite and >= 0, got ({alpha}, {beta})"
        )
    band = semigroup_band(pair, max(alpha, beta))
    VS, VT = pair.semigroup("S", alpha), pair.semigroup("T", beta)
    block, scale = relation_block(VS, VT, band, math.exp(alpha * beta))
    return spectral_norm(block), scale


def weyl_defect(pair, alpha, beta):
    """Spectral-norm defect of V_S(a) V_T(b) = e^(ab) V_T(b) V_S(a) on the band."""
    return weyl_with_scale(pair, alpha, beta)[0]
