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
matrix-vector products and every defect work on those (banded products, the
closed form exp(alpha (x a + y a*)) = exp(alpha y a*) exp(alpha x a)
exp(alpha^2 x y / 2) for each semigroup, taken in steps where the one
product would cancel, and the plain three-term Lanczos recurrence on M'M,
which keeps two vectors and no basis (Paige, Linear Algebra Appl. 34,
1980), for the spectral norm of the Weyl block M), so the defect chain
forms nothing of size N x N.  Each semigroup is formed once per pair and
parameter, and shared by the quasi-strong and Weyl defects.  Every
relation X Y - c Y X = R, and the UR2 cross condition, is formed by
``relation_block`` on its band's rows only, with its rounding scale;
``weak_with_scale`` and the other ``*_with_scale`` functions return each
defect with that scale, and ``*_defect`` the defect.
"""

from __future__ import annotations

import cmath
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

        The generator must be x a + y a* (DomainParameterError otherwise).
        V is W^s, with W = V(alpha / s) the closed form of ``_exp_ladder``.
        That one product loses digits to cancellation as
        alpha min(|x|, |y|) sqrt(N) grows (at min(|x|, |y|) = 0 it is
        triangular and nothing cancels), so s = ceil(alpha min(|x|, |y|)
        sqrt(N) / 2) steps hold that quantity at 2 or less in each factor.
        The divisor 2 is measured, not derived: in one product,
        swanson:0.5 at alpha = 1, N = 512 read a Weyl defect of 7.3e-12 on
        its scale, a false FAIL, and in its 6 steps 5.4e-14.  The
        quasi-strong and Weyl defects at the same parameter share V_S.  The
        cached array is read-only, since every caller reads the same one.
        """
        key = (generator, alpha)
        if key not in self._semigroups:
            x, y = _ladder_coefficients(getattr(self, generator).diagonals)
            steps = max(1, math.ceil(alpha * min(abs(x), abs(y)) * math.sqrt(self.dim) / 2))
            W = _exp_ladder(x, y, alpha / steps, self.dim)
            V = W
            for _ in range(steps - 1):
                V = band_product(W, V)
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
    """
    if n < 1:
        raise InvalidDimensionError(f"need dimension >= 1, got {n}")
    z = complex(z)
    if cmath.isnan(z):
        raise DomainParameterError(f"coherent-state eigenvalue z must not be NaN, got {z}")
    tail = coherent_tail_mass(z, n)
    if tail >= 1e-12:
        raise TruncationError(
            f"coherent-state tail mass {tail:.3e} at dimension {n} exceeds 1e-12",
            tail_mass=tail,
        )
    m = min(math.floor(abs(z) ** 2), n - 1)
    ratio = z / np.sqrt(np.arange(1, n))  # x_k / x_(k-1) at k = 1..n-1
    comps = np.ones(n, dtype=complex)
    comps[m + 1 :] = np.cumprod(ratio[m:])
    comps[:m] = np.cumprod(1 / ratio[:m][::-1])[::-1]
    comps /= np.linalg.norm(comps)
    return StateVector(comps, label=f"coh({z.real:g},{z.imag:g})")


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


def _ladder_coefficients(D):
    """(x, y) with A = x a + y a* for the matrix A with diagonals D.

    x and y are read off the first entries of the +1 and -1 diagonals; every
    entry must match x sqrt(k + 1) and y sqrt(k + 1) to within a few
    roundings (8 u relative), and every other diagonal must be zero.  Any
    other operator raises DomainParameterError.  The match is taken on the
    unit scale, D / m against (x / m) sqrt(k + 1) with m = max|D|, so
    entries near the float range do not overflow.
    """
    width, n = _width(D), D.shape[1]
    x = y = 0j
    m = float(np.abs(D).max()) or 1.0
    want = np.zeros_like(D)
    if width:
        x, y = complex(D[width + 1, 0]), complex(D[width - 1, 1])
        root = np.sqrt(np.arange(1.0, n))
        want[width + 1, : n - 1] = x / m * root
        want[width - 1, 1:] = y / m * root
    if not np.all(np.abs(D / m - want) <= 8 * _EPS * np.abs(want)):
        raise DomainParameterError(
            "the closed-form semigroups and vacua need an operator x a + y a*"
        )
    return x, y


def _exp_lowering(z, n):
    """Diagonals of the upper triangular exp(z a): entry (k, k + d) is z^d / d! sqrt((k+1)...(k+d)).

    Diagonal d is diagonal d - 1 times z sqrt(k + d) / d.  Once
    |z| sqrt(N + d) / (d + 1) < 1/2, each later diagonal is less than half the
    one before, so the recurrence stops at the first diagonal below unit
    roundoff of the largest: all that it leaves out is smaller than that.
    """
    root = np.sqrt(np.arange(n))
    rows, largest = [np.ones(n, dtype=complex)], 1.0
    for d in range(1, n):
        row = rows[-1][: n - d] * root[d:] * (z / d)
        size = float(np.max(np.abs(row)))
        if size < _EPS * largest and abs(z) * math.sqrt(n + d) / (d + 1) < 0.5:
            break
        largest = max(largest, size)
        rows.append(row)
    width = len(rows) - 1
    E = np.zeros((2 * width + 1, n), dtype=complex)
    for d, row in enumerate(rows):
        E[width + d, : n - d] = row
    return E


def _exp_ladder(x, y, alpha, n):
    """Diagonals of the N x N block of exp(alpha (x a + y a*)) on the untruncated space.

    [a, a*] = 1 is central, so exp(alpha (x a + y a*)) =
    exp(alpha y a*) exp(alpha x a) exp(alpha^2 x y / 2), the Heisenberg
    group's disentangling identity.  The first factor is lower and the second
    upper triangular, so their product's inner index runs only up to
    min(i, j): the product of the truncated triangles is the block itself.
    Its offsets run from -K_lower to K_upper, so it is kept at the wider of
    the two bandwidths; the diagonals dropped are zero.
    """
    upper = _exp_lowering(alpha * x, n)
    lower = band_adjoint(_exp_lowering((alpha * y).conjugate(), n))  # exp(w a*) = exp(conj(w) a)'
    width = max(_width(lower), _width(upper))
    return _middle(band_product(lower, upper), width) * cmath.exp(alpha * alpha * x * y / 2)


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

    V_S(a) = exp(a S) is the pair's cached closed-form ``semigroup``.
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
