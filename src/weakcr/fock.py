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
Taylor series for exp, and a Golub-Kahan-Lanczos iteration for the Weyl
block's spectral norm), so the defect chain forms nothing of size N x N.
Each semigroup is formed once per pair and parameter, and shared by the
quasi-strong and Weyl defects.
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
        one commutator formed on the diagonals of S and T.
        """
        X = band_commutator(band_adjoint(self.S.diagonals), self.T.diagonals)
        return block_max_abs(X + band_adjoint(X), self.safe_rank)


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
    """The reference model S = a, T = a*."""
    return OperatorPair(lowering(n), raising(n))


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
    if n < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {n}")
    a, ad = lowering(n).diagonals, raising(n).diagonals
    c, s = math.cos(theta), math.sin(theta)
    S = TruncatedOperator.banded(c * a + 1j * s * ad)
    T = TruncatedOperator.banded(c * ad + 1j * s * a)
    return OperatorPair(S, T)


def matrix2x2_pair(s, q):
    """The 2x2 model S = [[0, s], [0, 0]], T = [[0, 0], [q, 0]]."""
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

    A wide (even full) matrix is stored exactly, only with more diagonals.
    """
    n = entries.shape[0]
    rows, cols = np.nonzero(entries)
    width = int(abs(rows - cols).max(initial=0))
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
    width = min(_width(D), k - 1)
    B = D[_width(D) - width : _width(D) + width + 1, :k].copy()
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


def hermitian_upper(D):
    """LAPACK upper band storage of a Hermitian matrix given by its diagonals.

    ab[K + i - j, j] = H[i, j] for i <= j, so ab[K] is the main diagonal
    (the layout scipy.linalg.cholesky_banded and solveh_banded read).
    """
    return band_columns(D)[_width(D) :][::-1]


def band_commutator(A, B):
    """Diagonals of A B - B A."""
    return band_product(A, B) - band_product(B, A)


def block_max_abs(D, k):
    """Max-abs entry of the leading k x k block of the matrix with diagonals D."""
    return float(np.max(np.abs(_leading_block(D, k))))


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
    relative to the partial sum.  Each term widens the band by K, so the
    result has bandwidth at most s * m * K.
    """
    A = alpha * D
    norm1 = float(np.max(np.sum(np.abs(band_columns(A)), axis=0)))
    steps, degree = min(
        ((max(1, math.ceil(norm1 / theta)), m) for m, theta in _TAYLOR_THETA.items()),
        key=lambda sm: (sm[0] * sm[1], sm[1]),
    )
    A /= steps
    n = D.shape[1]
    widest = min(degree * _width(D), n - 1)
    total = np.zeros((2 * widest + 1, n), dtype=complex)
    total[widest] = 1.0
    term = np.ones((1, n), dtype=complex)
    previous, bound = 0.0, 1.0  # bound >= max|total|, so max|total| is read only near the end
    for j in range(1, degree + 1):
        term = band_product(A, term)
        term /= j
        width = _width(term)
        total[widest - width : widest + width + 1] += term
        size = float(np.max(np.abs(term)))
        bound += size
        if size + previous <= _EPS * bound and size + previous <= _EPS * np.max(np.abs(total)):
            break
        previous = size
    total = total[widest - width : widest + width + 1]
    V = total
    for _ in range(steps - 1):
        V = band_product(total, V)
    return V


#: the Lanczos norm stops once its top Ritz triplet's residual is this share of sigma
_LANCZOS_TOL = 4 * _EPS
_GOLDEN = (math.sqrt(5) - 1) / 2


def spectral_norm(D):
    """Largest singular value of the matrix with diagonals D, by Golub-Kahan-Lanczos.

    Golub & Kahan (SIAM J. Numer. Anal. B 2, 1965): from a fixed unit vector
    v_1, the steps u_j = (A v_j - beta_{j-1} u_{j-1}) / alpha_j and
    v_{j+1} = (A' u_j - alpha_j v_j) / beta_j, each reorthogonalized against
    every earlier u or v, give A V_k = U_k B_k with B_k upper bidiagonal
    (alphas on the diagonal, betas above it).  The top singular triplet
    (sigma, x, y) of B_k comes from the eigenvectors of the k x k tridiagonal
    B_k B_k'; its Ritz triplet (sigma, U_k x, V_k y) has residual
    beta_k |x_k|, and the iteration stops once that is at most 4 u sigma
    (u = 2^-53), on breakdown (a zero alpha or beta) or at k = N.  A and A'
    are each applied once per step, as one einsum over a strided window of
    the zero-padded vector, so nothing of size N x N is formed.  The
    all-zero matrix gives exactly 0.0, and the fixed start vector makes the
    result the same, bit for bit, on every call.  D's slots outside the
    matrix must be zero, as every band helper here leaves them.
    """
    D = np.asarray(D, dtype=complex)
    n = D.shape[1]
    if not D.any():
        return 0.0
    apply_A, apply_AH = _window_matvec(D), _window_matvec(band_adjoint(D))
    size = min(n, 32)  # rows of U, V and T, doubled as needed
    U, V = np.empty((size, n), dtype=complex), np.empty((size, n), dtype=complex)
    T = np.zeros((size, size))  # B_k B_k', upper triangle
    # v_1 has equal moduli and golden-ratio phases: fixed like a seeded random
    # vector, without loading numpy.random (6 MB and 10-15 ms in a fresh interpreter)
    V[0] = np.exp(2j * math.pi * (np.arange(n) * _GOLDEN % 1.0)) / math.sqrt(n)
    beta = 0.0
    for k in range(n):
        r = apply_A(V[k])
        if k:
            r -= beta * U[k - 1]
        alpha = _orthogonalize(r, U[:k])
        if k:
            T[k - 1, k - 1] += beta * beta
            T[k - 1, k] = beta * alpha
        T[k, k] = alpha * alpha
        beta = 0.0
        if alpha:
            U[k] = r / alpha
            p = apply_AH(U[k]) - alpha * V[k]
            beta = _orthogonalize(p, V[: k + 1])
        lam, X = np.linalg.eigh(T[: k + 1, : k + 1], UPLO="U")
        sigma = math.sqrt(lam[-1])
        if beta * abs(X[-1, -1]) <= _LANCZOS_TOL * sigma or k + 1 == n:
            return sigma
        if k + 1 == size:
            size = min(n, 2 * size)
            grow = np.empty((size - k - 1, n), dtype=complex)
            U, V, T = np.concatenate((U, grow)), np.concatenate((V, grow)), np.pad(T, (0, size - k - 1))
        V[k + 1] = p / beta


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


def _orthogonalize(r, Q):
    """Remove from r, in place, its components along the orthonormal rows of Q; return |r|.

    A second Gram-Schmidt pass runs when the first leaves less than
    1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
    1976), which is when the first pass may have lost orthogonality.
    """
    before = norm(r)
    for _ in range(2):
        r -= np.conj(Q @ r.conj()) @ Q
        after = norm(r)
        if after >= math.sqrt(0.5) * before:
            break
        before = after
    return after


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------


def weak_defect(pair):
    """Entrywise defect of the weak commutation relation on the safe block.

    max over basis indices i, j < safe_rank of
    |<T e_i, S' e_j> - <S e_i, T' e_j> - delta_ij|, which in matrix form is
    the max-abs entry of the leading block of S T - T S - 1, formed on the
    diagonals of S and T.
    """
    M = band_commutator(pair.S.diagonals, pair.T.diagonals)
    M[_width(M)] -= 1.0
    return block_max_abs(M, pair.safe_rank)


def semigroup_band(pair, alpha):
    """Safe band for semigroup checks: safe_rank minus the spreading margin.

    exp(alpha S) spreads mass roughly alpha*sqrt(N) indices past the diagonal
    before superexponential damping, so the band shrinks by
    ceil(10 * alpha * sqrt(N)).
    """
    margin = math.ceil(10.0 * alpha * math.sqrt(pair.dim))
    band = pair.safe_rank - margin
    if band < 1:
        raise TruncationError(
            f"dimension {pair.dim} too small for semigroup parameter {alpha} "
            f"(margin {margin} exhausts safe rank {pair.safe_rank})"
        )
    return band


def quasi_strong_defect(pair, alpha):
    """Entrywise defect of V_S(a) T - T V_S(a) = a V_S(a) on the reduced band.

    V_S(a) = exp(a S) is the pair's cached ``semigroup`` (band_expm); every
    product is banded.
    """
    if not 0 <= alpha < math.inf:
        raise DomainParameterError(f"semigroup parameter must be finite and >= 0, got {alpha}")
    band = semigroup_band(pair, alpha)
    T = pair.T.diagonals
    V = pair.semigroup("S", alpha)
    M = band_commutator(V, T)
    width = _width(V)
    M[_width(M) - width : _width(M) + width + 1] -= alpha * V
    return block_max_abs(M, band)


def weyl_defect(pair, alpha, beta):
    """Spectral-norm defect of V_S(a) V_T(b) = e^(ab) V_T(b) V_S(a) on the band.

    Both semigroups are the pair's cached banded ``semigroup``s, so V_S is
    shared with ``quasi_strong_defect`` at the same parameter.  Of each
    product only the rows that reach the leading band x band block are
    formed, and that block's spectral norm is ``spectral_norm``'s
    Golub-Kahan-Lanczos iteration on its diagonals, so nothing of size
    band x band is formed.
    """
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise DomainParameterError(
            f"semigroup parameters must be finite and >= 0, got ({alpha}, {beta})"
        )
    band = semigroup_band(pair, max(alpha, beta))
    VS, VT = pair.semigroup("S", alpha), pair.semigroup("T", beta)
    M = band_product(VS, VT, band)
    M -= math.exp(alpha * beta) * band_product(VT, VS, band)
    M = _leading_block(M, band)  # the full product goes before the norm makes its copies
    return spectral_norm(M)
