"""Truncated Fock-space matrix models and commutation-relation defects.

An N-dimensional truncation of the boson pair (a, a*) and its deformations
stands in for the unbounded operators; every identity is checked only on a
leading "safe" block of basis indices where finite truncation provably does
not corrupt it.  Defects come in three strengths: the weak (inner-product)
form, the semigroup form V_S(alpha) T - T V_S(alpha) = alpha V_S(alpha), and
the Weyl form between two semigroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class TruncatedOperator:
    """N x N complex matrix standing in for an operator on a dense domain."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidDimensionError(f"entries must be a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDimensionError("entries contain NaN or Inf")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self):
        return self.entries.shape[0]

    def adjoint(self):
        return TruncatedOperator(self.entries.conj().T, label=self.label + "'")

    def __matmul__(self, other):
        if isinstance(other, TruncatedOperator):
            return TruncatedOperator(self.entries @ other.entries,
                                     label=f"{self.label}{other.label}")
        return NotImplemented


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

    @property
    def norm(self):
        return norm(self.components)


@dataclass(frozen=True)
class OperatorPair:
    """A pair (S, T) together with its certified safe rank.

    ``safe_rank`` counts the leading basis vectors on which degree-1 words
    are free of truncation artifacts; each generator application leaks at
    most one basis index, so higher-degree checks shrink the block further.
    """

    S: TruncatedOperator
    T: TruncatedOperator
    safe_rank: int = field(default=0)

    def __post_init__(self):
        if self.S.dim != self.T.dim:
            raise InvalidDimensionError("S and T must act on the same truncation")
        rank = self.safe_rank if self.safe_rank else self.S.dim - 1
        if not 0 < rank < self.S.dim:
            raise InvalidDimensionError(f"safe_rank {rank} outside (0, {self.S.dim})")
        object.__setattr__(self, "safe_rank", rank)

    @property
    def dim(self):
        return self.S.dim


def lowering(n):
    """Annihilation matrix: entry sqrt(j+1) at (j, j+1)."""
    if n < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {n}")
    return TruncatedOperator(np.diag(np.sqrt(np.arange(1, n)).astype(complex), 1), label="a")


def raising(n):
    """Creation matrix, the adjoint of lowering(n)."""
    return lowering(n).adjoint()


def identity(n):
    return TruncatedOperator(np.eye(n, dtype=complex), label="1")


def boson_pair(n=DEFAULT_DIM):
    """The reference model S = a, T = a*."""
    return OperatorPair(lowering(n), raising(n), safe_rank=n - 1)


def coherent_state(z, n):
    """Normalized truncation of the coherent state with eigenvalue z.

    Components are proportional to z^k / sqrt(k!).  The discarded tail mass
    sum_{k >= n} |z|^(2k)/k! must be below 1e-12; otherwise a TruncationError
    carrying the computed tail is raised.
    """
    if n < 1:
        raise InvalidDimensionError(f"need dimension >= 1, got {n}")
    z = complex(z)
    mod2 = abs(z) ** 2
    # partial sum of exp(|z|^2) up to k < n, with exact-enough recursion
    term = 1.0
    partial = 1.0
    for k in range(1, n):
        term *= mod2 / k
        partial += term
    tail = math.exp(mod2) - partial
    if tail >= 1e-12:
        raise TruncationError(
            f"coherent-state tail mass {tail:.3e} at dimension {n} exceeds 1e-12",
            tail_mass=tail,
        )
    comps = np.zeros(n, dtype=complex)
    comps[0] = 1.0
    for k in range(1, n):
        comps[k] = comps[k - 1] * z / math.sqrt(k)
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
    if n < 2:
        raise InvalidDimensionError(f"need dimension >= 2, got {n}")
    a = lowering(n).entries
    ad = raising(n).entries
    c, s = math.cos(theta), math.sin(theta)
    S = TruncatedOperator(c * a + 1j * s * ad, label="S")
    T = TruncatedOperator(c * ad + 1j * s * a, label="T")
    return OperatorPair(S, T, safe_rank=n - 1)


def matrix2x2_pair(s, q):
    """The 2x2 model S = [[0, s], [0, 0]], T = [[0, 0], [q, 0]]."""
    S = TruncatedOperator(np.array([[0, s], [0, 0]], dtype=complex), label="S")
    T = TruncatedOperator(np.array([[0, 0], [q, 0]], dtype=complex), label="T")
    return OperatorPair(S, T, safe_rank=1)


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------


def weak_defect(pair):
    """Entrywise defect of the weak commutation relation on the safe block.

    max over basis indices i, j < safe_rank of
    |<T e_i, S' e_j> - <S e_i, T' e_j> - delta_ij|, which in matrix form is
    the max-abs entry of the leading block of S T - T S - 1.
    """
    k = pair.safe_rank
    S, T = pair.S.entries, pair.T.entries
    M = S @ T - T @ S - np.eye(pair.dim, dtype=complex)
    return float(np.max(np.abs(M[:k, :k])))


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
    """Entrywise defect of V_S(a) T - T V_S(a) = a V_S(a) on the reduced band."""
    if not 0 <= alpha < math.inf:
        raise DomainParameterError(f"semigroup parameter must be finite and >= 0, got {alpha}")
    band = semigroup_band(pair, alpha)
    S, T = pair.S.entries, pair.T.entries
    V = scipy.linalg.expm(alpha * S)
    M = V @ T - T @ V - alpha * V
    return float(np.max(np.abs(M[:band, :band])))


def weyl_defect(pair, alpha, beta):
    """Spectral-norm defect of V_S(a) V_T(b) = e^(ab) V_T(b) V_S(a) on the band."""
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise DomainParameterError(
            f"semigroup parameters must be finite and >= 0, got ({alpha}, {beta})"
        )
    band = semigroup_band(pair, max(alpha, beta))
    S, T = pair.S.entries, pair.T.entries
    VS = scipy.linalg.expm(alpha * S)
    VT = scipy.linalg.expm(beta * T)
    M = VS @ VT - math.exp(alpha * beta) * (VT @ VS)
    return float(np.linalg.norm(M[:band, :band], ord=2))
