"""Eigenvector ladders, biorthogonal families, and intertwining operators.

The vacua are closed forms: ``kernel_vector`` solves A v = 0 for any
A = x a + y a* by its two-term recurrence, with verdicts on whether the
vacuum lies in l^2 and whether the truncation holds it.  Starting from the
kernel vector xi0 of S, the vectors xi_k = T^k xi0 / sqrt(k!)
are eigenvectors of the number-like operator T S with eigenvalue k; the
mirror family eta_r = (S')^r eta0 / sqrt(r!) built on a kernel vector of T'
is biorthogonal to it after normalizing <xi0, eta0> = 1.  The basis-exchange
maps K_xi (eta_j -> xi_j) and K_eta (xi_j -> eta_j) are mutually inverse and
intertwine the two number-like operators; when the restriction of K_eta to
the xi-span is positive its square root turns the xi family into an
orthonormal one, which is the finite-model shadow of the Riesz-basis
statement.  Both maps live on the L-dimensional ladder spans, so they are
checked in ladder coordinates and never formed as N x N matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    InvalidDimensionError,
    NonNormalizableError,
    PreconditionError,
    TruncationError,
)
from .fock import StateVector, TruncatedOperator, _ladder_coefficients, inner, norm


#: the largest relative tail and kernel residual ``kernel_vector`` accepts
VACUUM_TOL = 1e-10


def kernel_vector(A: TruncatedOperator, tol=VACUUM_TOL):
    """The unit vacuum v of A = x a + y a* (A v = 0), in closed form.

    x and y are read off A's +-1 diagonals as for the semigroups; any other
    operator raises DomainParameterError.  A v = 0 is the two-term recurrence
    v_2m = v_(2m-2) (-y/x) sqrt((2m-1)/(2m)) with the odd components zero: a
    squeezed vacuum (S = cos(t) a + i sin(t) a* has -y/x = -i tan t).  Its
    squared norm sums to (1 - |y/x|^2)^(-1/2), so it lies in l^2 iff
    |y/x| < 1; otherwise, and at x = 0, NonNormalizableError.  The vector is
    the unit truncation with v_0 real and positive.  It is accepted only when
    the l^2 vacuum's norm past dimension N (relative to its whole norm) and
    the certificate |A v| / s, on the operator's scale
    s = sqrt(|x|^2 + |y|^2), are both at most ``tol``; otherwise TruncationError
    carries that tail as ``tail_mass``.  Both gates are needed: at odd N the
    truncated recurrence is an exact kernel vector even while the vacuum's
    tail is large.
    """
    x, y = _ladder_coefficients(A.diagonals)
    if not abs(y) < abs(x):
        raise NonNormalizableError(
            f"the vacuum of A = x a + y a* lies in l^2 only for |y/x| < 1, "
            f"got |x| = {abs(x):.6g} and |y| = {abs(y):.6g}"
        )
    ratio, n = -y / x, A.dim
    tail = math.sqrt(_vacuum_tail_share(abs(ratio) ** 2, (n + 1) // 2))
    m = np.arange(1, (n + 1) // 2)
    v = np.zeros(n, dtype=complex)
    v[::2] = np.concatenate(([1.0], np.cumprod(ratio * np.sqrt((2 * m - 1) / (2 * m)))))
    v /= np.linalg.norm(v)
    residual = norm((A @ v) / math.hypot(abs(x), abs(y)))
    if tail > tol or residual > tol:
        raise TruncationError(
            f"dimension {n} truncates the vacuum at |y/x| = {abs(ratio):.6g}: its norm past "
            f"the edge is {tail:.3e} of the whole and |A v| / s = {residual:.3e}, "
            f"s = sqrt(|x|^2 + |y|^2) (tolerance {tol:.3e})",
            tail_mass=tail,
        )
    return StateVector(v, label="ker")


def _vacuum_tail_share(t2, m0):
    """Share of the squeezed vacuum's squared norm at indices 2m >= 2 m0, for |y/x|^2 = t2 < 1.

    |v_2m|^2 = t2^m C(2m, m) / 4^m out of (1 - t2)^(-1/2) in all: the
    negative binomial law of order 1/2.  Its first term comes from one
    log-space value (math.lgamma) and the rest from the ratio
    t2 (2m - 1) / (2m), so nothing overflows.  Once the partial tail passes
    1e-6 it is one minus the head instead, exact enough and at most m0
    terms long; the forward sum would take ~40 / (1 - t2) terms near t2 = 1.
    """
    if t2 == 0.0:
        return 0.0
    term = tail = math.exp(
        0.5 * math.log1p(-t2) + m0 * math.log(t2)
        + math.lgamma(2 * m0 + 1) - 2 * math.lgamma(m0 + 1) - m0 * math.log(4.0)
    )
    m = m0
    while term > 1e-17 * tail and tail < 1e-6:
        m += 1
        term *= t2 * (2 * m - 1) / (2 * m)
        tail += term
    if tail < 1e-6:
        return tail
    term = head = math.sqrt(1.0 - t2)
    for m in range(1, m0):
        term *= t2 * (2 * m - 1) / (2 * m)
        head += term
    return max(1.0 - head, tail)


def tail_mass_membership(band):
    """Membership predicate: relative mass beyond ``band`` stays below 1e-8.

    This is the matrix-model proxy for "the vector still lies in the domain":
    a vector whose weight has reached the truncation edge can no longer be
    trusted under further applications.
    """

    def member(x):
        total = norm(x)
        if total == 0:
            return False
        return norm(x[band:]) <= 1e-8 * total

    return member


@dataclass
class LadderFamily:
    """The vectors psi_k = A^k psi_0 / sqrt(k!) as the columns of one N x L block.

    The block is column-major, so each psi_k is contiguous and every
    reduction over it (np.vdot, norm) sums in the order of a lone vector.
    """

    block: np.ndarray
    stop_reason: str

    def __post_init__(self):
        for k, v in enumerate(self.block.T):
            if norm(v) == 0:
                raise PreconditionError(f"ladder vector {k} is zero")

    def __len__(self):
        return self.block.shape[1]


def build_ladder(op: TruncatedOperator, base: StateVector, n_max, member=None):
    """Apply ``op`` repeatedly, dividing by sqrt(k!), until n_max or rejection.

    ``member`` (vector -> bool) models domain membership of each new
    vector; early stop is a normal outcome recorded in ``stop_reason``.
    A negative ``n_max`` raises PreconditionError.
    """
    if n_max < 0:
        raise PreconditionError(f"bad ladder length '{n_max}' (expected n_max >= 0)")
    if op.dim != base.dim:
        raise InvalidDimensionError("operator and base vector dimensions differ")
    vectors = [base.components]
    stop_reason = f"reached n_max={n_max}"
    for k in range(1, n_max + 1):
        current = (op @ vectors[-1]) / math.sqrt(k)
        if not np.isfinite(current).all():
            raise InvalidDimensionError("state vector contains NaN or Inf")
        if member is not None and not member(current):
            stop_reason = f"membership failed at k={k}"
            break
        vectors.append(current)
    return LadderFamily(block=np.array(vectors).T, stop_reason=stop_reason)


def eigen_check(pair, fam: LadderFamily):
    """Residuals of the eigenvalue relations along a ladder built from pair.T.

    For psi_k = fam.block[:, k] this checks (T S) psi_k = k psi_k together
    with the lowering action S psi_k = sqrt(k) psi_{k-1}; the returned entry
    is the larger of the two relative residuals.  S and T are each applied
    once to the whole block, so T S acts as the matvec chain T (S psi_k).
    """
    X = fam.block
    if pair.dim != X.shape[0]:
        raise InvalidDimensionError("pair and family dimensions differ")
    SX = pair.S @ X
    TSX = pair.T @ SX
    residuals = []
    for k, psi in enumerate(X.T):
        scale = norm(psi)
        r_num = norm(TSX[:, k] - k * psi) / scale
        r_low = 0.0 if k == 0 else norm(SX[:, k] - math.sqrt(k) * X[:, k - 1]) / scale
        residuals.append(max(r_num, r_low))
    return residuals


def residuals_monotone(residuals):
    """Diagnostic flag: residuals nondecreasing in k (truncation effect only)."""
    return all(b >= a for a, b in zip(residuals, residuals[1:]))


def _rescaled_eta(fam_xi: LadderFamily, fam_eta: LadderFamily):
    """The eta block scaled so that <xi0, eta0> = 1 (the ladder is linear in its base)."""
    ip0 = inner(fam_xi.block[:, 0], fam_eta.block[:, 0])
    if abs(ip0) < 1e-14:
        raise NonNormalizableError(f"<xi0, eta0> = {ip0:.3e} cannot be scaled to 1")
    return (1.0 / ip0).conjugate() * fam_eta.block


def biorthogonality_gram(fam_xi: LadderFamily, fam_eta: LadderFamily):
    """Gram matrix G[i, j] = <xi_i, eta_j> after scaling <xi0, eta0> = 1.

    The result should be the identity on the overlapping index range.
    """
    Y = _rescaled_eta(fam_xi, fam_eta)
    G = np.empty((len(fam_xi), Y.shape[1]), dtype=complex)
    for i, xi in enumerate(fam_xi.block.T):
        for j, eta in enumerate(Y.T):
            G[i, j] = inner(xi, eta)
    return G


@dataclass(frozen=True)
class IntertwinerPair:
    """Conditioning and defects of the basis-exchange maps between the two ladders.

    The fields are the ``ladder`` report's keys.  ``riesz_positive`` records
    whether the symmetrized restriction of K_eta to the xi-span is positive
    definite, and when it is, ``orthonormality_defect`` is the max-abs
    deviation of the Gram matrix of e_j = K_eta^(1/2) xi_j from the identity.
    """

    condition_numbers: tuple
    inverse_defect: float
    intertwining_defect_eta: float
    intertwining_defect_xi: float
    riesz_positive: bool
    orthonormality_defect: float | None


def intertwiners(pair, fam_xi: LadderFamily, fam_eta: LadderFamily):
    """Verify the defining relations of K_xi and K_eta in ladder coordinates.

    With the first L vectors of each family as the columns of X and Y,
    K_xi = X Y^+ maps eta_j to xi_j and K_eta = Y X^+ maps xi_j to eta_j;
    neither N x N map is formed.  Each family is factored once, by a thin
    SVD M = U diag(s) V': s gives the condition number s_0 / s_(L-1), the
    pseudoinverse is M^+ = V diag(1/s) U', and U is the orthonormal frame of
    the xi-span in which X = U R with R = diag(s) V'.
    Reported defects: K_eta K_xi - 1 on the eta-span, in eta coordinates
    (Y^+ Y)(X^+ X)(Y^+ Y) - 1, and the intertwining defects
    K_eta (T S) - (S' T') K_eta on xi vectors (resp. the mirror for K_xi).
    """
    L = min(len(fam_xi), len(fam_eta))
    if L < 1:
        raise PreconditionError("need at least one ladder vector per family")
    X = fam_xi.block[:, :L]
    Y = _rescaled_eta(fam_xi, fam_eta)[:, :L]

    svds = [np.linalg.svd(M, full_matrices=False) for M in (X, Y)]
    for name, (_, sv, _) in zip(("xi", "eta"), svds):
        if sv[-1] <= np.finfo(float).eps * sv[0] * X.shape[0]:
            raise ConditioningError(f"{name} family is numerically singular")
    (Ux, sx, Vhx), (_, sy, _) = svds
    X_pinv, Y_pinv = ((Vh.conj().T / sv) @ U.conj().T for U, sv, Vh in svds)
    PX, PY = X_pinv @ X, Y_pinv @ Y
    inverse_defect = float(np.max(np.abs(PY @ PX @ PY - np.eye(L))))

    S, T = pair.S, pair.T
    Sd, Td = S.adjoint(), T.adjoint()
    # column j: K_eta (T S) xi_j - (S' T') K_eta xi_j, and the mirror on eta_j
    D_eta = Y @ (X_pinv @ (T @ (S @ X))) - Sd @ (Td @ (Y @ PX))
    D_xi = X @ (Y_pinv @ (Sd @ (Td @ Y))) - T @ (S @ (X @ PY))
    d_eta = max(norm(D_eta[:, j]) / norm(X[:, j]) for j in range(L))
    d_xi = max(norm(D_xi[:, j]) / norm(Y[:, j]) for j in range(L))

    # restriction of K_eta to the xi-span in the frame U: U' Y X^+ U = (U' Y) V diag(1/s)
    A = (Ux.conj().T @ Y) @ (Vhx.conj().T / sx)
    H = (A + A.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(H)
    positive = bool(evals.min() > -1e-10)
    ortho_defect = None
    if positive:
        # e_j = K_eta^(1/2) xi_j has frame coordinates H^(1/2) R[:, j]
        H_plus = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
        R = sx[:, None] * Vhx
        gram = R.conj().T @ H_plus @ R
        ortho_defect = float(np.max(np.abs(gram - np.eye(L))))

    return IntertwinerPair(
        condition_numbers=(float(sx[0] / sx[-1]), float(sy[0] / sy[-1])),
        inverse_defect=inverse_defect,
        intertwining_defect_eta=float(d_eta),
        intertwining_defect_xi=float(d_xi),
        riesz_positive=positive,
        orthonormality_defect=ortho_defect,
    )


def restricted_spectrum(pair, fam: LadderFamily):
    """Eigenvalues of T S restricted to the ladder span, in the ladder basis."""
    X = fam.block
    R = np.linalg.pinv(X) @ (pair.T @ (pair.S @ X))
    evals = np.linalg.eigvals(R)
    return np.sort_complex(evals)
