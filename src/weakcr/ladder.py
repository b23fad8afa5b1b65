"""Eigenvector ladders, biorthogonal families, and intertwining operators.

Starting from a kernel vector xi0 of S, the vectors xi_k = T^k xi0 / sqrt(k!)
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
    NoKernelError,
    NonNormalizableError,
    PreconditionError,
    TruncationError,
)
from .fock import (
    StateVector,
    TruncatedOperator,
    _EPS,
    band_product,
    hermitian_upper,
    inner,
    norm,
)


def kernel_vector(A: TruncatedOperator, tol=1e-10):
    """Unit-norm numerical kernel vector of A, with the certificate |A v|.

    Inverse iteration on the banded Hermitian matrix A'A + eps I (a banded
    Cholesky factor, solved at most 8 times) converges to the right singular
    vector of the smallest singular value; the shift eps, a rounding-sized
    multiple of |A|_F^2, keeps the factorization positive definite.  Each
    solve shrinks the component along the next singular value sigma_2 by
    (sigma_min^2 + eps) / (sigma_2^2 + eps), so the vector settles only when
    sigma_2^2 >> eps, and close pairs of small singular values can leave it
    unsettled.  Since |A v| >= sigma_min for every unit v, the vector is
    accepted only when |A v| <= ``tol``; otherwise NoKernelError carries
    |A v| as ``sigma_min``, an upper bound, and its message says when the
    iteration did not settle.  The phase is fixed so the first non-negligible
    component is positive real, which makes the result deterministic.
    """
    import scipy.linalg  # its only user; deferred so that importing weakcr loads numpy alone

    upper = hermitian_upper(band_product(A.adjoint().diagonals, A.diagonals))
    width = upper.shape[0] - 1
    frobenius2 = float(np.sum(upper[width].real)) or 1.0  # trace of A'A
    # a few roundings of |A|_F^2 keep the factor positive definite
    upper[width] += 4 * (width + 1) * _EPS * frobenius2
    factor = scipy.linalg.cholesky_banded(upper)
    # a fixed random start: deterministic, and no symmetry of A makes it
    # orthogonal to the kernel (a constant vector can be)
    v = np.random.default_rng(0).standard_normal(A.dim).astype(complex)
    settled = False
    for _ in range(8):
        w = scipy.linalg.cho_solve_banded((factor, False), v)
        w /= np.linalg.norm(w)
        overlap = np.vdot(w, v)
        w *= overlap / (abs(overlap) or 1.0)  # v's phase, so |w - v| is the step's angle
        settled = np.linalg.norm(w - v) <= 8 * _EPS
        v = w
        if settled:
            break
    residual = norm(A @ v)
    if residual > tol:
        unsettled = "" if settled else (
            "; inverse iteration did not settle in 8 solves, so |A v| may exceed "
            "the smallest singular value"
        )
        raise NoKernelError(
            f"no kernel vector: |A v| = {residual:.3e} exceeds tolerance {tol:.3e} "
            f"(|A v| >= smallest singular value){unsettled}",
            sigma_min=residual,
        )
    scale = np.max(np.abs(v))
    idx = int(np.argmax(np.abs(v) > 1e-12 * scale))
    phase = v[idx] / abs(v[idx])
    return StateVector(v / phase, label="ker")


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


def commutation_power_check(pair, xi: StateVector, k: int):
    """Residual of S T^k xi - T^k S xi - k T^(k-1) xi in the matrix model."""
    if k < 1:
        raise PreconditionError(f"power must be >= 1, got {k}")
    if pair.dim != xi.dim:
        raise InvalidDimensionError("pair and state dimensions differ")
    guard = pair.safe_rank - (k + 1)
    if guard < 1:
        raise TruncationError(f"dimension {pair.dim} too small for power {k}")
    tail = norm(xi.components[guard:])
    if tail > 1e-10 * xi.norm:
        raise TruncationError(f"state reaches within {k + 1} indices of the truncation edge", tail_mass=tail)
    S, T = pair.S, pair.T
    tk_prev_xi = _power_apply(T, k - 1, xi.components)
    resid = S @ (T @ tk_prev_xi) - _power_apply(T, k, S @ xi.components) - k * tk_prev_xi
    return norm(resid)


def _power_apply(A, k, x):
    """A^k x as k matvecs."""
    for _ in range(k):
        x = A @ x
    return x


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
class RieszDiagnostics:
    """The orthonormalization the xi family induces.

    ``positive`` records whether the symmetrized restriction of K_eta to the
    xi-span is positive definite, and when it is, ``orthonormality_defect``
    is the max-abs deviation of the Gram matrix of e_j = K_eta^(1/2) xi_j
    from the identity.
    """

    positive: bool
    orthonormality_defect: float | None


@dataclass(frozen=True)
class IntertwinerPair:
    """Conditioning and defects of the basis-exchange maps between the two ladders."""

    condition_numbers: tuple
    inverse_defect: float
    intertwining_defect_eta: float
    intertwining_defect_xi: float
    riesz: RieszDiagnostics


def intertwiners(pair, fam_xi: LadderFamily, fam_eta: LadderFamily):
    """Verify the defining relations of K_xi and K_eta in ladder coordinates.

    With the first L vectors of each family as the columns of X and Y,
    K_xi = X Y^+ maps eta_j to xi_j and K_eta = Y X^+ maps xi_j to eta_j;
    neither N x N map is formed, only the L x N pseudoinverses and X = Q R.
    Reported defects: K_eta K_xi - 1 on the eta-span, in eta coordinates
    (Y^+ Y)(X^+ X)(Y^+ Y) - 1, and the intertwining defects
    K_eta (T S) - (S' T') K_eta on xi vectors (resp. the mirror for K_xi).
    """
    L = min(len(fam_xi), len(fam_eta))
    if L < 1:
        raise PreconditionError("need at least one ladder vector per family")
    X = fam_xi.block[:, :L]
    Y = _rescaled_eta(fam_xi, fam_eta)[:, :L]

    sx, sy = (np.linalg.svd(M, compute_uv=False) for M in (X, Y))
    for name, sv in (("xi", sx), ("eta", sy)):
        if sv[-1] <= np.finfo(float).eps * sv[0] * X.shape[0]:
            raise ConditioningError(f"{name} family is numerically singular")

    X_pinv = np.linalg.pinv(X)
    Y_pinv = np.linalg.pinv(Y)
    PX, PY = X_pinv @ X, Y_pinv @ Y
    inverse_defect = float(np.max(np.abs(PY @ PX @ PY - np.eye(L))))

    S, T = pair.S, pair.T
    Sd, Td = S.adjoint(), T.adjoint()
    # column j: K_eta (T S) xi_j - (S' T') K_eta xi_j, and the mirror on eta_j
    D_eta = Y @ (X_pinv @ (T @ (S @ X))) - Sd @ (Td @ (Y @ PX))
    D_xi = X @ (Y_pinv @ (Sd @ (Td @ Y))) - T @ (S @ (X @ PY))
    d_eta = max(norm(D_eta[:, j]) / norm(X[:, j]) for j in range(L))
    d_xi = max(norm(D_xi[:, j]) / norm(Y[:, j]) for j in range(L))

    # restriction of K_eta to the xi-span, in the orthonormal frame Q of X = Q R
    Q, R = np.linalg.qr(X)
    A = (Q.conj().T @ Y) @ (X_pinv @ Q)
    H = (A + A.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(H)
    positive = bool(evals.min() > -1e-10)
    ortho_defect = None
    if positive:
        # e_j = K_eta^(1/2) xi_j has frame coordinates H^(1/2) R[:, j]
        H_plus = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
        gram = R.conj().T @ H_plus @ R
        ortho_defect = float(np.max(np.abs(gram - np.eye(L))))

    return IntertwinerPair(
        condition_numbers=(float(sx[0] / sx[-1]), float(sy[0] / sy[-1])),
        inverse_defect=inverse_defect,
        intertwining_defect_eta=float(d_eta),
        intertwining_defect_xi=float(d_xi),
        riesz=RieszDiagnostics(positive, ortho_defect),
    )


def restricted_spectrum(pair, fam: LadderFamily):
    """Eigenvalues of T S restricted to the ladder span, in the ladder basis."""
    X = fam.block
    R = np.linalg.pinv(X) @ (pair.T @ (pair.S @ X))
    evals = np.linalg.eigvals(R)
    return np.sort_complex(evals)
