"""The differentiation / multiplication pair on weighted polynomial domains.

S f = f' and T f = x f act on polynomials inside L2(R, w dx) for an even,
positive, integrable weight w.  Two weights are provided: the rational
family w(x) = (1 + x^4)^(-alpha) with alpha > 3/4, whose finite moments cut
the ladder T^n 1 off at n < 2*alpha - 3/2, and the Gaussian w(x) =
exp(-x^2/2), where every moment is finite and x^k is an exact eigenvector
of T S with eigenvalue k.

Divergent integrals are detected by power counting before any quadrature is
attempted; quadrature maps the line to (-pi/2, pi/2) by x = tan(u) for the
rational weights and uses Gauss-Hermite nodes for the Gaussian one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.integrate

from .errors import (
    DomainParameterError,
    NotAdmissibleError,
    NotInL2Error,
)

RATIONAL = "rational"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Weight:
    """Even positive weight; ``alpha`` is set only for the rational kind."""

    kind: str
    alpha: float | None = None

    def evaluate(self, x):
        if self.kind == RATIONAL:
            return (1.0 + x**4) ** (-self.alpha)
        return np.exp(-(x**2) / 2.0)

    def log_derivative(self, x):
        """w'(x) / w(x); bounded for both kinds."""
        if self.kind == RATIONAL:
            return -4.0 * self.alpha * x**3 / (1.0 + x**4)
        return -x

    @property
    def decay_exponent(self):
        """Power of the tail decay; infinite for the Gaussian weight."""
        if self.kind == RATIONAL:
            return 4.0 * self.alpha
        return math.inf

    def moment_is_finite(self, k):
        """Power counting: integral of x^k w(x) converges iff k < 4*alpha - 1."""
        if k < 0:
            raise DomainParameterError(f"moment order must be >= 0, got {k}")
        if self.kind == GAUSSIAN:
            return True
        return k < 4.0 * self.alpha - 1.0


def rational_weight(alpha):
    """Weight (1 + x^4)^(-alpha); needs a finite alpha > 3/4 for integrability of w."""
    if not 0.75 < alpha < math.inf:
        raise DomainParameterError(f"rational weight needs a finite alpha > 3/4, got {alpha}")
    return Weight(RATIONAL, float(alpha))


def gaussian_weight():
    return Weight(GAUSSIAN)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_HERMITE_SIZES = (80, 160, 320)


@lru_cache(maxsize=8)
def _hermgauss(n):
    t, w = np.polynomial.hermite.hermgauss(n)
    # enforce exact node antisymmetry and weight symmetry so that mirrored
    # contributions can cancel bit-exactly below
    t = (t - t[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    return t, w


def _gauss_weighted_real(fn):
    """integral of fn(x) exp(-x^2/2) dx by Gauss-Hermite, nodes doubled to convergence.

    Mirrored node contributions are folded pairwise before summing, so
    integrands that are odd with sign-exact evaluation integrate to exactly
    zero instead of leaving cancellation noise at the integrand's scale.
    The convergence floor also scales with the weighted L1 mass.
    """
    prev = None
    for n in _HERMITE_SIZES:
        t, w = _hermgauss(n)
        x = math.sqrt(2.0) * t
        contrib = w * fn(x)
        folded = contrib + contrib[::-1]
        val = math.sqrt(2.0) * 0.5 * float(np.sum(folded))
        scale = math.sqrt(2.0) * float(np.dot(w, np.abs(fn(x))))
        if prev is not None and abs(val - prev) <= max(
            1e-12 * max(scale, 1.0), 1e-11 * abs(val)
        ):
            return val
        prev = val
    return prev


def _rational_weighted_real(fn, alpha):
    """integral of fn(x) (1+x^4)^(-alpha) dx via the substitution x = tan(u)."""

    def integrand(u):
        x = math.tan(u)
        sec2 = 1.0 + x * x
        return fn(np.array([x]))[0] * (1.0 + x**4) ** (-alpha) * sec2

    val, _ = scipy.integrate.quad(
        integrand, -math.pi / 2, math.pi / 2, limit=500, epsabs=1e-13, epsrel=1e-11
    )
    return val


def integrate_weighted(fn, weight: Weight):
    """integral of fn(x) w(x) dx for a complex-valued vectorized callable."""

    def real_part(x):
        return np.real(fn(x))

    def imag_part(x):
        return np.imag(fn(x))

    if weight.kind == GAUSSIAN:
        re = _gauss_weighted_real(real_part)
        im = _gauss_weighted_real(imag_part)
    else:
        re = _rational_weighted_real(real_part, weight.alpha)
        im = _rational_weighted_real(imag_part, weight.alpha)
    return complex(re, im)


@lru_cache(maxsize=4096)
def moment(weight: Weight, k: int):
    """k-th moment of w: exact 0 for odd k, +inf marker when divergent.

    Finiteness is decided analytically first; quadrature never sees a
    divergent integrand.
    """
    if k < 0:
        raise DomainParameterError(f"moment order must be >= 0, got {k}")
    if not weight.moment_is_finite(k):
        return math.inf
    if k % 2 == 1:
        return 0.0
    if weight.kind == GAUSSIAN:
        return _gauss_weighted_real(lambda x: x**k)
    return _rational_weighted_real(lambda x: x**k, weight.alpha)


@dataclass(frozen=True)
class MomentTable:
    """Moments mu_0 .. mu_kmax, with math.inf marking divergence."""

    weight: Weight
    values: tuple

    @classmethod
    def build(cls, weight, k_max):
        return cls(weight, tuple(moment(weight, k) for k in range(k_max + 1)))

    def get(self, k):
        return self.values[k]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyFunc:
    """Polynomial sum c_k x^k; coefficients stay in whatever exact type given."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __call__(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def derivative(self):
        return PolyFunc(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def times_x(self):
        if self.is_zero():
            return self
        return PolyFunc((0,) + self.coeffs)

    def scaled(self, factor):
        return PolyFunc(tuple(factor * c for c in self.coeffs))

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return PolyFunc(tuple(x - y for x, y in zip(a, b)))


def monomial(k):
    return PolyFunc((0,) * k + (1,))


def apply_S(f: PolyFunc):
    """Differentiation; exact coefficient arithmetic."""
    return f.derivative()


def apply_T(f: PolyFunc):
    """Multiplication by x; exact coefficient shift."""
    return f.times_x()


def inner_product(f: PolyFunc, g: PolyFunc, weight: Weight):
    """<f, g> = sum_i,j f_i conj(g_j) mu_(i+j); errors on a divergent moment."""
    total = 0j
    for i, ci in enumerate(f.coeffs):
        if not ci:
            continue
        for j, cj in enumerate(g.coeffs):
            if not cj:
                continue
            mu = moment(weight, i + j)
            if mu == math.inf:
                raise NotInL2Error(
                    f"pairing needs divergent moment mu_{i + j}", power=i + j
                )
            if mu:
                total += complex(ci) * complex(cj).conjugate() * mu
    return total


def sdagger_pair(g: PolyFunc, weight: Weight):
    """The adjoint action on g: h(x) = -g'(x) - g(x) w'(x)/w(x), as a callable."""
    dg = g.derivative()

    def h(x):
        return -dg(x) - g(x) * weight.log_derivative(x)

    return h


def in_domain(f: PolyFunc, weight: Weight):
    """f lies in the operator domain: f, x f, and f' all in L2(R, w dx)."""
    if f.is_zero():
        return True
    d = f.degree
    if not weight.moment_is_finite(2 * d + 2):
        return False
    if not weight.moment_is_finite(2 * d):
        return False
    return d == 0 or weight.moment_is_finite(2 * (d - 1))


def weak_cr_check(weight: Weight, f: PolyFunc, g: PolyFunc):
    """Defect |<Tf, S*g> - <Sf, Tg> - <f, g>| (T is symmetric, so T* acts as T).

    The first pairing runs through quadrature against the sampled adjoint
    action; the other two reduce to moments of polynomials.
    """
    for name, p in (("f", f), ("g", g)):
        if not in_domain(p, weight):
            raise NotAdmissibleError(
                f"{name} (degree {p.degree}) is outside the operator domain"
            )
    tf = apply_T(f)
    h = sdagger_pair(g, weight)
    lhs1 = integrate_weighted(lambda x: tf(x) * np.conj(h(x)), weight)
    lhs2 = inner_product(apply_S(f), apply_T(g), weight)
    rhs = inner_product(f, g, weight)
    return abs(lhs1 - lhs2 - rhs)


class LadderLengthReport(NamedTuple):
    n_max: int
    dim_N0: int
    strict_bound: float
    floor_formula_dim: int
    boundary_discrepancy: bool


def ladder_length(alpha):
    """Largest n with x^n still in the domain, found by moment finiteness.

    Also evaluates the closed forms (strict bound 2*alpha - 3/2 for n and
    floor(2*alpha - 3/2) + 1 for the span dimension) and flags the integer
    boundary case where the floor formula overshoots the constructive value.
    """
    weight = rational_weight(alpha)
    if not in_domain(monomial(0), weight):
        raise DomainParameterError(f"constant function not in domain at alpha={alpha}")
    strict_bound = 2.0 * alpha - 1.5
    # x^n (n >= 1) is in the domain iff its top moment 2n + 2 is finite, that
    # is n < strict_bound: start next to the bound and settle it with the
    # same float test the domain uses (the two round apart near 2^51)
    n = max(0, math.ceil(strict_bound) - 1)
    while n and not weight.moment_is_finite(2 * n + 2):
        n -= 1
    while weight.moment_is_finite(2 * n + 4):
        n += 1
    floor_dim = math.floor(strict_bound) + 1
    return LadderLengthReport(
        n_max=n,
        dim_N0=n + 1,
        strict_bound=strict_bound,
        floor_formula_dim=floor_dim,
        boundary_discrepancy=(floor_dim != n + 1),
    )


class GaussianEigenCheck(NamedTuple):
    symbolic_residual: float
    quadrature_residual: float


def gaussian_eigen_check(k):
    """Check T S x^k = k x^k for the Gaussian weight.

    The symbolic residual compares coefficients exactly (0.0 for a perfect
    match).  The quadrature residual cross-validates <T S x^k, x^j> against
    k <x^k, x^j> for j <= k+2, with the left side integrated directly rather
    than through the moment table; it is relative to the moment scale, which
    reaches ~1e10 by k = 10.
    """
    if k < 0:
        raise DomainParameterError(f"power must be >= 0, got {k}")
    weight = gaussian_weight()
    u_k = monomial(k)
    sym = apply_T(apply_S(u_k))
    target = u_k.scaled(k)
    diff = sym - target
    symbolic = 0.0 if diff.is_zero() else max(abs(complex(c)) for c in diff.coeffs)
    quad_residual = 0.0
    for j in range(k + 3):
        direct = integrate_weighted(lambda x, j=j: sym(x) * np.conj(x**j), weight)
        via_moments = k * inner_product(u_k, monomial(j), weight)
        # normalize by the pairing's moment scale: for odd k+j both routes
        # vanish by symmetry and only scaled roundoff remains
        abs_scale = k * moment(weight, k + j + (k + j) % 2)
        scale = max(1.0, abs(via_moments), abs_scale)
        quad_residual = max(quad_residual, abs(direct - via_moments) / scale)
    return GaussianEigenCheck(symbolic, quad_residual)


def monomial_domain_oracle(weight: Weight):
    """Membership oracle for power profiles over the monomial family.

    member(r, k) accepts the canonical monomial T^r S^k when the top degree
    it reaches, x^(r+k), still lies in the domain.
    """

    def member(r, k):
        return in_domain(monomial(r + k), weight)

    return member
