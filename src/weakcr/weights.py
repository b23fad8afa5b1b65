"""The differentiation / multiplication pair on weighted polynomial domains.

S f = f' and T f = x f act on polynomials inside L2(R, w dx) for an even,
positive, integrable weight w.  Two weights are provided: the rational
family w(x) = (1 + x^4)^(-alpha) with alpha > 3/4, whose finite moments cut
the ladder T^n 1 off at n < 2*alpha - 3/2, and the Gaussian w(x) =
exp(-x^2/2), where every moment is finite and x^k is an exact eigenvector
of T S with eigenvalue k.

Every pairing of polynomials is a combination of the weight's moments, and
the moments have closed forms: a Beta value for the rational weight and
(k-1)!! sqrt(2 pi) for the Gaussian one.  Divergent moments are detected by
power counting.  The adjoint S* is paired through the same moments (see
``sdagger_pair``), so no integrand is ever sampled; Gauss-Hermite quadrature
survives only as the independent cross-check in ``gaussian_eigen_check``,
where the integrands are polynomials and one rule sized from their degree
integrates them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

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
# moments
# ---------------------------------------------------------------------------

_SQRT_2PI = math.sqrt(2.0 * math.pi)


#: From this alpha on, ``moment`` takes ln Gamma(b) - ln Gamma(alpha) by the
#: Stirling difference: lgamma(alpha - a) - lgamma(alpha) cancels two values
#: near alpha ln alpha and keeps about u alpha ln alpha of them, 5e-14
#: relative at alpha = 100 and 1.4e-12 at 1e3.  Below it the lgamma form
#: keeps its bits.
_STIRLING_FROM = 100.0


@cache
def moment(weight: Weight, k: int):
    """k-th moment of w in closed form: exact 0 for odd k, +inf marker when divergent.

    Substituting t = x^4 turns the rational moment into a Beta integral,
    mu_k = B(a, alpha - a) / 2 with a = (k+1)/4, taken in log space so that
    no Gamma value overflows at large alpha: below ``_STIRLING_FROM`` as
    lgamma(a) + lgamma(alpha - a) - lgamma(alpha), and from it as
    lgamma(s) + ln Gamma(b) - ln Gamma(alpha), with b the larger and s the
    smaller of a and alpha - a, the difference by ``_log_gamma_ratio``.  The
    Gaussian moment is (k-1)!! sqrt(2 pi).  Finiteness is decided by power
    counting first, which also rejects a negative k.  A non-integral k is no
    moment order.
    """
    if not float(k).is_integer():
        raise DomainParameterError(f"moment order must be an integer, got {k}")
    if not weight.moment_is_finite(k):
        return math.inf
    if k % 2 == 1:
        return 0.0
    if weight.kind == GAUSSIAN:
        try:
            return math.prod(range(k - 1, 0, -2)) * _SQRT_2PI
        except OverflowError:  # (k-1)!! no longer converts to a float
            raise DomainParameterError(f"Gaussian moment of order {k} exceeds the float range") from None
    a = (k + 1) / 4.0
    alpha = weight.alpha
    try:
        if alpha < _STIRLING_FROM:
            return 0.5 * math.exp(math.lgamma(a) + math.lgamma(alpha - a) - math.lgamma(alpha))
        s, b = sorted((a, alpha - a))
        return 0.5 * math.exp(math.lgamma(s) + _log_gamma_ratio(b, s, alpha))
    except OverflowError:  # lgamma passes the float range from an argument of about 2.5e305
        raise DomainParameterError(
            f"rational moment of order {k} at alpha = {alpha:g} exceeds the float range of lgamma"
        ) from None


def _log_gamma_ratio(b, s, alpha):
    """ln Gamma(b) - ln Gamma(alpha) for alpha = b + s with b >= s > 0, by Stirling's series.

    ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + sum_j c_j x^(1 - 2j), so the
    difference's leading part (b - 1/2) ln b - (alpha - 1/2) ln alpha + s is
    (b - 1/2) log1p(-s/alpha) - s ln alpha + s, whose terms are of size
    s ln alpha, not alpha ln alpha.  b is at least alpha / 2 >= 50 here, so
    the series' first omitted term, below 6e-4 b^-7, is under unit roundoff.
    """
    d = (b - 0.5) * math.log1p(-s / alpha) - s * math.log(alpha) + s
    for c, p in ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5)):
        d += c * (b**-p - alpha**-p)
    return d


@dataclass(frozen=True)
class MomentTable:
    """Moments mu_0 .. mu_kmax, with math.inf marking divergence."""

    values: tuple

    @classmethod
    def build(cls, weight, k_max):
        return cls(tuple(moment(weight, k) for k in range(k_max + 1)))


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
    """<f, g> = sum_k (f * conj g)_k mu_k; errors on a divergent moment.

    The product's coefficients are one convolution; ``power`` names the
    lowest divergent moment it needs.
    """
    if f.is_zero() or g.is_zero():
        return 0j
    coeffs = np.convolve(
        np.array(f.coeffs, dtype=complex), np.array(g.coeffs, dtype=complex).conj()
    )
    mu = np.array(MomentTable.build(weight, len(coeffs) - 1).values)
    finite = mu != math.inf
    divergent = np.flatnonzero(~finite & (coeffs != 0))
    if divergent.size:
        k = int(divergent[0])
        raise NotInL2Error(f"pairing needs divergent moment mu_{k}", power=k)
    return complex(np.dot(coeffs[finite], mu[finite]))


def sdagger_pair(f: PolyFunc, g: PolyFunc, weight: Weight):
    """<f, S* g> for the adjoint action S* g = -g' - (w'/w) g, through moments.

    The first part is -<f, S g>.  For the rational weight -w'/w is
    4 alpha x^3 / (1 + x^4), and the extra factor 1 / (1 + x^4) turns the
    second part into 4 alpha <x^3 f, g> under the weight with alpha + 1;
    for the Gaussian weight -w'/w is x and the second part is <x f, g>.
    """
    pair = -inner_product(f, apply_S(g), weight)
    if weight.kind == GAUSSIAN:
        return pair + inner_product(apply_T(f), g, weight)
    x3f = PolyFunc((0, 0, 0) + f.coeffs)
    shifted = rational_weight(weight.alpha + 1.0)
    return pair + 4.0 * weight.alpha * inner_product(x3f, g, shifted)


def in_domain(f: PolyFunc, weight: Weight):
    """f lies in the operator domain: f, x f, and f' all in L2(R, w dx).

    Of the three moments this needs (2d + 2, 2d and 2d - 2 at degree d) the
    highest decides: moment finiteness is monotone in the order.
    """
    return f.is_zero() or weight.moment_is_finite(2 * f.degree + 2)


def weak_cr_check(weight: Weight, f: PolyFunc, g: PolyFunc):
    """Defect |<Tf, S*g> - <Sf, Tg> - <f, g>| (T is symmetric, so T* acts as T).

    All three pairings reduce to moments of polynomials; no integrand is
    sampled.
    """
    for name, p in (("f", f), ("g", g)):
        if not in_domain(p, weight):
            raise NotAdmissibleError(
                f"{name} (degree {p.degree}) is outside the operator domain"
            )
    lhs1 = sdagger_pair(apply_T(f), g, weight)
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


# ---------------------------------------------------------------------------
# Gauss-Hermite cross-check
# ---------------------------------------------------------------------------

def _hermgauss(n):
    t, w = np.polynomial.hermite.hermgauss(n)
    # enforce exact node antisymmetry and weight symmetry so that mirrored
    # contributions can cancel bit-exactly below
    t = (t - t[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    return t, w


def _gauss_weighted_real(values, w):
    """integral of f(x) exp(-x^2/2) dx from ``values`` = f(sqrt(2) t) on the rule (t, w) of _hermgauss(n).

    The rule is exact for polynomials of degree up to 2n - 1.  Mirrored node
    contributions are folded pairwise before summing, so integrands that are
    odd with sign-exact evaluation integrate to exactly zero instead of
    leaving cancellation noise at the integrand's scale.
    """
    contrib = w * values
    folded = contrib + contrib[::-1]
    return math.sqrt(2.0) * 0.5 * float(np.sum(folded))


class GaussianEigenCheck(NamedTuple):
    symbolic_residual: float
    quadrature_residual: float


def gaussian_eigen_check(k):
    """Check T S x^k = k x^k for the Gaussian weight.

    The symbolic residual compares coefficients exactly (0.0 for a perfect
    match).  The quadrature residual cross-validates <T S x^k, x^j> against
    k <x^k, x^j> for j <= k+2, with the left side integrated by Gauss-Hermite
    quadrature rather than through the closed-form moments; it is relative
    to the moment scale, which reaches ~1e10 by k = 10.  The integrands have
    degree at most 2k + 2, so one rule of k + 2 nodes integrates them exactly,
    and T S x^k is evaluated at its nodes once for every j.
    """
    if k < 0:
        raise DomainParameterError(f"power must be >= 0, got {k}")
    weight = gaussian_weight()
    u_k = monomial(k)
    sym = apply_T(apply_S(u_k))
    target = u_k.scaled(k)
    diff = sym - target
    symbolic = 0.0 if diff.is_zero() else max(abs(complex(c)) for c in diff.coeffs)
    t, w = _hermgauss(k + 2)
    x = math.sqrt(2.0) * t
    sym_x = sym(x)
    quad_residual = 0.0
    for j in range(k + 3):
        direct = _gauss_weighted_real((sym_x * x**j).real, w)
        via_moments = k * inner_product(u_k, monomial(j), weight)
        # normalize by the pairing's moment scale: for odd k+j both routes
        # vanish by symmetry and only scaled roundoff remains
        abs_scale = k * moment(weight, k + j + (k + j) % 2)
        scale = max(1.0, abs(via_moments), abs_scale)
        quad_residual = max(quad_residual, abs(direct - via_moments) / scale)
    return GaussianEigenCheck(symbolic, quad_residual)
