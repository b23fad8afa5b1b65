"""Weighted-L2 tests with independent oracles.

Moment oracles: scipy's Beta function for the rational weight
(substituting t = x^4 turns the moment into a Beta integral) and
sqrt(2*pi) (k-1)!! for the Gaussian one, and mpmath's Beta function at
large alpha.  The implementation takes the Beta value through math.lgamma
and, at large alpha, Stirling's series, so the rational oracles share only
the formula.
The adjoint pairings are checked against adaptive quadrature of the
explicit integrand, which the implementation never samples.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial.polynomial import polyval
from scipy.special import beta

from weakcr import cli, weights
from weakcr.errors import DomainParameterError, NotAdmissibleError, NotInL2Error
from weakcr.weights import (
    GaussianEigenCheck,
    MomentTable,
    PolyFunc,
    apply_S,
    apply_T,
    gaussian_eigen_check,
    gaussian_weight,
    in_domain,
    inner_product,
    ladder_length,
    moment,
    monomial,
    rational_weight,
    sdagger_pair,
    weak_cr_check,
)


def rational_moment_oracle(alpha, k):
    a = (k + 1) / 4.0
    return 0.5 * float(beta(a, alpha - a))


def quad_line(integrand):
    """integral of a scalar integrand over the real line by adaptive quadrature."""
    value, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def gaussian_moment_oracle(k):
    if k % 2:
        return 0.0
    value = 1.0
    for i in range(1, k, 2):
        value *= i
    return math.sqrt(2.0 * math.pi) * value


# --- weights and moments -------------------------------------------------------


def test_rational_weight_requires_alpha_above_threshold():
    with pytest.raises(DomainParameterError):
        rational_weight(0.75)
    rational_weight(0.76)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_odd_moments_vanish(k):
    assert moment(rational_weight(3.0), k) == 0.0
    assert moment(gaussian_weight(), k) == 0.0


@pytest.mark.parametrize("k", range(13))
def test_rational_finiteness_power_rule(k):
    for alpha in (0.8, 1.0, 2.0, 3.0):
        finite = moment(rational_weight(alpha), k) != math.inf
        assert finite == (k < 4 * alpha - 1)


def test_gaussian_moment_against_adaptive_quadrature():
    got = moment(gaussian_weight(), 2)
    # adaptive oracle on (-40, 40); the discarded tail is below exp(-790) and
    # the quadrature itself is certified against sqrt(2 pi) below
    oracle, _ = scipy.integrate.quad(
        lambda x: x**2 * math.exp(-(x**2) / 2.0), -40.0, 40.0, epsabs=1e-14, limit=200
    )
    assert abs(oracle - gaussian_moment_oracle(2)) < 1e-13
    assert got == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8, 10])
def test_gaussian_moments_closed_form(k):
    assert moment(gaussian_weight(), k) == pytest.approx(
        gaussian_moment_oracle(k), rel=1e-12
    )


@pytest.mark.parametrize(
    "alpha, k", [(2.0, 0), (2.0, 2), (2.0, 4), (2.0, 6), (1.0, 2), (3.0, 10), (0.8, 0)]
)
def test_rational_moments_beta_oracle(alpha, k):
    assert moment(rational_weight(alpha), k) == pytest.approx(
        rational_moment_oracle(alpha, k), rel=1e-10
    )


def test_near_boundary_moment_still_accurate():
    # slowest decay in the suite: x^2 (1+x^4)^(-0.8) ~ x^(-1.2)
    assert moment(rational_weight(0.8), 2) == pytest.approx(
        rational_moment_oracle(0.8, 2), rel=1e-9
    )


@pytest.mark.parametrize("k", [100, 2000, 3996])
def test_large_alpha_moments_match_beta(k):
    # quadrature gave 75% off at k = 100 and NaN at k = 2000 and 3996;
    # 3996 is the last even order below 4 alpha - 1.  mu_100 is ~1e-52, so
    # the default absolute tolerance would accept anything
    assert moment(rational_weight(1000.0), k) == pytest.approx(
        rational_moment_oracle(1000.0, k), rel=1e-10, abs=0.0
    )


@pytest.mark.parametrize("weight", [rational_weight(3), gaussian_weight()], ids=["rational", "gaussian"])
def test_moment_at_a_non_integral_order_is_a_typed_error(weight):
    # the rational weight gave 0.2886 at k = 2.5, the even-order Beta formula, which is no moment of w
    with pytest.raises(DomainParameterError, match="must be an integer, got 2.5"):
        moment(weight, 2.5)


def test_gaussian_moment_at_the_float_edge():
    # 299!! sqrt(2 pi) is the last even Gaussian moment below the float maximum
    assert moment(gaussian_weight(), 300) == 9.408063010506738e306


@pytest.mark.parametrize("k", [302, 400])
def test_gaussian_moment_beyond_the_float_range_is_a_typed_error(k):
    with pytest.raises(DomainParameterError, match=f"order {k} exceeds the float range"):
        moment(gaussian_weight(), k)


def test_divergent_moment_marker():
    assert moment(rational_weight(2.0), 8) == math.inf


@pytest.mark.parametrize("k", [0, 2, 6])
@pytest.mark.parametrize("alpha", [1e3, 1e8, 1e12, 1e15, 1e20])
def test_rational_moments_at_large_alpha_match_mpmath_beta(alpha, k):
    # lgamma(alpha - a) - lgamma(alpha) put mu_0 off by 1.4e-12, 1.7e-7,
    # 0.25%, 48% and a factor of 2.8e4 at these alpha
    a = mpmath.mpf(k + 1) / 4
    with mpmath.workdps(60):  # alpha - a is exact at 1e20
        want = mpmath.beta(a, mpmath.mpf(alpha) - a) / 2
        assert abs(moment(rational_weight(alpha), k) / want - 1) <= 1e-13


BELOW_STIRLING = [(alpha, k) for alpha in (0.8, 1.0, 2.5, 4.0, 50.0, float(np.nextafter(weights._STIRLING_FROM, 0)))
                  for k in (0, 2, 6, 100) if k + 1 < 4 * alpha]


@pytest.mark.parametrize("alpha, k", BELOW_STIRLING)
def test_rational_moments_below_the_stirling_threshold_keep_the_lgamma_bits(alpha, k):
    a = (k + 1) / 4.0
    assert moment(rational_weight(alpha), k) == 0.5 * math.exp(math.lgamma(a) + math.lgamma(alpha - a) - math.lgamma(alpha))


def test_rational_moment_at_the_top_of_the_float_range():
    # lgamma(1e308) overflowed, a typed error; the Stirling difference stays in
    # range, and B(1/4, alpha - 1/4) / 2 is Gamma(1/4) alpha^(-1/4) / 2 to far below u here
    assert moment(rational_weight(1e308), 0) == pytest.approx(0.5 * math.gamma(0.25) * 1e308**-0.25, rel=1e-14)


def test_rational_moment_of_an_order_past_the_lgamma_range_is_a_typed_error():
    # the smaller Beta argument (k + 1) / 4 = 5e306 puts lgamma past the float range
    with pytest.raises(DomainParameterError, match="float range of lgamma"):
        moment(rational_weight(1e308), 2 * 10**307)


def test_moment_table():
    table = MomentTable.build(rational_weight(2.0), 8)
    assert table.values[0] == pytest.approx(rational_moment_oracle(2.0, 0), rel=1e-10)
    assert table.values[3] == 0.0
    assert table.values[8] == math.inf


# --- inner products -------------------------------------------------------------


def test_inner_product_constant():
    w = rational_weight(2.0)
    assert inner_product(monomial(0), monomial(0), w) == pytest.approx(moment(w, 0))


def test_inner_product_x_x():
    w = rational_weight(2.0)
    assert inner_product(monomial(1), monomial(1), w) == pytest.approx(
        rational_moment_oracle(2.0, 2), rel=1e-10
    )


def test_inner_product_divergent_names_power():
    with pytest.raises(NotInL2Error) as exc:
        inner_product(monomial(3), monomial(3), rational_weight(1.0))
    assert exc.value.power == 6


def test_inner_product_matches_double_sum_oracle():
    rng = np.random.default_rng(5)
    alpha = 4.0
    w = rational_weight(alpha)
    f, g = _random_poly(rng, 3), _random_poly(rng, 4)
    oracle = sum(
        complex(fi) * complex(gj).conjugate() * (0.0 if (i + j) % 2 else rational_moment_oracle(alpha, i + j))
        for i, fi in enumerate(f.coeffs)
        for j, gj in enumerate(g.coeffs)
    )
    assert inner_product(f, g, w) == pytest.approx(oracle, rel=1e-12)


def test_inner_product_conjugates_second_argument():
    w = gaussian_weight()
    f = PolyFunc((1j,))
    g = PolyFunc((1j,))
    assert inner_product(f, g, w) == pytest.approx(moment(w, 0))


# --- operators -------------------------------------------------------------------


def test_apply_s_differentiates():
    assert apply_S(monomial(3)) == PolyFunc((0, 0, 3))


def test_apply_t_shifts():
    assert apply_T(monomial(3)) == monomial(4)


def test_leibniz_commutator_exact():
    f = PolyFunc((2, 0, 5))
    st = apply_S(apply_T(f))
    ts = apply_T(apply_S(f))
    assert st - ts == f


SDAGGER_CASES = ((0, 1), (0, 0, 0, 1), (1.0, -2.0, 0.5, 0.25))


def test_sdagger_gaussian_constant():
    # S* 1 = -w'/w = x for the Gaussian weight
    for coeffs in SDAGGER_CASES:
        oracle = quad_line(lambda x: polyval(x, coeffs) * x * math.exp(-(x**2) / 2.0))
        got = sdagger_pair(PolyFunc(coeffs), monomial(0), gaussian_weight())
        assert abs(got - oracle) < 1e-10 * max(1.0, abs(oracle)), coeffs


def test_sdagger_rational_constant():
    # S* 1 = -w'/w = 4 alpha x^3 / (1 + x^4) for the rational weight
    alpha = 2.0
    for coeffs in SDAGGER_CASES:
        oracle = quad_line(
            lambda x: polyval(x, coeffs) * 4 * alpha * x**3 / (1 + x**4) * (1 + x**4) ** -alpha
        )
        got = sdagger_pair(PolyFunc(coeffs), monomial(0), rational_weight(alpha))
        assert abs(got - oracle) < 1e-10 * max(1.0, abs(oracle)), coeffs


def test_sdagger_pairing_identity():
    # <S x^2, g> = <x^2, S* g> for g = x, with S* g = -1 + 4 alpha x^4 / (1 + x^4)
    alpha = 2.0
    w = rational_weight(alpha)
    g = monomial(1)
    lhs = inner_product(apply_S(monomial(2)), g, w)
    rhs = sdagger_pair(monomial(2), g, w)
    oracle = quad_line(
        lambda x: x**2 * (-1 + 4 * alpha * x**4 / (1 + x**4)) * (1 + x**4) ** -alpha
    )
    assert abs(lhs - rhs) < 1e-8
    assert abs(rhs - oracle) < 1e-8


# --- weak commutation relation ----------------------------------------------------


def test_weak_cr_constant_rational():
    assert weak_cr_check(rational_weight(2.0), monomial(0), monomial(0)) < 1e-8


def test_weak_cr_gaussian():
    assert weak_cr_check(gaussian_weight(), monomial(1), monomial(2)) < 1e-10


def test_weak_cr_near_boundary():
    assert weak_cr_check(rational_weight(0.8), monomial(0), monomial(0)) < 1e-8


def test_weak_cr_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError):
        weak_cr_check(rational_weight(1.0), monomial(3), monomial(0))


def test_weak_cr_high_degree_rational():
    # the first pair the CLI draws at alpha 50 has degrees (84, 63); sampling
    # it under quadrature overflowed and the defect came out NaN
    w = rational_weight(50.0)
    f, g = cli._weights_suite(w, np.random.default_rng(0))[0]
    assert (f.degree, g.degree) == (84, 63)
    assert weak_cr_check(w, f, g) < 1e-8


def _random_poly(rng, degree):
    coeffs = rng.uniform(-2, 2, degree + 1) + 1j * rng.uniform(-2, 2, degree + 1)
    coeffs[-1] += 0.5  # keep the stated degree
    return PolyFunc(tuple(coeffs))


def test_weak_cr_randomized_suite():
    rng = np.random.default_rng(20240817)
    alpha = 2.0
    w = rational_weight(alpha)
    for _ in range(12):
        df = int(rng.integers(0, 3))
        dg = int(rng.integers(0, 3))
        if df + dg + 2 >= 4 * alpha - 1:
            continue
        assert weak_cr_check(w, _random_poly(rng, df), _random_poly(rng, dg)) < 1e-8
    g = gaussian_weight()
    for _ in range(12):
        df = int(rng.integers(0, 7))
        dg = int(rng.integers(0, 7))
        assert weak_cr_check(g, _random_poly(rng, df), _random_poly(rng, dg)) < 1e-8


# --- ladder length ------------------------------------------------------------------


def test_ladder_length_alpha_2():
    report = ladder_length(2.0)
    assert (report.n_max, report.dim_N0) == (2, 3)
    assert report.floor_formula_dim == 3
    assert not report.boundary_discrepancy


def test_ladder_length_alpha_08():
    report = ladder_length(0.8)
    assert (report.n_max, report.dim_N0) == (0, 1)
    assert report.strict_bound == pytest.approx(0.1)


def test_ladder_length_boundary_case():
    report = ladder_length(1.75)
    assert report.n_max == 1
    assert report.dim_N0 == 2
    assert report.floor_formula_dim == 3
    assert report.boundary_discrepancy


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_constructive_value_obeys_strict_bound(alpha):
    report = ladder_length(alpha)
    assert report.n_max < 2 * alpha - 1.5


def _ladder_length_loop(alpha):
    """Reference: step n up while x^(n+1) stays in the domain."""
    weight = rational_weight(alpha)
    n = 0
    while in_domain(monomial(n + 1), weight):
        n += 1
    return n


def test_ladder_length_matches_domain_loop_at_boundaries():
    # n_max steps at alpha = k/4; check on, just below and just above each step
    for k in range(4, 401):
        for alpha in (k / 4 - 1e-15, k / 4, k / 4 + 1e-15):
            assert ladder_length(alpha).n_max == _ladder_length_loop(alpha), alpha


def test_ladder_length_large_alpha():
    assert ladder_length(1e5).n_max == 199998


@pytest.mark.parametrize("alpha", [1e5, 2.0**51 + 0.5, 2.0**51 + 1, 2.0**52 + 1])
def test_ladder_length_settles_on_the_moment_test(alpha):
    # near 2^51 the float bound 2*alpha - 3/2 and the moment test 2n + 2 <
    # 4*alpha - 1 round apart; n_max must follow the moment test
    weight = rational_weight(alpha)
    n = ladder_length(alpha).n_max
    assert weight.moment_is_finite(2 * n + 2)
    assert not weight.moment_is_finite(2 * n + 4)


def test_ladder_length_just_past_the_integrability_edge():
    # the constant's top moment, order 2, is finite for every alpha > 3/4
    assert ladder_length(math.nextafter(0.75, 1.0)).n_max == 0


def test_ladder_length_rejects_small_alpha():
    with pytest.raises(DomainParameterError):
        ladder_length(0.5)


# --- gaussian eigenfunctions -----------------------------------------------------------


@pytest.mark.parametrize("k", range(11))
def test_gaussian_eigen_symbolic_exact(k):
    check = gaussian_eigen_check(k)
    assert check.symbolic_residual == 0.0


def test_gaussian_eigen_quadrature_cross_check():
    check = gaussian_eigen_check(4)
    assert isinstance(check, GaussianEigenCheck)
    assert check.quadrature_residual < 1e-10


def _quadrature_residual_per_j(k):
    """The quadrature residual with T S x^k evaluated at the nodes afresh for every j."""
    weight, u_k = gaussian_weight(), monomial(k)
    sym = apply_T(apply_S(u_k))
    t, w = weights._hermgauss(k + 2)
    residual = 0.0
    for j in range(k + 3):
        x = math.sqrt(2.0) * t
        contrib = w * (sym(x) * x**j).real
        direct = math.sqrt(2.0) * 0.5 * float(np.sum(contrib + contrib[::-1]))
        via_moments = k * inner_product(u_k, monomial(j), weight)
        scale = max(1.0, abs(via_moments), k * moment(weight, k + j + (k + j) % 2))
        residual = max(residual, abs(direct - via_moments) / scale)
    return residual


@pytest.mark.parametrize("k", range(13))
def test_gaussian_quadrature_evaluates_the_eigenfunction_once(k):
    assert gaussian_eigen_check(k).quadrature_residual == _quadrature_residual_per_j(k)


def test_in_domain_examples():
    w = rational_weight(2.0)
    assert in_domain(monomial(2), w)
    assert not in_domain(monomial(3), w)
    assert in_domain(PolyFunc.zero(), w)


def test_moment_cache_keeps_every_order():
    # a bounded LRU cache thrashed on a sequential sweep longer than its size
    weight = rational_weight(1000.0)
    moment.cache_clear()
    MomentTable.build(weight, 5000)
    MomentTable.build(weight, 5000)
    info = moment.cache_info()
    assert (info.hits, info.misses) == (5001, 5001)
    assert [f.name for f in dataclasses.fields(MomentTable)] == ["values"]


def test_gaussian_eigen_check_forms_one_rule(monkeypatch):
    calls, hermgauss = [], weights._hermgauss

    def counted(n):
        calls.append(n)
        return hermgauss(n)

    monkeypatch.setattr(weights, "_hermgauss", counted)
    assert gaussian_eigen_check(6).quadrature_residual < 1e-10
    assert calls == [8]
