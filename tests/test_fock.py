"""Matrix-model tests: ladder matrices, coherent states, defect measures."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammainc
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcr import fock
from weakcr.errors import DomainParameterError, InvalidDimensionError, TruncationError
from weakcr.fock import (
    OperatorPair,
    TruncatedOperator,
    band_adjoint,
    band_columns,
    band_expm,
    band_product,
    basis_state,
    block_max_abs,
    boson_pair,
    coherent_state,
    coherent_tail_mass,
    diagonals,
    identity,
    inner,
    lowering,
    matrix2x2_pair,
    quasi_strong_defect,
    quasi_strong_with_scale,
    raising,
    relation_block,
    semigroup_band,
    spectral_norm,
    swanson_pair,
    weak_defect,
    weak_with_scale,
    weyl_defect,
    weyl_with_scale,
)

EPS = np.finfo(float).eps
ROUNDING = 100 * EPS  # banded and dense sums differ only in rounding order


def test_lowering_smallest():
    assert np.allclose(lowering(2).entries, [[0, 1], [0, 0]])


def test_lowering_sqrt_rule():
    a = lowering(3).entries
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2)
    assert np.array_equal(a, expected)


def test_commutator_block_oracle():
    # direct matrix-multiplication oracle for [a, a*] at N = 8
    a, ad = lowering(8).entries, raising(8).entries
    comm = a @ ad - ad @ a
    assert np.allclose(comm[:7, :7], np.eye(7), atol=1e-14)
    assert comm[7, 7] == pytest.approx(-7.0)


def test_lowering_rejects_small_dimension():
    with pytest.raises(InvalidDimensionError):
        lowering(1)


def test_adjoint_is_involution():
    op = swanson_pair(0.4, 6).S
    assert np.array_equal(op.adjoint().adjoint().entries, op.entries)


def test_coherent_state_vacuum():
    phi = coherent_state(0.0, 5)
    assert np.allclose(phi.components, basis_state(0, 5).components)


def test_coherent_state_is_eigenvector():
    phi = coherent_state(1.0, 40)
    a = lowering(40)
    residual = np.linalg.norm(a.entries @ phi.components - phi.components)
    assert residual < 1e-8


def test_coherent_state_number_expectation():
    # direct sum oracle: sum_k k |c_k|^2 should equal |z|^2 = 1
    phi = coherent_state(1.0, 40)
    direct = sum(k * abs(c) ** 2 for k, c in enumerate(phi.components))
    assert direct == pytest.approx(1.0, abs=1e-8)
    ad_a = raising(40).entries @ lowering(40).entries
    assert inner(ad_a @ phi.components, phi.components) == pytest.approx(direct, abs=1e-12)


def test_coherent_state_tail_mass_guard():
    with pytest.raises(TruncationError) as exc:
        coherent_state(2.0, 4)
    assert exc.value.tail_mass > 1e-12


@pytest.mark.parametrize("z, n", [(27, 1024), (26, 1024), (20 - 15j, 1024), (5j, 80), (1.2, 40)])
def test_coherent_state_normalizes_without_overflow(z, n):
    # at |z| = 27 the squares inside the norm pass the float range (about 1e316)
    # although the components and the tail guard do not; a power-of-two rescale
    # keeps them in range and, being exact, the bits of the plain normalization
    comps = np.zeros(n, dtype=complex)
    comps[0] = 1.0
    for k in range(1, n):
        comps[k] = comps[k - 1] * complex(z) / math.sqrt(k)
    phi = coherent_state(z, n)
    assert phi.norm == pytest.approx(1.0, abs=1e-14)
    peak = float(np.max(np.abs(comps)))
    if peak < 1e150:
        normal = np.abs(comps) > 1e-290 * peak
        assert np.array_equal(phi.components[normal], (comps / np.linalg.norm(comps))[normal])
    # |c_k|^2 is the Poisson weight e^(-x) x^k / k!, x = |z|^2, at its mode
    x = abs(z) ** 2
    k = int(x)
    want = math.exp((k * math.log(x) - math.lgamma(k + 1) - x) / 2)
    assert abs(phi.components[k]) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("z, n", [(40, 4096), (38 + 5j, 4096), (45, 4096), (60j, 8192)])
def test_coherent_state_rescales_inside_the_recurrence(z, n):
    # z^k / sqrt(k!) itself passes the float range near k = |z|^2 (2^1153 at
    # |z| = 40), so the recurrence rescales by powers of two as it goes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi = coherent_state(z, n)
    assert phi.norm == pytest.approx(1.0, abs=1e-14)
    # against the closed-form Poisson amplitudes e^(-x/2) |z|^k / sqrt(k!), x = |z|^2
    x = abs(z) ** 2
    ks = np.arange(n)
    log_mod = np.array([k * math.log(abs(z)) - math.lgamma(k + 1) / 2 - x / 2 for k in range(n)])
    big = log_mod > -600
    assert np.allclose(np.abs(phi.components[big]), np.exp(log_mod[big]), rtol=1e-9, atol=0)
    phase = np.exp(1j * math.atan2(z.imag, z.real) * ks[big]) if isinstance(z, complex) else 1.0
    assert np.allclose(phi.components[big], np.abs(phi.components[big]) * phase, rtol=1e-9, atol=1e-300)


@pytest.mark.parametrize("z, n", [(2, 4), (4, 40), (4, 50), (30, 64), (6, 110)])
def test_coherent_tail_mass_is_the_regularized_gamma(z, n):
    # the discarded share of the norm is P(n, |z|^2); e^(|z|^2) minus the
    # partial sum cancels to -0.5 at (6, 110) and overflows at (30, 64)
    want = gammainc(n, abs(z) ** 2)
    assert coherent_tail_mass(z, n) == pytest.approx(want, rel=1e-10)
    if want < 1e-12:
        assert coherent_state(z, n).components.shape == (n,)
        return
    with pytest.raises(TruncationError) as exc:
        coherent_state(z, n)
    assert exc.value.tail_mass == pytest.approx(want, rel=1e-10)


def test_swanson_reduces_to_boson():
    pair = swanson_pair(0.0, 8)
    assert np.allclose(pair.S.entries, lowering(8).entries)
    assert np.allclose(pair.T.entries, raising(8).entries)


@pytest.mark.parametrize("n", [2, 33])
def test_boson_pair_is_the_cli_boson_model_to_the_bit(n):
    # T was once the adjoint of the lowering matrix, whose imaginary parts are -0.0,
    # while --model boson is the swanson pair at theta = 0, with +0.0
    pair, model = boson_pair(n), swanson_pair(0.0, n)
    assert pair.S.diagonals.tobytes() == model.S.diagonals.tobytes()
    assert pair.T.diagonals.tobytes() == model.T.diagonals.tobytes()


def test_swanson_quarter_turn_matches_rotated_pair():
    pair = swanson_pair(math.pi / 4, 8)
    a, ad = lowering(8).entries, raising(8).entries
    assert np.allclose(pair.S.entries, (a + 1j * ad) / math.sqrt(2))
    assert np.allclose(pair.T.entries, (ad + 1j * a) / math.sqrt(2))


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
def test_swanson_weak_defect(theta):
    assert weak_defect(swanson_pair(theta, 64)) < 1e-12


def test_weak_defect_boson_exact():
    assert weak_defect(boson_pair(16)) < 1e-14


def test_weak_defect_degenerate_pair():
    a = lowering(16)
    pair = OperatorPair(a, a)
    assert weak_defect(pair) >= 1.0


def test_weak_defect_swap_invariance():
    # weak defect of (S, T) equals that of (T', S')
    pair = swanson_pair(0.3, 32)
    swapped = OperatorPair(pair.T.adjoint(), pair.S.adjoint())
    assert abs(weak_defect(pair) - weak_defect(swapped)) < 1e-12


@pytest.mark.parametrize("theta, n", [(0.0, 4), (0.3, 4), (1.1, 9), (0.7, 33)])
def test_weak_defect_small_dimensions(theta, n):
    assert weak_defect(swanson_pair(theta, n)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.integers(min_value=4, max_value=48),
)
def test_weak_defect_any_angle_any_dimension(theta, n):
    assert weak_defect(swanson_pair(theta, n)) < 1e-12


def test_quasi_strong_zero_parameter_exact():
    for pair in (boson_pair(16), swanson_pair(0.3, 16)):
        assert quasi_strong_defect(pair, 0.0) == 0.0


def test_quasi_strong_boson():
    assert quasi_strong_defect(boson_pair(128), 0.1) < 1e-8


def test_quasi_strong_degenerate_pair():
    a = lowering(64)
    pair = OperatorPair(a, a)
    # [V, a] = 0 for V = exp(alpha a), so the defect is alpha * max|V| on the band
    assert quasi_strong_defect(pair, 0.1) > 1e-3


def test_quasi_strong_rejects_negative_parameter():
    with pytest.raises(DomainParameterError):
        quasi_strong_defect(boson_pair(16), -0.5)


def test_weyl_zero_parameter():
    assert weyl_defect(boson_pair(64), 0.0, 0.3) < 1e-12


def test_weyl_boson():
    assert weyl_defect(boson_pair(256), 0.1, 0.1) < 1e-6


def test_weyl_degenerate_pair():
    a = lowering(64)
    pair = OperatorPair(a, a)
    assert weyl_defect(pair, 0.5, 0.5) > 1e-2


def test_weyl_rejects_negative_parameters():
    with pytest.raises(DomainParameterError):
        weyl_defect(boson_pair(16), 0.1, -0.1)


def test_weyl_truncation_convergence():
    # defect decreases with N until it reaches the double-precision floor
    values = [weyl_defect(boson_pair(n), 0.1, 0.1) for n in (32, 64, 128, 256)]
    for prev, nxt in zip(values, values[1:]):
        assert nxt <= max(prev, 1e-12)


def test_implication_chain_all_small():
    pair = boson_pair(256)
    assert weak_defect(pair) < 1e-6
    assert quasi_strong_defect(pair, 0.1) < 1e-6
    assert weyl_defect(pair, 0.1, 0.1) < 1e-6


def test_semigroup_band_exhaustion():
    with pytest.raises(TruncationError):
        quasi_strong_defect(boson_pair(16), 5.0)


@pytest.mark.parametrize("make", [boson_pair, lambda n: swanson_pair(0.3, n), lambda n: swanson_pair(0.785, n),
                                  lambda n: OperatorPair(lowering(n), lowering(n))])
@pytest.mark.parametrize("n", [2, 3, 16, 128])
def test_weak_scale_is_the_max_entry_of_st_on_the_safe_block(make, n):
    pair = make(n)
    k = pair.safe_rank
    want = max(1.0, float(np.max(np.abs((pair.S.entries @ pair.T.entries)[:k, :k]))))
    assert weak_with_scale(pair)[1] == pytest.approx(want, rel=1e-15)


def test_matrix2x2_rejects_an_infinite_commutator_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainParameterError, match="finite product s q"):
            matrix2x2_pair(1e200, -1e200)
        with pytest.raises(DomainParameterError):
            matrix2x2_pair(np.float64(1e200), np.float64(1e200))
        assert matrix2x2_pair(1e154, 1e154).dim == 2


def test_matrix2x2_rejects_an_overflowing_square_without_a_warning():
    # |S xi|^2 = |s|^2 |phi_2|^2 overflows past |s| = 1.3e154 although s q is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s, q in ((1e200, 1e-200), (1e-200, 1e200), (1e300, 1.0), (np.float64(-1e155), 1.0)):
            with pytest.raises(DomainParameterError, match=r"finite \|s\|\^2 and \|q\|\^2"):
                matrix2x2_pair(s, q)
        assert matrix2x2_pair(1e150, 1e-150).dim == 2


def test_identity_and_pair_validation():
    assert np.array_equal(identity(3).entries, np.eye(3))
    with pytest.raises(InvalidDimensionError):
        OperatorPair(lowering(4), lowering(8))
    with pytest.raises(InvalidDimensionError):
        OperatorPair(identity(1), identity(1))


# --- banded paths against dense oracles ----------------------------------------------
#
# The defect chain forms no dense N x N product, exponential or SVD; these dense
# formulas, the Weyl block's SVD among them, are the reference it is tested against.


def dense_weak_defect(pair):
    S, T = pair.S.entries, pair.T.entries
    M = S @ T - T @ S - np.eye(pair.dim)
    return float(np.max(np.abs(M[: pair.safe_rank, : pair.safe_rank])))


def dense_quasi_strong_defect(pair, alpha):
    band = semigroup_band(pair, alpha)
    S, T = pair.S.entries, pair.T.entries
    V = scipy.linalg.expm(alpha * S)
    M = V @ T - T @ V - alpha * V
    return float(np.max(np.abs(M[:band, :band]))), float(np.max(np.abs(V)) * np.max(np.abs(T)))


def dense_weyl_defect(pair, alpha, beta):
    band = semigroup_band(pair, max(alpha, beta))
    S, T = pair.S.entries, pair.T.entries
    VS, VT = scipy.linalg.expm(alpha * S), scipy.linalg.expm(beta * T)
    M = VS @ VT - math.exp(alpha * beta) * (VT @ VS)
    scale = math.exp(alpha * beta) * np.linalg.norm(VS, 1) * np.linalg.norm(VT, 1)
    return float(np.linalg.norm(M[:band, :band], ord=2)), float(scale)


def dense(D):
    """The full matrix with diagonals D."""
    n, width = D.shape[1], D.shape[0] // 2
    out = np.zeros((n, n), dtype=D.dtype)
    for d in range(-width, width + 1):
        for i in range(max(0, -d), min(n, n - d)):
            out[i, i + d] = D[width + d, i]
    return out


def widest_alpha(pair):
    """The largest alpha whose semigroup band is nonempty (0 if none is)."""
    alpha = max(0.0, (pair.safe_rank - 1) / (10 * math.sqrt(pair.dim)))
    while math.ceil(10 * alpha * math.sqrt(pair.dim)) > pair.safe_rank - 1:
        alpha = float(np.nextafter(alpha, 0))
    return alpha


def wide_pair(n):
    """A bandwidth-2 pair outside the tridiagonal models."""
    a, ad = lowering(n).entries, raising(n).entries
    S = TruncatedOperator(a + 0.5 * a @ a + 0.2 * ad)
    T = TruncatedOperator(ad + 0.3 * ad @ ad)
    return OperatorPair(S, T)


@pytest.mark.parametrize("n", [2, 3, 16, 128])
def test_safe_rank_is_read_off_the_band(n):
    # N - max(K_S, K_T, 1): N - 1 for the tridiagonal models, N - 2 at bandwidth 2
    assert boson_pair(n).safe_rank == n - 1
    assert swanson_pair(0.3, n).safe_rank == n - 1
    if n >= 4:
        assert wide_pair(n).safe_rank == n - 2
    assert OperatorPair(identity(n), identity(n)).safe_rank == n - 1
    assert matrix2x2_pair(1.5, -0.5).safe_rank == 1
    assert [f.name for f in dataclasses.fields(OperatorPair)] == ["S", "T"]
    with pytest.raises(TypeError):
        OperatorPair(lowering(4), raising(4), safe_rank=2)


@pytest.mark.parametrize("make", [boson_pair, lambda n: swanson_pair(0.3, n), wide_pair])
def test_safe_rank_block_is_free_of_truncation(make):
    # on the leading safe_rank block both degree-1 products of the N-dimensional
    # truncation equal those of a wider one; one index more and they do not
    n = 16
    pair, wider = make(n), make(n + 8)
    r = pair.safe_rank
    for P, W in ((pair.S.entries @ pair.T.entries, wider.S.entries @ wider.T.entries),
                 (pair.T.entries @ pair.S.entries, wider.T.entries @ wider.S.entries)):
        assert np.array_equal(P[:r, :r], W[:r, :r])
    assert not np.array_equal((pair.S.entries @ pair.T.entries)[: r + 1, : r + 1],
                              (wider.S.entries @ wider.T.entries)[: r + 1, : r + 1])


def suite_dense_matrices():
    """The wide, full 5 x 5, deformed and 2 x 2 matrices the suite builds densely,
    and the two ends of the bandwidth search: no nonzero, and one far off the diagonal."""
    a, ad = lowering(8).entries, raising(8).entries
    one_entry = np.zeros((6, 6), dtype=complex)
    one_entry[4, 1] = 2 - 1j
    return {
        "zero": np.zeros((6, 6), dtype=complex),
        "one-off-diagonal": one_entry,
        "wide-S": a + 0.5 * a @ a + 0.2 * ad,
        "wide-T": ad + 0.3 * ad @ ad,
        "full5x5": np.arange(25.0).reshape(5, 5) * (1 + 1j),
        "antidiagonal5x5": np.eye(5)[::-1],
        "deformed-T": ad + 0.05 * (a @ a),
        "2x2-S": np.array([[0, 1.5], [0, 0]]),
        "2x2-T": np.array([[0, 0], [-0.5, 0]]),
    }


@pytest.mark.parametrize("name", list(suite_dense_matrices()))
def test_dense_constructor_round_trips_exactly(name):
    A = suite_dense_matrices()[name]
    op = TruncatedOperator(A)
    assert np.array_equal(op.entries, A)
    assert np.array_equal(op.diagonals, diagonals(A))
    rows, cols = np.nonzero(A)
    assert op.diagonals.shape == (2 * abs(rows - cols).max(initial=0) + 1, len(A))


def test_band_constructor_ignores_slots_outside_the_matrix():
    op = TruncatedOperator.banded(np.arange(1.0, 13.0).reshape(3, 4))
    want = [[5, 9, 0, 0], [2, 6, 10, 0], [0, 3, 7, 11], [0, 0, 4, 8]]
    assert np.array_equal(op.entries, want)
    assert np.array_equal(op.diagonals, diagonals(np.array(want, dtype=complex)))
    wider = TruncatedOperator.banded(np.ones((7, 2)))  # diagonals past the matrix are dropped
    assert wider.diagonals.shape == (3, 2)
    assert np.array_equal(wider.entries, np.ones((2, 2)))


@pytest.mark.parametrize(
    "D",
    [np.ones((2, 4)), np.where(np.eye(3, 4, 1) > 0, np.nan, 1.0), np.zeros((3, 0)), np.ones(4)],
    ids=["even-rows", "nan", "no-columns", "one-dimensional"],
)
def test_band_constructor_rejects_malformed_diagonals(D):
    with pytest.raises(InvalidDimensionError):
        TruncatedOperator.banded(D)


@pytest.mark.parametrize("name", list(suite_dense_matrices()))
def test_matvec_matches_the_dense_product(name):
    A = suite_dense_matrices()[name]
    n = A.shape[0]
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    op = TruncatedOperator(A)
    tol = ROUNDING * n * np.max(np.abs(A)) * np.max(np.abs(X))
    assert np.allclose(op @ X, A @ X, rtol=0, atol=tol)
    assert np.allclose(op @ X[:, 0], A @ X[:, 0], rtol=0, atol=tol)
    assert np.allclose(op.adjoint() @ X, A.conj().T @ X, rtol=0, atol=tol)


PAIRS = [(f"swanson{theta}", n, lambda theta=theta, n=n: swanson_pair(theta, n))
         for theta in (0.0, 0.3, 0.6) for n in (2, 3, 16, 128)]
PAIRS += [("wide", n, lambda n=n: wide_pair(n)) for n in (4, 16, 128)]


@pytest.mark.parametrize("name, n, make", PAIRS, ids=[f"{p[0]}-N{p[1]}" for p in PAIRS])
@pytest.mark.parametrize("which", ["zero", "0.1", "widest"])
def test_banded_defects_match_dense_oracles(name, n, make, which):
    pair = make()
    alpha = {"zero": 0.0, "0.1": 0.1, "widest": widest_alpha(pair)}[which]
    S = pair.S.entries
    E = scipy.linalg.expm(alpha * S)
    V = dense(band_expm(diagonals(S), alpha))
    assert np.max(np.abs(V - E)) <= ROUNDING * np.max(np.abs(E))

    scale = float(np.max(np.abs(S)) * np.max(np.abs(pair.T.entries)))
    assert abs(weak_defect(pair) - dense_weak_defect(pair)) <= ROUNDING * max(1.0, scale)
    try:
        want, q_scale = dense_quasi_strong_defect(pair, alpha)
    except TruncationError:
        with pytest.raises(TruncationError):
            quasi_strong_defect(pair, alpha)
        return
    assert abs(quasi_strong_defect(pair, alpha) - want) <= ROUNDING * q_scale
    for beta in (0.0, alpha):
        want, w_scale = dense_weyl_defect(pair, alpha, beta)
        assert abs(weyl_defect(pair, alpha, beta) - want) <= ROUNDING * w_scale


def test_widest_alpha_is_the_band_edge():
    pair = swanson_pair(0.3, 128)
    alpha = widest_alpha(pair)
    assert semigroup_band(pair, alpha) == 1
    with pytest.raises(TruncationError):
        semigroup_band(pair, alpha + 1e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_band_storage_round_trips(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = np.triu(np.tril(rng.standard_normal((n, n)), 2), -1)  # bandwidth 2, or less at small n
    DA, DB = diagonals(A), diagonals(B)
    assert DA.shape == (2 * n - 1, n)  # a full matrix keeps every diagonal
    assert np.array_equal(dense(DA), A)
    assert np.array_equal(dense(band_adjoint(DA)), A.conj().T)
    for X, Y in ((DA, DB), (DB, DA), (DB, DB)):
        assert np.allclose(dense(band_product(X, Y)), dense(X) @ dense(Y), rtol=0, atol=ROUNDING * n * 10)
    cols = band_columns(DA)
    width = n - 1
    for d in range(-width, width + 1):
        for j in range(max(0, d), min(n, n + d)):
            assert cols[width + d, j] == A[j - d, j]


@pytest.mark.parametrize("rows", [1, 3, 8, 9, 20])
def test_band_product_leading_rows_match_the_full_product(rows):
    rng = np.random.default_rng(rows)
    A = np.triu(np.tril(rng.standard_normal((9, 9)), 3), -2) * 1j
    B = np.triu(np.tril(rng.standard_normal((9, 9)), 1), -4)
    for X, Y in ((A, B), (B, A), (A, A)):
        full = band_product(diagonals(X), diagonals(Y))
        assert np.array_equal(band_product(diagonals(X), diagonals(Y), rows), full[:, :rows])


def test_bandwidth_follows_the_nonzero_pattern():
    assert diagonals(lowering(6).entries).shape == (3, 6)
    assert diagonals(identity(5).entries).shape == (1, 5)
    assert diagonals(np.zeros((4, 4))).shape == (1, 4)
    corner = np.zeros((5, 5))
    corner[4, 0] = 1.0
    assert diagonals(corner).shape == (9, 5)
    assert diagonals(wide_pair(8).S.entries).shape == (5, 8)


def test_block_max_abs_reads_only_the_block():
    A = np.arange(36, dtype=complex).reshape(6, 6)
    for k in (1, 3, 6):
        assert block_max_abs(diagonals(A), k) == np.max(np.abs(A[:k, :k]))


def test_band_expm_splits_large_norms_into_steps():
    # ||alpha S||_1 is about 40 here, beyond the largest Taylor degree's theta
    S = swanson_pair(0.3, 96).S.entries
    E = scipy.linalg.expm(2.0 * S)
    V = dense(band_expm(diagonals(S), 2.0))
    assert np.max(np.abs(V - E)) <= ROUNDING * np.max(np.abs(E))


def test_defect_chain_forms_no_dense_exponential_or_svd(monkeypatch):
    # no dense exponential, and no SVD, eigensolver or spectral norm of a matrix
    # whose side reaches the checked block (55 x 55); the Lanczos norm's k x k
    # tridiagonal stays below it (k reaches 19 here).  np.linalg.norm(ord=2)
    # reaches numpy's internal SVD, not np.linalg.svd, so it is guarded on its own.
    pair = swanson_pair(0.3, 64)
    band = semigroup_band(pair, 0.1)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense exponential of a pair matrix")

    def below_block(name, real):
        def guarded(a, *args, **kwargs):
            if np.ndim(a) >= 2 and max(np.shape(a)[-2:]) >= band:
                raise AssertionError(f"{name} of a {np.shape(a)} matrix; the block is {band} x {band}")
            return real(a, *args, **kwargs)

        return guarded

    real_norm = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc") and np.ndim(x) >= 2 and max(np.shape(x)[-2:]) >= band:
            raise AssertionError(f"spectral norm of a {np.shape(x)} matrix; the block is {band} x {band}")
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    for module in (np.linalg, scipy.linalg):
        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(module, name, below_block(name, getattr(module, name)))
    monkeypatch.setattr(np.linalg, "norm", norm)
    assert weak_defect(pair) < 1e-12
    assert quasi_strong_defect(pair, 0.1) < 1e-10
    assert weyl_defect(pair, 0.1, 0.1) < 1e-10


def weyl_block(pair, alpha, beta):
    """Diagonals of the band x band block whose spectral norm is the Weyl defect."""
    band = semigroup_band(pair, max(alpha, beta))
    VS, VT = band_expm(pair.S.diagonals, alpha), band_expm(pair.T.diagonals, beta)
    M = band_product(VS, VT, band) - math.exp(alpha * beta) * band_product(VT, VS, band)
    return diagonals(dense(M)[:band, :band])


def degenerate_pair(n):
    a = lowering(n)
    return OperatorPair(a, a)


WEYL_MODELS = {
    "boson": boson_pair,
    "swanson0": lambda n: swanson_pair(0.0, n),
    "swanson0.3": lambda n: swanson_pair(0.3, n),
    "swanson0.55": lambda n: swanson_pair(0.55, n),
    "wide": wide_pair,
    "degenerate": degenerate_pair,
}
# one dense SVD of the 2001 x 2001 block at N = 2048 takes about 5 s, so that
# size is checked on the pair that the benchmark and the CLI run
WEYL_BLOCKS = [(m, n) for m in WEYL_MODELS for n in (2, 3, 16, 128, 512) if not (m == "wide" and n < 4)]
WEYL_BLOCKS += [("swanson0.3", 2048)]


@pytest.mark.parametrize("model, n", WEYL_BLOCKS, ids=[f"{m}-N{n}" for m, n in WEYL_BLOCKS])
def test_spectral_norm_matches_the_dense_svd_on_weyl_blocks(model, n):
    pair = WEYL_MODELS[model](n)
    alpha = min(0.1, widest_alpha(pair))  # the band is one index wide at N = 2 and 3
    D = weyl_block(pair, alpha, alpha)
    want = float(np.linalg.norm(dense(D), ord=2))
    got = spectral_norm(D)
    assert abs(got - want) <= 1e-14 * want
    assert got == spectral_norm(D.copy())
    assert got == weyl_defect(pair, alpha, alpha)


def rank_one(n):
    rng = np.random.default_rng(1)
    u, v = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    u[3:8] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v[1:9] = rng.standard_normal(8) - 2j * rng.standard_normal(8)
    return np.outer(u, v.conj())


def repeated_top(n):
    # two copies of one banded block, so the top singular value has multiplicity 2
    rng = np.random.default_rng(2)
    B = np.triu(np.tril(rng.standard_normal((n // 2, n // 2)) + 1j * rng.standard_normal((n // 2, n // 2)), 3), -2)
    return np.block([[B, np.zeros_like(B)], [np.zeros_like(B), B]])


def toeplitz(n):
    return np.eye(n, k=1) + 2 * np.eye(n) + 1j * np.eye(n, k=-1)


SPECIAL_BLOCKS = {
    "one-by-one": lambda: np.array([[3 - 4j]]),
    "rank-one": lambda: rank_one(40),
    "repeated-top": lambda: repeated_top(40),
    "repeated-diagonal": lambda: np.diag([2.0, -2.0, 2j, 1.0, 0.5] * 6),
    "tridiagonal-toeplitz": lambda: toeplitz(64),
    # 278 steps without reorthogonalization, the longest run here, where the
    # Lanczos vectors lose the most orthogonality
    "tridiagonal-toeplitz-400": lambda: toeplitz(400),
}


@pytest.mark.parametrize("name", list(SPECIAL_BLOCKS))
def test_spectral_norm_matches_the_dense_svd_on_special_blocks(name):
    A = SPECIAL_BLOCKS[name]()
    want = float(np.linalg.norm(A, ord=2))
    got = spectral_norm(diagonals(A))
    assert abs(got - want) <= 1e-14 * want
    assert got == spectral_norm(diagonals(A))


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (5, 40), (9, 7)])
def test_spectral_norm_of_the_zero_block_is_exactly_zero(shape):
    assert spectral_norm(np.zeros(shape, dtype=complex)) == 0.0


def scaled_T(pair, factor):
    return OperatorPair(pair.S, TruncatedOperator.banded(factor * pair.T.diagonals))


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [16, 128])
def test_weyl_scale_is_the_max_entry_of_the_product_on_the_band(theta, n):
    pair = swanson_pair(theta, n)
    band = semigroup_band(pair, 0.2)
    S, T = pair.S.entries, pair.T.entries
    want = float(np.max(np.abs((scipy.linalg.expm(0.1 * S) @ scipy.linalg.expm(0.2 * T))[:band, :band])))
    assert weyl_with_scale(pair, 0.1, 0.2)[1] == pytest.approx(max(1.0, want), rel=ROUNDING)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [128, 512, 2048])
def test_weyl_defect_is_rounding_on_its_scale(theta, n):
    # the absolute defect grows from 1.9e-15 (N = 128) to 3.0e-12 (N = 2048)
    # with the entries it cancels; on their scale it stays at rounding
    defect, scale = weyl_with_scale(swanson_pair(theta, n), 0.1, 0.1)
    assert defect / scale < 1e-13


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n, broken_by", [(128, 1e-6), (2048, 1e-9)])
def test_weyl_scale_catches_a_broken_relation(theta, n, broken_by):
    # scaling T by 1 + eps breaks [S, T] = 1 by eps; the absolute Weyl defect
    # read 7.8e-8 and 7.3e-8 here, under the absolute tol of 1e-6 it had
    defect, scale = weyl_with_scale(scaled_T(swanson_pair(theta, n), 1 + broken_by), 0.1, 0.1)
    assert defect / scale > 1e-12


def test_weyl_scale_rejects_negative_parameters():
    with pytest.raises(DomainParameterError):
        weyl_with_scale(boson_pair(16), -0.1, 0.1)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [16, 128])
def test_quasi_strong_scale_is_the_max_entry_of_the_product_on_the_band(theta, n):
    pair = swanson_pair(theta, n)
    band = semigroup_band(pair, 0.1)
    S, T = pair.S.entries, pair.T.entries
    want = float(np.max(np.abs((scipy.linalg.expm(0.1 * S) @ T)[:band, :band])))
    assert quasi_strong_with_scale(pair, 0.1)[1] == pytest.approx(max(1.0, want), rel=ROUNDING)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [128, 512, 2048])
def test_quasi_strong_defect_is_rounding_on_its_scale(theta, n):
    # the absolute defect grows from 1e-15 (N = 128) to 6.6e-13 (N = 2048)
    # with the entries it cancels; on their scale it stays at rounding
    defect, scale = quasi_strong_with_scale(swanson_pair(theta, n), 0.1)
    assert defect / scale < 1e-13


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n, broken_by", [(128, 1e-6), (2048, 1e-9)])
def test_quasi_strong_scale_catches_a_broken_relation(theta, n, broken_by):
    # scaling T by 1 + 1e-9 at N = 2048 reads 1.7e-9 (theta = 0) and 1.6e-9
    # (0.3) absolutely, a PASS against the absolute tol of 1e-8 it had
    defect, scale = quasi_strong_with_scale(scaled_T(swanson_pair(theta, n), 1 + broken_by), 0.1)
    assert defect / scale > 1e-12


def test_quasi_strong_scale_rejects_negative_parameters():
    with pytest.raises(DomainParameterError):
        quasi_strong_with_scale(boson_pair(16), -0.1)


@pytest.mark.parametrize(
    "both, defect, args, band",
    [(weak_with_scale, weak_defect, (), lambda pair: pair.safe_rank),
     (quasi_strong_with_scale, quasi_strong_defect, (0.1,), lambda pair: semigroup_band(pair, 0.1)),
     (weyl_with_scale, weyl_defect, (0.1, 0.2), lambda pair: semigroup_band(pair, 0.2))],
    ids=["weak", "quasi_strong", "weyl"],
)
def test_each_defect_and_its_scale_come_from_one_product(monkeypatch, both, defect, args, band):
    pair = swanson_pair(0.3, 128)
    want = both(pair, *args)  # forms the semigroups first
    assert defect(pair, *args) == want[0]
    calls, real = [], band_product
    monkeypatch.setattr(fock, "band_product", lambda *a: calls.append(a) or real(*a))
    assert both(pair, *args) == want
    assert len(calls) == 2  # the product the scale reads, and the one it is compared with
    assert [a[2:] for a in calls] == [(band(pair),)] * 2  # each formed on the band's rows only


@pytest.mark.parametrize("rows", [1, 5, 9, 12])
@pytest.mark.parametrize("c, with_R", [(1.0, False), (1.0, True), (-2.5, True), (0.5 + 1j, False)])
def test_relation_block_is_the_leading_block_of_the_dense_relation(rows, c, with_R):
    rng = np.random.default_rng(rows)
    n = 12

    def banded(lower, upper):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return np.triu(np.tril(A, upper), -lower)

    X, Y, R = banded(2, 1), banded(1, 3), banded(1, 2)
    want = X @ Y - c * (Y @ X) - (R if with_R else 0)
    block, scale = relation_block(diagonals(X), diagonals(Y), rows, c, diagonals(R) if with_R else None)
    assert block.shape[1] == rows
    assert np.allclose(dense(block), want[:rows, :rows], rtol=0, atol=ROUNDING * 10)
    assert scale == pytest.approx(max(1.0, np.max(np.abs((X @ Y)[:rows, :rows]))), rel=ROUNDING)


def test_weyl_defect_memory_stays_below_one_dense_block():
    # the dense SVD of the parent peaked at 141 MiB here, more than twice the
    # 61 MiB of one dense band x band complex block
    pair = swanson_pair(0.3, 2048)
    band = semigroup_band(pair, 0.1)
    tracemalloc.start()
    try:
        weyl_defect(pair, 0.1, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < band * band * np.dtype(complex).itemsize


def test_semigroups_are_formed_once_per_pair(monkeypatch):
    calls = []
    real = band_expm

    def counting(D, alpha):
        calls.append(alpha)
        return real(D, alpha)

    monkeypatch.setattr(fock, "band_expm", counting)
    pair = swanson_pair(0.3, 64)
    first = (quasi_strong_defect(pair, 0.1), weyl_defect(pair, 0.1, 0.2))
    assert calls == [0.1, 0.2]  # V_S(0.1) once, shared; V_T(0.2) once
    assert (quasi_strong_defect(pair, 0.1), weyl_defect(pair, 0.1, 0.2)) == first
    assert calls == [0.1, 0.2]
    fresh = swanson_pair(0.3, 64)
    assert (quasi_strong_defect(fresh, 0.1), weyl_defect(fresh, 0.1, 0.2)) == first
    V = pair.semigroup("S", 0.1)
    assert np.array_equal(V, real(pair.S.diagonals, 0.1))
    assert not V.flags.writeable
