"""Matrix-model tests: ladder matrices, coherent states, defect measures."""

import cmath
import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammainc
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcr import fock, uncertainty
from weakcr.errors import ConditioningError, DomainParameterError, InvalidDimensionError, TruncationError
from weakcr.fock import (
    Band,
    OperatorPair,
    TruncatedOperator,
    band_adjoint,
    band_product,
    basis_state,
    boson_pair,
    coherent_state,
    coherent_states,
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
    # m = 0 and every ratio z / sqrt(k) is 0, so the recurrence gives e0 exactly
    for n in (1, 2, 5, 64):
        assert np.array_equal(coherent_state(0.0, n).components, basis_state(0, n).components)


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
    with pytest.raises(TruncationError) as exc:  # an infinite z has its whole norm past any dimension
        coherent_state(complex("inf"), 8)
    assert exc.value.tail_mass == 1.0


def _coherent_oracle(z, n):
    """The unit truncation of the coherent state to 50 digits, phased so that x_m > 0.

    m = min(floor(|z|^2), n - 1).  The plain recurrence x_k = x_(k-1) z / sqrt(k)
    from x_0 = 1 runs in mpmath, whose exponent range has no float limit, and
    is divided by its x_m.
    """
    with mpmath.workdps(50):
        w, v = mpmath.mpc(complex(z)), [mpmath.mpc(1)]
        for k in range(1, n):
            v.append(v[-1] * w / mpmath.sqrt(k))
        mode = v[min(math.floor(abs(z) ** 2), n - 1)]
        v = [c / mode for c in v]
        total = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in v))
        return np.array([complex(c / total) for c in v])


def _assert_near_coherent_oracle(phi, z, n):
    # within 16 u (u = 2^-53) of the largest component, in the x_m > 0 convention
    want = _coherent_oracle(z, n)
    assert np.max(np.abs(phi.components - want)) <= 16 * 2.0**-53 * np.max(np.abs(want))


@pytest.mark.parametrize("z, n", [(27, 1024), (26, 1024), (20 - 15j, 1024), (5j, 80), (1.2, 40)])
def test_coherent_state_normalizes_without_overflow(z, n):
    # at |z| = 27 the squares of z^k / sqrt(k!) pass the float range (about
    # 1e316) although the tail guard does not; run from the mode, no
    # component passes 1
    phi = coherent_state(z, n)
    assert phi.norm == pytest.approx(1.0, abs=1e-14)
    _assert_near_coherent_oracle(phi, z, n)
    # |c_k|^2 is the Poisson weight e^(-x) x^k / k!, x = |z|^2, at its mode
    x = abs(z) ** 2
    k = int(x)
    want = math.exp((k * math.log(x) - math.lgamma(k + 1) - x) / 2)
    assert abs(phi.components[k]) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("z, n", [(40, 4096), (38 + 5j, 4096), (45, 4096), (60j, 8192)])
def test_coherent_state_past_the_float_range(z, n):
    # z^k / sqrt(k!) itself passes the float range near k = |z|^2 (2^1153 at
    # |z| = 40); the recurrence from the mode never leaves [0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi = coherent_state(z, n)
    assert phi.norm == pytest.approx(1.0, abs=1e-14)
    _assert_near_coherent_oracle(phi, z, n)
    # against the closed-form Poisson amplitudes e^(-x/2) |z|^k / sqrt(k!), x = |z|^2
    x = abs(z) ** 2
    ks = np.arange(n)
    log_mod = np.array([k * math.log(abs(z)) - math.lgamma(k + 1) / 2 - x / 2 for k in range(n)])
    big = log_mod > -600
    assert np.allclose(np.abs(phi.components[big]), np.exp(log_mod[big]), rtol=1e-9, atol=0)
    # the phase relative to the mode m, whose component is real and positive
    m = math.floor(x)
    phase = np.exp(1j * cmath.phase(z) * (ks[big] - m))
    assert np.allclose(phi.components[big], np.abs(phi.components[big]) * phase, rtol=1e-9, atol=1e-300)


@pytest.mark.parametrize("z, n", [(0.7, 32), (-2.5, 64), (27, 1024), (-45, 4096)])
def test_coherent_state_of_real_z_is_real(z, n):
    assert not coherent_state(z, n).components.imag.any()


@pytest.mark.parametrize("z, n", [(0.7j, 32), (-2.5j, 64), (35j, 2048), (60j, 8192)])
def test_coherent_state_of_imaginary_z_alternates(z, n):
    # x_k is a real multiple of i^(k - m), m = floor(|z|^2): every other component
    # is real and the rest imaginary, exactly (35j has m = 1225, odd)
    comps = coherent_state(z, n).components
    m = math.floor(abs(z) ** 2)
    assert not comps[m % 2 :: 2].imag.any()
    assert not comps[1 - m % 2 :: 2].real.any()


@pytest.mark.parametrize("z", [complex("nan"), complex(0, float("nan")), complex(float("nan"), 1)])
def test_coherent_state_of_a_nan_is_a_typed_error(z):
    # its tail mass is NaN, which the tail guard alone would let through
    with pytest.raises(DomainParameterError, match="z must not be NaN"):
        coherent_state(z, 8)


def _one_coherent_state(z, n):
    """The per-state recurrence that ``coherent_states`` forms as one block: the bit oracle."""
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
    return fock.StateVector(comps, label=f"coh({z.real:g},{z.imag:g})")


_GRID = [complex(re, im) for re in np.linspace(-1.0, 1.0, 9) for im in np.linspace(-1.0, 1.0, 9)]


@pytest.mark.parametrize("zs, n", [
    ([0.0, 0.3, -0.7 + 0.2j, 0.5j], 16),  # mode 0
    ([1.2, -1.1j, 0.9 + 0.8j], 32),  # mode 1
    ([1.5, 1 + 1j, -1.2 - 0.9j], 32),  # mode 2
    (_GRID, 128),  # modes 0, 1 and 2 in one block, in grid order
    ([0.0011], 2),
    ([0.01, -0.005j], 3),
    ([0.2, 3 - 4j, 27, 20 - 15j, 1.5], 1024),  # modes from 0 to 729
    ([45], 4096),
    ([60j], 8192),
    ([0.0], 1),
    ([], 8),
])
def test_coherent_states_have_the_bits_of_the_one_state_recurrence(zs, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        block = coherent_states(zs, n)
    assert block.shape == (len(zs), n)
    for z, row in zip(zs, block):
        want = _one_coherent_state(z, n)
        assert row.tobytes() == want.components.tobytes()
        xi = coherent_state(z, n)
        assert xi.label == want.label
        assert xi.components.tobytes() == want.components.tobytes()


@pytest.mark.parametrize("bad, error", [
    (complex("nan"), DomainParameterError),
    (complex(0, float("nan")), DomainParameterError),
    (2.0, TruncationError),
    (complex("inf"), TruncationError),
])
def test_coherent_states_refuse_a_batch_as_the_one_state_recurrence_refuses_its_state(bad, error):
    with pytest.raises(error) as want:
        _one_coherent_state(bad, 16)
    with pytest.raises(error) as got:
        coherent_states([0.1, bad, 0.2], 16)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "tail_mass", None) == getattr(want.value, "tail_mass", None)


@pytest.mark.parametrize("u", [
    np.arange(5.0),
    np.arange(6.0).reshape(2, 3),
    np.arange(12.0).reshape(3, 4)[:, 1],  # a strided column
    np.arange(12.0).reshape(3, 4).T,  # raveled in C order
    np.exp(0.3j * np.arange(257)) / 7,
    (np.arange(24) * (1 - 2j)).reshape(4, 6)[:, ::2],
    [3, 4],
    np.zeros(0),
])
def test_norm_has_the_bits_of_numpys_norm(u):
    want = float(np.linalg.norm(np.asarray(u).reshape(-1)))
    assert fock.norm(u).hex() == want.hex()


def _rows(seed, L, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n))


# blocks whose rows the batch reductions read, each built from a seed
_ROW_BLOCKS = {
    "one-row": lambda seed: _rows(seed, 1, 64),
    "86-rows-at-N128": lambda seed: _rows(seed, 86, 128),
    "256-rows-at-N1024": lambda seed: _rows(seed, 256, 1024),
    "strided": lambda seed: _rows(seed, 12, 90)[::2, ::3],
    "transposed": lambda seed: _rows(seed, 40, 7).T,
    "rows-at-1e150-and-1e-150": lambda seed: _rows(seed, 6, 32) * np.array([1e150, 1e-150] * 3)[:, None],
    "subnormal-rows": lambda seed: _rows(seed, 4, 32) * 1e-310,
    "zero-rows": lambda seed: _rows(seed, 5, 16) * np.array([0.0, 1.0, 0.0, 1.0, 0.0])[:, None],
}


@pytest.mark.parametrize("block", _ROW_BLOCKS.values(), ids=_ROW_BLOCKS.keys())
def test_row_norms_have_the_bits_of_norm_on_each_row(block):
    X = block(1)
    got = fock.row_norms(X)
    assert got.shape == (len(X),)
    assert [v.hex() for v in got.tolist()] == [fock.norm(x).hex() for x in X]


@pytest.mark.parametrize("block", _ROW_BLOCKS.values(), ids=_ROW_BLOCKS.keys())
def test_centers_have_the_bits_of_vdot_on_each_row(block):
    X, AX = block(1), block(2)
    got = uncertainty._centers(X, AX)
    want = [complex(np.vdot(X[i], AX[i])) for i in range(len(X))]  # the per-row loop the block replaced
    assert got.shape == (len(X),)
    assert [(c.real.hex(), c.imag.hex()) for c in got.tolist()] == [(c.real.hex(), c.imag.hex()) for c in want]


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
    for got, want in ((pair.S.band, model.S.band), (pair.T.band, model.T.band)):
        assert (got.lo, got.diagonals.tobytes()) == (want.lo, want.diagonals.tobytes())


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
# The defect chain forms no dense N x N product or exponential; these dense
# formulas are the reference it is tested against.


def dense_weak_defect(pair):
    S, T = pair.S.entries, pair.T.entries
    M = S @ T - T @ S - np.eye(pair.dim)
    return float(np.max(np.abs(M[: pair.safe_rank, : pair.safe_rank])))


def untruncated_exp(A, alpha):
    """The N x N block of exp(alpha A) on the untruncated space, for A = x a + y a*.

    It is the leading block of the exponential of the same generator
    truncated at 2N, whose edge lies N indices further out.
    """
    n = len(A)
    wider = A[0, 1] * lowering(2 * n).entries + A[1, 0] * raising(2 * n).entries
    return scipy.linalg.expm(alpha * wider)[:n, :n]


def dense_quasi_strong_defect(pair, alpha):
    band = semigroup_band(pair, alpha)
    S, T = pair.S.entries, pair.T.entries
    V = untruncated_exp(S, alpha)
    M = V @ T - T @ V - alpha * V
    return float(np.max(np.abs(M[:band, :band]))), float(np.max(np.abs(V)) * np.max(np.abs(T)))


def dense_weyl_defect(pair, alpha, beta):
    band = semigroup_band(pair, max(alpha, beta))
    S, T = pair.S.entries, pair.T.entries
    VS, VT = untruncated_exp(S, alpha), untruncated_exp(T, beta)
    M = VS @ VT - math.exp(alpha * beta) * (VT @ VS)
    scale = math.exp(alpha * beta) * np.linalg.norm(VS, 1) * np.linalg.norm(VT, 1)
    return float(np.max(np.abs(M[:band, :band]))), float(scale)


def band_columns(band):
    """Column-indexed diagonals, C[r, j] = A[j - d, j] with d = lo + r (LAPACK-style layout)."""
    width = max(-band.lo, band.hi, 0)
    return _centered_shifted(centered(band), -1)[width + band.lo : width + band.hi + 1]


def dense(band):
    """The full matrix of a band (lo, D)."""
    lo, D = band
    n = D.shape[1]
    out = np.zeros((n, n), dtype=D.dtype)
    for r in range(len(D)):
        d = lo + r
        for i in range(max(0, -d), min(n, n - d)):
            out[i, i + d] = D[r, i]
    return out


# ---------------------------------------------------------------------------
# the centered layout, kept as the bit oracle of the band helpers: a matrix
# of bandwidth K is a (2K+1) x N array D with D[K + d, i] = A[i, i + d]
# ---------------------------------------------------------------------------


def _width(D):
    return D.shape[0] // 2


def centered(band):
    """The centered (2K+1) x N diagonals of a band, K = max(-lo, hi, 0)."""
    width = max(-band.lo, band.hi, 0)
    D = np.zeros((2 * width + 1, band.diagonals.shape[1]), dtype=band.diagonals.dtype)
    D[width + band.lo : width + band.hi + 1] = band.diagonals
    return D


def as_band(D):
    """The band (lo = -K) of centered diagonals."""
    return Band(-_width(D), D)


def _centered_shifted(D, sign):
    """G[K + d, i] = D[K + d, i + sign * d], zero where that leaves the matrix."""
    width, n = _width(D), D.shape[1]
    padded = np.zeros((2 * width + 1, n + 2 * width), dtype=D.dtype)
    padded[:, width : width + n] = D
    step = padded.strides[1]
    strides = (padded.strides[0] + sign * step, step)
    return np.ndarray(D.shape, D.dtype, padded, (1 - sign) * width * step, strides).copy()


def centered_adjoint(D):
    """Diagonals of A' from those of A: A'[i, i + d] = conj(A[i + d, i])."""
    return _centered_shifted(D[::-1], 1).conj()


def centered_product(A, B, rows=None):
    """Diagonals of the product, every stored diagonal multiplied, zero or not."""
    ka, kb, n = _width(A), _width(B), A.shape[1]
    m = n if rows is None else min(rows, n)
    padded = np.zeros((2 * kb + 1, n + 2 * ka), dtype=B.dtype)
    padded[:, ka : ka + n] = B
    C = np.zeros((2 * (ka + kb) + 1, m), dtype=np.result_type(A, B))
    for r in range(2 * ka + 1):
        C[r : r + 2 * kb + 1] += A[r, :m] * padded[:, r : r + m]
    excess = max(0, ka + kb - (n - 1))  # diagonals beyond the matrix are all zero
    return C[excess : C.shape[0] - excess]


def _middle(D, width):
    return D[_width(D) - width : _width(D) + width + 1]


def _centered_clear_outside(B):
    width, k = _width(B), B.shape[1]
    for d in range(1, width + 1):
        B[width + d, k - d :] = 0
        B[width - d, :d] = 0
    return B


def centered_semigroup(pair, generator, alpha):
    """The closed-form semigroup of ``OperatorPair.semigroup``, formed in the centered layout."""
    x, y = fock._ladder_coefficients(getattr(pair, generator).band)
    n = pair.dim
    steps = max(1, math.ceil(alpha * min(abs(x), abs(y)) * math.sqrt(n) / 2))
    upper = centered(fock._exp_lowering(alpha / steps * x, n))
    lower = centered_adjoint(centered(fock._exp_lowering((alpha / steps * y).conjugate(), n)))
    width = max(_width(lower), _width(upper))
    W = _middle(centered_product(lower, upper), width) * cmath.exp((alpha / steps) ** 2 * x * y / 2)
    V = W
    for _ in range(steps - 1):
        V = centered_trimmed(centered_product(W, V))
    return V


def centered_trimmed(D):
    """The semigroup's cut in the centered layout: outer diagonals below u times each row's largest entry zeroed,
    then the zero rows cut."""
    moduli = np.abs(D)
    kept = np.flatnonzero((moduli >= fock._EPS * moduli.max(axis=0)).any(axis=1))
    D = D.copy()
    D[: kept[0]] = 0
    D[kept[-1] + 1 :] = 0
    return _middle(D, max(_width(D) - kept[0], kept[-1] - _width(D)))


def centered_relation_block(X, Y, rows, c=1.0, R=None):
    """``relation_block`` in the centered layout: the block's diagonals and its scale."""
    M = centered_product(X, Y, rows)
    width = min(_width(M), M.shape[1] - 1)
    M = _centered_clear_outside(_middle(M, width))
    scale = max(1.0, float(np.abs(M).max()))
    YX = _middle(centered_product(Y, X, rows), width)
    if c != 1:
        YX *= c
    M -= YX
    if R is not None:
        reach = min(_width(R), width)
        M[width - reach : width + reach + 1] -= _middle(R, reach)[:, : M.shape[1]]
    return _centered_clear_outside(M), scale


def assert_same_bits(band, D):
    """The band holds D's diagonals at its offsets to the bit, and D is zero on all others."""
    width = _width(D)
    assert band.diagonals.shape[1] == D.shape[1]
    assert -width <= band.lo and band.hi <= width
    assert band.diagonals.tobytes() == D[width + band.lo : width + band.hi + 1].tobytes()
    assert not D[: width + band.lo].any() and not D[width + band.hi + 1 :].any()


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
    assert op.band.lo == diagonals(A).lo and np.array_equal(op.band.diagonals, diagonals(A).diagonals)
    rows, cols = np.nonzero(A)
    lo, hi = (int((cols - rows).min()), int((cols - rows).max())) if rows.size else (0, 0)
    assert (op.band.lo, op.band.hi, op.band.diagonals.shape) == (lo, hi, (hi - lo + 1, len(A)))


def test_band_constructor_ignores_slots_outside_the_matrix():
    op = TruncatedOperator.banded((-1, np.arange(1.0, 13.0).reshape(3, 4)))
    want = [[5, 9, 0, 0], [2, 6, 10, 0], [0, 3, 7, 11], [0, 0, 4, 8]]
    assert np.array_equal(op.entries, want)
    assert op.band.lo == -1 and np.array_equal(op.band.diagonals, diagonals(np.array(want, dtype=complex)).diagonals)
    wider = TruncatedOperator.banded((-3, np.ones((7, 2))))  # diagonals past the matrix are dropped
    assert (wider.band.lo, wider.band.diagonals.shape) == (-1, (3, 2))
    assert np.array_equal(wider.entries, np.ones((2, 2)))
    upper = TruncatedOperator.banded((0, np.ones((2, 3))))  # an even number of rows is a band too
    assert np.array_equal(upper.entries, np.triu(np.tril(np.ones((3, 3)), 1)))
    beyond = TruncatedOperator.banded((5, np.ones((1, 3))))  # no diagonal meets the matrix
    assert (beyond.band.lo, beyond.band.hi) == (0, 0) and not beyond.entries.any()
    # every offset of a 20 x 20 matrix, its slots outside filled too: past 16
    # diagonals they are zeroed by corner masks, not diagonal by diagonal
    D = np.random.default_rng(20).normal(size=(39, 20))
    full = np.array([[D[j - i + 19, i] for j in range(20)] for i in range(20)])
    op = TruncatedOperator.banded((-19, D))
    assert op.band.lo == -19 and np.array_equal(op.band.diagonals, diagonals(full.astype(complex)).diagonals)


@pytest.mark.parametrize(
    "band",
    # two rows centered on the main diagonal would start at offset -1/2
    [(-0.5, np.ones((2, 4))), (-1, np.where(np.eye(3, 4, 1) > 0, np.nan, 1.0)), (-1, np.zeros((3, 0))),
     (0, np.ones(4))],
    ids=["even-rows", "nan", "no-columns", "one-dimensional"],
)
def test_band_constructor_rejects_malformed_diagonals(band):
    with pytest.raises(InvalidDimensionError):
        TruncatedOperator.banded(band)


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
    scale = float(np.max(np.abs(S)) * np.max(np.abs(pair.T.entries)))
    assert abs(weak_defect(pair) - dense_weak_defect(pair)) <= ROUNDING * max(1.0, scale)
    try:
        band = semigroup_band(pair, alpha)
    except TruncationError:
        with pytest.raises(TruncationError):
            quasi_strong_defect(pair, alpha)
        return
    if name == "wide":  # a generator outside x a + y a* has no closed-form semigroup
        for defect, args in ((quasi_strong_defect, (alpha,)), (weyl_defect, (alpha, alpha))):
            with pytest.raises(DomainParameterError):
                defect(pair, *args)
        return
    # the closed form is the block of the untruncated operator; in steps it
    # loses that exactness near the edge, so it is compared on the band
    E = untruncated_exp(S, alpha)[:band, :band]
    V = dense(pair.semigroup("S", alpha))[:band, :band]
    assert np.max(np.abs(V - E)) <= ROUNDING * np.max(np.abs(E))
    want, q_scale = dense_quasi_strong_defect(pair, alpha)
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
    assert (DA.lo, DA.hi) == (1 - n, n - 1)  # a full matrix keeps every diagonal
    assert np.array_equal(dense(DA), A)
    assert np.array_equal(dense(band_adjoint(DA)), A.conj().T)
    for X, Y in ((DA, DB), (DB, DA), (DB, DB)):
        assert np.allclose(dense(band_product(X, Y)), dense(X) @ dense(Y), rtol=0, atol=ROUNDING * n * 10)
    cols = band_columns(DA)
    for d in range(DA.lo, DA.hi + 1):
        for j in range(max(0, d), min(n, n + d)):
            assert cols[d - DA.lo, j] == A[j - d, j]


@pytest.mark.parametrize("rows", [1, 3, 8, 9, 20])
def test_band_product_leading_rows_match_the_full_product(rows):
    rng = np.random.default_rng(rows)
    A = np.triu(np.tril(rng.standard_normal((9, 9)), 3), -2) * 1j
    B = np.triu(np.tril(rng.standard_normal((9, 9)), 1), -4)
    for X, Y in ((A, B), (B, A), (A, A)):
        full = band_product(diagonals(X), diagonals(Y))
        got = band_product(diagonals(X), diagonals(Y), rows)
        assert (got.lo, got.hi) == (max(full.lo, 1 - min(rows, 9)), full.hi)
        assert np.array_equal(got.diagonals, full.diagonals[got.lo - full.lo :, :rows])
        assert not full.diagonals[: got.lo - full.lo, :rows].any()  # no entry in the leading rows


def band_product_by_rows(A, B, rows=None):
    """``band_product`` as one pass per diagonal of A, whichever factor is narrower: the bit oracle of its loop over B."""
    n = A.diagonals.shape[1]
    m = n if rows is None else min(rows, n)
    left = max(0, -A.lo)
    padded = np.zeros((len(B.diagonals), n + left + max(0, A.hi)), dtype=B.diagonals.dtype)
    padded[:, left : left + n] = B.diagonals
    C = np.zeros((A.hi + B.hi - A.lo - B.lo + 1, m), dtype=np.result_type(A.diagonals, B.diagonals))
    for r in range(len(A.diagonals)):
        start = left + A.lo + r
        C[r : r + len(B.diagonals)] += A.diagonals[r, :m] * padded[:, start : start + m]
    lo, hi = max(A.lo + B.lo, 1 - m), min(A.hi + B.hi, n - 1)
    if lo > hi:
        return Band(0, np.zeros((1, m), dtype=complex))
    return Band(lo, C[lo - A.lo - B.lo : hi - A.lo - B.lo + 1])


@st.composite
def band_factor_pairs(draw):
    """Two bands on one N, each real or complex, of any widths (either narrower, or equal), and ``rows``.

    Each diagonal is scaled by its own power of ten, and some entries are
    zeros of either sign, so a changed order of the sums or a changed
    product path shows in the bits.
    """
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def band():
        width, lo = draw(st.integers(1, 9)), draw(st.integers(-n, n - 1))
        D = rng.standard_normal((width, n)) * 10.0 ** rng.integers(-6, 7, size=(width, 1))
        if draw(st.booleans()):
            D = D + 1j * rng.standard_normal((width, n))
        D[rng.random(D.shape) < 0.1] *= rng.choice([0.0, -0.0])
        return Band(lo, D)

    rows = draw(st.one_of(st.none(), st.sampled_from([1, 2]), st.integers(1, max(1, n - 1))))
    return band(), band(), rows


@settings(max_examples=400, deadline=None)
@given(band_factor_pairs())
def test_band_product_has_the_bits_of_the_loop_over_the_rows_of_a(factors):
    A, B, rows = factors
    got, want = band_product(A, B, rows), band_product_by_rows(A, B, rows)
    assert got.lo == want.lo and got.diagonals.shape == want.diagonals.shape
    assert got.diagonals.tobytes() == want.diagonals.tobytes()


def exp_lowering_by_full_scan(z, n):
    """``_exp_lowering`` with each diagonal's size from a scan of all its entries: the bit oracle of its last-entry read."""
    root = np.sqrt(np.arange(n))
    rows, largest = [np.ones(n, dtype=complex)], 1.0
    for d in range(1, n):
        row = rows[-1][: n - d] * root[d:] * (z / d)
        size = float(np.max(np.abs(row)))
        if size < fock._EPS * largest and abs(z) * math.sqrt(n + d) / (d + 1) < 0.5:
            break
        largest = max(largest, size)
        rows.append(row)
    E = np.zeros((len(rows), n), dtype=complex)
    for d, row in enumerate(rows):
        E[d, : n - d] = row
    return Band(0, E)


EXP_LOWERING_Z = {"zero": 0j, "real": 0.1 + 0j, "imaginary": -0.3j, "complex": 0.05 + 0.07j, "large": 2.5 - 1j,
                  "tiny": 1e-300 + 0j, "overflow": 1e200 * (0.6 + 0.8j)}
# the full scan keeps all N overflowing diagonals, and at |z| = 2.7 the band has
# about 5.4 sqrt(N) diagonals: both are taken at the smaller N only
EXP_LOWERING_CASES = [(name, n) for name in EXP_LOWERING_Z for n in (1, 2, 3, 16, 128, 1024, 32768)
                      if n <= {"overflow": 128, "large": 1024}.get(name, n)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, n", EXP_LOWERING_CASES, ids=[f"{m}-N{n}" for m, n in EXP_LOWERING_CASES])
def test_exp_lowering_has_the_bits_of_the_full_scan(name, n):
    # a band the full scan leaves finite keeps its bits; one it fills with inf
    # or NaN (the overflowing z past N = 2) is a typed error, without numpy's warnings
    z = EXP_LOWERING_Z[name]
    with np.errstate(over="ignore", invalid="ignore"):
        want = exp_lowering_by_full_scan(z, n)
    if not np.isfinite(want.diagonals).all():
        assert name == "overflow" and n > 2
        with pytest.raises(DomainParameterError, match=rf"\|z\| = 1e\+200, N = {n} leaves the float range"):
            fock._exp_lowering(z, n)
        return
    got = fock._exp_lowering(z, n)
    assert got.diagonals.shape == want.diagonals.shape
    assert got.diagonals.tobytes() == want.diagonals.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pair, generator, alpha", [(lambda: boson_pair(1024), "S", 50.0),
                                                    (lambda: boson_pair(4096), "T", 20.0),
                                                    (lambda: swanson_pair(1e-4, 2048), "S", 30.0)],
                         ids=["boson-S-1024", "boson-T-4096", "swanson1e-4-S-2048"])
def test_semigroup_past_the_float_range_is_a_typed_error(pair, generator, alpha):
    # |z| sqrt(N) past about 709 overflows exp(z a): rather than a band of N
    # diagonals of inf and NaN, with numpy's overflow warnings, the semigroup is
    # refused at its first non-finite diagonal, naming alpha, |z| and N
    pair = pair()
    with pytest.raises(DomainParameterError) as err:
        pair.semigroup(generator, alpha)
    message = str(err.value)
    assert f"the semigroup of {generator} at alpha = {alpha:g}: exp(z a) at |z| = " in message
    assert f", N = {pair.dim} leaves the float range" in message
    assert (generator, alpha) not in pair._semigroups


def test_bandwidth_follows_the_nonzero_pattern():
    def offsets(A):
        band = diagonals(A)
        assert band.diagonals.shape == (band.hi - band.lo + 1, len(A))
        return band.lo, band.hi

    assert offsets(lowering(6).entries) == (1, 1)
    assert offsets(identity(5).entries) == (0, 0)
    assert offsets(np.zeros((4, 4))) == (0, 0)
    corner = np.zeros((5, 5))
    corner[4, 0] = 1.0
    assert offsets(corner) == (-4, -4)
    assert offsets(wide_pair(8).S.entries) == (-1, 2)


def test_semigroup_splits_large_norms_into_steps():
    # the semigroup at alpha = 2 takes ceil(2 sin(0.3) sqrt(512) / 2) = 7 steps;
    # its band is the 58 rows that the margin of 453 leaves
    pair = swanson_pair(0.3, 512)
    band = semigroup_band(pair, 2.0)
    E = scipy.linalg.expm(2.0 * pair.S.entries)[:band, :band]
    V = dense(pair.semigroup("S", 2.0))[:band, :band]
    assert np.max(np.abs(V - E)) <= ROUNDING * np.max(np.abs(E))


#: theta_m of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011) for unit
#: roundoff 2^-53 (the values scipy.sparse.linalg.expm_multiply uses): the
#: largest ||A||_1 for which the degree-m Taylor polynomial of exp(A) is
#: accurate to that roundoff.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.70, 40: 6.00,
    45: 7.20, 50: 8.50, 55: 9.90,
}


def _taylor_semigroup_oracle(band, alpha):
    """The band of exp(alpha A) of the truncated A by the full-band Taylor series.

    Steps s and degree m minimise s * m subject to ||alpha A||_1 / s <= theta_m;
    the series of each step stops once two consecutive terms fall below unit
    roundoff relative to the partial sum, and every term is multiplied on all
    of its diagonals, in the centered layout.
    """
    D = centered(band)
    A = alpha * D
    norm1 = float(np.max(np.sum(np.abs(_centered_shifted(A, -1)), axis=0)))
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
        term = centered_product(A, term)
        term /= j
        width = _width(term)
        total[widest - width : widest + width + 1] += term
        size = float(np.max(np.abs(term)))
        bound += size
        if size + previous <= fock._EPS * bound and size + previous <= fock._EPS * np.max(np.abs(total)):
            break
        previous = size
    total = total[widest - width : widest + width + 1]
    V = total
    for _ in range(steps - 1):
        V = centered_product(total, V)
    return as_band(V)


def _random_band(offsets, width):
    """The band at offsets -width..width, random on ``offsets`` and zero elsewhere."""

    def make(n):
        rng = np.random.default_rng([n, width, *(d + width for d in offsets)])
        D = np.zeros((2 * width + 1, n), dtype=complex)
        for d in offsets:
            rows = slice(max(0, -d), min(n, n - d))  # i with i + d inside the matrix
            k = len(range(n)[rows])
            D[width + d, rows] = rng.normal(size=k) + 1j * rng.normal(size=k)
        return Band(-width, D)

    return make


def _letter(make_pair, letter):
    """The band of one letter (S, T, S' or T') of the pair make_pair(n)."""

    def make(n):
        op = getattr(make_pair(n), letter[0])
        return (op.adjoint() if letter.endswith("'") else op).band

    return make


EXPM_BANDS = {
    f"swanson{theta}-{letter}": _letter(lambda n, theta=theta: swanson_pair(theta, n), letter)
    for theta in (0.0, 0.3, 0.785, 1.2) for letter in ("S", "T", "S'", "T'")
}
RANDOM_BANDS = {
    "tridiagonal": _random_band((-1, 0, 1), 1),  # a nonzero main diagonal
    "pentadiagonal-odd": _random_band((-1, 1), 2),  # random +-1 diagonals, zero outer ones
    "pentadiagonal-even": _random_band((-2, 0, 2), 2),
    "upper": _random_band((1, 3), 3),
}
EXPM_BANDS.update(RANDOM_BANDS)
EXPM_CASES = [(name, n) for name in EXPM_BANDS for n in (2, 3, 5, 16, 128)]
TWO_BY_TWO = {
    f"2x2({s},{q})-{letter}": _letter(lambda n, s=s, q=q: matrix2x2_pair(s, q), letter)
    for s, q in ((1.5, 0.7), (1.5, -0.5)) for letter in "ST"
}
EXPM_BANDS.update(TWO_BY_TWO)
EXPM_CASES += [(name, 2) for name in TWO_BY_TWO]


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 3.0])  # 1 and 3 take several steps at theta > 0
@pytest.mark.parametrize("name, n", EXPM_CASES, ids=[f"{m}-N{n}" for m, n in EXPM_CASES])
def test_band_expm_has_the_bits_of_the_full_band_series(name, n, alpha):
    """The closed-form semigroup against the full-band Taylor series, over its grid.

    A one-sided generator x a or y a* (the letters at theta = 0 and the 2 x 2
    ones) is triangular, so the exponential of its truncation is the block of
    the untruncated one and the two agree everywhere; a two-sided one agrees
    on the semigroup band (empty at alpha = 3 for these N).  The random bands
    are not x a + y a*, so they raise the typed error, except the two whose
    2 x 2 truncation keeps one entry on each of the +-1 diagonals only.
    """
    op = TruncatedOperator.banded(EXPM_BANDS[name](n))
    pair = OperatorPair(op, op)
    if name in RANDOM_BANDS and not (n == 2 and name in ("pentadiagonal-odd", "upper")):
        with pytest.raises(DomainParameterError):
            pair.semigroup("S", alpha)
        return
    V = dense(pair.semigroup("S", alpha))
    want = dense(_taylor_semigroup_oracle(op.band, alpha))
    one_sided = not (np.any(np.tril(op.entries)) and np.any(np.triu(op.entries)))
    rows = n if one_sided else max(0, pair.safe_rank - math.ceil(10 * alpha * math.sqrt(n)))
    assert np.isfinite(V).all()
    error = np.abs(V - want)[:rows, :rows]
    assert np.all(error <= 16 * EPS * np.abs(want).max())


@pytest.mark.parametrize("generator", ["S", "T"])
@pytest.mark.parametrize("theta", [0.0, 0.3, 0.785])
@pytest.mark.parametrize("n", [128, 512, 2048])
def test_semigroup_matches_the_taylor_oracle_on_its_band(n, theta, generator):
    # at most 6.4 ulps of max|V| apart here (theta = 0.785, N = 2048, in two steps)
    pair = swanson_pair(theta, n)
    band = semigroup_band(pair, 0.1)
    V = dense(pair.semigroup(generator, 0.1))[:band, :band]
    want = dense(_taylor_semigroup_oracle(getattr(pair, generator).band, 0.1))[:band, :band]
    assert np.max(np.abs(V - want)) <= 8 * EPS * np.max(np.abs(want))
    if n <= 512:
        E = scipy.linalg.expm(0.1 * getattr(pair, generator).entries)[:band, :band]
        assert np.max(np.abs(V - E)) <= 8 * EPS * np.max(np.abs(E))


def _off_ladder_generators(n):
    a, ad = lowering(n).entries, raising(n).entries
    constant = np.eye(n, k=1) + 0.5 * np.eye(n, k=-1)  # +-1 diagonals without the sqrt(k + 1)
    return {
        "wide": a + 0.5 * a @ a + 0.2 * ad,
        "with-diagonal": a + ad + 1e-3 * np.eye(n),
        "constant-off-diagonals": constant,
        "one-entry-off": a + 1e-9 * np.eye(n, k=1) * (np.arange(n) == 3),
        "identity": np.eye(n),
    }


@pytest.mark.parametrize("name", list(_off_ladder_generators(8)))
def test_semigroup_of_a_generator_outside_x_a_plus_y_adjoint_is_a_typed_error(name):
    op = TruncatedOperator(_off_ladder_generators(8)[name])
    pair = OperatorPair(op, swanson_pair(0.3, 8).T)
    with pytest.raises(DomainParameterError, match="x a \\+ y a\\*"):
        pair.semigroup("S", 0.1)
    assert pair.semigroup("T", 0.1).diagonals.shape[1] == 8  # the ladder-form partner still forms


@pytest.mark.parametrize("s, q", [(1.5, 0.7), (1.5, -0.5), (-2.0, 3j)])
def test_two_by_two_semigroups_form_in_closed_form(s, q):
    # S = s a and T = q a* at N = 2, so V_S(t) = 1 + t s a and V_T(t) = 1 + t q a*
    pair = matrix2x2_pair(s, q)
    assert np.allclose(dense(pair.semigroup("S", 0.4)), [[1, 0.4 * s], [0, 1]], rtol=0, atol=EPS)
    assert np.allclose(dense(pair.semigroup("T", 0.4)), [[1, 0], [0.4 * q, 1]], rtol=0, atol=EPS)


def test_defect_chain_forms_no_dense_exponential_or_svd(monkeypatch):
    # no dense exponential, and no SVD, eigensolver or spectral norm of a matrix
    # whose side reaches the checked block (55 x 55).  np.linalg.norm(ord=2)
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


def weyl_block(pair, alpha, beta, semigroup=None):
    """The band of the band x band block whose max-abs entry is the Weyl defect.

    ``semigroup(generator, parameter)`` forms V_S and V_T: the pair's own by
    default, the Taylor oracle's for a pair outside x a + y a*.
    """
    semigroup = semigroup or pair.semigroup
    band = semigroup_band(pair, max(alpha, beta))
    VS, VT = semigroup("S", alpha), semigroup("T", beta)
    P, Q = band_product(VS, VT, band), band_product(VT, VS, band)  # on the same offsets
    return diagonals(dense(Band(P.lo, P.diagonals - math.exp(alpha * beta) * Q.diagonals))[:band, :band])


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
    # the Weyl defect is the block's max-abs entry, to the bit; on a block with
    # w diagonals the dense SVD's spectral norm lies between that entry and w
    # times it, so the entrywise check reads the norm to within the band's width
    pair = WEYL_MODELS[model](n)
    alpha = min(0.1, widest_alpha(pair))  # the band is one index wide at N = 2 and 3
    if model == "wide":
        D = weyl_block(pair, alpha, alpha, lambda g, t: _taylor_semigroup_oracle(getattr(pair, g).band, t))
    else:
        D = weyl_block(pair, alpha, alpha)
    got = float(np.abs(dense(D)).max())
    norm = float(np.linalg.norm(dense(D), ord=2))
    assert got <= norm * (1 + 1e-14)
    assert norm <= len(D.diagonals) * got * (1 + 1e-14)
    if model == "wide":
        with pytest.raises(DomainParameterError):
            weyl_defect(pair, alpha, alpha)
    else:
        assert got == weyl_defect(pair, alpha, alpha)


def scaled_T(pair, factor):
    return OperatorPair(pair.S, TruncatedOperator.banded((pair.T.band.lo, factor * pair.T.band.diagonals)))


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [16, 128])
def test_weyl_scale_is_the_max_entry_of_the_product_on_the_band(theta, n):
    # the scale is the entrywise bound |V_S||V_T| of the product's rounding,
    # and rho is it over the max-abs entry of V_S V_T, each on the band
    pair = swanson_pair(theta, n)
    band = semigroup_band(pair, 0.2)
    VS, VT = scipy.linalg.expm(0.1 * pair.S.entries), scipy.linalg.expm(0.2 * pair.T.entries)
    want = max(1.0, float(np.max((np.abs(VS) @ np.abs(VT))[:band, :band])))
    product = max(1.0, float(np.max(np.abs(VS @ VT)[:band, :band])))
    _, scale, rho = weyl_with_scale(pair, 0.1, 0.2)
    assert scale == pytest.approx(want, rel=ROUNDING)
    assert rho == pytest.approx(want / product, rel=ROUNDING)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n", [128, 512, 2048])
def test_weyl_defect_is_rounding_on_its_scale(theta, n):
    # the absolute defect grows from 1.9e-15 (N = 128) to 3.0e-12 (N = 2048)
    # with the entries it cancels; on their scale it stays at rounding
    defect, scale, _ = weyl_with_scale(swanson_pair(theta, n), 0.1, 0.1)
    assert defect / scale < 1e-13


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("n, broken_by", [(128, 1e-6), (2048, 1e-9)])
def test_weyl_scale_catches_a_broken_relation(theta, n, broken_by):
    # scaling T by 1 + eps breaks [S, T] = 1 by eps; the absolute Weyl defect
    # read 7.8e-8 and 7.3e-8 here, under the absolute tol of 1e-6 it had
    defect, scale, _ = weyl_with_scale(scaled_T(swanson_pair(theta, n), 1 + broken_by), 0.1, 0.1)
    assert defect / scale > 1e-12


@pytest.mark.parametrize("theta, n, alpha", [(1.2, 512, 0.3), (1.0, 1024, 0.3)])
def test_weyl_scale_catches_a_broken_relation_where_the_block_cancels(theta, n, alpha):
    # rho is 2.9e3 and 4.2e3 here: the correct relation reads rounding on the
    # |V_S||V_T| scale, and T scaled by 1 + 1e-6 reads a b 1e-6 / rho, above the tol
    defect, scale, rho = weyl_with_scale(swanson_pair(theta, n), alpha, alpha)
    assert 1e2 < rho < fock._WEYL_RATIO_LIMIT
    assert defect / scale < 1e-14
    defect, scale, rho = weyl_with_scale(scaled_T(swanson_pair(theta, n), 1 + 1e-6), alpha, alpha)
    assert defect / scale == pytest.approx(alpha * alpha * 1e-6 / rho, rel=1e-4)
    assert defect / scale > 1e-12


@pytest.mark.parametrize("theta, n, alpha, rho", [(0.785, 512, 1.0, "1.165e+04"), (1.2, 1024, 1.5, "1.008e+16")])
def test_weyl_past_the_ratio_limit_is_a_typed_error(theta, n, alpha, rho):
    # past the limit a 1e-6 break at a = b = 0.1 would read below the tol; at
    # rho = 1e16 the computed block carries no correct digit, and a 1e-6 break
    # reads 4.9e-15 on the |V_S||V_T| scale: no verdict either way
    with pytest.raises(ConditioningError) as err:
        weyl_with_scale(swanson_pair(theta, n), alpha, alpha)
    message = str(err.value)
    assert f"N = {n}, alpha = {alpha:g}, beta = {alpha:g}" in message
    assert f"rho = {rho} " in message and "exceeds the limit 10000," in message
    with pytest.raises(ConditioningError):
        weyl_with_scale(scaled_T(swanson_pair(theta, n), 1 + 1e-6), alpha, alpha)


def test_weyl_scale_rejects_negative_parameters():
    with pytest.raises(DomainParameterError):
        weyl_with_scale(boson_pair(16), -0.1, 0.1)


# the grid of the bound (alpha = beta), each theta with the points past the ratio limit at it
WEYL_GRID = {theta: [(n, alpha) for n in (128, 512, 2048) for alpha in (0.1, 0.3, 1.0, 1.5)]
             for theta in (0.0, 0.3, 0.6, 0.785, 1.2)}
WEYL_GRID[0.785].append((512, 1.0))  # also on the grid: rho = 1.165e4
WEYL_GRID[1.2].append((1024, 1.5))  # rho = 1.008e16
# per grid point: passed on the bound alone (b) or on the product after it (p),
# refused by semigroup_band (T) or on rho (C); alpha = 1.5 exhausts N = 128's band
WEYL_OUTCOMES = {0.0: "bbbT bbbb bbbb", 0.3: "bbbT bbbb bbbb", 0.6: "bbbT bbbp bbCC",
                 0.785: "bbbT bbCC bbCC C", 1.2: "bbbT bbCC bCCC C"}


@pytest.mark.parametrize("theta", sorted(WEYL_GRID))
def test_weyl_defect_is_the_first_value_of_weyl_with_scale(monkeypatch, theta):
    # weyl_defect forms the product of the moduli only where its bound on
    # the scale reads rho past half the limit: on every grid point it returns
    # weyl_with_scale's defect to the bit or raises its error with the same
    # message, and the bound is at least the scale
    bounds, products = [], []  # each bound weyl_defect reads; max|V_S V_T| of each rho formed
    real_bound, real_ratio = fock._weyl_scale_bound, fock._weyl_ratio
    monkeypatch.setattr(fock, "_weyl_scale_bound", lambda *args: bounds.append(real_bound(*args)) or bounds[-1])
    monkeypatch.setattr(fock, "_weyl_ratio", lambda *args: products.append(args[-1]) or real_ratio(*args))
    outcomes = []
    for n, alpha in WEYL_GRID[theta]:
        pair = swanson_pair(theta, n)
        del bounds[:], products[:]
        try:
            want = weyl_with_scale(pair, alpha, alpha)
        except (ConditioningError, TruncationError) as err:
            with pytest.raises(type(err)) as got:
                weyl_defect(pair, alpha, alpha)
            assert str(got.value) == str(err), (n, alpha)
            if bounds:  # refused on rho, which the bound could not rule out
                assert bounds[0] > fock._WEYL_RATIO_LIMIT / 2 * products[0], (n, alpha)
            outcomes.append(type(err).__name__[0])
            continue
        product = products.pop()
        got = weyl_defect(pair, alpha, alpha)
        assert np.float64(got).tobytes() == np.float64(want[0]).tobytes(), (n, alpha)
        assert bounds[0] >= want[1], (n, alpha)
        assert bool(products) == (bounds[0] > fock._WEYL_RATIO_LIMIT / 2 * product), (n, alpha)
        outcomes.append("p" if products else "b")
    assert "".join(outcomes) == WEYL_OUTCOMES[theta].replace(" ", "")


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
    "both, defect, args, band, products",
    [(weak_with_scale, weak_defect, (), lambda pair: pair.safe_rank, 2),
     (quasi_strong_with_scale, quasi_strong_defect, (0.1,), lambda pair: semigroup_band(pair, 0.1), 2),
     (weyl_with_scale, weyl_defect, (0.1, 0.2), lambda pair: semigroup_band(pair, 0.2), 3)],
    ids=["weak", "quasi_strong", "weyl"],
)
def test_each_defect_and_its_scale_come_from_one_product(monkeypatch, both, defect, args, band, products):
    pair = swanson_pair(0.3, 128)
    want = both(pair, *args)  # forms the semigroups first
    assert defect(pair, *args) == want[0]
    calls, real = [], band_product
    monkeypatch.setattr(fock, "band_product", lambda *a: calls.append(a) or real(*a))
    assert both(pair, *args) == want
    # the product the scale reads and the one it is compared with; the Weyl
    # scale reads a third, the real product of the moduli |V_S||V_T|
    assert len(calls) == products
    assert [a[2:] for a in calls] == [(band(pair),)] * products  # each formed on the band's rows only
    if products == 3:
        assert all(a.diagonals.dtype == float for a in calls[2][:2])


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
    assert block.diagonals.shape[1] == rows
    assert np.allclose(dense(block), want[:rows, :rows], rtol=0, atol=ROUNDING * 10)
    assert scale == pytest.approx(max(1.0, np.max(np.abs((X @ Y)[:rows, :rows]))), rel=ROUNDING)
    # the bits of the copy-based formula: X Y - c Y X - R cut to its leading block
    XY = band_product(diagonals(X), diagonals(Y), rows)
    YX = band_product(diagonals(Y), diagonals(X), rows)
    M = centered(XY) - (centered(YX) if c == 1 else c * centered(YX))
    if with_R:
        DR, middle = centered(diagonals(R)), _width(M)
        M[middle - _width(DR) : middle + _width(DR) + 1] -= DR[:, :rows]
    want_block = _centered_clear_outside(_middle(M, min(_width(M), rows - 1)).copy())
    assert_same_bits(block, want_block)
    assert scale == max(1.0, float(np.abs(dense(XY)[:rows, :rows]).max()))


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
    real = fock._exp_ladder

    def counting(x, y, alpha, n):
        calls.append(alpha)
        return real(x, y, alpha, n)

    monkeypatch.setattr(fock, "_exp_ladder", counting)
    pair = swanson_pair(0.3, 64)
    first = (quasi_strong_defect(pair, 0.1), weyl_defect(pair, 0.1, 0.2))
    assert calls == [0.1, 0.2]  # V_S(0.1) once, shared; V_T(0.2) once
    assert (quasi_strong_defect(pair, 0.1), weyl_defect(pair, 0.1, 0.2)) == first
    assert calls == [0.1, 0.2]
    fresh = swanson_pair(0.3, 64)
    assert (quasi_strong_defect(fresh, 0.1), weyl_defect(fresh, 0.1, 0.2)) == first
    V, W = pair.semigroup("S", 0.1), real(math.cos(0.3), 1j * math.sin(0.3), 0.1, 64)  # one step here
    assert V.lo == W.lo and np.array_equal(V.diagonals, W.diagonals)
    assert not V.diagonals.flags.writeable


def bits(*values):
    return np.array(values, dtype=float).tobytes()


BIT_MODELS = [("boson", 0.0)] + [(f"swanson{theta}", theta) for theta in (0.3, 0.785, 1.2)]
BIT_CASES = [(name, theta, n) for name, theta in BIT_MODELS for n in (2, 3, 128, 512)]


def assert_chain_keeps_its_bits(pair, alpha, beta):
    """Semigroups, relation blocks and the three defects with scales against the centered layout."""
    S, T = centered(pair.S.band), centered(pair.T.band)
    for generator, parameter in (("S", alpha), ("T", beta)):
        assert_same_bits(pair.semigroup(generator, parameter), centered_semigroup(pair, generator, parameter))
    VS, VT = centered_semigroup(pair, "S", alpha), centered_semigroup(pair, "T", beta)
    # weak: S T - T S - 1 on the safe block
    want, want_scale = centered_relation_block(S, T, pair.safe_rank, R=np.ones((1, pair.dim), dtype=complex))
    block, scale = relation_block(pair.S.band, pair.T.band, pair.safe_rank, R=identity(pair.dim).band)
    assert_same_bits(block, want)
    assert bits(scale) == bits(want_scale)
    assert bits(*weak_with_scale(pair)) == bits(np.abs(want).max(), want_scale)
    # the cross condition [S', T] + [S', T]'
    X = centered_relation_block(centered_adjoint(S), T, pair.safe_rank)[0]
    assert bits(pair.cross_defect) == bits(np.abs(X + centered_adjoint(X)).max())
    # quasi-strong: V_S T - T V_S - a V_S on the semigroup band
    band = semigroup_band(pair, alpha)
    want, want_scale = centered_relation_block(VS, T, band, R=alpha * VS)
    V = pair.semigroup("S", alpha)
    block, scale = relation_block(V, pair.T.band, band, R=Band(V.lo, alpha * V.diagonals))
    assert_same_bits(block, want)
    assert bits(*quasi_strong_with_scale(pair, alpha)) == bits(np.abs(want).max(), want_scale) == bits(
        np.abs(block.diagonals).max(), scale)
    # Weyl: V_S V_T - e^(ab) V_T V_S, its max-abs entry on the centered block,
    # over the block's max of |V_S||V_T| from the centered product of the moduli
    band = semigroup_band(pair, max(alpha, beta))
    want, product = centered_relation_block(VS, VT, band, math.exp(alpha * beta))
    block, scale = relation_block(pair.semigroup("S", alpha), pair.semigroup("T", beta), band, math.exp(alpha * beta))
    assert_same_bits(block, want)
    assert bits(scale) == bits(product)
    moduli = centered_relation_block(np.abs(VS), np.abs(VT), band)[1]
    assert bits(*weyl_with_scale(pair, alpha, beta)) == bits(np.abs(want).max(), moduli, moduli / product)


@pytest.mark.parametrize("name, theta, n", BIT_CASES, ids=[f"{m}-N{n}" for m, _, n in BIT_CASES])
def test_band_offsets_keep_every_bit_of_the_centered_layout(name, theta, n):
    # each entry keeps its accumulation order and only stops adding products
    # with a factor on a diagonal known to be zero, so every number keeps its bits
    pair = swanson_pair(theta, n)
    for alpha in (0.1, 1.0):  # alpha = 1 takes 4 to 7 steps at N = 512 and theta > 0
        for generator in "ST":
            assert_same_bits(pair.semigroup(generator, alpha), centered_semigroup(pair, generator, alpha))
    alpha = min(0.1, widest_alpha(pair))  # 0 at N = 2 and 3, where the band is one index wide
    assert_chain_keeps_its_bits(pair, alpha, alpha)


def test_band_offsets_keep_every_bit_in_steps():
    # five steps at swanson:0.3, alpha = 1, N = 1024, as in verify-cr's CI run
    pair = swanson_pair(0.3, 1024)
    x, y = fock._ladder_coefficients(pair.S.band)
    assert math.ceil(min(abs(x), abs(y)) * math.sqrt(1024) / 2) == 5
    assert_chain_keeps_its_bits(pair, 1.0, 1.0)


TRIM_CASES = [(0.3, 512, "S"), (0.785, 512, "T"), (1.2, 128, "S"), (0.3, 1024, "T")]  # 4, 8, 2 and 5 steps


@pytest.mark.parametrize("theta, n, generator", TRIM_CASES)
def test_stepped_semigroups_drop_only_diagonals_below_unit_roundoff(monkeypatch, theta, n, generator):
    # each step's product keeps its bits on the offsets kept, and every entry it
    # drops is below u times the largest entry of its row (column of the
    # diagonals); the trimmed V still meets the Taylor oracle on the semigroup band
    cuts, real = [], fock._trimmed

    def recording(band):
        cuts.append((band, real(band)))
        return cuts[-1][1]

    monkeypatch.setattr(fock, "_trimmed", recording)
    pair = swanson_pair(theta, n)
    V = pair.semigroup(generator, 1.0)
    x, y = fock._ladder_coefficients(getattr(pair, generator).band)
    assert len(cuts) == math.ceil(min(abs(x), abs(y)) * math.sqrt(n) / 2) - 1 > 0
    for full, kept in cuts:
        inside = slice(kept.lo - full.lo, kept.hi - full.lo + 1)
        assert kept.diagonals.tobytes() == full.diagonals[inside].tobytes()
        dropped = np.concatenate([full.diagonals[: inside.start], full.diagonals[inside.stop :]])
        assert dropped.size and np.all(np.abs(dropped) < fock._EPS * np.abs(full.diagonals).max(axis=0))
    assert V.lo == cuts[-1][1].lo and V.diagonals is cuts[-1][1].diagonals
    band = semigroup_band(pair, 1.0)
    want = dense(_taylor_semigroup_oracle(getattr(pair, generator).band, 1.0))[:band, :band]
    assert np.max(np.abs(dense(V)[:band, :band] - want)) <= 16 * EPS * np.max(np.abs(want))


def test_stepped_semigroups_keep_each_leading_row_to_unit_roundoff():
    # swanson:0.3's V_T at alpha = 3, N = 1024 (15 steps) grows along its rows,
    # so a cut below u max|V| dropped diagonals that carry the band's rows:
    # they read 2.2e-10 of their size off the untrimmed W^s (and at N = 2048
    # verify-cr FAILed); the cut row by row reads 1.3e-17
    pair = swanson_pair(0.3, 1024)
    x, y = fock._ladder_coefficients(pair.T.band)
    steps = math.ceil(3 * min(abs(x), abs(y)) * math.sqrt(1024) / 2)
    W = fock._exp_ladder(x, y, 3 / steps, 1024)
    full = W
    for _ in range(steps - 1):
        full = band_product(W, full)
    band = semigroup_band(pair, 3.0)
    want = fock._dense(full)[:band]
    error = np.abs(fock._dense(pair.semigroup("T", 3.0))[:band] - want).max(axis=1)
    assert np.all(error <= EPS * np.abs(want).max(axis=1))


def test_bands_store_only_the_offsets_they_reach():
    for n in (2, 3, 128, 512):
        pair = boson_pair(n)
        VS, VT = pair.semigroup("S", 0.1), pair.semigroup("T", 0.1)
        assert VS.lo == 0 and VT.hi == 0  # exactly upper and lower triangular
        assert np.array_equal(dense(VS), np.triu(dense(VS))) and np.array_equal(dense(VT), np.tril(dense(VT)))
    # swanson:0.3 at N = 512 reaches -15..23 on V_S and -23..15 on V_T, and stores no more
    pair = swanson_pair(0.3, 512)
    for generator, offsets in (("S", (-15, 23)), ("T", (-23, 15))):
        V = pair.semigroup(generator, 0.1)
        assert (V.lo, V.hi) == offsets
        assert np.abs(V.diagonals[0]).max() > 0 and np.abs(V.diagonals[-1]).max() > 0
    weyl = relation_block(pair.semigroup("S", 0.1), pair.semigroup("T", 0.1), semigroup_band(pair, 0.1))[0]
    assert (weyl.lo, weyl.hi) == (-38, 38)
    two = matrix2x2_pair(1.5, -0.5)
    assert (two.S.band.lo, two.S.band.hi) == (1, 1) and (two.T.band.lo, two.T.band.hi) == (-1, -1)
    assert (lowering(8).band.lo, lowering(8).band.hi) == (1, 1)
    assert (raising(8).band.lo, raising(8).band.hi) == (-1, -1)


@pytest.mark.parametrize("n", [2, 3, 16, 128])
def test_safe_rank_and_ladder_coefficients_keep_their_values(n):
    # an operator without a -1 row (a, the 2x2 S) reads y = 0, without a +1 row x = 0
    c, s = math.cos(0.3), math.sin(0.3)
    want = {
        "boson": (boson_pair(n), n - 1, (1, 0), (0, 1)),
        "swanson0.3": (swanson_pair(0.3, n), n - 1, (c, 1j * s), (1j * s, c)),
        "2x2": (matrix2x2_pair(1.5, -0.5), 1, (1.5, 0), (0, -0.5)),
        "ladder": (OperatorPair(lowering(n), raising(n)), n - 1, (1, 0), (0, 1)),
        "lowering-twice": (OperatorPair(lowering(n), lowering(n)), n - 1, (1, 0), (1, 0)),
    }
    for name, (pair, rank, xy_S, xy_T) in want.items():
        assert pair.safe_rank == rank, name
        assert fock._ladder_coefficients(pair.S.band) == xy_S, name
        assert fock._ladder_coefficients(pair.T.band) == xy_T, name
    if n >= 4:
        assert wide_pair(n).safe_rank == n - 2
    off_ladder = [identity(n).band, Band(2, np.ones((1, n), dtype=complex)), Band(-1, np.ones((3, n), dtype=complex))]
    off_ladder += [wide_pair(n).S.band] if n >= 4 else []
    for band in off_ladder:
        with pytest.raises(DomainParameterError):
            fock._ladder_coefficients(band)
