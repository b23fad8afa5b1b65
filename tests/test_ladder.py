"""Ladder, biorthogonality, and intertwiner tests."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from weakcr.errors import (
    DomainParameterError,
    NonNormalizableError,
    PreconditionError,
    TruncationError,
    WeakCRError,
)
from weakcr.fock import (
    StateVector,
    TruncatedOperator,
    basis_state,
    boson_pair,
    identity,
    inner,
    lowering,
    matrix2x2_pair,
    norm,
    raising,
    swanson_pair,
    weak_defect,
)
from weakcr.ladder import (
    LadderFamily,
    biorthogonality_gram,
    build_ladder,
    eigen_check,
    intertwiners,
    kernel_vector,
    residuals_monotone,
    restricted_spectrum,
    tail_mass_membership,
)
from weakcr.uncertainty import delta_report


def swanson_families(theta=0.3, dim=96, length=6):
    pair = swanson_pair(theta, dim)
    member = tail_mass_membership(pair.safe_rank)
    xi0 = kernel_vector(pair.S, 1e-10)
    eta0 = kernel_vector(pair.T.adjoint(), 1e-10)
    fam_xi = build_ladder(pair.T, xi0, length, member=member)
    fam_eta = build_ladder(pair.S.adjoint(), eta0, length, member=member)
    return pair, fam_xi, fam_eta


# --- kernel vectors -----------------------------------------------------------


def test_kernel_of_lowering_is_vacuum():
    xi0 = kernel_vector(lowering(16), 1e-10)
    assert np.allclose(xi0.components, basis_state(0, 16).components, atol=1e-12)


def test_kernel_of_swanson_matches_recursion():
    # nullspace oracle: S xi = 0 forces c1 = 0 and c2/c0 = -i tan(theta)/sqrt(2)
    S = swanson_pair(0.3, 64).S
    xi0 = kernel_vector(S, 1e-10)
    ratio = xi0.components[2] / xi0.components[0]
    assert abs(ratio - (-1j * math.tan(0.3) / math.sqrt(2))) < 1e-8
    assert abs(xi0.components[1]) < 1e-10
    # phase convention: first non-negligible component positive real
    assert xi0.components[0].real > 0
    assert abs(xi0.components[0].imag) < 1e-12


def _lowering_with_second_singular_value(sigma2, n=512):
    # lowering(n) has kernel e0; scaling its (0, 1) entry makes sigma_2 = sigma2
    entries = lowering(n).entries.copy()
    entries[0, 1] = sigma2
    return TruncatedOperator(entries)


def test_kernel_vector_rejects_invertible():
    # neither operator is x a + y a*: the identity has a main diagonal, and the
    # rescaled lowering's +1 diagonal is not x sqrt(k + 1)
    for op in (identity(8), _lowering_with_second_singular_value(1e-4)):
        with pytest.raises(DomainParameterError, match=r"x a \+ y a\*"):
            kernel_vector(op, 1e-10)


@pytest.mark.parametrize("n", [2, 16, 512])
def test_kernel_vector_of_raising_is_not_normalizable(n):
    # a* = 0 a + 1 a* has x = 0: its truncation has the kernel e_(N-1), which no l^2 vacuum reaches
    with pytest.raises(NonNormalizableError, match=r"\|y/x\| < 1"):
        kernel_vector(raising(n), 1e-10)


@pytest.mark.parametrize("s, q", [(1.5, -0.5), (1.5, 0.7)])
def test_two_by_two_vacua_are_e0(s, q):
    # S = s a and T' = conj(q) a on C^2, so both vacua are e0 to the bit
    pair = matrix2x2_pair(s, q)
    for op in (pair.S, pair.T.adjoint()):
        assert np.array_equal(kernel_vector(op).components, basis_state(0, 2).components)


def svd_kernel_vector(A):
    """Reference oracle: right singular vector of the smallest singular value."""
    _, s, vh = np.linalg.svd(A.entries)
    v = vh[-1].conj()
    idx = int(np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v))))
    return v * abs(v[idx]) / v[idx], float(s[-1])


#: the (theta, n) below whose truncation cuts the vacuum (tail or |A v| above 1e-10)
TRUNCATED_VACUA = {(0.3, 3), (0.6, 3), (0.3, 16), (0.6, 16), (0.6, 96)}


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("n", [3, 16, 96, 128, 512])
@pytest.mark.parametrize("adjoint", [False, True])
def test_kernel_vector_matches_svd_oracle(theta, n, adjoint):
    pair = swanson_pair(theta, n)
    A = pair.T.adjoint() if adjoint else pair.S
    want, sigma_min = svd_kernel_vector(A)
    if (theta, n) in TRUNCATED_VACUA:
        with pytest.raises(TruncationError) as exc:
            kernel_vector(A, 1e-10)
        assert exc.value.tail_mass == pytest.approx(_vacuum_tail_oracle(theta, n), rel=1e-10)
        if n == 96:  # even the truncation has no kernel vector: sigma_min is about 1.7e-8
            assert sigma_min > 1e-10
        return
    v = kernel_vector(A, 1e-10).components
    residual = norm(A.entries @ v)
    assert residual <= 1e-10
    # the truncated l^2 vacuum is not the truncation's singular vector at the
    # edge: the two part by at most the certificate |A v|
    assert np.max(np.abs(v - want)) <= 1e-14 + residual


def test_no_kernel_certificate_tracks_sigma_min():
    # theta = 0.6 at N = 96: the kernel does not fit, sigma_min is about 1.7e-8
    S = swanson_pair(0.6, 96).S
    _, sigma_min = svd_kernel_vector(S)
    with pytest.raises(TruncationError):
        kernel_vector(S, 1e-10)
    # the truncated vacuum that a loose tolerance accepts carries the certificate
    r = norm(S.entries @ kernel_vector(S, 1.0).components)
    assert r >= sigma_min * (1 - 1e-12)  # |A v| never undercuts sigma_min
    assert r <= 2 * sigma_min


@pytest.mark.parametrize("theta, n", [(0.6, 128), (0.3, 64), (0.0, 16)])
def test_kernel_vector_certificate_is_on_the_operators_scale(theta, n):
    # |A v| grows with c, so an absolute certificate refused 10^3 S at
    # (0.6, 128) with |A v| = 5.95e-8; on the scale sqrt(|x|^2 + |y|^2) the
    # vacuum of c A is that of A
    S = swanson_pair(theta, n).S
    want = kernel_vector(S).components
    for c in (1e3, 1e6, 2.0**500, 2.0**1000):
        got = kernel_vector(TruncatedOperator.banded(c * S.diagonals)).components
        assert np.array_equal(got, want)


@pytest.mark.parametrize("x, y", [(1e307, 1e300), (1e200, 1e190), (1e308 + 1e308j, 0.0)])
def test_kernel_vector_near_the_float_range_ends_cleanly(x, y):
    # x sqrt(k + 1) and |A v| are read on the unit scale, so entries near the
    # float range give a vacuum or a typed refusal, never a numpy overflow
    A = TruncatedOperator.banded([[0.0, y], [0.0, 0.0], [x, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            v = kernel_vector(A)
        except WeakCRError:
            return
    assert np.array_equal(v.components, [1.0, 0.0])


def test_kernel_vector_forms_no_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("SVD of a pair matrix")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    S = swanson_pair(0.3, 64).S
    assert norm(S.entries @ kernel_vector(S).components) < 1e-15


@pytest.mark.parametrize("theta, n", [(0.0, 96), (0.3, 96), (0.45, 96), (0.5, 96), (0.0, 512), (0.3, 512),
                                      (0.45, 512), (0.5, 512), (0.7, 512), (0.7, 300)])
def test_kernel_vector_matches_the_closed_form_vacuum(theta, n):
    # S x = 0 is the recurrence x_(n+1) = -i tan(t) sqrt(n/(n+1)) x_(n-1), solved by
    # x_2m = (-i tan t)^m sqrt(C(2m, m)) / 2^m with odd components zero; T' flips i
    pair = swanson_pair(theta, n)
    for op, sign in ((pair.S, -1), (pair.T.adjoint(), 1)):
        x = np.zeros(n, dtype=complex)
        for m in range((n + 1) // 2):
            x[2 * m] = (sign * 1j * math.tan(theta)) ** m * math.sqrt(math.comb(2 * m, m)) / 2**m
        x /= np.linalg.norm(x)
        assert np.max(np.abs(kernel_vector(op, 1e-10).components - x)) <= 1e-14


def _vacuum_tail_oracle(theta, n):
    """Norm of the l^2 vacuum past index n over its whole norm (1 - tan^2 t)^(-1/4).

    A tiny tail is summed directly over 10^5 terms; a large one is one minus
    the head, which also covers tan^2 t so near 1 that 10^5 terms fall short.
    """
    t2 = math.tan(theta) ** 2
    head_len = (n + 1) // 2
    m = np.arange(1, head_len + 100_000)
    squares = np.concatenate(([1.0], np.cumprod(t2 * (2 * m - 1) / (2 * m))))
    total = 1.0 / math.sqrt(1.0 - t2)
    share = squares[head_len:].sum() / total
    if share > 1e-3:
        share = 1.0 - squares[:head_len].sum() / total
    return math.sqrt(share)


@pytest.mark.parametrize("theta, n", [(0.0, 2), (0.3, 64), (-0.3, 65), (0.5, 96), (3.0, 97), (0.7, 300)])
def test_swanson_vacua_are_exact_unit_kernel_vectors(theta, n):
    pair = swanson_pair(theta, n)
    for op in (pair.S, pair.T.adjoint()):
        x = kernel_vector(op)
        v = x.components
        assert x.norm == pytest.approx(1.0, abs=1e-15)
        assert v[0].imag == 0.0 and v[0].real > 0.0  # the phase convention
        assert not v[1::2].any()
        assert norm(op @ v) <= 1e-10


@pytest.mark.parametrize("theta", [math.pi / 4 + 1e-9, -math.pi / 4 - 1e-9, 1.0, 1.2, 2.0, math.pi / 2])
@pytest.mark.parametrize("n", [2, 96])
def test_swanson_vacua_outside_l2_raise(theta, n):
    pair = swanson_pair(theta, n)
    for op in (pair.S, pair.T.adjoint()):
        with pytest.raises(NonNormalizableError, match=r"\|y/x\| < 1"):
            kernel_vector(op)


@pytest.mark.parametrize("theta, n, tail", [
    (0.7, 97, 8.499e-5),    # odd n: |S x| = 2.5e-16, but the vacuum has not decayed
    (0.3, 3, 5.958e-2),
    (0.55, 96, 2.025e-11),  # even n: the tail is below 1e-10, |S x| = 1.3e-10 is not
    (0.785, 256, 0.7236),
    (0.7853981, 10_000, None),
])
def test_swanson_vacua_reject_a_truncated_vacuum(theta, n, tail):
    pair = swanson_pair(theta, n)
    want = _vacuum_tail_oracle(theta, n) if tail is None else tail
    for op in (pair.S, pair.T.adjoint()):
        with pytest.raises(TruncationError) as exc:
            kernel_vector(op)
        assert exc.value.tail_mass == pytest.approx(want, rel=1e-3)
        assert f"dimension {n} truncates the vacuum" in str(exc.value)


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.55, 0.7, 0.785])
@pytest.mark.parametrize("n", [3, 4, 96, 97, 256])
def test_vacuum_tail_matches_a_direct_sum(theta, n):
    try:
        kernel_vector(swanson_pair(theta, n).S)
        tail = None
    except TruncationError as exc:
        tail = exc.tail_mass
    want = _vacuum_tail_oracle(theta, n)
    if tail is None:
        assert want <= 1e-10
    else:
        assert tail == pytest.approx(want, rel=1e-10)


# --- ladder construction -------------------------------------------------------


def test_boson_ladder_is_basis():
    # sqrt(k!) cancels the ladder factors exactly
    fam = build_ladder(raising(32), basis_state(0, 32), 8)
    assert len(fam) == 9
    for k, v in enumerate(fam.block.T):
        assert np.allclose(v, basis_state(k, 32).components, atol=1e-13)


def test_ladder_is_one_column_major_block():
    pair, fam_xi, fam_eta = swanson_families()
    assert [f.name for f in dataclasses.fields(LadderFamily)] == ["block", "stop_reason"]
    for fam in (fam_xi, fam_eta):
        assert fam.block.shape == (96, 7)
        assert fam.block.flags.f_contiguous
    assert np.array_equal(fam_xi.block[:, 0], kernel_vector(pair.S, 1e-10).components)
    # the Gram matrix sums as an np.vdot of two contiguous vectors, bit for bit
    X, Y = fam_xi.block, fam_eta.block
    Y = (1.0 / complex(np.vdot(Y[:, 0].copy(), X[:, 0].copy()))).conjugate() * Y
    want = [[np.vdot(Y[:, j].copy(), X[:, i].copy()) for j in range(7)] for i in range(7)]
    assert np.array_equal(biorthogonality_gram(fam_xi, fam_eta), np.array(want))


def test_member_receives_a_vector():
    seen = []
    fam = build_ladder(raising(16), basis_state(0, 16), 3, member=lambda x: seen.append(x) or True)
    assert [type(x) for x in seen] == [np.ndarray] * 3
    assert all(np.array_equal(x, fam.block[:, k + 1]) for k, x in enumerate(seen))


def test_member_always_false_keeps_base_only():
    fam = build_ladder(raising(16), basis_state(0, 16), 5, member=lambda s: False)
    assert len(fam) == 1
    assert fam.stop_reason == "membership failed at k=1"


def test_membership_stops_at_truncation_edge():
    fam = build_ladder(raising(8), basis_state(0, 8), 20, member=tail_mass_membership(7))
    assert len(fam) == 7  # e_7 has all mass beyond band 7
    assert fam.stop_reason.startswith("membership failed")


def test_build_ladder_rejects_negative_length():
    with pytest.raises(PreconditionError):
        build_ladder(raising(8), basis_state(0, 8), -3)
    assert len(build_ladder(raising(8), basis_state(0, 8), 0)) == 1


def test_build_ladder_rejects_zero_base():
    with pytest.raises(PreconditionError):
        build_ladder(raising(8), StateVector(np.zeros(8)), 3)


# --- eigen checks ---------------------------------------------------------------


def test_boson_eigen_residuals_vanish():
    pair = boson_pair(32)
    fam = build_ladder(pair.T, basis_state(0, 32), 10)
    res = eigen_check(pair, fam)
    assert max(res) < 1e-12


def test_swanson_eigen_residuals():
    pair, fam_xi, _ = swanson_families()
    res = eigen_check(pair, fam_xi)
    assert len(res) == 7
    assert max(res) < 1e-8


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_eigen_residuals_stay_at_rounding_level_at_n512(theta):
    # an SVD kernel vector carries ~1e-16 noise in its tail, which T^6 lifts
    # to 1e-7 at N = 512 and fails the 1e-8 tolerance; the closed-form vacuum does not
    pair, fam_xi, _ = swanson_families(theta, dim=512)
    assert len(fam_xi) == 7
    assert max(eigen_check(pair, fam_xi)) < 1e-12


def test_eigen_check_matches_dense_number_operator():
    pair, fam_xi, _ = swanson_families(0.5)
    number_op = pair.T.entries @ pair.S.entries
    want = []
    for k, psi in enumerate(fam_xi.block.T):
        r_num = norm(number_op @ psi - k * psi) / norm(psi)
        r_low = 0.0 if k == 0 else norm(
            pair.S.entries @ psi - math.sqrt(k) * fam_xi.block[:, k - 1]
        ) / norm(psi)
        want.append(max(r_num, r_low))
    got = eigen_check(pair, fam_xi)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-15)


def test_wrong_base_has_order_one_residual():
    pair = boson_pair(32)
    fam = build_ladder(pair.T, basis_state(1, 32), 3)
    res = eigen_check(pair, fam)
    assert res[0] >= 1.0


def test_residual_monotonicity_is_reported_not_asserted():
    pair, fam_xi, _ = swanson_families()
    res = eigen_check(pair, fam_xi)
    flag = residuals_monotone(res)
    assert isinstance(flag, bool)
    assert flag == all(b >= a for a, b in zip(res, res[1:]))


# --- [S, T^k] xi = k T^(k-1) xi on the truncated operators -------------------------


def _power_residual(pair, xi, k):
    """||S T^k xi - T^k S xi - k T^(k-1) xi|| through the banded matvecs."""
    tk_prev = xi.components
    for _ in range(k - 1):
        tk_prev = pair.T @ tk_prev
    tk_s = pair.S @ xi.components
    for _ in range(k):
        tk_s = pair.T @ tk_s
    return norm(pair.S @ (pair.T @ tk_prev) - tk_s - k * tk_prev)


def test_power_check_weak_relation_case():
    pair = boson_pair(32)
    assert _power_residual(pair, basis_state(0, 32), 1) < 1e-12


def test_power_check_k3():
    pair = boson_pair(32)
    assert _power_residual(pair, basis_state(2, 32), 3) < 1e-10


def test_power_check_kernel_case():
    # S xi0 = 0 turns the identity into S T^k xi0 = k T^(k-1) xi0
    pair = boson_pair(32)
    xi0 = kernel_vector(pair.S, 1e-10)
    assert _power_residual(pair, xi0, 4) < 1e-10


def test_power_check_swanson():
    pair = swanson_pair(0.3, 64)
    xi0 = kernel_vector(pair.S, 1e-10)
    assert _power_residual(pair, xi0, 3) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 5])
def test_power_check_matches_matrix_power(k):
    pair = swanson_pair(0.3, 64)
    xi = basis_state(3, 64)
    S, T = pair.S.entries, pair.T.entries
    tk_prev = np.linalg.matrix_power(T, k - 1)
    tk = T @ tk_prev
    want = norm(S @ (tk @ xi.components) - tk @ (S @ xi.components) - k * (tk_prev @ xi.components))
    assert want < 1e-10
    assert _power_residual(pair, xi, k) == pytest.approx(want, abs=1e-12)


# --- banded matvecs against the dense matrices -----------------------------------

EXACT_PAIRS = {f"swanson{theta}-N{n}": (lambda theta=theta, n=n: swanson_pair(theta, n))
               for theta in (0.0, 0.3) for n in (3, 96)}
EXACT_PAIRS["matrix2x2"] = lambda: matrix2x2_pair(1.5, -0.5)


@pytest.mark.parametrize("name", list(EXACT_PAIRS))
def test_ladder_matvecs_equal_dense_matrices(name):
    # the dense-matrix computations the banded matvecs replace, bit for bit
    pair = EXACT_PAIRS[name]()
    S, T = pair.S.entries, pair.T.entries
    Sd, Td = S.conj().T, T.conj().T
    length = min(6, pair.dim - 1)  # at N = 2 and 3 the boson ladders vanish after N - 1 steps

    def vacuum(op):
        if name != "swanson0.3-N3":
            return kernel_vector(op, 1e-10)
        # N = 3 cuts the l^2 vacuum (its tail is 6e-2), so the base is the
        # truncation's own kernel vector, from the SVD oracle
        with pytest.raises(TruncationError):
            kernel_vector(op, 1e-10)
        return StateVector(svd_kernel_vector(op)[0])

    for op, dense, ladder_op, dense_ladder in ((pair.S, S, pair.T, T), (pair.T.adjoint(), Td, pair.S.adjoint(), Sd)):
        base = vacuum(op)
        assert np.array_equal(op @ base.components, dense @ base.components)  # the certificate's residual
        fam = build_ladder(ladder_op, base, length)
        current = base.components
        for k in range(1, len(fam)):
            current = (dense_ladder @ current) / math.sqrt(k)
            assert np.array_equal(fam.block[:, k], current)

    fam = build_ladder(pair.T, vacuum(pair.S), length)
    want = []
    for k, psi in enumerate(fam.block.T):
        s_psi = S @ psi
        r_num = norm(T @ s_psi - k * psi) / norm(psi)
        r_low = 0.0 if k == 0 else norm(s_psi - math.sqrt(k) * fam.block[:, k - 1]) / norm(psi)
        want.append(max(r_num, r_low))
    assert eigen_check(pair, fam) == want


def test_truncation_chain_stays_banded_in_memory():
    # one dense N x N complex matrix at N = 2048 is 64 MiB; the chain keeps
    # only diagonals, vectors and N x L ladder blocks
    n = 2048
    tracemalloc.start()
    try:
        pair = swanson_pair(0.3, n)
        weak_defect(pair)
        pair.cross_defect
        xi0 = kernel_vector(pair.S, 1e-10)
        eta0 = kernel_vector(pair.T.adjoint(), 1e-10)
        member = tail_mass_membership(pair.safe_rank)
        fam_xi = build_ladder(pair.T, xi0, 6, member=member)
        fam_eta = build_ladder(pair.S.adjoint(), eta0, 6, member=member)
        eigen_check(pair, fam_xi)
        biorthogonality_gram(fam_xi, fam_eta)
        K = intertwiners(pair, fam_xi, fam_eta)
        evals = restricted_spectrum(pair, fam_xi)
        delta_report(pair, xi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert K.inverse_defect < 1e-12
    assert np.max(np.abs(evals - np.arange(7))) < 1e-10


# --- biorthogonality -------------------------------------------------------------


def test_boson_gram_is_identity():
    pair = boson_pair(32)
    fam_xi = build_ladder(pair.T, basis_state(0, 32), 6)
    fam_eta = build_ladder(pair.S.adjoint(), kernel_vector(pair.T.adjoint(), 1e-10), 6)
    G = biorthogonality_gram(fam_xi, fam_eta)
    assert np.max(np.abs(G - np.eye(7))) < 1e-12


def test_swanson_gram_identity():
    _, fam_xi, fam_eta = swanson_families()
    G = biorthogonality_gram(fam_xi, fam_eta)
    assert np.max(np.abs(G - np.eye(7))) < 1e-7


def test_mismatched_families_are_not_biorthogonal():
    _, fam_xi, _ = swanson_families(0.3)
    _, _, fam_eta0 = swanson_families(0.0)
    G = biorthogonality_gram(fam_xi, fam_eta0)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) > 1e-3


def test_gram_conjugate_symmetry():
    _, fam_xi, fam_eta = swanson_families()
    G = biorthogonality_gram(fam_xi, fam_eta)
    G_swap = biorthogonality_gram(fam_eta, fam_xi)
    assert np.max(np.abs(G_swap - G.conj().T)) < 1e-12


def test_orthogonal_bases_cannot_be_normalized():
    pair = boson_pair(16)
    fam_xi = build_ladder(pair.T, basis_state(1, 16), 2)
    fam_eta = build_ladder(pair.S.adjoint(), basis_state(0, 16), 2)
    with pytest.raises(NonNormalizableError):
        biorthogonality_gram(fam_xi, fam_eta)


# --- intertwiners ------------------------------------------------------------------


def test_boson_intertwiners_trivial():
    pair = boson_pair(32)
    fam_xi = build_ladder(pair.T, basis_state(0, 32), 5)
    fam_eta = build_ladder(pair.S.adjoint(), basis_state(0, 32), 5)
    K = intertwiners(pair, fam_xi, fam_eta)
    assert K.inverse_defect < 1e-12
    assert K.intertwining_defect_eta < 1e-12
    assert K.intertwining_defect_xi < 1e-12
    assert K.riesz_positive
    assert K.orthonormality_defect < 1e-12


def test_swanson_intertwiners():
    pair, fam_xi, fam_eta = swanson_families()
    K = intertwiners(pair, fam_xi, fam_eta)
    assert K.inverse_defect < 1e-6
    assert K.intertwining_defect_eta < 1e-6
    assert K.intertwining_defect_xi < 1e-6


def test_inverse_defect_within_conditioning_bound():
    pair, fam_xi, fam_eta = swanson_families()
    K = intertwiners(pair, fam_xi, fam_eta)
    bound = 10.0 * max(K.condition_numbers) * np.finfo(float).eps
    assert K.inverse_defect <= bound


def test_swanson_orthonormalization():
    pair, fam_xi, fam_eta = swanson_families(length=4)
    K = intertwiners(pair, fam_xi, fam_eta)
    assert K.riesz_positive
    assert K.orthonormality_defect < 1e-5


def _intertwiners_by_pinv_and_qr(pair, fam_xi, fam_eta):
    """The IntertwinerPair fields from value-only SVDs, np.linalg.pinv and X = Q R."""
    L = min(len(fam_xi), len(fam_eta))
    X = fam_xi.block[:, :L]
    Y = ((1.0 / inner(X[:, 0], fam_eta.block[:, 0])).conjugate() * fam_eta.block)[:, :L]
    sx, sy = (np.linalg.svd(M, compute_uv=False) for M in (X, Y))
    X_pinv, Y_pinv = np.linalg.pinv(X), np.linalg.pinv(Y)
    PX, PY = X_pinv @ X, Y_pinv @ Y
    S, T = pair.S, pair.T
    Sd, Td = S.adjoint(), T.adjoint()
    D_eta = Y @ (X_pinv @ (T @ (S @ X))) - Sd @ (Td @ (Y @ PX))
    D_xi = X @ (Y_pinv @ (Sd @ (Td @ Y))) - T @ (S @ (X @ PY))
    Q, R = np.linalg.qr(X)
    A = (Q.conj().T @ Y) @ (X_pinv @ Q)
    evals, evecs = np.linalg.eigh((A + A.conj().T) / 2.0)
    positive = bool(evals.min() > -1e-10)
    H_plus = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
    return {
        "condition_numbers": (sx[0] / sx[-1], sy[0] / sy[-1]),
        "inverse_defect": float(np.max(np.abs(PY @ PX @ PY - np.eye(L)))),
        "intertwining_defect_eta": max(norm(D_eta[:, j]) / norm(X[:, j]) for j in range(L)),
        "intertwining_defect_xi": max(norm(D_xi[:, j]) / norm(Y[:, j]) for j in range(L)),
        "riesz_positive": positive,
        "orthonormality_defect": float(np.max(np.abs(R.conj().T @ H_plus @ R - np.eye(L)))) if positive else None,
    }


@pytest.mark.parametrize("theta, n, length", [(0.3, 96, 6), (0.0, 64, 6), (0.45, 512, 12), (0.7, 300, 10)])
def test_intertwiners_match_the_pinv_and_qr_oracle(theta, n, length):
    # one thin SVD per family gives the fields of the separate factorizations,
    # within roundoff amplified by the conditioning
    pair, fam_xi, fam_eta = swanson_families(theta, n, length)
    got = dataclasses.asdict(intertwiners(pair, fam_xi, fam_eta))
    want = _intertwiners_by_pinv_and_qr(pair, fam_xi, fam_eta)
    assert got.keys() == want.keys()
    for a, b in zip(got["condition_numbers"], want["condition_numbers"]):
        assert abs(a - b) <= 1e-12 * b
    kappa, u = max(want["condition_numbers"]), np.finfo(float).eps / 2
    assert got["riesz_positive"] is want["riesz_positive"] is True
    for key in ("inverse_defect", "intertwining_defect_eta", "intertwining_defect_xi"):
        assert abs(got[key] - want[key]) <= 10 * u * kappa, key
    assert abs(got["orthonormality_defect"] - want["orthonormality_defect"]) <= 10 * u * kappa**2


def test_intertwiners_factor_each_family_once(monkeypatch):
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second factorization of a ladder block")

    pair, fam_xi, fam_eta = swanson_families()
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    intertwiners(pair, fam_xi, fam_eta)
    assert len(calls) == 2


# --- restricted spectrum --------------------------------------------------------------


def test_number_operators_match_dense_products():
    pair, fam_xi, fam_eta = swanson_families()
    K = intertwiners(pair, fam_xi, fam_eta)
    S, T = pair.S.entries, pair.T.entries
    num_xi, num_eta = T @ S, S.conj().T @ T.conj().T
    # the dense K_eta = Y pinv(X), with the eta family scaled so that <xi0, eta0> = 1
    X = fam_xi.block
    scale = (1.0 / inner(X[:, 0], fam_eta.block[:, 0])).conjugate()
    Y = scale * fam_eta.block
    K_eta = Y @ np.linalg.pinv(X)
    d_eta = max(norm(K_eta @ (num_xi @ x) - num_eta @ (K_eta @ x)) / norm(x) for x in X.T)
    assert K.intertwining_defect_eta == pytest.approx(d_eta, rel=1e-3, abs=1e-14)
    R = np.linalg.pinv(X) @ num_xi @ X
    assert np.allclose(restricted_spectrum(pair, fam_xi), np.sort_complex(np.linalg.eigvals(R)), atol=1e-12)


def test_restricted_spectrum_swanson():
    pair, fam_xi, _ = swanson_families()
    evals = restricted_spectrum(pair, fam_xi)
    assert np.max(np.abs(evals - np.arange(7))) < 1e-6
    # simplicity: pairwise gaps stay near 1
    gaps = np.diff(np.sort(evals.real))
    assert np.min(gaps) > 0.5


def test_ladder_vectors_linearly_independent():
    _, fam_xi, _ = swanson_families()
    X = fam_xi.block
    gram = X.conj().T @ X
    assert np.linalg.eigvalsh(gram).min() > 0
