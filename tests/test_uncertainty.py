"""Uncertainty-relation tests: deltas, UR1/UR2, closed forms, scans."""

import math
import tracemalloc

import numpy as np
import pytest

from weakcr import algebra, fock, uncertainty
from weakcr.algebra import NCPoly, fock_eval
from weakcr.errors import (
    DomainParameterError,
    InvalidDimensionError,
    PreconditionError,
    TruncationError,
    WeakCRError,
)
from weakcr.fock import (
    OperatorPair,
    StateVector,
    TruncatedOperator,
    basis_state,
    boson_pair,
    coherent_state,
    identity,
    lowering,
    matrix2x2_pair,
    raising,
    swanson_pair,
)
from weakcr.uncertainty import (
    coherent_grid_states,
    delta,
    delta_report,
    expectation,
    matrix2x2_report,
    saturation_scan,
    swanson_closed_form,
    swanson_moments,
    ur1_check,
    ur2_check,
)


# --- delta ---------------------------------------------------------------------


def test_delta_identity_operator():
    xi = basis_state(3, 8)
    assert delta(identity(8), xi, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_delta_coherent_eigenvector():
    z0 = 0.5 + 0.25j
    phi = coherent_state(z0, 64)
    assert delta(lowering(64), phi, z0) < 1e-8


def test_delta_creation_on_vacuum():
    phi = basis_state(0, 16)
    assert delta(raising(16), phi, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_delta_rejects_non_unit_state():
    xi = StateVector(np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError):
        delta(identity(2), xi, 0.0)


def test_a_state_of_another_dimension_is_a_typed_error():
    # each of these ended in numpy's "operands could not be broadcast"
    pair, xi = swanson_pair(0.3, 64), coherent_state(0.5, 32)
    for call in (lambda: delta_report(pair, xi), lambda: delta(pair.S, xi, 0.0),
                 lambda: expectation(pair.T, xi), lambda: ur1_check(pair, xi), lambda: ur2_check(pair, xi)):
        with pytest.raises(InvalidDimensionError, match="dimension 32 .* dimension 64"):
            call()


@pytest.mark.parametrize("C, error, match", [
    (3, PreconditionError, "got int"),
    ("S T", PreconditionError, "got str"),
    (lowering(8), InvalidDimensionError, "dimension 8 .* dimension 16"),
])
def test_a_c_the_pass_cannot_apply_is_a_typed_error(C, error, match):
    # these ended in numpy's "not enough dimensions", a UFuncTypeError and
    # "operands could not be broadcast"
    pair, xi = swanson_pair(0.3, 16), coherent_state(0.3, 16)
    with pytest.raises(error, match=match):
        ur1_check(pair, xi, C=C)


def test_expectation_center_minimizes_delta():
    rng = np.random.default_rng(7)
    pair = swanson_pair(0.3, 48)
    xi = coherent_state(0.3 - 0.2j, 48)
    z_opt = expectation(pair.S, xi)
    best = delta(pair.S, xi, z_opt)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        assert delta(pair.S, xi, z) >= best - 1e-12


def test_phase_invariance():
    pair = swanson_pair(0.2, 48)
    xi = coherent_state(0.5, 48)
    rotated = StateVector(np.exp(1j * 0.77) * xi.components)
    a = delta_report(pair, xi)
    b = delta_report(pair, rotated)
    assert max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())) < 1e-12
    u1a, u1b = ur1_check(pair, xi), ur1_check(pair, rotated)
    assert abs(u1a.gap - u1b.gap) < 1e-12


# --- UR1 / UR2 on the boson models ------------------------------------------------


def test_rotated_pair_saturates_ur1():
    pair = swanson_pair(math.pi / 4, 64)
    phi = coherent_state(0.3 + 0.4j, 64)
    report = delta_report(pair, phi)
    for d in report.as_tuple():
        assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    u1 = ur1_check(pair, phi)
    assert u1.rhs == pytest.approx(1.0, abs=1e-6)
    assert u1.saturated
    u2 = ur2_check(pair, phi)
    assert u2.rhs == pytest.approx(2.0, abs=1e-6)
    assert not u2.saturated


def test_boson_pair_saturates_ur2_not_ur1():
    pair = boson_pair(64)
    phi = coherent_state(0.6 - 0.1j, 64)
    report = delta_report(pair, phi)
    assert report.dS == pytest.approx(0.0, abs=1e-8)
    assert report.dSd == pytest.approx(1.0, abs=1e-8)
    assert report.dT == pytest.approx(1.0, abs=1e-8)
    assert report.dTd == pytest.approx(0.0, abs=1e-8)
    u1 = ur1_check(pair, phi)
    assert u1.gap == pytest.approx(1.0, abs=1e-6)
    assert not u1.saturated
    u2 = ur2_check(pair, phi)
    assert u2.saturated
    assert not u2.hypothesis_violated


def test_ur_validity_on_state_suite():
    rng = np.random.default_rng(11)
    for theta in (0.0, 0.3, math.pi / 4):
        pair = swanson_pair(theta, 64)
        states = [coherent_state(complex(*rng.uniform(-1, 1, 2)), 64) for _ in range(3)]
        states += [basis_state(k, 64) for k in (0, 2, 5)]
        for xi in states:
            assert ur1_check(pair, xi).gap >= -1e-8
            u2 = ur2_check(pair, xi)
            assert u2.cross_condition_defect < 1e-10
            assert u2.gap >= -1e-8


def dense_cross_condition_defect(pair):
    """Reference oracle: the two commutators as dense products."""
    S, T = pair.S.entries, pair.T.entries
    Sd, Td = S.conj().T, T.conj().T
    M = (Sd @ T - T @ Sd) - (S @ Td - Td @ S)
    k = pair.safe_rank
    return float(np.max(np.abs(M[:k, :k])))


def _deformed_pair(n):
    a, ad = lowering(n).entries, raising(n).entries
    return OperatorPair(lowering(n), TruncatedOperator(ad + 0.05 * (a @ a)))


@pytest.mark.parametrize("n", [4, 32, 128])
def test_deformed_pair_safe_rank_is_read_off_the_band(n):
    # T = a* + 0.05 a^2 has bandwidth 2, so the certified block is N - 2
    assert _deformed_pair(n).safe_rank == n - 2


@pytest.mark.parametrize(
    "make",
    [lambda: swanson_pair(0.3, 64), lambda: swanson_pair(0.6, 3), lambda: boson_pair(16),
     lambda: _deformed_pair(32), lambda: matrix2x2_pair(1.5, -0.5),
     lambda: OperatorPair(TruncatedOperator(np.arange(25.0).reshape(5, 5) * (1 + 1j)),
                          TruncatedOperator(np.eye(5)[::-1]))],
)
def test_cross_condition_matches_dense_oracle(make):
    pair = make()
    scale = float(np.max(np.abs(pair.S.entries)) * np.max(np.abs(pair.T.entries)))
    assert abs(pair.cross_defect - dense_cross_condition_defect(pair)) <= 1e-13 * max(1.0, scale)


def test_ur2_check_forms_the_cross_defect_once(monkeypatch):
    calls, relation = [], fock.relation_block

    def counted(*args):
        calls.append(1)
        return relation(*args)

    pair = swanson_pair(0.3, 32)
    for module in (fock, uncertainty):
        monkeypatch.setattr(module, "relation_block", counted, raising=False)
    reports = [ur2_check(pair, coherent_state(0.1 * k, 32)) for k in range(10)]
    assert len(calls) == 1
    (defect,) = {u.cross_condition_defect for u in reports}
    assert defect == pytest.approx(dense_cross_condition_defect(pair), abs=1e-13)


def test_cross_condition_violation_is_flagged():
    # deform T so [S', T] - [S, T'] no longer cancels
    n = 32
    a, ad = lowering(n).entries, raising(n).entries
    T = TruncatedOperator(ad + 0.05 * (a @ a))
    pair = OperatorPair(lowering(n), T)
    assert pair.cross_defect > 1e-8
    u2 = ur2_check(pair, basis_state(0, n))
    assert u2.hypothesis_violated


def test_ur1_with_explicit_centers():
    pair = boson_pair(32)
    phi = coherent_state(0.5, 32)
    # center w = 0 inflates dT to ||a' phi|| = sqrt(1 + |z|^2)
    u = ur1_check(pair, phi, z=0.5, w=0.0)
    assert u.rhs == pytest.approx(2.0 * math.sqrt(1.25), abs=1e-8)
    # expectation centers recover the minimal report
    assert ur1_check(pair, phi).rhs == pytest.approx(2.0, abs=1e-8)


def test_polynomial_c_is_evaluated_once_per_pass(monkeypatch):
    calls, evaluate = [], algebra.fock_eval

    def counted(p, pair):
        calls.append(1)
        return evaluate(p, pair)

    monkeypatch.setattr(algebra, "fock_eval", counted)
    S, T = NCPoly.gen("S"), NCPoly.gen("T")
    C = S * T - T * S + S * S
    pair = swanson_pair(0.3, 32)
    states = [coherent_state(0.2 * k - 0.1j, 32) for k in range(6)]
    deltas, c_exps, _ = uncertainty._pass(pair, np.array([xi.components for xi in states]), C=C)
    assert len(calls) == 1
    matrix = evaluate(C, pair)
    assert c_exps == [expectation(matrix, xi) for xi in states]
    # the pass gives each state's deltas as the plain tuple (dS, dS', dT, dT', z, w)
    assert [uncertainty.DeltaReport(*d) for d in deltas] == [delta_report(pair, xi) for xi in states]


def test_pair_quantities_are_formed_once_per_pass_not_per_batch(monkeypatch):
    # with two states per batch, six states in two blocks of three take four
    # batches; C's matrix and lowering(N) are still formed once, and every
    # number keeps its bits
    S, T = NCPoly.gen("S"), NCPoly.gen("T")
    C = S * T - T * S + S * S
    pair = swanson_pair(0.3, 32)
    X = np.array([coherent_state(0.2 * k - 0.1j, 32).components for k in range(6)])
    whole = uncertainty._pass(pair, X, C=C, moments=True)
    calls, evaluate, make_lowering = [], algebra.fock_eval, uncertainty.lowering

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    monkeypatch.setattr(algebra, "fock_eval", counted("fock_eval", evaluate))
    monkeypatch.setattr(uncertainty, "lowering", counted("lowering", make_lowering))
    monkeypatch.setattr(uncertainty, "BATCH_ENTRIES", 2 * 32)
    assert uncertainty._pass(pair, iter([X[:3], X[3:]]), C=C, moments=True) == whole
    assert sorted(calls) == ["fock_eval", "lowering"]


def test_generalized_c_expectation():
    # C = [S, T] evaluates to the identity for the boson pair
    pair = boson_pair(32)
    S, T = NCPoly.gen("S"), NCPoly.gen("T")
    C = S * T - T * S
    phi = coherent_state(0.2, 32)
    u1 = ur1_check(pair, phi, C=C)
    assert u1.lhs == pytest.approx(1.0, abs=1e-10)


# --- closed forms -------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2])
def test_truncation_costs_each_squared_delta_the_edge_weight(theta):
    # the untruncated identities hold; the truncated a* loses N |x_(N-1)|^2 from each square
    rng = np.random.default_rng(5)
    n = 16
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    xi = StateVector(v / np.linalg.norm(v))
    m, d = swanson_moments(xi), delta_report(swanson_pair(theta, n), xi)
    c2, s2, s2t = math.cos(theta) ** 2, math.sin(theta) ** 2, math.sin(2 * theta)
    weight = n * abs(xi.components[-1]) ** 2
    closed = (m.C_phi + s2 - s2t * m.E_phi, m.C_phi + c2 - s2t * m.E_phi,
              m.C_phi + c2 + s2t * m.E_phi, m.C_phi + s2 + s2t * m.E_phi)
    lost = (s2 * weight, c2 * weight, c2 * weight, s2 * weight)
    for sq, delta_value, loss in zip(closed, d.as_tuple(), lost):
        assert sq - delta_value**2 == pytest.approx(loss, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
@pytest.mark.parametrize("n", [2, 64])
def test_closed_form_at_the_truncation_edge_is_a_typed_error(theta, n):
    with pytest.raises(TruncationError) as info:
        swanson_closed_form(theta, basis_state(n - 1, n))
    assert info.value.tail_mass == n


def test_closed_form_passes_the_widest_coherent_state():
    # N |x_63|^2 is about 1e-10 here, far under the edge guard, and the identity still checks
    report = swanson_closed_form(0.3, coherent_state(4.75, 64))
    assert report.matrix_discrepancy < 1e-6


def _edge_states():
    """Accepted coherent states at the smallest dimensions and random states whose weight
    N |x_(N-1)|^2 is about 1e-6, under the 1e-5 edge guard."""
    rng = np.random.default_rng(17)
    states = [coherent_state(z, n) for n, z in ((2, 0.0011), (2, 5e-4 - 4e-4j), (3, 0.01j))]
    for n in (5, 16, 80):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v[-1] = 1e-3 * np.linalg.norm(v[:-1]) / math.sqrt(n)
        states.append(StateVector(v / np.linalg.norm(v)))
    return states


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2])
def test_closed_form_includes_the_edge_weight(theta):
    # with the lost weight subtracted the closed forms match the truncated matrices to rounding;
    # without it, coherent:0.0011 at dimension 2 missed by 1.2e-6, above the default tolerance
    for xi in _edge_states():
        assert swanson_closed_form(theta, xi).matrix_discrepancy < 1e-12


def test_swanson_moments_on_coherent_states():
    phi = coherent_state(0.7 + 0.2j, 64)
    m = swanson_moments(phi)
    assert m.C_phi == pytest.approx(0.0, abs=1e-10)
    assert m.E_phi == pytest.approx(0.0, abs=1e-10)


def test_swanson_moments_on_basis_states():
    m = swanson_moments(basis_state(3, 64))
    assert m.C_phi == pytest.approx(3.0, abs=1e-12)
    assert m.E_phi == pytest.approx(0.0, abs=1e-12)


def _probe_states(n):
    """Basis states at both ends and coherent states whose tail fits in dimension n."""
    centers = (0.0, 1e-4 + 2e-4j) if n < 64 else (0.0, 0.7 + 0.2j, -1.0 + 0.5j)
    return [basis_state(0, n), basis_state(n - 1, n)] + [coherent_state(z, n) for z in centers]


@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_per_state_path_equals_dense_matrices(theta, n, monkeypatch):
    # the dense-matrix computation the shifted and matrix-free path replaces,
    # met one state per call and by one pass over batches of two states
    pair = swanson_pair(theta, n)
    S, T = pair.S.entries, pair.T.entries
    Sd, Td = pair.S.adjoint().entries, pair.T.adjoint().entries
    a, ad = lowering(n).entries, raising(n).entries
    states = _probe_states(n)
    monkeypatch.setattr(uncertainty, "BATCH_ENTRIES", 2 * n)
    batch_deltas, _, batch_moments = uncertainty._pass(pair, np.array([xi.components for xi in states]), moments=True)
    for xi, batch_d, batch_m in zip(states, batch_deltas, batch_moments, strict=True):
        x = xi.components
        z = complex(np.vdot(x, S @ x))
        w = complex(np.vdot(x, T @ x))
        dense = (np.linalg.norm(S @ x - z * x), np.linalg.norm(Sd @ x - z.conjugate() * x),
                 np.linalg.norm(T @ x - w * x), np.linalg.norm(Td @ x - w.conjugate() * x))
        for report in (delta_report(pair, xi), uncertainty.DeltaReport(*batch_d)):
            assert report.as_tuple() == dense
            assert (report.z, report.w) == (z, w)

        # C_phi = <a* a> - |<a>|^2, formed for unit x as |a x - <a> x|^2
        mean_a = complex(np.vdot(x, a @ x))
        mean_ad2 = complex(np.vdot(x, ad @ (ad @ x)))
        for m in (swanson_moments(xi), uncertainty.SwansonMoments(*batch_m)):
            assert m.C_phi == np.linalg.norm(a @ x - mean_a * x) ** 2
            assert m.E_phi == (mean_ad2 - mean_a.conjugate() ** 2).imag


@pytest.mark.parametrize("z", [45, 30 + 20j, 50, 40, 35j])
def test_cphi_of_a_far_coherent_state_does_not_cancel(z):
    # <a* a> - |<a>|^2 lost ~1e-12 to cancellation here: a discrepancy of
    # 9.5e-7 against the 1e-6 tol at z = 45, a negative (dS)^2 at z = 50.
    # The discrepancy compares moments of size |z|, so its rounding scale is
    # |z| eps (it reads up to 7e-15 on these cases)
    report = swanson_closed_form(0.0, coherent_state(z, 4096))
    assert 0.0 <= report.moments.C_phi <= 1e-20
    assert report.matrix_discrepancy <= 16 * abs(z) * np.finfo(float).eps


def test_cphi_nonnegative_across_states():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        xi = StateVector(v / np.linalg.norm(v))
        assert swanson_moments(xi).C_phi >= -1e-12


def test_closed_form_theta_zero():
    report = swanson_closed_form(0.0, coherent_state(0.5, 64))
    assert report.moments.C_phi == pytest.approx(0.0, abs=1e-10)
    assert report.deltas.dS == pytest.approx(0.0, abs=1e-6)
    assert report.deltas.dSd == pytest.approx(1.0, abs=1e-6)
    assert report.deltas.dT == pytest.approx(1.0, abs=1e-6)
    assert report.deltas.dTd == pytest.approx(0.0, abs=1e-6)


def test_closed_form_quarter_turn():
    report = swanson_closed_form(math.pi / 4, coherent_state(0.3 - 0.4j, 64))
    for d in report.deltas.as_tuple():
        assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


@pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 4])
def test_closed_form_matches_matrix(theta):
    for xi in (coherent_state(0, 64), coherent_state(1, 64), basis_state(2, 64)):
        report = swanson_closed_form(theta, xi)
        assert report.matrix_discrepancy < 1e-6


# --- 2x2 model -------------------------------------------------------------------------


def test_matrix2x2_closed_forms_at_basis_state():
    report = matrix2x2_report(1.0, 1.0, 1.0, 0.0)
    assert report.deltas.as_tuple() == pytest.approx((0.0, 1.0, 1.0, 0.0), abs=1e-14)
    assert report.ur1_condition_value == pytest.approx(1.0)
    assert report.ur1_condition_met
    # the raw max-product gap keeps its factor-2 slack here
    assert report.ur1.gap == pytest.approx(1.0, abs=1e-12)
    # while the sum-product inequality is tight at this state
    assert report.ur2.gap == pytest.approx(0.0, abs=1e-12)


def test_each_check_refuses_only_its_own_bound():
    # on e0, 2 max(dS, dS') max(dT, dT') = 2e308 overflows and (dS + dS') (dT + dT') = 1e308
    # does not: ur2_check evaluates UR2 alone, while ur1_check, the report and the scan
    # (UR1, then UR2) refuse the UR1 bound
    pair, xi = matrix2x2_pair(1e154, 1e154), StateVector(np.array([1.0, 0.0]))
    u2 = ur2_check(pair, xi)
    assert (u2.lhs, u2.rhs, u2.gap, u2.saturated) == (1.0, 1e308, 1e308, False)
    ur1_text = r"^the UR1 bound 2 max\(dS, dS'\) max\(dT, dT'\) overflows the float range$"
    for call in (lambda: ur1_check(pair, xi), lambda: matrix2x2_report(1e154, 1e154, 1.0, 0.0),
                 lambda: saturation_scan("matrix2x2", (1e154, 1e154))):
        with pytest.raises(DomainParameterError, match=ur1_text):
            call()


def test_matrix2x2_ur2_condition_always_false():
    report = matrix2x2_report(1.0, 1.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    assert not report.ur2_condition_met
    assert report.ur2_condition_value == pytest.approx(0.5, abs=1e-12)


def test_matrix2x2_closed_form_exactness_randomized():
    rng = np.random.default_rng(23)
    for _ in range(10):
        s, q = rng.uniform(-2, 2, 2)
        t = rng.uniform(0, 1)
        ph1 = math.sqrt(t) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        ph2 = math.sqrt(1 - t) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        report = matrix2x2_report(s, q, ph1, ph2)
        assert report.closed_form_discrepancy < 1e-14


def test_matrix2x2_commutator_expectation_equals_symbolic_path():
    # the banded commutator gives the bits of evaluating the symbolic S T - T S
    rng = np.random.default_rng(29)
    S, T = NCPoly.gen("S"), NCPoly.gen("T")
    for _ in range(200):
        s, q = rng.uniform(-2, 2, 2)
        t = rng.uniform(0, 1)
        ph1 = math.sqrt(t) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        ph2 = math.sqrt(1 - t) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        xi = StateVector(np.array([ph1, ph2]))
        symbolic = expectation(fock_eval(S * T - T * S, matrix2x2_pair(s, q)), xi)
        assert matrix2x2_report(s, q, ph1, ph2).ur1.c_expectation == symbolic


def test_matrix2x2_rejects_non_unit():
    with pytest.raises(PreconditionError):
        matrix2x2_report(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("phi1", [math.nan, math.inf, complex(0.6, math.nan)])
def test_matrix2x2_refuses_a_non_finite_phi(phi1):
    with pytest.raises(WeakCRError):
        matrix2x2_report(1.0, 1.0, phi1, 0.0)


@pytest.mark.parametrize("length", [math.nan, math.inf, 1.0 + 2e-10])
def test_the_unit_check_refuses_a_nan_norm(length):
    # abs(NaN - 1) > tol is False, so a NaN norm once passed as a unit norm
    with pytest.raises(PreconditionError, match="state must be unit norm"):
        uncertainty._require_unit(length)


# --- scans --------------------------------------------------------------------------------


def test_swanson_zero_scan_ur1_never_saturated():
    table = saturation_scan("swanson", (0.0,), dim=64)
    assert table.summary["min_ur1_gap"] > 0.4
    assert table.summary["ur1_saturated_count"] == 0
    # coherent probes saturate the sum form (C_phi = 0 there)
    assert table.summary["ur2_saturated_count"] >= 25


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.785])
def test_scan_rows_match_public_checks(theta):
    # the scan's one pass over all states equals the one-state public checks bit
    # for bit; the 81 coherent states at N = 4096 take two batches of
    # BATCH_ENTRIES // N, and the basis probes a third
    for n, grid in ((64, 5), (128, 5), (4096, 9)):
        pair = swanson_pair(theta, n)
        batches = list(coherent_grid_states(n, grid, grid))
        states = [StateVector(x, label) for labels, X in batches for label, x in zip(labels, X)]
        table = saturation_scan("swanson", (theta,), dim=n, states=iter(batches))
        assert [row["state"] for row in table.rows] == [xi.label for xi in states]
        for row, xi in zip(table.rows, states):
            ur1, ur2, m = ur1_check(pair, xi), ur2_check(pair, xi), swanson_moments(xi)
            assert (row["C_phi"], row["E_phi"]) == (m.C_phi, m.E_phi)
            assert (row["ur1_lhs"], row["ur1_rhs"], row["ur1_gap"], row["ur1_saturated"]) == (
                ur1.lhs, ur1.rhs, ur1.gap, ur1.saturated)
            assert (row["ur2_lhs"], row["ur2_rhs"], row["ur2_gap"], row["ur2_saturated"]) == (
                ur2.lhs, ur2.rhs, ur2.gap, ur2.saturated)
            assert row["cross_defect"] == ur2.cross_condition_defect
    size = uncertainty.BATCH_ENTRIES // 4096
    assert [len(X) for _, X in batches] == [size, 81 - size, 5]


def test_quarter_turn_scan_records_both_readings():
    table = saturation_scan("swanson", (math.pi / 4,), dim=64)
    row = table.rows[0]
    assert "functional_squared_reading" in row
    assert "functional_linear_reading" in row
    # coherent states sit exactly at the squared-reading value 1/2
    assert table.summary["min_abs_functional_sq_minus_half"] < 1e-8
    # and no probe reaches the value 1/4 that a sum-form saturator would need
    assert table.summary["min_abs_functional_sq_minus_quarter"] > 0.2


@pytest.mark.parametrize("s, q", [(1.0, 1.0), (0.5, 2.0), (-1.3, 0.7), (2.0, -0.25), (-1.5, -1.5)])
def test_matrix2x2_scan_rows_equal_reports(s, q):
    # the scan's one pass over the circle equals the one-state report bit for bit
    ts = [i / 30 for i in range(31)]
    table = saturation_scan("matrix2x2", (s, q), grid=ts)
    for t, row in zip(ts, table.rows):
        report = matrix2x2_report(s, q, math.sqrt(t), math.sqrt(1.0 - t))
        assert row == {
            "t": t,
            "dS": report.deltas.dS,
            "dSd": report.deltas.dSd,
            "dT": report.deltas.dT,
            "dTd": report.deltas.dTd,
            "ur1_gap": report.ur1.gap,
            "ur1_saturated": report.ur1.saturated,
            "ur2_gap": report.ur2.gap,
            "ur2_saturated": report.ur2.saturated,
            "ur1_condition_value": report.ur1_condition_value,
            "ur1_condition_met": report.ur1_condition_met,
            "ur2_condition_value": report.ur2_condition_value,
            "ur2_condition_met": report.ur2_condition_met,
        }


def test_matrix2x2_scan_forms_the_pair_once(monkeypatch):
    # one pair for the whole circle, not one per point; [S, T] and the cross
    # defect come from their closed forms, with no commutator routine
    pairs, commutators = [], []
    make_pair, relation = uncertainty.matrix2x2_pair, fock.relation_block

    def counted_pair(s, q):
        pairs.append(1)
        return make_pair(s, q)

    def counted_commutator(*args):
        commutators.append(1)
        return relation(*args)

    monkeypatch.setattr(uncertainty, "matrix2x2_pair", counted_pair)
    for module in (fock, uncertainty):
        monkeypatch.setattr(module, "relation_block", counted_commutator, raising=False)
    table = saturation_scan("matrix2x2", (1.0, 1.0), grid=[i / 10 for i in range(11)])
    assert len(table.rows) == 11
    assert len(pairs) == 1
    report = matrix2x2_report(0.5, 2.0, 0.6, 0.8)
    assert report.ur2.cross_condition_defect == 0.0
    assert len(pairs) == 2
    assert len(commutators) == 0


_REAL_GRID = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-320, -1e-320, 1e-154, 1e154, -1e154, 0.3, -2.5, 3.0]
_COMPLEX_GRID = [complex(re, im) for re in (0.0, -0.0, 1.0, -1.0) for im in (0.0, -0.0, 1.0, -1.0)] + [
    0.3 - 0.7j, 1.1 + 2.3j, 1e-160 * (1 + 1j)]


@pytest.mark.parametrize("grid", [_REAL_GRID, _COMPLEX_GRID], ids=["real", "complex"])
def test_matrix2x2_closed_forms_have_the_bits_of_the_commutator_routine(monkeypatch, grid):
    # the generic routines are the oracle: relation_block's [S, T], as the
    # pass received it, to the bit (signed zeros included), and the cross
    # defect, which on the 1 x 1 safe block is exactly 0.0
    fed, real_pass = [], uncertainty._pass

    def recorded(pair, states, *args, C=None, **kwargs):
        fed.append(C.band)
        return real_pass(pair, states, *args, C=C, **kwargs)

    monkeypatch.setattr(uncertainty, "_pass", recorded)
    for s in grid:
        for q in grid:
            report = matrix2x2_report(s, q, 0.6, 0.8)
            pair = matrix2x2_pair(s, q)
            want = TruncatedOperator.banded(fock.relation_block(pair.S.band, pair.T.band, pair.dim)[0]).band
            got = fed.pop()
            assert (got.lo, got.diagonals.tobytes()) == (want.lo, want.diagonals.tobytes()), (s, q)
            assert pair.cross_defect == 0.0
            assert (report.ur2.cross_condition_defect, report.ur2.hypothesis_violated) == (0.0, False)


def test_matrix2x2_scan_conditions():
    table = saturation_scan("matrix2x2", (1.0, 1.0))
    assert table.summary["ur1_condition_met_at"] == [0.0, 1.0]
    assert not table.summary["ur2_condition_met_any"]


def test_scan_rejects_unknown_model():
    with pytest.raises(ValueError):
        saturation_scan("nonsense")


@pytest.mark.parametrize("kind, params, batch", [
    ("swanson", (0.3,), {"dim": 16, "states": []}),
    ("matrix2x2", (1, 1), {"grid": []}),
])
def test_scan_of_no_states_is_a_typed_error(kind, params, batch):
    # both ended in numpy's "operands could not be broadcast"
    with pytest.raises(InvalidDimensionError, match="batch of states is empty"):
        saturation_scan(kind, params, **batch)


@pytest.mark.parametrize("call, error, match", [
    (lambda: saturation_scan("matrix2x2", (1, 1), grid=[1.5]), DomainParameterError, r"t = 1.5 lies outside \[0, 1\]"),
    (lambda: saturation_scan("swanson"), DomainParameterError, r"takes the parameters \(theta\), got \(\)"),
    (lambda: saturation_scan("matrix2x2", (1,)), DomainParameterError, r"takes the parameters \(s, q\), got \(1,\)"),
    (lambda: coherent_grid_states(64, nx=-1), DomainParameterError, "nx = -1"),
    (lambda: coherent_grid_states(64, nx=2.5), DomainParameterError, "integral counts, got nx = 2.5, ny = 5"),
    (lambda: coherent_grid_states(4, nx=0, ny=0), InvalidDimensionError, r"probes e0..e4 need dimension >= 5, got 4"),
], ids=["t-outside-unit-interval", "swanson-without-theta", "matrix2x2-with-one-parameter", "negative-grid-count",
        "non-integral-grid-count", "grid-below-the-basis-probes"])
def test_scan_inputs_outside_their_domain_are_typed_errors(call, error, match):
    # these ended in "math domain error", "not enough values to unpack",
    # numpy's "Number of samples, -1, must be non-negative", a TypeError
    # from np.linspace and "basis index 4 outside [0, 4)", an index the
    # caller never gave
    with pytest.raises(error, match=match):
        call()


def test_coherent_grid_keeps_its_points_and_order():
    # the real part runs in the outer loop, the imaginary part in the inner one;
    # the 12 coherent states are one batch and the basis probes the last one
    zs = [complex(a, b) for a in np.linspace(-1.0, 1.0, 3) for b in np.linspace(-1.0, 1.0, 4)]
    want = [coherent_state(z, 64) for z in zs] + [basis_state(k, 64) for k in range(5)]
    got = list(coherent_grid_states(64, 3, 4))
    assert [len(labels) for labels, _ in got] == [X.shape[0] for _, X in got] == [12, 5]
    assert [label for labels, _ in got for label in labels] == [xi.label for xi in want]
    assert [x.tobytes() for _, X in got for x in X] == [xi.components.tobytes() for xi in want]


def test_a_state_of_another_dimension_is_refused_before_a_non_unit_state():
    # every dimension is checked before the batches' norms, so the state of
    # dimension 4 is named though the non-unit state comes first
    states = [StateVector(np.ones(8)), basis_state(0, 4)]
    with pytest.raises(InvalidDimensionError, match="dimension 4 .* dimension 8"):
        saturation_scan("swanson", (0.3,), dim=8, states=states)


def test_a_non_unit_state_in_a_later_batch_is_refused_with_its_norm(monkeypatch):
    monkeypatch.setattr(uncertainty, "BATCH_ENTRIES", 2 * 8)
    # two states a batch: the state of norm sqrt(2) opens the second batch
    states = [basis_state(0, 8), basis_state(1, 8), StateVector(np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))]
    with pytest.raises(PreconditionError, match=r"^state must be unit norm, got 1\.4142135623730951$"):
        saturation_scan("swanson", (0.3,), dim=8, states=states)


def test_scan_of_mixed_dimensions_is_a_typed_error():
    # stacking the states ended in numpy's "inhomogeneous shape"
    states = [coherent_state(0.5, 32), coherent_state(0.5, 16)]
    with pytest.raises(InvalidDimensionError, match="dimension 16 .* dimension 32"):
        saturation_scan("swanson", (0.3,), dim=32, states=states)


def test_scan_holds_the_states_and_a_few_batches():
    # the grid forms its states 256 at a time at N = 1024 and the pass drops
    # each batch once read, so beside the rows the scan holds a few blocks of
    # BATCH_ENTRIES entries, whatever the grid's size: the 3605 states of the
    # 60 x 60 grid alone would hold 59 MB, 14 such blocks
    batch_bytes = uncertainty.BATCH_ENTRIES * np.dtype(complex).itemsize
    for grid in (30, 60):
        tracemalloc.start()
        try:
            table = saturation_scan("swanson", (0.3,), dim=1024, states=coherent_grid_states(1024, grid, grid))
            rows_bytes, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.rows) == grid * grid + 5
        assert peak < rows_bytes + 7 * batch_bytes


# --- the truncation edge -------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
@pytest.mark.parametrize("z, n", [(0.0011, 2), (0.01, 3), (4.75, 64), (1.0, 20)])
def test_swanson_ur_checks_use_the_truncated_commutator(theta, z, n):
    # the truncated swanson pair has [S, T] = 1 - N e_(N-1) e_(N-1)^T, so
    # <xi, [S, T] xi> = |xi|^2 - w with w = N |x_(N-1)|^2; with C = 1 UR1 read
    # -2.4e-6 at (pi/4, 0.0011, 2) and -1.5e-8 at (pi/4, 0.01, 3)
    pair = swanson_pair(theta, n)
    xi = coherent_state(z, n)
    w = n * abs(xi.components[-1]) ** 2
    commutator = TruncatedOperator(pair.S.entries @ pair.T.entries - pair.T.entries @ pair.S.entries)
    assert expectation(commutator, xi).real == pytest.approx(1.0 - w, abs=1e-15)
    _, u1, u2 = uncertainty._swanson_state(theta, pair, xi, 1e-6)
    assert u1.c_expectation == xi.norm**2 - w
    assert u1.gap >= -1e-14 and u2.gap >= -1e-14
    row = saturation_scan("swanson", (theta,), dim=n, states=[xi]).rows[0]
    assert (row["ur1_gap"], row["ur2_gap"]) == (u1.gap, u2.gap)


def test_quarter_turn_scan_at_the_edge_holds():
    # at dim 20 the corners of the 3x3 grid keep w = 1.2e-11; with C = 1 the
    # minimal UR1 gap read -9.3e-12
    states = coherent_grid_states(20, nx=3, ny=3)
    table = saturation_scan("swanson", (math.pi / 4,), dim=20, states=states)
    assert table.summary["min_ur1_gap"] >= -1e-14


def test_reports_store_no_unread_fields():
    import dataclasses

    names = {cls: [f.name for f in dataclasses.fields(cls)]
             for cls in (uncertainty.DeltaReport, uncertainty.URResult)}
    assert names[uncertainty.DeltaReport] == ["dS", "dSd", "dT", "dTd", "z", "w"]
    assert "kind" not in names[uncertainty.URResult]
