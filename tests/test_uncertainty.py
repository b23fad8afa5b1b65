"""Uncertainty-relation tests: deltas, UR1/UR2, closed forms, scans."""

import math

import numpy as np
import pytest

from weakcr.algebra import NCPoly
from weakcr.errors import PreconditionError
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
    cross_condition_defect,
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
    return OperatorPair(lowering(n), TruncatedOperator(ad + 0.05 * (a @ a)), safe_rank=n - 2)


@pytest.mark.parametrize(
    "make",
    [lambda: swanson_pair(0.3, 64), lambda: swanson_pair(0.6, 3), lambda: boson_pair(16),
     lambda: _deformed_pair(32), lambda: matrix2x2_pair(1.5, -0.5),
     lambda: OperatorPair(TruncatedOperator(np.arange(25.0).reshape(5, 5) * (1 + 1j)),
                          TruncatedOperator(np.eye(5)[::-1]), safe_rank=3)],
)
def test_cross_condition_matches_dense_oracle(make):
    pair = make()
    scale = float(np.max(np.abs(pair.S.entries)) * np.max(np.abs(pair.T.entries)))
    assert abs(cross_condition_defect(pair) - dense_cross_condition_defect(pair)) <= 1e-13 * max(1.0, scale)


def test_cross_condition_violation_is_flagged():
    # deform T so [S', T] - [S, T'] no longer cancels
    n = 32
    a, ad = lowering(n).entries, raising(n).entries
    T = TruncatedOperator(ad + 0.05 * (a @ a), label="T")
    pair = OperatorPair(lowering(n), T, safe_rank=n - 2)
    assert cross_condition_defect(pair) > 1e-8
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


def test_generalized_c_expectation():
    # C = [S, T] evaluates to the identity for the boson pair
    pair = boson_pair(32)
    S, T = NCPoly.gen("S"), NCPoly.gen("T")
    C = S * T - T * S
    phi = coherent_state(0.2, 32)
    u1 = ur1_check(pair, phi, C=C)
    assert u1.lhs == pytest.approx(1.0, abs=1e-10)


# --- closed forms -------------------------------------------------------------------


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
def test_per_state_path_equals_dense_matrices(theta, n):
    # the dense-matrix computation the shifted and matrix-free path replaces
    pair = swanson_pair(theta, n)
    S, T = pair.S.entries, pair.T.entries
    Sd, Td = pair.S.adjoint().entries, pair.T.adjoint().entries
    a, ad = lowering(n).entries, raising(n).entries
    for xi in _probe_states(n):
        x = xi.components
        z = complex(np.vdot(x, S @ x))
        w = complex(np.vdot(x, T @ x))
        dense = (np.linalg.norm(S @ x - z * x), np.linalg.norm(Sd @ x - z.conjugate() * x),
                 np.linalg.norm(T @ x - w * x), np.linalg.norm(Td @ x - w.conjugate() * x))
        report = delta_report(pair, xi)
        assert report.as_tuple() == dense
        assert (report.z, report.w) == (z, w)

        mean_a = complex(np.vdot(x, a @ x))
        mean_n = complex(np.vdot(x, ad @ (a @ x)))
        mean_ad2 = complex(np.vdot(x, ad @ (ad @ x)))
        m = swanson_moments(xi)
        assert m.C_phi == mean_n.real - abs(mean_a) ** 2
        assert m.E_phi == (mean_ad2 - mean_a.conjugate() ** 2).imag


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


def test_matrix2x2_rejects_non_unit():
    with pytest.raises(PreconditionError):
        matrix2x2_report(1.0, 1.0, 1.0, 1.0)


# --- scans --------------------------------------------------------------------------------


def test_swanson_zero_scan_ur1_never_saturated():
    table = saturation_scan("swanson", (0.0,), dim=64)
    assert table.summary["min_ur1_gap"] > 0.4
    assert table.summary["ur1_saturated_count"] == 0
    # coherent probes saturate the sum form (C_phi = 0 there)
    assert table.summary["ur2_saturated_count"] >= 25


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_scan_rows_match_public_checks(theta):
    pair = swanson_pair(theta, 64)
    states = coherent_grid_states(64)
    table = saturation_scan("swanson", (theta,), dim=64)
    assert [row["state"] for row in table.rows] == [xi.label for xi in states]
    for row, xi in zip(table.rows, states):
        ur1, ur2 = ur1_check(pair, xi), ur2_check(pair, xi)
        assert (row["ur1_lhs"], row["ur1_rhs"], row["ur1_gap"], row["ur1_saturated"]) == (
            ur1.lhs, ur1.rhs, ur1.gap, ur1.saturated)
        assert (row["ur2_lhs"], row["ur2_rhs"], row["ur2_gap"], row["ur2_saturated"]) == (
            ur2.lhs, ur2.rhs, ur2.gap, ur2.saturated)
        assert row["cross_defect"] == ur2.cross_condition_defect


def test_quarter_turn_scan_records_both_readings():
    table = saturation_scan("boson_rotation", dim=64)
    row = table.rows[0]
    assert "functional_squared_reading" in row
    assert "functional_linear_reading" in row
    # coherent states sit exactly at the squared-reading value 1/2
    assert table.summary["min_abs_functional_sq_minus_half"] < 1e-8
    # and no probe reaches the value 1/4 that a sum-form saturator would need
    assert table.summary["min_abs_functional_sq_minus_quarter"] > 0.2


def test_matrix2x2_scan_conditions():
    table = saturation_scan("matrix2x2", (1.0, 1.0))
    assert table.summary["ur1_condition_met_at"] == [0.0, 1.0]
    assert not table.summary["ur2_condition_met_any"]


def test_scan_rejects_unknown_model():
    with pytest.raises(ValueError):
        saturation_scan("nonsense")
