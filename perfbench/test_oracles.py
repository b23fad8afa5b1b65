"""The benchmark's oracles on cases whose answers are known by hand.

    python3 -m pytest -q perfbench
"""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from oracles import Mismatch  # noqa: E402


def f(re, im=0):
    return (Fraction(re), Fraction(im))


def test_block_normal_form_s2t2():
    # S^2 T^2 = T^2 S^2 + 4 T S + 2
    assert oracles.block_normal_form(2, 2) == {
        ("T", "T", "S", "S"): f(1), ("T", "S"): f(4), (): f(2)}


def test_block_normal_form_primed_sign_and_coefficient():
    # S'^2 T'^2 = T'^2 S'^2 - 4 T' S' + 2, scaled by i
    assert oracles.block_normal_form(2, 2, (0, 1), oracles.PRIMED) == {
        ("T'", "T'", "S'", "S'"): f(0, 1), ("T'", "S'"): f(0, -4), (): f(0, 2)}


def test_block_normal_form_uneven():
    # S T^3 = T^3 S + 3 T^2
    assert oracles.block_normal_form(1, 3) == {("T", "T", "T", "S"): f(1), ("T", "T"): f(3)}


def test_closed_form_agrees_with_matrices():
    S, T = oracles.swanson_matrices(0.37, 24)
    lhs = np.linalg.matrix_power(S, 3) @ np.linalg.matrix_power(T, 2)
    rhs = np.zeros_like(lhs)
    mats = {"S": S, "T": T}
    for word, (re, im) in oracles.block_normal_form(3, 2).items():
        m = np.eye(24, dtype=complex)
        for g in word:
            m = m @ mats[g]
        rhs += complex(float(re), float(im)) * m
    oracles.check_soundness(lhs, rhs, 24 - 5)


def test_render_parse_round_trip():
    from weakcr.expr import parse_to_poly
    from weakcr.algebra import render

    poly = parse_to_poly("T^2 S^2 + 4 T S + 2 - (1-2i) S' T")
    oracles.check_terms(parse_to_poly(render(poly)), oracles.terms_of(poly), "round trip")
    with pytest.raises(Mismatch):
        oracles.check_terms(parse_to_poly("T^2 S^2 + 4 T S + 3"), oracles.terms_of(poly), "round trip")


def test_merge_terms_cancels():
    merged = oracles.merge_terms([(("S",), f(1)), (("S",), f(-1)), ((), f(2, 1))])
    assert merged == {(): f(2, 1)}


def test_canonical_and_regular():
    from weakcr.expr import parse_to_poly

    with pytest.raises(Mismatch):
        oracles.check_canonical(parse_to_poly("S T"))
    oracles.check_canonical(parse_to_poly("T S + S T' + S' S"))
    assert oracles.expected_regular(parse_to_poly("T^2 S + T' S'"))
    assert not oracles.expected_regular(parse_to_poly("T S'"))


def test_soundness_is_relative_to_entry_scale():
    a = np.full((4, 4), 1e9)
    oracles.check_soundness(a, a + 1e-3, 4)  # relative 1e-12
    with pytest.raises(Mismatch):
        oracles.check_soundness(a, a + 1.0, 4)  # relative 1e-9
    with pytest.raises(Mismatch):
        oracles.check_soundness(a, a, 0)


def test_rational_moments_beta_form():
    # int dx / (1 + x^4) = int x^2 dx / (1 + x^4) = pi / sqrt 2
    assert oracles.rational_moment(1.0, 0) == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)
    assert oracles.rational_moment(1.0, 2) == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)
    assert oracles.rational_moment(1.0, 1) == 0.0
    assert oracles.rational_moment(1.0, 3) == math.inf  # k + 1 >= 4 alpha


def test_gaussian_moments_double_factorial():
    root = math.sqrt(2 * math.pi)
    assert [oracles.gaussian_moment(k) for k in range(7)] == pytest.approx(
        [root, 0, root, 0, 3 * root, 0, 15 * root], rel=1e-15)


def test_check_moments():
    oracles.check_moments([1.0, 0.0, math.inf], lambda k: [1.0 + 1e-9, 0.0, math.inf][k])
    with pytest.raises(Mismatch):
        oracles.check_moments([1.0], lambda k: 1.001)
    with pytest.raises(Mismatch):
        oracles.check_moments([1e300], lambda k: math.inf)


def test_expected_n_max():
    assert oracles.expected_n_max(2.0) == 2  # README: weights --alpha 2 gives n_max=2
    assert oracles.expected_n_max(1.75) == 1  # 2 alpha - 3/2 = 2 exactly: n < 2
    assert oracles.expected_n_max(0.8) == 0


def test_spectrum_is_zero_to_length():
    oracles.check_spectrum(np.array([2, 0, 1 + 1e-12]), 3)
    with pytest.raises(Mismatch):
        oracles.check_spectrum(np.array([0, 1, 2.1]), 3)
    with pytest.raises(Mismatch):
        oracles.check_spectrum(np.array([0, 1]), 3)


def test_ur_gap_floor():
    oracles.check_ur_gap(-1e-9, "UR1")
    with pytest.raises(Mismatch):
        oracles.check_ur_gap(-1e-7, "UR1")


def test_coherent_state_deltas_of_boson_pair():
    # a coherent state is an eigenvector of a: dS = dT' = 0 and dS' = dT = 1
    n, z = 40, 0.6 - 0.2j
    xi = np.array([z**k / math.sqrt(math.factorial(k)) for k in range(n)], dtype=complex)
    xi /= np.linalg.norm(xi)
    S, T = oracles.swanson_matrices(0.0, n)
    oracles.check_close(oracles.deltas(S, T, xi), (0.0, 1.0, 1.0, 0.0), 1e-10, "deltas")


def test_swanson_matrices_commute_to_one_on_the_block():
    S, T = oracles.swanson_matrices(0.4, 16)
    M = S @ T - T @ S - np.eye(16)
    assert np.max(np.abs(M[:15, :15])) < 1e-13


def test_matrix2x2_deltas():
    assert oracles.matrix2x2_deltas(2.0, -3.0, 1.0) == (0.0, 2.0, 3.0, 0.0)
    assert oracles.matrix2x2_deltas(2.0, 3.0, 0.25) == (1.5, 0.5, 0.75, 2.25)


def test_relative_defect():
    oracles.check_relative_defect(5e-11, 100.0, 1e-12, "weak")
    with pytest.raises(Mismatch):
        oracles.check_relative_defect(5e-10, 100.0, 1e-12, "weak")


def test_known_false_fail_counts_as_a_mismatch():
    assert issubclass(oracles.KnownFalseFail, Mismatch)


def test_tail_leaves_ten_samples_beyond():
    import run

    value, pct, n = run.tail(list(range(30)))
    assert (value, n) == (19, 30) and pct == pytest.approx(200 / 3)
