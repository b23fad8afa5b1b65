"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from test_algebra import rewrite_oracle

import weakcr
from weakcr.algebra import (
    GENERATORS,
    GaussRational,
    NCPoly,
    adjoint,
    fock_eval,
    normal_order,
)
from weakcr.fock import (
    basis_state,
    boson_pair,
    coherent_state,
    quasi_strong_defect,
    swanson_pair,
    weak_defect,
    weyl_defect,
)
from weakcr.ladder import (
    biorthogonality_gram,
    build_ladder,
    eigen_check,
    intertwiners,
    kernel_vector,
    restricted_spectrum,
    tail_mass_membership,
)
from weakcr.uncertainty import (
    delta_report,
    saturation_scan,
    swanson_closed_form,
    ur1_check,
    ur2_check,
)
from weakcr.weights import (
    PolyFunc,
    gaussian_eigen_check,
    gaussian_weight,
    ladder_length,
    monomial,
    rational_weight,
    weak_cr_check,
)

S = NCPoly.gen("S")
T = NCPoly.gen("T")
Sd = NCPoly.gen("S'")
Td = NCPoly.gen("T'")


def _passed(n, text):
    print(f"[criterion {n}] PASS - {text}")


def _random_poly(rng, max_degree=4, max_terms=4, coeff_range=2):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(GENERATORS[i] for i in rng.integers(0, 4, length))
        re = int(rng.integers(-coeff_range, coeff_range + 1))
        im = int(rng.integers(-coeff_range, coeff_range + 1))
        if re == 0 and im == 0:
            re = 1
        terms[word] = GaussRational(re, im) + terms.get(word, GaussRational())
    return NCPoly(terms)


def test_criterion_1_rewrite_identities():
    start = time.perf_counter()
    assert normal_order(S * T) == T * S + 1
    assert normal_order(S**2 * T) == T * S**2 + 2 * S
    assert normal_order(S**2 * T**2) == T**2 * S**2 + 4 * T * S + 2
    assert normal_order(Sd**2 * Td) == Td * Sd**2 - 2 * Sd
    for k in range(1, 11):
        assert normal_order(S**k * T) == T * S**k + k * S ** (k - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"rewrite identities exact, {elapsed:.3f}s")


def test_criterion_2_rewrite_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    pair = boson_pair(64)
    block = 64 - 5  # degree-4 words corrupt at most the last 5 indices
    worst = 0.0
    for _ in range(200):
        p = _random_poly(rng)
        direct = fock_eval(p, pair).entries
        ordered = fock_eval(normal_order(p), pair).entries
        worst = max(worst, float(np.max(np.abs((direct - ordered)[:block, :block]))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 30.0
    _passed(2, f"200 random polynomials, max block defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_cr_chain():
    pair = boson_pair(256)
    wd = weak_defect(pair)
    qd = quasi_strong_defect(pair, 0.1)
    yd = weyl_defect(pair, 0.1, 0.1)
    assert wd < 1e-12
    assert qd < 1e-8
    assert yd < 1e-6
    sweep = [weyl_defect(boson_pair(n), 0.1, 0.1) for n in (32, 64, 128, 256)]
    # decreases with N until it reaches the double-precision floor
    for prev, nxt in zip(sweep, sweep[1:]):
        assert nxt <= max(prev, 1e-12)
    _passed(
        3,
        f"weak {wd:.1e}, quasi-strong {qd:.1e}, weyl {yd:.1e}; "
        f"sweep {['%.1e' % v for v in sweep]}",
    )


def test_criterion_4_ladder():
    pair = swanson_pair(0.3, 96)
    member = tail_mass_membership(pair.safe_rank)
    xi0 = kernel_vector(pair.S, 1e-10)
    eta0 = kernel_vector(pair.T.adjoint(), 1e-10)
    fam_xi = build_ladder(pair.T, xi0, 6, member=member)
    fam_eta = build_ladder(pair.S.adjoint(), eta0, 6, member=member)
    assert len(fam_xi) == 7

    residuals = eigen_check(pair, fam_xi)
    assert max(residuals) < 1e-8

    evals = restricted_spectrum(pair, fam_xi)
    assert np.max(np.abs(evals - np.arange(7))) < 1e-6
    assert np.min(np.diff(np.sort(evals.real))) > 0.5  # all simple

    gram = biorthogonality_gram(fam_xi, fam_eta)
    assert np.max(np.abs(gram - np.eye(7))) < 1e-7

    K = intertwiners(pair, fam_xi, fam_eta)
    assert K.inverse_defect < 1e-6
    assert K.intertwining_defect_eta < 1e-6
    assert K.intertwining_defect_xi < 1e-6
    _passed(
        4,
        f"residual {max(residuals):.1e}, gram {np.max(np.abs(gram - np.eye(7))):.1e}, "
        f"inverse {K.inverse_defect:.1e}",
    )


def test_criterion_5_weighted_example():
    report = ladder_length(2.0)
    assert (report.n_max, report.dim_N0) == (2, 3)
    assert report.floor_formula_dim == 3

    boundary = ladder_length(1.75)
    assert boundary.n_max == 1
    assert boundary.boundary_discrepancy

    rng = np.random.default_rng(17)
    w = rational_weight(2.0)
    worst = weak_cr_check(w, monomial(0), monomial(0))
    for _ in range(10):
        df, dg = (int(d) for d in rng.integers(0, 3, 2))
        if df + dg + 2 >= 7:
            continue
        f = PolyFunc(tuple(rng.uniform(-2, 2, df + 1) + 1j * rng.uniform(-2, 2, df + 1)))
        g = PolyFunc(tuple(rng.uniform(-2, 2, dg + 1) + 1j * rng.uniform(-2, 2, dg + 1)))
        worst = max(worst, weak_cr_check(w, f, g))
    gw = gaussian_weight()
    for _ in range(10):
        df, dg = (int(d) for d in rng.integers(0, 7, 2))
        f = PolyFunc(tuple(rng.uniform(-2, 2, df + 1) + 1j * rng.uniform(-2, 2, df + 1)))
        g = PolyFunc(tuple(rng.uniform(-2, 2, dg + 1) + 1j * rng.uniform(-2, 2, dg + 1)))
        worst = max(worst, weak_cr_check(gw, f, g))
    assert worst < 1e-8

    for k in range(11):
        assert gaussian_eigen_check(k).symbolic_residual == 0.0
    _passed(5, f"ladder lengths and boundary flag correct, max CR defect {worst:.1e}")


def test_criterion_6_uncertainty_examples():
    dim = 64
    probes = [coherent_state(z, dim) for z in (0.0, 1.0, 0.3 + 0.4j, -0.5j)]

    rotated = swanson_pair(math.pi / 4, dim)
    for phi in probes:
        report = delta_report(rotated, phi)
        for d in report.as_tuple():
            assert abs(d - 1.0 / math.sqrt(2.0)) < 1e-6
        assert ur1_check(rotated, phi).saturated

    boson = boson_pair(dim)
    for phi in probes:
        report = delta_report(boson, phi)
        assert abs(report.dS) < 1e-6 and abs(report.dTd) < 1e-6
        assert abs(report.dSd - 1.0) < 1e-6 and abs(report.dT - 1.0) < 1e-6
        assert ur2_check(boson, phi).saturated
        assert abs(ur1_check(boson, phi).gap - 1.0) < 1e-6

    for theta in (0.0, 0.2, math.pi / 4):
        for xi in (coherent_state(0, dim), coherent_state(1, dim), basis_state(2, dim)):
            assert swanson_closed_form(theta, xi).matrix_discrepancy < 1e-6

    scan = saturation_scan("swanson", (0.0,), dim=dim)
    assert scan.summary["min_ur1_gap"] > 0.4
    assert scan.summary["ur1_saturated_count"] == 0

    table = saturation_scan("matrix2x2", (1.0, 1.0))
    assert table.summary["ur1_condition_met_at"] == [0.0, 1.0]
    assert not table.summary["ur2_condition_met_any"]
    _passed(
        6,
        f"boson/rotated saturation as stated; min UR1 gap {scan.summary['min_ur1_gap']:.2f}",
    )


def test_criterion_7_algebraic_properties():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        p = _random_poly(rng, max_degree=3)
        q = _random_poly(rng, max_degree=3)
        assert adjoint(adjoint(p)) == p
        assert adjoint(p * q) == adjoint(q) * adjoint(p)
        n = normal_order(p)
        assert normal_order(n) == n
        a = GaussRational(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        b = GaussRational(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        assert normal_order(p * a + q * b) == normal_order(p) * a + normal_order(q) * b
    for _ in range(300):
        length = int(rng.integers(0, 9))
        word = tuple(GENERATORS[i] for i in rng.integers(0, 4, length))
        p = NCPoly.from_word(word)
        assert normal_order(p) == rewrite_oracle(p, "leftmost") == rewrite_oracle(p, "rightmost")
    _passed(7, "involution, antihomomorphism, idempotence, linearity, confluence")


def child_env():
    """Environment for a child that imports the same weakcr sources as this test process."""
    src = os.path.dirname(os.path.dirname(weakcr.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "weakcr.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    return proc


def test_criterion_8_cli_contract(tmp_path):
    proc = _run_cli("normal-order", "S T")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "T S + 1"

    out = tmp_path / "weights.json"
    proc = _run_cli("weights", "--alpha", "2", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["n_max"] == 2
    assert payload["results"]["dim_N0"] == 3

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out_a, out_b):
        proc = _run_cli(
            "uncertainty", "--model", "swanson:0", "--scan", "coherent:5x5",
            "--out", str(path),
        )
        assert proc.returncode == 0
        payload = json.loads(path.read_text())
        assert payload["results"]["summary"]["min_ur1_gap"] > 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _passed(8, "documented invocations, payloads, byte-identical reports")
