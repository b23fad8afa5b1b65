"""CLI contract tests: documented payloads, determinism, exit codes."""

import json
import math
import subprocess
import sys
import warnings
from math import comb, factorial

import pytest
from test_acceptance import _run_cli, child_env

from weakcr import cli
from weakcr.algebra import GEN_S, GEN_T, NCPoly, normal_order, render
from weakcr.cli import main
from weakcr.fock import swanson_pair
from weakcr.uncertainty import delta_report, swanson_closed_form, ur1_check, ur2_check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normal_order_golden_line(capsys):
    code, out, _ = run(capsys, "normal-order", "S T")
    assert code == 0
    assert out.splitlines()[0] == "T S + 1"


def test_normal_order_rearranged_identity(capsys):
    code, out, _ = run(capsys, "normal-order", "S^2 T - T S^2 - 2 S")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_normal_order_regularity_verdict(capsys):
    code, out, _ = run(capsys, "normal-order", "S T'", "--profile", "2,1")
    assert code == 0
    assert "regular: no (witness S T')" in out


def test_normal_order_syntax_error_position(capsys):
    code, _, err = run(capsys, "normal-order", "S T' +")
    assert code == 2
    assert "column 7" in err


def test_weights_alpha_two_payload(capsys, tmp_path):
    out_file = tmp_path / "weights.json"
    code, out, _ = run(capsys, "weights", "--alpha", "2", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["n_max"] == 2
    assert report["results"]["dim_N0"] == 3
    assert report["pass"] is True


def test_weights_boundary_flag(capsys, tmp_path):
    out_file = tmp_path / "weights.json"
    code, out, _ = run(capsys, "weights", "--alpha", "1.75", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["n_max"] == 1
    assert report["results"]["boundary_discrepancy"] is True
    assert "flagged" in out


def test_weights_gaussian(capsys, tmp_path):
    out_file = tmp_path / "weights.json"
    code, _, _ = run(capsys, "weights", "--gaussian", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["eigen_symbolic_residuals"] == [0.0] * 11


@pytest.mark.parametrize("alpha", ["50", "1000"])
def test_weights_large_alpha_passes(capsys, tmp_path, alpha):
    # quadrature overflowed on the high-degree pairs these draw, and the NaN
    # defect came out as a false FAIL with value null
    out_file = tmp_path / "weights.json"
    code, _, _ = run(capsys, "weights", "--alpha", alpha, "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert sorted(report["results"]) == [
        "boundary_discrepancy", "dim_N0", "floor_formula_dim", "moments",
        "n_max", "strict_bound", "weak_cr_defects",
    ]
    checks = {c["name"]: c["value"] for c in report["checks"]}
    assert sorted(checks) == ["constructive_below_strict_bound", "max_weak_cr_defect", "odd_moments_zero"]
    assert checks["max_weak_cr_defect"] < 1e-8


def test_import_and_normal_order_load_no_scipy_integrate_or_linalg():
    # scipy.linalg loads only when a kernel vector is computed, and nothing
    # in the package loads scipy.integrate
    def imported(*args):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    for args in (["-c", "import weakcr"], ["-m", "weakcr.cli", "normal-order", "S T"]):
        modules = imported(*args)
        assert "weakcr" in modules
        assert not modules & {"scipy.integrate", "scipy.linalg"}, args
    # the defect chain, the Weyl block's Lanczos norm included, loads no scipy
    # at all, and its fixed start vector needs no numpy.random
    modules = imported("-m", "weakcr.cli", "verify-cr")
    assert not {m for m in modules if m.split(".")[0] == "scipy"}
    assert "numpy.random" not in modules


def test_weights_requires_one_weight(capsys):
    code, _, err = run(capsys, "weights")
    assert code == 2
    assert "choose exactly one" in err


def test_uncertainty_scan_min_gap_positive(capsys, tmp_path):
    out_file = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "uncertainty", "--model", "swanson:0", "--scan", "coherent:5x5",
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["summary"]["min_ur1_gap"] > 0
    assert report["pass"] is True


def test_verify_cr_boson(capsys, tmp_path):
    out_file = tmp_path / "cr.json"
    code, _, _ = run(capsys, "verify-cr", "--model", "boson", "--dim", "64",
                     "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    names = {c["name"] for c in report["checks"]}
    assert names == {"weak_defect", "quasi_strong_defect", "weyl_defect"}


def test_ladder_command(capsys, tmp_path):
    out_file = tmp_path / "ladder.json"
    code, _, _ = run(capsys, "ladder", "--model", "swanson:0.3", "--dim", "96",
                     "--len", "6", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["ladder_length"] == 7
    assert report["results"]["restricted_spectrum"] == pytest.approx(list(range(7)), abs=1e-6)


def test_report_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "uncertainty", "--model", "swanson:0.3", "--out", str(a))
    run(capsys, "uncertainty", "--model", "swanson:0.3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_output_for_scans(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "uncertainty", "--model", "matrix2x2:1,1",
                     "--scan", "circle:11", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 12  # header + 11 rows
    assert lines[0].startswith("t,")


def test_csv_rejected_for_non_scan(capsys, tmp_path):
    out_file = tmp_path / "cr.csv"
    code, _, err = run(capsys, "verify-cr", "--dim", "32", "--out", str(out_file))
    assert code == 2
    assert "scan tables only" in err


def test_failing_check_gives_exit_one(capsys):
    # absurdly tight tolerance forces a failed check
    code, out, _ = run(capsys, "verify-cr", "--dim", "32", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_uncertainty_matrix2x2_state(capsys, tmp_path):
    out_file = tmp_path / "m.json"
    code, _, _ = run(capsys, "uncertainty", "--model", "matrix2x2:1,1",
                     "--state", "t:1", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["ur1_condition"]["met"] is True
    assert report["results"]["ur2_condition"]["met"] is False


def test_uncertainty_basis_state(capsys):
    code, out, _ = run(capsys, "uncertainty", "--model", "swanson:0.2",
                       "--state", "basis:2", "--dim", "64")
    assert code == 0
    assert "UR1 gap" in out


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
@pytest.mark.parametrize("state", ["coherent:0.5,-0.25", "basis:3"])
def test_uncertainty_state_report_equals_public_checks(capsys, tmp_path, theta, state):
    # the one-pass single-state branch reports exactly what the public functions return
    out_file = tmp_path / "u.json"
    code, _, _ = run(capsys, "uncertainty", "--model", f"swanson:{theta!r}", "--state", state,
                     "--out", str(out_file))
    assert code == 0
    results = json.loads(out_file.read_text())["results"]
    pair = swanson_pair(theta, 64)
    xi = cli._parse_state(state, 64)
    u1, u2 = ur1_check(pair, xi), ur2_check(pair, xi)
    assert results["deltas"] == list(delta_report(pair, xi).as_tuple())
    assert results["closed_form_deltas"] == list(swanson_closed_form(theta, xi).deltas.as_tuple())
    assert results["ur1"] == {"lhs": u1.lhs, "rhs": u1.rhs, "gap": u1.gap, "saturated": u1.saturated}
    assert results["ur2"] == {"lhs": u2.lhs, "rhs": u2.rhs, "gap": u2.gap, "saturated": u2.saturated,
                              "cross_defect": u2.cross_condition_defect}


@pytest.mark.parametrize("argv", [["--state", "basis:63"], ["--dim", "2", "--state", "basis:1"]])
def test_uncertainty_state_at_the_truncation_edge_exits_two(capsys, argv):
    # the truncated a* drops e_(N-1) from the squared deltas: a typed error, not a false FAIL
    code, out, err = run(capsys, "uncertainty", *argv)
    assert code == 2
    assert out == ""
    assert "error: state weight N|x_(N-1)|^2" in err


@pytest.mark.parametrize("argv", [["--dim", "2", "--state", "coherent:0.0011,0"],
                                  ["--dim", "1024", "--state", "coherent:27,0"]])
def test_uncertainty_accepted_coherent_state_passes(capsys, argv):
    # the first missed the closed forms' edge term (exit 1 at 1.2e-6); the
    # second overflowed the norm of its unnormalized components (exit 2)
    code, out, err = run(capsys, "uncertainty", *argv)
    assert code == 0
    assert err == ""
    assert out.endswith("result: PASS\n")


@pytest.mark.parametrize("sub", ["verify-cr", "ladder", "uncertainty"])
def test_seed_is_accepted_only_where_a_suite_is_randomized(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([sub, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    for argv in (["weights", "--gaussian"], ["normal-order", "S T"]):
        assert cli.build_parser().parse_args([*argv, "--seed", "1"]).seed == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["uncertainty", "--model", "swanson:abc"],
        ["uncertainty", "--model", "matrix2x2:1"],
        ["uncertainty", "--model", "swanson:0", "--state", "coherent:x"],
        ["uncertainty", "--model", "matrix2x2:1,1", "--state", "t:2"],
        ["uncertainty", "--model", "swanson:0", "--scan", "coherent:axb"],
        ["uncertainty", "--model", "swanson:0", "--scan", "coherent:-1"],
        ["uncertainty", "--model", "matrix2x2:1,1", "--scan", "circle:1"],
        ["normal-order", "S", "--profile", "2,x"],
        ["normal-order", "S", "--profile", "1,2"],
        ["uncertainty", "--model", "swanson:inf"],
        ["ladder", "--model", "swanson:inf"],
        ["ladder", "--len", "-3"],
        ["uncertainty", "--model", "swanson:0", "--state", "coherent:nan,0"],
        ["uncertainty", "--model", "swanson:0", "--state", "coherent:1,2,3"],
    ],
)
def test_bad_argument_value_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert repr(argv[-1]) in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_non_positive_tol_is_rejected(capsys, tol):
    code, out, err = run(capsys, "verify-cr", "--dim", "32", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "error: --tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--alpha", "inf"],
        ["verify-cr", "--dim", "32", "--alpha", "inf"],
        ["verify-cr", "--dim", "32", "--alpha", "nan"],
        ["verify-cr", "--dim", "32", "--beta", "nan"],
    ],
)
def test_non_finite_parameter_exits_two(argv):
    # a fresh interpreter with a timeout, so a hang fails the test instead of stalling it
    proc = _run_cli(*argv)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_coherent_state_past_the_truncation_exits_two():
    # |z|^2 = 900: e^(|z|^2) overflows a float, and the whole norm lies past dimension 64
    proc = _run_cli("uncertainty", "--state", "coherent:30,0")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("expr", ["S T^31", "S T^40"])
def test_normal_order_beyond_default_dimension_checks_a_positive_band(capsys, expr):
    code, out, _ = run(capsys, "normal-order", expr)
    assert code == 0
    assert "PASS fock_soundness" in out


@pytest.mark.parametrize("expr", ["S^5 T^5", "S^7 T^7", "S^10 T^10"])
def test_normal_order_soundness_is_relative_to_entry_scale(capsys, tmp_path, expr):
    # entries of S^10 T^10 reach ~1e14 on the block, so rounding alone
    # exceeds an absolute 1e-10
    out_file = tmp_path / "normal.json"
    code, out, _ = run(capsys, "normal-order", expr, "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    results, (check,) = report["results"], report["checks"]
    assert results["soundness_scale"] >= 1.0
    assert check["value"] == results["soundness_defect"] / results["soundness_scale"]


@pytest.mark.parametrize(
    "expr, dropped",
    [
        ("S^5 T^5", ()),
        ("S^10 T^10", ()),
        # 40 T^39 only shows from row 39 on, so this needs a block of >= 40 indices
        ("S T^40", (GEN_T,) * 39),
    ],
)
def test_normal_order_soundness_catches_a_dropped_term(capsys, monkeypatch, expr, dropped):
    def unsound(p):
        return NCPoly({w: c for w, c in normal_order(p).terms.items() if w != dropped})

    monkeypatch.setattr(cli, "normal_order", unsound)
    code, out, _ = run(capsys, "normal-order", expr)
    assert code == 1
    assert "FAIL fock_soundness" in out


def test_normal_order_high_degree_finishes():
    # a fresh interpreter with a timeout, so an exponential rewrite fails the
    # test instead of stalling it
    proc = _run_cli("normal-order", "S^20 T^20")
    assert proc.returncode == 0
    want = NCPoly({
        (GEN_T,) * (20 - j) + (GEN_S,) * (20 - j): factorial(j) * comb(20, j) ** 2 for j in range(21)
    })
    assert proc.stdout.splitlines()[0] == render(want)


@pytest.mark.parametrize("model, dim", [("swanson:0.3", "256"), ("boson", "512")])
def test_ladder_at_large_dimension_passes(tmp_path, model, dim):
    # an SVD kernel vector's rounding noise, lifted by T^6, used to fail
    # max_eigen_residual from dim 192 up (5.7e-8 and 2.1e-7 here)
    out = tmp_path / "ladder.json"
    proc = _run_cli("ladder", "--model", model, "--dim", dim, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert max(json.loads(out.read_text())["results"]["eigen_residuals"]) < 1e-12


def test_ladder_truncation_failure_is_kept(tmp_path):
    # at the default dim 96, theta = 0.5 fails for a real reason: the ladder
    # reaches the truncation edge, whichever kernel vector it starts from
    out = tmp_path / "ladder.json"
    proc = _run_cli("ladder", "--model", "swanson:0.5", "--out", str(out))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["failures"] == ["max_eigen_residual"]
    assert max(report["results"]["eigen_residuals"]) == pytest.approx(7.17e-8, rel=1e-2)


@pytest.mark.parametrize("argv", [
    ["uncertainty", "--dim", "4096", "--state", "coherent:40,0"],
    ["uncertainty", "--model", "swanson:0.7853981633974483", "--dim", "2", "--state", "coherent:0.0011,0"],
    ["uncertainty", "--model", "swanson:0.7853981633974483", "--dim", "3", "--state", "coherent:0.01,0"],
])
def test_edge_states_pass_without_warnings(capsys, argv):
    # coherent:40 overflowed the coherent-state recurrence (exit 2); the two
    # quarter-turn states FAILed ur1_validity against C = 1 (exit 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 0, out + err
