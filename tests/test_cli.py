"""CLI contract tests: documented payloads, determinism, exit codes."""

import importlib
import json
import math
import subprocess
import sys
import warnings
from math import comb, factorial

import pytest
from test_acceptance import _run_cli, child_env

import weakcr
from weakcr import algebra, cli, expr, fock, uncertainty, weights
from weakcr.algebra import GEN_S, GEN_T, GEN_TD, NCPoly, normal_order, render
from weakcr.cli import main
from weakcr.expr import parse_to_poly
from weakcr.fock import OperatorPair, TruncatedOperator, swanson_pair
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


#: the library's truncation chain, from the pair through the vacua and defects to the intertwiners
TRUNCATION_CHAIN = """
from weakcr.fock import quasi_strong_defect, swanson_pair, weak_defect, weyl_defect
from weakcr.ladder import build_ladder, intertwiners, kernel_vector
pair = swanson_pair(0.3, 256)
xi0, eta0 = kernel_vector(pair.S), kernel_vector(pair.T.adjoint())
weak_defect(pair), quasi_strong_defect(pair, 0.1), weyl_defect(pair, 0.1, 0.1)
intertwiners(pair, build_ladder(pair.T, xi0, 6), build_ladder(pair.S.adjoint(), eta0, 6))
"""


def test_import_and_normal_order_load_no_scipy_integrate_or_linalg():
    # nothing in the package loads any scipy module, neither a subcommand nor
    # the library's truncation chain; each subcommand loads only the layers it
    # drives, and the package alone loads none
    def loaded(run):
        # sys.modules at exit rather than -X importtime, which does not list a
        # module the package namespace loads through importlib
        code = "import atexit, runpy, sys\natexit.register(lambda: print(*sys.modules, sep='\\n', file=sys.stderr))\n" + run
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr[-2000:]
        return set(proc.stderr.splitlines())

    def imported(*argv):
        return loaded(f"sys.argv = ['weakcr', *{list(argv)!r}]; runpy.run_module('weakcr.cli', run_name='__main__')"
                      if argv else "import weakcr")

    def layers(modules):
        return {m for m in modules if m.startswith("weakcr.")}

    modules = imported()
    assert "weakcr" in modules
    assert layers(modules) == set()
    assert "numpy" not in modules
    # no subcommand loads any scipy module: the defect chain's Lanczos norm
    # and the ladder's closed-form vacua are numpy alone, and neither needs
    # numpy.random for a start vector
    fock_only = {"weakcr.errors", "weakcr.fock"}
    for argv, expected in (
        (["verify-cr"], fock_only),
        (["ladder"], fock_only | {"weakcr.ladder"}),
        (["weights", "--alpha", "2"], {"weakcr.errors", "weakcr.weights"}),
        (["normal-order", "S T"], {"weakcr.errors", "weakcr.algebra", "weakcr.expr"}),
        (["uncertainty"], fock_only | {"weakcr.uncertainty"}),
        (["uncertainty", "--model", "matrix2x2:1,1", "--scan", "circle:11"], fock_only | {"weakcr.uncertainty"}),
    ):
        modules = imported(*argv)
        assert "weakcr" in modules
        assert layers(modules) == expected, argv
        assert "csv" not in modules, argv
        assert not {m for m in modules if m.split(".")[0] == "scipy"}, argv
        if argv[0] in ("verify-cr", "ladder"):
            assert "numpy.random" not in modules, argv
    modules = loaded(TRUNCATION_CHAIN)
    assert layers(modules) == fock_only | {"weakcr.ladder"}
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_namespace_resolves_each_name_on_first_use():
    # the names the package re-exported eagerly before it loaded them on use
    homes = {
        "algebra": "GEN_S GEN_SD GEN_T GEN_TD UNBOUNDED GaussRational NCPoly PowerProfile adjoint "
                   "fock_eval is_regular normal_order render",
        "fock": "OperatorPair StateVector TruncatedOperator basis_state boson_pair coherent_state identity "
                "lowering matrix2x2_pair quasi_strong_defect raising swanson_pair weak_defect weyl_defect",
        "ladder": "LadderFamily biorthogonality_gram build_ladder eigen_check intertwiners kernel_vector "
                  "restricted_spectrum tail_mass_membership",
        "uncertainty": "DeltaReport URResult delta delta_report matrix2x2_report saturation_scan "
                       "swanson_closed_form ur1_check ur2_check",
        "weights": "MomentTable PolyFunc Weight apply_S apply_T gaussian_eigen_check gaussian_weight "
                   "inner_product ladder_length moment rational_weight sdagger_pair weak_cr_check",
        "expr": "parse_to_poly",
    }
    names = {name: module for module, text in homes.items() for name in text.split()}
    assert len(names) == 58
    assert sorted(weakcr.__all__) == sorted(names)
    for name, module in names.items():
        assert getattr(weakcr, name) is getattr(importlib.import_module(f"weakcr.{module}"), name), name
        assert name in dir(weakcr)
    assert weakcr.fock is fock
    assert {"fock", "cli", "__version__"} <= set(dir(weakcr))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        weakcr.no_such_name  # noqa: B018


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


@pytest.mark.parametrize(
    "argv, reason",
    [(["verify-cr", "--out", "x.txt"], "unsupported output extension"),
     (["verify-cr", "--out", "x.csv"], "scan tables only"),
     (["ladder", "--out", "x"], "unsupported output extension"),
     (["weights", "--gaussian", "--out", "x.csv"], "scan tables only"),
     (["normal-order", "S T", "--out", "x.json.txt"], "unsupported output extension"),
     (["uncertainty", "--out", "x.csv"], "scan tables only"),
     (["uncertainty", "--model", "matrix2x2:1,1", "--scan", "circle:11", "--out", "x.tsv"],
      "unsupported output extension")],
    ids=["verify_cr_txt", "verify_cr_csv", "ladder_bare", "weights_csv", "normal_order_txt",
         "uncertainty_csv", "scan_tsv"],
)
def test_bad_out_extension_exits_two_before_any_work(capsys, monkeypatch, tmp_path, argv, reason):
    # both were found only after the whole report had printed with its verdict
    def forbidden(*args, **kwargs):
        raise AssertionError("a layer ran before --out was checked")

    for module, name in ((fock, "swanson_pair"), (expr, "parse_to_poly"), (algebra, "normal_order"),
                         (weights, "gaussian_weight"), (weights, "rational_weight"),
                         (uncertainty, "saturation_scan"), (uncertainty, "matrix2x2_report")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("expr", ["S^40 T^40", "S^60 T^60", "S'^20 T'^20"])
def test_normal_order_high_degree_rewrite_passes(capsys, tmp_path, expr):
    # the dense float check read 2.5e-10, 3.8e-6 and 2.1e-9 here against its
    # 1e-10: rounding, reported as a FAIL of a correct rewrite
    out_file = tmp_path / "normal.json"
    code, out, _ = run(capsys, "normal-order", expr, "--out", str(out_file))
    assert code == 0
    assert "PASS fock_soundness = 0 (tol 0)" in out
    report = json.loads(out_file.read_text())
    assert sorted(report["results"]) == ["canonical", "regular", "witness"]
    assert report["tolerances"] == {}
    assert report["checks"] == [{"name": "fock_soundness", "value": 0, "tol": 0, "pass": True}]


@pytest.mark.parametrize(
    "expr, dropped",
    [
        ("S^5 T^5", ()),
        ("S^10 T^10", ()),
        ("S T^40", (GEN_T,) * 39),
        # every canonical term in turn, at degree 80 in both families
        ("S^40 T^40", None),
        ("S'^40 T'^40", None),
        # 0.5^2000 has no float: the dense check compared 0 with 0 and passed
        ("0.5^2000 S T", ()),
    ],
)
def test_normal_order_soundness_catches_a_dropped_term(capsys, monkeypatch, expr, dropped):
    for seed in ("0", "1", "2", "977"):  # the correct rewrite passes on every seed
        assert run(capsys, "normal-order", expr, "--seed", seed)[0] == 0
    words = list(normal_order(parse_to_poly(expr)).terms) if dropped is None else [dropped]
    for word in words:
        def unsound(p, word=word):
            return NCPoly({w: c for w, c in normal_order(p).terms.items() if w != word})

        monkeypatch.setattr(algebra, "normal_order", unsound)
        code, out, _ = run(capsys, "normal-order", expr)
        assert code == 1, word
        # both probes see it: x spans e_0 .. e_degree, where no term of the
        # difference vanishes (on e_0 .. e_31 the boson pair's a^40 did)
        assert "FAIL fock_soundness = 2 (tol 0)" in out, word


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_normal_order_soundness_catches_a_mixed_family_swap(capsys, monkeypatch, tmp_path, seed):
    # S T' and T' S are distinct canonical words; on the boson pair S = T' = a,
    # so only the deformed pair tells them apart, and one probe of two disagrees
    monkeypatch.setattr(algebra, "normal_order", lambda p: NCPoly.from_word((GEN_TD, GEN_S)))
    out_file = tmp_path / "normal.json"
    code, out, _ = run(capsys, "normal-order", "S T'", "--seed", seed, "--out", str(out_file))
    assert code == 1
    assert "FAIL fock_soundness = 1 (tol 0)" in out
    assert json.loads(out_file.read_text())["failures"] == ["fock_soundness"]


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
    assert max(report["results"]["eigen_residuals"]) == pytest.approx(6.78e-8, rel=1e-2)


@pytest.mark.parametrize("dim", ["96", "256", None])
def test_ladder_without_an_l2_vacuum_exits_two(capsys, dim):
    # at |tan t| > 1 the truncated S still has a kernel vector at the edge,
    # which the inverse-iteration start accepted (exit 1 on every check)
    code, out, err = run(capsys, "ladder", "--model", "swanson:1.2", *(["--dim", dim] if dim else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error: the vacuum of A = x a + y a* lies in l^2 only for |y/x| < 1")


@pytest.mark.parametrize("theta, dim", [("0.7", "97"), ("0.3", "3")])
def test_ladder_on_a_truncated_vacuum_exits_two(capsys, theta, dim):
    # at odd dim the truncated vacuum is an exact kernel vector, but the l^2
    # vacuum still has weight past the edge (exit 1 on the eigen checks)
    code, out, err = run(capsys, "ladder", "--model", f"swanson:{theta}", "--dim", dim)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: dimension {dim} truncates the vacuum")


@pytest.mark.parametrize("argv", [
    ["uncertainty", "--dim", "4096", "--state", "coherent:40,0"],
    ["uncertainty", "--dim", "4096", "--state", "coherent:50,0"],
    ["uncertainty", "--model", "swanson:0.7853981633974483", "--dim", "2", "--state", "coherent:0.0011,0"],
    ["uncertainty", "--model", "swanson:0.7853981633974483", "--dim", "3", "--state", "coherent:0.01,0"],
    ["uncertainty", "--model", "matrix2x2:1,1", "--scan", "circle:11"],
    ["weights", "--gaussian"],
])
def test_edge_states_pass_without_warnings(capsys, argv):
    # coherent:40 overflowed the coherent-state recurrence (exit 2); C_phi at
    # coherent:50 cancelled to a negative (dS)^2 (exit 2); the two quarter-turn
    # states FAILed ur1_validity against C = 1 (exit 1); the 2x2 scan and the
    # Gaussian cross-check are the other runs that must pass without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 0, out + err


@pytest.mark.parametrize("argv, margin", [
    (["--alpha", "1e308"], "margin inf"),
    (["--beta", "1e308"], "margin inf"),
    (["--alpha", "1e300", "--dim", "4"], "margin 2e+301"),
    (["--alpha", "3", "--beta", "3", "--dim", "256"], "margin 480"),
])
def test_semigroup_margin_past_the_dimension_exits_two(capsys, argv, margin):
    # 10 alpha sqrt(N) past the float range raised a raw OverflowError in
    # math.ceil, and 1e300 printed a 302-digit margin
    code, out, err = run(capsys, "verify-cr", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: dimension") and f"({margin} exhausts safe rank" in err


@pytest.mark.parametrize("model, dim", [("swanson:0.5", "512"), ("swanson:0.3", "1024")])
def test_verify_cr_weyl_passes_at_alpha_one_in_steps(capsys, model, dim):
    # the closed-form semigroup taken as one product (no steps) cancelled here:
    # the Weyl defect read 7.3e-12 and 3.7e-12 on its scale, false FAILs
    # against 1e-12; in 6 and 5 steps it read 5.4e-14 and 2.0e-14, and reads
    # 3.6e-16 and 4.1e-16 as the max-abs entry over max |V_S||V_T|
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify-cr", "--model", model, "--alpha", "1", "--beta", "1", "--dim", dim)
    assert code == 0, out + err
    assert "PASS weyl_defect" in out


@pytest.mark.parametrize("argv, code", [
    (["--model", "swanson:0.3", "--alpha", "3", "--beta", "3", "--dim", "2048"], 0),
    (["--model", "swanson:1.2", "--alpha", "0.3", "--beta", "0.3", "--dim", "512"], 0),
    (["--model", "swanson:0.785", "--alpha", "1", "--beta", "1", "--dim", "512"], 2),
    (["--model", "swanson:1.2", "--alpha", "1.5", "--beta", "1.5", "--dim", "1024"], 2),
])
def test_verify_cr_weyl_judges_the_block_on_its_rounding_bound(capsys, argv, code):
    # the Lanczos norm over max|V_S V_T| read 1.544e-12 and 2.628e-12 on the
    # first two, false FAILs; on max |V_S||V_T| their max-abs entries read
    # 7.4e-16 and 4.3e-16.  The last two cancel to rho = 1.2e4 and 1.0e16,
    # past what float64 can judge, so they exit 2 (the third read 2.443e-11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, out, err = run(capsys, "verify-cr", *argv)
    assert got == code, out + err
    if code == 0:
        assert "PASS weyl_defect" in out
    else:
        assert out == ""
        assert err.startswith("error: the Weyl block at N = ") and "cancellation ratio rho = " in err


def test_verify_cr_past_the_float_range_of_a_semigroup_exits_2(capsys):
    # semigroup_band leaves a band while 10 a sqrt(N) < N, but exp(a S) leaves
    # the float range once a sqrt(N) passes about 709, so from N of about 7100
    # on some a reaches both: the run exits 2 naming the semigroup, rather than
    # forming N diagonals of inf and NaN (here 7500^2 complex entries, 0.9 GB)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify-cr", "--model", "boson", "--alpha", "8.6", "--dim", "7500")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the semigroup of S at alpha = 8.6: exp(z a) at |z| = 8.6, N = 7500 "
                          "leaves the float range: its diagonal ")


@pytest.mark.parametrize("model", ["boson", "swanson:0.3"])
def test_verify_cr_weak_defect_is_relative_to_its_scale(capsys, tmp_path, model):
    # the absolute weak defect of swanson:0.3 is 1.137e-12 here, past the
    # tol of 1e-12, while the entries of S T it cancels reach 1.7e3 (2.0e3 for the boson)
    out_file = tmp_path / "cr.json"
    code, out, _ = run(capsys, "verify-cr", "--model", model, "--dim", "2048", "--out", str(out_file))
    assert code == 0, out
    report = json.loads(out_file.read_text())
    results, check = report["results"], report["checks"][0]
    assert results["weak_scale"] > 1000
    assert check["name"] == "weak_defect"
    assert check["value"] == results["weak_defect"] / results["weak_scale"]


@pytest.mark.parametrize("model", ["boson", "swanson:0.3"])
def test_verify_cr_weyl_defect_is_relative_to_its_scale(capsys, tmp_path, model):
    out_file = tmp_path / "cr.json"
    code, out, _ = run(capsys, "verify-cr", "--model", model, "--out", str(out_file))
    assert code == 0, out
    report = json.loads(out_file.read_text())
    results, check = report["results"], report["checks"][2]
    assert results["weyl_scale"] >= 1.0
    assert 1.0 <= results["weyl_cancellation"] < 3.0  # rho, beside the scale
    assert check["name"] == "weyl_defect"
    assert check["value"] == results["weyl_defect"] / results["weyl_scale"]
    assert report["tolerances"] == {"weak": 1e-12, "quasi_strong": 1e-12, "weyl": 1e-12}
    run(capsys, "verify-cr", "--model", model, "--tol", "1e-3", "--out", str(out_file))
    assert json.loads(out_file.read_text())["tolerances"] == dict.fromkeys(["weak", "quasi_strong", "weyl"], 1e-3)


@pytest.mark.parametrize("model", ["boson", "swanson:0.3"])
def test_verify_cr_weyl_defect_fails_a_broken_relation(capsys, monkeypatch, model):
    # scaling T by 1 + 1e-6 breaks [S, T] = 1 by 1e-6; the absolute Weyl
    # defect read 7.8e-8 (boson), a PASS against the absolute tol of 1e-6 it had
    def broken(theta, n):
        pair = swanson_pair(theta, n)
        return OperatorPair(pair.S, TruncatedOperator.banded((pair.T.band.lo, (1 + 1e-6) * pair.T.band.diagonals)))

    monkeypatch.setattr(fock, "swanson_pair", broken)
    code, out, _ = run(capsys, "verify-cr", "--model", model)
    assert code == 1
    assert "FAIL weyl_defect" in out


@pytest.mark.parametrize("model", ["boson", "swanson:0.3"])
def test_verify_cr_quasi_strong_defect_is_relative_to_its_scale(capsys, tmp_path, model):
    out_file = tmp_path / "cr.json"
    code, out, _ = run(capsys, "verify-cr", "--model", model, "--dim", "2048", "--out", str(out_file))
    assert code == 0, out
    report = json.loads(out_file.read_text())
    results, check = report["results"], report["checks"][1]
    assert results["quasi_strong_scale"] > 500
    assert check["name"] == "quasi_strong_defect"
    assert check["value"] == results["quasi_strong_defect"] / results["quasi_strong_scale"]
    assert check["tol"] == 1e-12


@pytest.mark.parametrize("model", ["boson", "swanson:0.3"])
def test_verify_cr_quasi_strong_defect_fails_a_broken_relation(capsys, monkeypatch, model):
    # scaling T by 1 + 1e-9 breaks [S, T] = 1 by 1e-9; the absolute
    # quasi-strong defect read 1.7e-9 (boson), a PASS against the absolute
    # tol of 1e-8 it had
    def broken(theta, n):
        pair = swanson_pair(theta, n)
        return OperatorPair(pair.S, TruncatedOperator.banded((pair.T.band.lo, (1 + 1e-9) * pair.T.band.diagonals)))

    monkeypatch.setattr(fock, "swanson_pair", broken)
    code, out, _ = run(capsys, "verify-cr", "--model", model, "--dim", "2048")
    assert code == 1
    assert "FAIL quasi_strong_defect" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("expr", ["1" + "0" * 310 + " S", "1" + "0" * 306 + " S^3 T^3", "2^3000 S T"],
                         ids=["coefficient", "term", "power"])
def test_normal_order_past_the_float_range_passes(capsys, expr):
    # the dense float check exited 2 on each: 10^310 and 2^3000 have no float,
    # and the term 10^306 S^3 T^3 overflowed at dimension 32
    code, out, err = run(capsys, "normal-order", expr)
    assert code == 0, err
    assert "PASS fock_soundness" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normal_order_denominator_of_the_probe_prime_exits_two(capsys):
    # the exact check reads coefficients mod 2147483629, where 1/2147483629 has no value
    code, out, err = run(capsys, "normal-order", "S/2147483629")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the coefficient of 'S' has a denominator divisible by 2147483629")
    assert "Traceback" not in err


def test_normal_order_has_no_tol(capsys):
    # its check is exact, so there is no tolerance to override
    with pytest.raises(SystemExit) as exc:
        main(["normal-order", "S", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["(" * 250 + "S" + ")" * 250], ["--", "S + " + "-" * 2000 + "S"]],
                         ids=["parentheses", "unary_minus"])
def test_normal_order_nested_too_deeply_exits_two(capsys, argv):
    # both ran past the interpreter's recursion limit as a raw RecursionError
    code, _, err = run(capsys, "normal-order", *argv)
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("expr", ["1" + "0" * 5000 + " S", "10^5000", "(10^2000)^3 S"],
                         ids=["literal", "power", "power_of_a_group"])
def test_normal_order_past_the_int_digit_limit_exits_two(capsys, expr):
    # the literal cannot be read and the two powers cannot be printed as
    # decimal text (sys.get_int_max_str_digits()); all three were a raw ValueError
    code, _, err = run(capsys, "normal-order", expr)
    assert code == 2
    assert err.startswith("error: ") and "digits" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, reason",
    [(["weights", "--alpha", "2", "--seed", "-1"], "--seed"),
     (["normal-order", "S T", "--seed", "-1"], "--seed"),
     (["uncertainty", "--out", "{missing}/x.json"], "cannot write"),
     (["verify-cr", "--dim", "32", "--out", "{missing}/x.json"], "cannot write"),
     (["weights", "--alpha", "16001.5"], "too large"),
     (["weights", "--alpha", "1e20"], "too large"),
     (["weights", "--alpha", "1e300"], "too large"),
     (["weights", "--alpha", "1e308"], "too large"),
     (["normal-order", "S", "--profile", ""], "bad profile"),
     (["uncertainty", "--scan", "coherent:2x2", "--state", "basis:2", "--dim", "64"],
      "choose one of --scan or --state"),
     (["uncertainty", "--model", "matrix2x2:1,1", "--scan", "circle:3", "--state", "t:0.3"],
      "choose one of --scan or --state"),
     (["uncertainty", "--model", "matrix2x2:1,1", "--dim", "7"], "the 2x2 model has dimension 2"),
     (["uncertainty", "--dim", "2", "--scan", "coherent:0x0"], "probes e0..e4 need dimension >= 5, got 2")],
    ids=["weights_seed", "normal_order_seed", "uncertainty_out", "verify_cr_out",
         "alpha_past_the_bound", "alpha_1e20", "alpha_1e300", "alpha_1e308", "empty_profile",
         "swanson_scan_and_state", "matrix2x2_scan_and_state", "matrix2x2_dim", "swanson_scan_below_the_probes"],
)
def test_edge_input_exits_two(capsys, tmp_path, argv, reason):
    # each was a raw traceback: default_rng's ValueError for a negative seed,
    # FileNotFoundError for --out in a missing directory, rng.integers past
    # int64 at alpha 1e20 and 1e300, and lgamma's OverflowError at 1e308;
    # a --state beside --scan was left unused while the scan exited 0, as was
    # a --dim given to the 2x2 model, and a scan at --dim 2 named basis index 2
    code, _, err = run(capsys, *(a.format(missing=tmp_path / "missing") for a in argv))
    assert code == 2
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normal_order_past_the_degree_cap_exits_two(capsys, monkeypatch):
    # the cap acts before any rewrite
    def forbidden(*args, **kwargs):
        raise AssertionError("the rewrite ran past the cap")

    monkeypatch.setattr(algebra, "normal_order", forbidden)
    code, out, err = run(capsys, "normal-order", "S^1100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: expression of degree 1100 is too large") and "at most 1024" in err


def test_normal_order_soundness_check_holds_one_sum_at_a_time(capsys):
    # the check once kept both sums of the first pair, as views of whole dim x dim
    # arrays, while it formed the second pair's: two arrays past fock_eval's own peak
    import tracemalloc

    text, dim = "T^64 S^64", 256  # canonical already, at twice its degree
    assert run(capsys, "normal-order", text)[0] == 0  # and loads the layers first
    peaks = []
    for evaluate in (lambda: algebra.fock_eval(parse_to_poly(text), swanson_pair(0.0, dim)),
                     lambda: run(capsys, "normal-order", text)):
        tracemalloc.start()
        try:
            evaluate()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    own, check = peaks
    assert check < own + 16 * dim * dim  # one complex dim x dim array


def test_normal_order_degree_cap_admits_its_degree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_NORMAL_ORDER_DEGREE", 32)
    assert run(capsys, "normal-order", "S^32")[0] == 0
    code, _, err = run(capsys, "normal-order", "S^33")
    assert code == 2 and "at most 32" in err


def test_weights_alpha_bound_is_the_suite_degree(capsys, monkeypatch):
    # the bound holds the largest integer below 2 alpha - 3/2, so 3.25 (degree 4) passes at
    # bound 4 and 3.3 (degree 5) does not
    monkeypatch.setattr(cli, "MAX_SUITE_DEGREE", 4)
    assert run(capsys, "weights", "--alpha", "3.25")[0] == 0
    code, _, err = run(capsys, "weights", "--alpha", "3.3")
    assert code == 2 and "at most 4" in err


def test_verify_cr_weak_defect_still_fails_a_broken_relation(capsys, monkeypatch):
    # scaling S by 1 + 1e-6 breaks [S, T] = 1 by 1e-6 on every diagonal entry
    def broken(theta, n):
        pair = swanson_pair(theta, n)
        return OperatorPair(TruncatedOperator.banded((pair.S.band.lo, (1 + 1e-6) * pair.S.band.diagonals)), pair.T)

    monkeypatch.setattr(fock, "swanson_pair", broken)
    code, out, _ = run(capsys, "verify-cr", "--model", "swanson:0.3", "--dim", "2048")
    assert code == 1
    assert "FAIL weak_defect" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scan", [[], ["--scan", "circle:11"]])
def test_matrix2x2_with_an_infinite_commutator_exits_two(capsys, scan):
    # s q = 1e400 overflowed inside the banded [S, T] before the typed error
    code, out, err = run(capsys, "uncertainty", "--model", "matrix2x2:1e200,1e200", *scan)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the 2x2 model needs a finite product s q")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scan", [[], ["--scan", "circle:11"]])
@pytest.mark.parametrize("model", ["matrix2x2:1e200,1e-200", "matrix2x2:1e-200,1e200", "matrix2x2:1e300,1"])
def test_matrix2x2_with_an_overflowing_square_exits_two(capsys, model, scan):
    # s q is finite, but |S xi|^2 = |s|^2 |phi_2|^2 overflowed in the norm:
    # a false PASS with ur1_validity = -inf, or a FAIL with None values
    code, out, err = run(capsys, "uncertainty", "--model", model, *scan)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the 2x2 model needs finite |s|^2 and |q|^2")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scan", [[], ["--scan", "circle:11"]])
def test_matrix2x2_at_a_large_finite_square_passes(capsys, scan):
    code, out, err = run(capsys, "uncertainty", "--model", "matrix2x2:1e150,1e-150", *scan)
    assert code == 0, out + err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, state, discrepancy, scale", [
    ("matrix2x2:1e5,1", "t:0.3", 3.637978807091713e-12, 1e5),
    ("matrix2x2:1e150,1e-150", "t:0.7", 9.085484053695086e133, 1e150),
    ("matrix2x2:0,0", "t:0.3", 0.0, 0.0),
])
def test_matrix2x2_closed_form_discrepancy_is_judged_on_the_pair_scale(capsys, tmp_path, model, state,
                                                                       discrepancy, scale):
    # the deltas are |s| or |q| times numbers in [0, 1]; the first two read
    # 3.6e-12 and 9.1e133 against an absolute 1e-12, false FAILs.  At (0, 0)
    # the scale is 0 and the discrepancy exactly 0.0, which the check reads as is
    out_file = tmp_path / "m.json"
    code, out, err = run(capsys, "uncertainty", "--model", model, "--state", state, "--out", str(out_file))
    assert code == 0, out + err
    report = json.loads(out_file.read_text())
    assert report["results"]["closed_form_discrepancy"] == discrepancy
    assert report["results"]["closed_form_scale"] == scale
    check = report["checks"][0]
    assert check["name"] == "closed_form_discrepancy"
    assert check["value"] == (discrepancy / scale if scale else 0.0)


@pytest.mark.parametrize("t, code", [("0.3", 1), ("0.5", 0), ("0.9", 1)])
def test_matrix2x2_closed_form_with_the_weights_swapped_fails(capsys, monkeypatch, t, code):
    # a closed form with p1 and p2 swapped is right only at t = 1/2, where p1 = p2
    real = uncertainty._matrix2x2_values

    def swapped(s, q, phis, tol):
        values = []
        for (phi1, phi2), (deltas, _, _, *rest) in zip(phis, real(s, q, phis, tol)):
            p1, p2 = abs(phi2) ** 2, abs(phi1) ** 2
            closed = (abs(s) * p2, abs(s) * p1, abs(q) * p1, abs(q) * p2)
            values.append((deltas, closed, max(abs(a - b) for a, b in zip(closed, deltas)), *rest))
        return values

    monkeypatch.setattr(uncertainty, "_matrix2x2_values", swapped)
    got, out, _ = run(capsys, "uncertainty", "--model", "matrix2x2:1e5,2", "--state", f"t:{t}")
    assert got == code
    assert ("FAIL closed_form_discrepancy" in out) == (code == 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scan", [[], ["--scan", "circle:11"]])
def test_matrix2x2_with_an_overflowing_ur1_bound_exits_two(capsys, scan):
    # |s|^2 and s q are finite, but 2 max(dS, dS') max(dT, dT') = 2e308 is not:
    # a PASS with ur1_validity = -inf, and inf gaps in the scan rows
    code, out, err = run(capsys, "uncertainty", "--model", "matrix2x2:1e154,1e154", *scan)
    assert code == 2
    assert out == ""
    assert err == "error: the UR1 bound 2 max(dS, dS') max(dT, dT') overflows the float range\n"
