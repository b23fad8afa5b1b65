"""Command-line front end.

Subcommands drive the five compute layers and emit machine-readable reports:

    verify-cr     defect table for the weak / quasi-strong / Weyl relations
    ladder        eigenvector ladder, biorthogonality, intertwiners
    weights       the weighted-L2 realization (rational or Gaussian weight)
    normal-order  canonical form, regularity verdict, exact check of the rewrite
    uncertainty   delta reports, UR1/UR2, saturation scans

Every subcommand accepts --out report.json (scans also --out report.csv);
each but normal-order, whose check is exact, accepts --tol to override check
tolerances; weights and normal-order, whose suites are randomized, also
accept --seed.
Exit status is 0 when every check passes, 1 when a check fails, and 2 for a
bad argument or a failed precondition; reports are byte-identical across
runs with identical inputs.

Each subcommand imports the layers it drives when it runs, so a call loads
only those: compiling a layer module costs more than most subcommands' work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import WeakCRError


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


class Report:
    """Accumulates a payload plus named pass/fail checks (and scan rows for .csv)."""

    def __init__(self, command, params, tolerances):
        self.data = {
            "schema": 1,
            "tool": {"name": "weakcr", "version": __version__},
            "command": command,
            "params": _json_safe(params),
            "tolerances": _json_safe(tolerances),
            "results": {},
            "checks": [],
        }
        self.scan_rows = None

    def result(self, key, value):
        self.data["results"][key] = _json_safe(value)

    def check(self, name, value, tol, passed=None):
        if passed is None:
            passed = bool(value < tol)
        entry = {"name": name, "value": _json_safe(value), "tol": tol, "pass": bool(passed)}
        self.data["checks"].append(entry)
        return entry["pass"]

    def finalize(self):
        failures = [c["name"] for c in self.data["checks"] if not c["pass"]]
        self.data["failures"] = failures
        self.data["pass"] = not failures
        return self.data


def _print_checks(report):
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        value = c["value"]
        shown = f"{value:.3e}" if isinstance(value, float) else value
        print(f"{status} {c['name']} = {shown} (tol {c['tol']:g})")
    print("result:", "PASS" if report["pass"] else "FAIL")
    if report["failures"]:
        print(json.dumps({"failures": report["failures"]}), file=sys.stderr)


def _check_out(args):
    """Reject an --out the report cannot be written as, before any work is done."""
    path = args.out
    if path is None or path.endswith(".json"):
        return
    if not path.endswith(".csv"):
        raise WeakCRError(f"unsupported output extension in {path!r} (use .json or .csv)")
    if not getattr(args, "scan", None):
        raise WeakCRError("CSV output is available for scan tables only")


def _write_out(report, path, scan_rows=None):
    """Write the report to a path ``_check_out`` accepted (.csv only with scan rows)."""
    if path is None:
        return
    try:
        if path.endswith(".json"):
            with open(path, "w") as fh:
                fh.write(json.dumps(report, sort_keys=True, indent=2))
                fh.write("\n")
        else:
            import csv

            columns, rows = scan_rows
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=columns)
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: _json_safe(v) for k, v in row.items()})
    except OSError as exc:  # a missing directory, no permission, a full disk
        raise WeakCRError(f"cannot write the report to {path!r}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _bad_value(kind, text, forms):
    """Turn a ValueError while reading ``text`` into a WeakCRError naming it."""
    try:
        yield
    except ValueError:
        raise WeakCRError(f"bad {kind} {text!r} (expected {forms})") from None


def _tolerances(args, **defaults):
    """The command's default tolerances, each replaced by --tol when it is given."""
    if args.tol is None:
        return defaults
    if not args.tol > 0:
        raise WeakCRError(f"--tol must be a positive number, got {args.tol:g}")
    return dict.fromkeys(defaults, args.tol)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_model(text):
    forms = "boson, swanson:t, matrix2x2:s,q"
    name, _, arg = text.partition(":")
    with _bad_value("model", text, forms):
        if name == "boson":
            return ("swanson", (0.0,))
        if name == "swanson":
            return ("swanson", (_finite(arg or 0.0),))
        if name == "matrix2x2":
            s, q = (_finite(v) for v in arg.split(","))
            return ("matrix2x2", (s, q))
    raise WeakCRError(f"unknown model {text!r} (expected {forms})")


def _swanson_theta(args):
    """The angle theta of the boson (0) or swanson pair that --model names."""
    kind, params = _parse_model(args.model)
    if kind != "swanson":
        raise WeakCRError(f"{args.command} supports the boson and swanson models")
    return params[0]


def _parse_state(text, dim):
    from .fock import basis_state, coherent_state

    forms = "coherent:re,im or basis:k"
    kind, _, arg = text.partition(":")
    with _bad_value("state", text, forms):
        if kind == "coherent":
            parts = (arg or "0").split(",")
            if len(parts) > 2:
                raise ValueError(arg)
            re_s, im_s = (parts + ["0"])[:2]
            return coherent_state(complex(_finite(re_s), _finite(im_s)), dim)
        if kind == "basis":
            return basis_state(int(arg), dim)
    raise WeakCRError(f"unknown state {text!r} (expected {forms})")


def _parse_gridspec(text):
    forms = "coherent:NxM or circle:K"
    kind, _, arg = text.partition(":")
    with _bad_value("grid", text, forms):
        if kind == "coherent":
            nx, _, ny = arg.partition("x")
            counts = (int(nx), int(ny or nx))
            if min(counts) < 0:
                raise ValueError(arg)
            return ("coherent", *counts)
        if kind == "circle":
            count = int(arg or 11)
            if count < 2:
                raise ValueError(arg)
            return ("circle", count)
    raise WeakCRError(f"unknown grid {text!r} (expected {forms})")


# ---------------------------------------------------------------------------
# subcommands: each computes, prints its summary lines and returns its Report
# ---------------------------------------------------------------------------


def cmd_verify_cr(args):
    from .fock import quasi_strong_with_scale, swanson_pair, weak_with_scale, weyl_with_scale

    pair = swanson_pair(_swanson_theta(args), args.dim)
    tols = _tolerances(args, weak=1e-12, quasi_strong=1e-12, weyl=1e-12)
    report = Report(
        "verify-cr",
        {"model": args.model, "dim": args.dim, "alpha": args.alpha, "beta": args.beta},
        tols,
    )
    wd, ws = weak_with_scale(pair)
    qd, qs = quasi_strong_with_scale(pair, args.alpha)
    yd, ys = weyl_with_scale(pair, args.alpha, args.beta)
    report.result("weak_defect", wd)
    report.result("weak_scale", ws)
    report.result("quasi_strong_defect", qd)
    report.result("quasi_strong_scale", qs)
    report.result("weyl_defect", yd)
    report.result("weyl_scale", ys)
    # the entries of S T, V_S T and V_S V_T that the defects cancel grow
    # with N, so their rounding is judged relative to them
    report.check("weak_defect", wd / ws, tols["weak"])
    report.check("quasi_strong_defect", qd / qs, tols["quasi_strong"])
    report.check("weyl_defect", yd / ys, tols["weyl"])
    print(f"model {args.model} at dimension {args.dim}:")
    print(f"  weak defect          {wd:.3e}")
    print(f"  quasi-strong defect  {qd:.3e}  (alpha={args.alpha:g})")
    print(f"  weyl defect          {yd:.3e}  (alpha={args.alpha:g}, beta={args.beta:g})")
    return report


def cmd_ladder(args):
    from dataclasses import asdict

    from .fock import swanson_pair
    from .ladder import (
        biorthogonality_gram,
        build_ladder,
        eigen_check,
        intertwiners,
        kernel_vector,
        residuals_monotone,
        restricted_spectrum,
        tail_mass_membership,
    )

    tols = _tolerances(args, residual=1e-8, gram=1e-7, intertwiner=1e-6)
    pair = swanson_pair(_swanson_theta(args), args.dim)
    xi0, eta0 = kernel_vector(pair.S), kernel_vector(pair.T.adjoint())
    member = tail_mass_membership(pair.safe_rank)
    fam_xi = build_ladder(pair.T, xi0, args.length, member=member)
    fam_eta = build_ladder(pair.S.adjoint(), eta0, args.length, member=member)
    residuals = eigen_check(pair, fam_xi)
    gram = biorthogonality_gram(fam_xi, fam_eta)
    gram_defect = float(np.max(np.abs(gram - np.eye(*gram.shape))))
    K = intertwiners(pair, fam_xi, fam_eta)
    evals = restricted_spectrum(pair, fam_xi)
    spectrum_defect = float(np.max(np.abs(evals - np.arange(len(fam_xi)))))

    report = Report(
        "ladder",
        {"model": args.model, "dim": args.dim, "len": args.length},
        tols,
    )
    report.result("ladder_length", len(fam_xi))
    report.result("stop_reason", fam_xi.stop_reason)
    report.result("eigen_residuals", residuals)
    report.result("residuals_monotone", residuals_monotone(residuals))
    report.result("gram_defect", gram_defect)
    report.result("restricted_spectrum", [v.real for v in evals])
    for key, value in asdict(K).items():
        report.result(key, value)
    report.check("max_eigen_residual", max(residuals), tols["residual"])
    report.check("gram_defect", gram_defect, tols["gram"])
    report.check("spectrum_defect", spectrum_defect, tols["intertwiner"])
    report.check("inverse_defect", K.inverse_defect, tols["intertwiner"])
    report.check(
        "intertwining_defect",
        max(K.intertwining_defect_eta, K.intertwining_defect_xi),
        tols["intertwiner"],
    )
    print(f"ladder of length {len(fam_xi)} ({fam_xi.stop_reason})")
    print("  eigen residuals:", " ".join(f"{r:.2e}" for r in residuals))
    print(f"  spectrum: {[round(float(v.real), 6) for v in evals]}")
    return report


def _rng(seed):
    """The generator of a randomized suite; --seed must be >= 0."""
    if seed < 0:
        raise WeakCRError(f"--seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


#: the highest degree n_max < 2 alpha - 3/2 ``weights`` draws (alpha up to 16001.25);
#: each pairing convolves coefficient arrays of about twice that length
MAX_SUITE_DEGREE = 32000


def _weights_suite(weight, rng):
    """Eight random draws of admissible polynomial pairs for the weak-relation defect."""
    from .weights import PolyFunc, ladder_length, monomial

    max_deg = ladder_length(weight.alpha).n_max if weight.kind == "rational" else 6
    pairs = []
    for _ in range(8):
        df = int(rng.integers(0, max_deg + 1))
        dg = int(rng.integers(0, max_deg + 1))
        if not weight.moment_is_finite(df + dg + 2):
            continue
        f = PolyFunc(tuple(rng.uniform(-2, 2, df + 1) + 1j * rng.uniform(-2, 2, df + 1)))
        g = PolyFunc(tuple(rng.uniform(-2, 2, dg + 1) + 1j * rng.uniform(-2, 2, dg + 1)))
        if f.is_zero() or g.is_zero():
            continue
        pairs.append((f, g))
    pairs.append((monomial(0), monomial(0)))
    return pairs


def cmd_weights(args):
    from .weights import (
        MomentTable,
        gaussian_eigen_check,
        gaussian_weight,
        ladder_length,
        rational_weight,
        weak_cr_check,
    )

    if args.gaussian == (args.alpha is not None):
        raise WeakCRError("choose exactly one of --alpha or --gaussian")
    weight = gaussian_weight() if args.gaussian else rational_weight(args.alpha)
    if not args.gaussian and 2.0 * args.alpha - 1.5 > MAX_SUITE_DEGREE + 1:
        raise WeakCRError(
            f"--alpha {args.alpha:g} is too large: the suite's polynomial degree, the largest "
            f"integer below 2 alpha - 3/2, may be at most {MAX_SUITE_DEGREE}"
        )
    tols = _tolerances(args, weak_cr=1e-8)
    rng = _rng(args.seed)
    report = Report(
        "weights",
        {"alpha": args.alpha, "gaussian": args.gaussian, "seed": args.seed},
        tols,
    )
    table = MomentTable.build(weight, 8)
    report.result("moments", list(table.values))

    defects = [weak_cr_check(weight, f, g) for f, g in _weights_suite(weight, rng)]
    report.result("weak_cr_defects", defects)
    report.check("max_weak_cr_defect", max(defects), tols["weak_cr"])

    odd = max(abs(table.values[k]) for k in (1, 3, 5, 7) if table.values[k] != math.inf)
    report.check("odd_moments_zero", odd, 1e-15, passed=odd == 0.0)

    if args.gaussian:
        checks = [gaussian_eigen_check(k) for k in range(11)]
        report.result("eigen_symbolic_residuals", [c.symbolic_residual for c in checks])
        report.result("eigen_quadrature_residuals", [c.quadrature_residual for c in checks])
        report.check(
            "eigen_symbolic_exact",
            max(c.symbolic_residual for c in checks),
            1e-15,
            passed=all(c.symbolic_residual == 0.0 for c in checks),
        )
        report.check(
            "eigen_quadrature_residual",
            max(c.quadrature_residual for c in checks),
            1e-10,
        )
        print("gaussian weight: x^k eigenfunction checks k=0..10")
    else:
        ladder = ladder_length(args.alpha)
        report.result("n_max", ladder.n_max)
        report.result("dim_N0", ladder.dim_N0)
        report.result("strict_bound", ladder.strict_bound)
        report.result("floor_formula_dim", ladder.floor_formula_dim)
        report.result("boundary_discrepancy", ladder.boundary_discrepancy)
        report.check(
            "constructive_below_strict_bound",
            float(ladder.n_max),
            ladder.strict_bound,
            passed=ladder.n_max < ladder.strict_bound,
        )
        flag = " (flagged: floor formula disagrees)" if ladder.boundary_discrepancy else ""
        print(
            f"alpha={args.alpha:g}: n_max={ladder.n_max} dim_N0={ladder.dim_N0} "
            f"strict bound {ladder.strict_bound:g}, floor formula {ladder.floor_formula_dim}{flag}"
        )
    return report


#: the highest degree ``normal-order`` takes, for time: its exact check applies about
#: degree^2 / 2 letters per probe, and took 4.0-5.9 s of S^512 T^512's 4.1-6.1 s in
#: process over four runs, against 14-16 ms for normal ordering
MAX_NORMAL_ORDER_DEGREE = 1024


def cmd_normal_order(args):
    from .algebra import PowerProfile, UNBOUNDED, format_word, is_regular, normal_order, probe_mismatches, render
    from .expr import parse_to_poly

    rng = _rng(args.seed)
    poly = parse_to_poly(args.expr)
    if poly.degree > MAX_NORMAL_ORDER_DEGREE:
        raise WeakCRError(
            f"expression of degree {poly.degree} is too large: the degree may be at most "
            f"{MAX_NORMAL_ORDER_DEGREE}"
        )
    profile = PowerProfile.unbounded()
    if args.profile is not None:
        with _bad_value("profile", args.profile, "nonincreasing m0,m1,... >= 0, 'inf' for unbounded"):
            entries = [UNBOUNDED if v in ("inf", "oo") else int(v) for v in args.profile.split(",")]
            profile = PowerProfile(entries)
    canonical = normal_order(poly)
    text = render(canonical)
    # the rewrite must hold for every pair satisfying the relations; checked
    # before the print, so a coefficient the check cannot read prints nothing
    mismatches = probe_mismatches(poly, canonical, rng)
    print(text)
    verdict = is_regular(canonical, profile)

    report = Report("normal-order", {"expr": args.expr, "profile": args.profile, "seed": args.seed}, {})
    report.result("canonical", text)
    report.result("regular", verdict.ok)
    report.result("witness", format_word(verdict.witness) if verdict.witness else None)
    report.check("fock_soundness", mismatches, 0, passed=mismatches == 0)
    if verdict.ok:
        print("regular: yes")
    else:
        print(f"regular: no (witness {format_word(verdict.witness)})")
    return report


def cmd_uncertainty(args):
    from .fock import swanson_pair
    from .uncertainty import _swanson_state, coherent_grid_states, matrix2x2_report, saturation_scan

    kind, params = _parse_model(args.model)
    tols = {**_tolerances(args, saturation=1e-6), "validity": 1e-8}
    tol = tols["saturation"]
    report = Report(
        "uncertainty",
        {"model": args.model, "dim": args.dim, "scan": args.scan, "state": args.state},
        tols,
    )
    if args.scan:
        grid = _parse_gridspec(args.scan)
        if kind == "swanson":
            if grid[0] != "coherent":
                raise WeakCRError("swanson scans use coherent:NxM grids")
            states = coherent_grid_states(args.dim, nx=grid[1], ny=grid[2])
            table = saturation_scan("swanson", params, dim=args.dim, states=states, tol=tol)
        else:
            if grid[0] != "circle":
                raise WeakCRError("matrix2x2 scans use circle:K grids")
            ts = [i / (grid[1] - 1) for i in range(grid[1])]
            table = saturation_scan("matrix2x2", params, grid=ts, tol=tol)
        report.result("summary", table.summary)
        report.result("rows", table.rows)
        report.check("min_ur1_gap", -table.summary["min_ur1_gap"], 1e-8)
        report.check("min_ur2_gap", -table.summary["min_ur2_gap"], 1e-8)
        report.scan_rows = (table.columns, table.rows)
        print(f"scan of {table.model}: {len(table.rows)} rows")
        for key, value in table.summary.items():
            print(f"  {key}: {value}")
        return report
    if kind == "swanson":
        theta = params[0]
        pair = swanson_pair(theta, args.dim)
        xi = _parse_state(args.state or "coherent:0,0", args.dim)
        closed, u1, u2 = _swanson_state(theta, pair, xi, tol)
        deltas, discrepancy, discrepancy_tol = closed.matrix_deltas, closed.matrix_discrepancy, tol
        report.result("closed_form_deltas", list(closed.deltas.as_tuple()))
        report.result("C_phi", closed.moments.C_phi)
        report.result("E_phi", closed.moments.E_phi)
        report.result("ur1", {"lhs": u1.lhs, "rhs": u1.rhs, "gap": u1.gap, "saturated": u1.saturated})
        report.result("ur2", {"lhs": u2.lhs, "rhs": u2.rhs, "gap": u2.gap, "saturated": u2.saturated,
                              "cross_defect": u2.cross_condition_defect})
        print(f"deltas (dS, dS', dT, dT'): {tuple(round(d, 9) for d in deltas.as_tuple())}")
        print(f"UR1 gap {u1.gap:.3e} saturated={u1.saturated}; UR2 gap {u2.gap:.3e} saturated={u2.saturated}")
    else:
        s, q = params
        state = args.state or "t:1"
        skind, _, sval = state.partition(":")
        if skind != "t":
            raise WeakCRError("matrix2x2 states are given as t:<value in [0,1]>")
        with _bad_value("state", state, "t:<value in [0,1]>"):
            t = float(sval)
            if not 0.0 <= t <= 1.0:
                raise ValueError(sval)
        m = matrix2x2_report(s, q, math.sqrt(t), math.sqrt(1.0 - t), tol=tol)
        deltas, discrepancy, discrepancy_tol, u1, u2 = m.deltas, m.closed_form_discrepancy, 1e-12, m.ur1, m.ur2
        report.result("ur1", {"gap": u1.gap, "saturated": u1.saturated})
        report.result("ur2", {"gap": u2.gap, "saturated": u2.saturated})
        report.result("ur1_condition", {"value": m.ur1_condition_value, "met": m.ur1_condition_met})
        report.result("ur2_condition", {"value": m.ur2_condition_value, "met": m.ur2_condition_met})
        print(f"deltas: {deltas.as_tuple()}")
        print(f"saturation conditions: |p1-p2|={m.ur1_condition_value:g} (met={m.ur1_condition_met}), "
              f"max-sqrt={m.ur2_condition_value:g} (met={m.ur2_condition_met})")
    report.result("deltas", list(deltas.as_tuple()))
    report.result("closed_form_discrepancy", discrepancy)
    report.check("closed_form_discrepancy", discrepancy, discrepancy_tol)
    report.check("ur1_validity", -u1.gap, 1e-8)
    report.check("ur2_validity", -u2.gap, 1e-8)
    return report


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakcr",
        description="Normal ordering and numerical verification for pairs with [S,T] = 1 in weak sense.",
        epilog=(
            "Expression syntax: generators S, T and their adjoints S', T'; "
            "imaginary unit i; numbers (integers, decimals); operators + - * / ^ "
            "with juxtaposition as product ('S T' is the word ST) and '/' allowed "
            "only by scalar subexpressions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"weakcr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--out", help="write the report to a .json (or, for scans, .csv) file")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="override check tolerances")

    p = sub.add_parser("verify-cr", help="defect table for the three commutation-relation forms")
    p.add_argument("--model", default="boson", help="boson or swanson:<theta>")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--alpha", type=float, default=0.1, help="semigroup parameter")
    p.add_argument("--beta", type=float, default=0.1, help="second semigroup parameter")
    common(p)
    p.set_defaults(func=cmd_verify_cr)

    p = sub.add_parser("ladder", help="eigenvector ladder and intertwiner diagnostics")
    p.add_argument("--model", default="swanson:0.3")
    p.add_argument("--dim", type=int, default=96)
    p.add_argument("--len", dest="length", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("weights", help="weighted-L2 realization checks")
    p.add_argument("--alpha", type=float, default=None, help="rational weight exponent (> 3/4)")
    p.add_argument("--gaussian", action="store_true", help="use the Gaussian weight")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("normal-order", help="canonical form of an operator expression")
    p.add_argument("expr", help="expression over S, T, S', T', e.g. \"S^2 T - T S^2\"")
    p.add_argument("--profile", help="power profile m0,m1,... (use 'inf' for unbounded)")
    common(p, tol=False)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.set_defaults(func=cmd_normal_order)

    p = sub.add_parser("uncertainty", help="delta reports, UR1/UR2, saturation scans")
    p.add_argument("--model", default="swanson:0", help="boson, swanson:<theta>, or matrix2x2:<s>,<q>")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--state", help="coherent:re,im | basis:k | t:<value> (2x2 model)")
    p.add_argument("--scan", help="coherent:NxM (boson models) or circle:K (2x2 model)")
    common(p)
    p.set_defaults(func=cmd_uncertainty)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_out(args)
        report = args.func(args)
        data = report.finalize()
        _print_checks(data)
        _write_out(data, args.out, report.scan_rows)
    except WeakCRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if data["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
