"""The four workloads, each a fixed list of seeded operations run in passes.

A workload's op list is a fixed multiset of operation shapes whose values
(coefficients, theta, alpha, states, CLI arguments) come from ``--seed``.
Fixing the shapes keeps the work the same from seed to seed, so medians
compare across seeds.  A run repeats the whole list a fixed number of
passes and takes each op's latency as the best of its passes.

Every operation is an ``Op``: ``run(api)`` makes the timed calls through the
traced ``Api`` and returns their outputs, and ``check(out)`` compares them
with the oracles, untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np
from weakcr import algebra, expr, fock, ladder, weights
from weakcr.algebra import PowerProfile

import oracles
from oracles import Mismatch, KnownFalseFail

WORKLOADS = ("rewrite", "truncation", "probe", "cli")

GENERATORS = ("S", "T", "S'", "T'")
PHI = (math.sqrt(5) - 1) / 2
SOUNDNESS_DIM = 32

# Passes.  On a shared machine the speed of the CPU swings by up to 2x for
# seconds at a time.  So each op runs once per pass, every latency is scaled
# to the reference speed by a calibration run beside it (run.py), and an op's
# latency is the median of its passes.  Latency quantiles are taken over
# every op run valued at its op's latency.  With 11 passes the 10 samples
# beyond the tail are copies of the costliest op, so the tail is that op
# (degree 12, N = 512, the N = 128 scan); cli calls take ~1 s, so cli makes
# 4 passes of its 6 calls and its tail (p58) is the 3rd-costliest call.
MIN_PASSES = {"rewrite": 11, "truncation": 11, "probe": 11, "cli": 4}
PASS_S = {"rewrite": 0.9, "truncation": 1.4, "probe": 0.9, "cli": 5.5}  # at the reference speed
# truncation spends its time in BLAS and cli in starting interpreters, whose
# slow spells differ from those of Python code
CALIBRATION = {"rewrite": "python", "truncation": "blas", "probe": "python", "cli": "interpreter"}
SHUFFLED = {"rewrite", "truncation", "probe"}  # cli keeps its order: the byte-identity repeat comes last
# the median is the 4th-cheapest N = 128 op: one theta near 0 costs ~15% more
TRUNCATION_OPS = (128, 128, 128, 128, 128, 256, 512)
TAIL_THETA = 0.3  # a tail op's cost moves up to +-10% with theta, so its theta is fixed
BLOCK_DEGREES = range(4, 12)  # every sub-round; two degree-12 ops per list
TOP_DEGREE = 12
SUBROUNDS = 12
MIXED_PER_SUBROUND = 6
CLI_NORMAL_ORDER_DEGREE = 8  # block products of degree 8 hit the known false FAIL
PROBE_ROUND = {"scan.N128": 1, "scan.N64": 6, "weak_cr": 6, "moments": 4, "gaussian": 4,
               "m2x2.scan": 4, "state": 16, "m2x2.report": 28, "ladder_length": 5}
SEMIGROUP = 0.1  # alpha = beta of the quasi-strong and Weyl defects, the CLI default
SCAN_GRID = 9
SCAN_STATES = SCAN_GRID * SCAN_GRID + 5  # the grid plus five basis states
CLI_TIMEOUT_S = 120


class Op(NamedTuple):
    shape: str
    run: Callable
    check: Callable


def rng_for(seed, *salt):
    return np.random.default_rng([seed, *salt])


def spread(seed, k, salt, lo, hi):
    """Low-discrepancy value in [lo, hi) for index k: a seeded offset plus k
    golden-ratio steps, so a run's mean cost settles faster than with draws."""
    u = (rng_for(seed, salt).random() + k * PHI) % 1.0
    return lo + (hi - lo) * u


def _gauss_int(rng, bound):
    while True:
        re, im = (int(v) for v in rng.integers(-bound, bound + 1, 2))
        if re or im:
            return re, im


def _coeff_text(c):
    return f"({c[0]}{c[1]:+d}i)"


def _power(g, n):
    return g if n == 1 else f"{g}^{n}"


# ---------------------------------------------------------------------------
# rewrite: parse -> normal_order -> is_regular -> render -> fock_eval


def block_expr(rng, degree, variant=None):
    """c S^a T^b (or the primed family) with a + b = degree, balanced.

    ``variant`` 0..3 fixes the family and which of a, b is larger at odd
    degree, whose costs differ; by default the rng picks them."""
    if variant is None:
        variant = int(rng.integers(0, 4))
    a = degree // 2 + (variant // 2) * (degree % 2)
    b = degree - a
    family = oracles.PRIMED if variant % 2 else oracles.UNPRIMED
    c = _gauss_int(rng, 3)
    text = f"{_coeff_text(c)} {_power(family[0], a)} {_power(family[1], b)}"
    word = (family[0],) * a + (family[1],) * b
    return text, {word: oracles.gauss(c)}, oracles.block_normal_form(a, b, c, family)


def mixed_expr(rng, variant=None, max_degree=4, max_terms=4):
    """Short random mixed-family words, as in the acceptance suite.

    ``variant`` fixes the number of terms and their degrees, leaving only the
    letters and coefficients to the rng; by default the rng picks them all."""
    terms = []
    count = int(rng.integers(1, max_terms + 1)) if variant is None else 1 + variant % max_terms
    for t in range(count):
        degree = int(rng.integers(0, max_degree + 1)) if variant is None else (variant + t) % (max_degree + 1)
        word = tuple(GENERATORS[i] for i in rng.integers(0, 4, degree))
        terms.append((word, _gauss_int(rng, 2)))
    text = " + ".join(" ".join((_coeff_text(c),) + w) for w, c in terms)
    parsed = oracles.merge_terms([(w, oracles.gauss(c)) for w, c in terms])
    return text, parsed, None


def rewrite_op(shape, text, parsed, normal_form, theta):
    pair = fock.swanson_pair(theta, SOUNDNESS_DIM)
    profile = PowerProfile.unbounded()

    def run(api):
        p = api.expr.parse_to_poly(text)
        q = api.algebra.normal_order(p)
        verdict = api.algebra.is_regular(q, profile)
        rendered = api.algebra.render(q)
        a = api.algebra.fock_eval(p, pair).entries
        b = api.algebra.fock_eval(q, pair).entries
        api.tracer.count("algebra.normal_order.terms_out", len(q.terms))
        api.tracer.count("algebra.fock_eval.words", len(p.terms) + len(q.terms))
        return p, q, verdict, rendered, a, b

    def check(out):
        p, q, verdict, rendered, a, b = out
        oracles.check_terms(p, parsed, "parse")
        if normal_form is not None:
            oracles.check_terms(q, normal_form, "closed-form normal order")
        oracles.check_canonical(q)
        oracles.check_terms(expr.parse_to_poly(rendered), oracles.terms_of(q), "render round trip")
        if verdict.ok != oracles.expected_regular(q):
            raise Mismatch(f"is_regular said {verdict.ok} for {rendered}")
        oracles.check_soundness(a, b, SOUNDNESS_DIM - max(p.degree, 1))

    return Op(shape, run, check)


def rewrite_round(seed, k, subrounds=SUBROUNDS):
    rng = rng_for(seed, 1, k)
    theta = float(rng.uniform(0.0, 0.6))
    ops = [rewrite_op(f"block.deg{d}", *block_expr(rng, d, j % 4), theta)
           for j in range(subrounds) for d in BLOCK_DEGREES]
    ops += [rewrite_op("mixed", *mixed_expr(rng, j), theta) for j in range(subrounds * MIXED_PER_SUBROUND)]
    # one degree-12 op per family; the costlier one is the tail
    ops += [rewrite_op(f"block.deg{TOP_DEGREE}", *block_expr(rng, TOP_DEGREE, v), theta) for v in (0, 1)]
    return ops


# ---------------------------------------------------------------------------
# truncation: defect chain and ladder stack of one swanson pair


def truncation_op(theta, n):
    def run(api):
        pair = api.fock.swanson_pair(theta, n)
        defects = (api.fock.weak_defect(pair),
                   api.fock.quasi_strong_defect(pair, SEMIGROUP),
                   api.fock.weyl_defect(pair, SEMIGROUP, SEMIGROUP))
        xi0 = api.ladder.kernel_vector(pair.S, 1e-10)
        eta0 = api.ladder.kernel_vector(pair.T.adjoint(), 1e-10)
        member = ladder.tail_mass_membership(pair.safe_rank)
        fam_xi = api.ladder.build_ladder(pair.T, xi0, 6, member=member)
        fam_eta = api.ladder.build_ladder(pair.S.adjoint(), eta0, 6, member=member)
        api.ladder.eigen_check(pair, fam_xi)
        gram = api.ladder.biorthogonality_gram(fam_xi, fam_eta)
        K = api.ladder.intertwiners(pair, fam_xi, fam_eta)
        evals = api.ladder.restricted_spectrum(pair, fam_xi)
        api.tracer.count("ladder.accepted", len(fam_xi) + len(fam_eta) - 2)
        api.tracer.count("ladder.requested", 12)
        return pair, defects, xi0, eta0, len(fam_xi), gram, K, evals

    def check(out):
        pair, (wd, qd, yd), xi0, eta0, length, gram, K, evals = out
        S, T = oracles.swanson_matrices(theta, n)
        oracles.check_close(pair.S.entries.ravel(), S.ravel(), 1e-14, "S matrix")
        oracles.check_close(pair.T.entries.ravel(), T.ravel(), 1e-14, "T matrix")
        scale = float(np.max(np.abs(S)) * np.max(np.abs(T)))
        oracles.check_relative_defect(wd, scale, 1e-12, "weak defect")
        oracles.check_relative_defect(qd, scale, 1e-10, "quasi-strong defect")
        oracles.check_relative_defect(yd, scale, 1e-10, "Weyl defect")
        oracles.check_relative_defect(float(np.linalg.norm(S @ xi0.components)), 1.0, 1e-9, "|S xi0|")
        oracles.check_relative_defect(float(np.linalg.norm(T.conj().T @ eta0.components)), 1.0, 1e-9, "|T' eta0|")
        m = min(gram.shape)
        oracles.check_relative_defect(float(np.max(np.abs(gram[:m, :m] - np.eye(m)))), 1.0, 1e-7, "Gram defect")
        oracles.check_relative_defect(K.inverse_defect, 1.0, 1e-6, "K_eta K_xi - 1")
        oracles.check_spectrum(evals, length)

    return Op(f"trunc.N{n}", run, check)


def truncation_round(seed, k):
    top = max(TRUNCATION_OPS)
    count = len(TRUNCATION_OPS)
    return [truncation_op(TAIL_THETA if n == top else spread(seed, count * k + i, 20, 0.0, 0.6), n)
            for i, n in enumerate(TRUNCATION_OPS)]


# ---------------------------------------------------------------------------
# probe: many small uncertainty and weighted-L2 calls


def scan_op(theta, n):
    def run(api):
        states = api.uncertainty.coherent_grid_states(n, nx=SCAN_GRID, ny=SCAN_GRID)
        return api.uncertainty.saturation_scan("swanson", (theta,), dim=n, states=states)

    def check(table):
        if len(table.rows) != SCAN_STATES:
            raise Mismatch(f"scan has {len(table.rows)} rows, expected {SCAN_STATES}")
        for row in table.rows:
            oracles.check_ur_gap(row["ur1_gap"], f"UR1 at {row['state']}")
            oracles.check_ur_gap(row["ur2_gap"], f"UR2 at {row['state']}")

    return Op(f"scan.N{n}", run, check)


def state_op(theta, z, n=64):
    def run(api):
        pair = api.fock.swanson_pair(theta, n)
        xi = api.fock.coherent_state(z, n)
        return (xi, api.uncertainty.delta_report(pair, xi), api.uncertainty.ur1_check(pair, xi),
                api.uncertainty.ur2_check(pair, xi), api.uncertainty.swanson_closed_form(theta, xi))

    def check(out):
        xi, report, ur1, ur2, closed = out
        want = oracles.deltas(*oracles.swanson_matrices(theta, n), xi.components)
        oracles.check_close(report.as_tuple(), want, 1e-10, "deltas")
        oracles.check_close(closed.deltas.as_tuple(), want, 1e-8, "closed-form deltas")
        oracles.check_ur_gap(ur1.gap, "UR1")
        oracles.check_ur_gap(ur2.gap, "UR2")

    return Op("state", run, check)


def matrix2x2_scan_op(s, q):
    grid = [i / 10 for i in range(11)]

    def run(api):
        return api.uncertainty.saturation_scan("matrix2x2", (s, q), grid=grid)

    def check(table):
        for row in table.rows:
            want = oracles.matrix2x2_deltas(s, q, row["t"])
            oracles.check_close((row["dS"], row["dSd"], row["dT"], row["dTd"]), want, 1e-12, "2x2 deltas")
            oracles.check_ur_gap(row["ur1_gap"], "2x2 UR1")
            oracles.check_ur_gap(row["ur2_gap"], "2x2 UR2")

    return Op("m2x2.scan", run, check)


def matrix2x2_report_op(s, q, t):
    def run(api):
        return api.uncertainty.matrix2x2_report(s, q, math.sqrt(t), math.sqrt(1.0 - t))

    def check(report):
        oracles.check_close(report.deltas.as_tuple(), oracles.matrix2x2_deltas(s, q, t), 1e-12, "2x2 report")
        oracles.check_ur_gap(report.ur1.gap, "2x2 UR1")
        oracles.check_ur_gap(report.ur2.gap, "2x2 UR2")

    return Op("m2x2.report", run, check)


def moments_op(alpha):
    def run(api):
        return api.weights.moment_table(api.weights.rational_weight(alpha), 8).values

    def check(values):
        oracles.check_moments(values, lambda k: oracles.rational_moment(alpha, k))

    return Op("moments", run, check)


def weak_cr_suite(rng, alpha, count=4):
    """Admissible pairs (f, g): f, g in the domain and deg f + deg g + 2 < 4 alpha - 1.

    The degrees are spread evenly over the admissible ones, so they follow
    from alpha; the coefficients come from the rng."""
    top = oracles.expected_n_max(alpha)
    admissible = [(df, dg) for df in range(top + 1) for dg in range(top + 1) if df + dg + 2 < 4 * alpha - 1]
    pairs = []
    for t in range(count):
        df, dg = admissible[(2 * t + 1) * len(admissible) // (2 * count)]
        f = weights.PolyFunc(tuple(rng.uniform(-2, 2, df + 1) + 1j * rng.uniform(-2, 2, df + 1)))
        g = weights.PolyFunc(tuple(rng.uniform(-2, 2, dg + 1) + 1j * rng.uniform(-2, 2, dg + 1)))
        pairs.append((f, g))
    return pairs


def weak_cr_op(alpha, pairs):
    def run(api):
        w = api.weights.rational_weight(alpha)
        return [api.weights.weak_cr_check(w, f, g) for f, g in pairs]

    def check(defects):
        for (f, g), d in zip(pairs, defects):
            top = f.degree + g.degree + 2
            scale = max(oracles.rational_moment(alpha, k) for k in range(0, top + 1, 2))
            oracles.check_relative_defect(d, scale, oracles.MOMENT_REL_TOL, "weak CR defect")

    return Op("weak_cr", run, check)


def ladder_length_op(alpha):
    def run(api):
        return api.weights.ladder_length(alpha)

    def check(report):
        want = oracles.expected_n_max(alpha)
        if report.n_max != want or report.dim_N0 != want + 1:
            raise Mismatch(f"ladder_length({alpha}) = {report.n_max}, expected {want}")

    return Op("ladder_length", run, check)


def gaussian_op(k):
    def run(api):
        table = api.weights.moment_table(api.weights.gaussian_weight(), 8).values
        return table, api.weights.gaussian_eigen_check(k)

    def check(out):
        table, result = out
        oracles.check_moments(table, oracles.gaussian_moment)
        if result.symbolic_residual != 0.0 or result.quadrature_residual > 1e-10:
            raise Mismatch(f"x^{k} eigen check residuals {result}")

    return Op("gaussian", run, check)


def probe_round(seed, k):
    rng = rng_for(seed, 3, k)

    def alpha():
        return float(rng.uniform(1.0, 4.0))

    def state():
        r, phase = rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * math.pi)
        return state_op(float(rng.uniform(0.0, 0.6)), complex(r * math.cos(phase), r * math.sin(phase)))

    def weak_cr(i):
        # alpha on a golden-ratio sequence: quadrature cost varies with alpha
        a = spread(seed, PROBE_ROUND["weak_cr"] * k + i, 32, 1.0, 4.0)
        return weak_cr_op(a, weak_cr_suite(rng, a))

    make = {
        "scan.N128": lambda i: scan_op(TAIL_THETA, 128),  # the tail op, like truncation's N = 512
        "scan.N64": lambda i: scan_op(spread(seed, PROBE_ROUND["scan.N64"] * k + i, 31, 0.0, 0.6), 64),
        "weak_cr": weak_cr,
        "moments": lambda i: moments_op(alpha()),
        "gaussian": lambda i: gaussian_op(2 * i + 1 + int(rng.integers(0, 2))),  # x^1..x^8, spread
        "m2x2.scan": lambda i: matrix2x2_scan_op(*(float(v) for v in rng.uniform(0.5, 2.0, 2))),
        "state": lambda i: state(),
        "m2x2.report": lambda i: matrix2x2_report_op(*(float(v) for v in rng.uniform(0.5, 2.0, 2)),
                                                     float(rng.uniform())),
        "ladder_length": lambda i: ladder_length_op(alpha()),
    }
    return [make[shape](i) for shape, count in PROBE_ROUND.items() for i in range(count)]


# ---------------------------------------------------------------------------
# cli: `python -m weakcr.cli` in a fresh interpreter per call


class CliContext(NamedTuple):
    root: str
    out_dir: str
    env: dict


SUBCOMMANDS = ("verify-cr", "ladder", "weights", "normal-order", "uncertainty")


def cli_args(seed, k, sub, block_degree=None):
    """Seeded arguments for one subcommand, call k; ``block_degree`` fixes
    normal-order to a block product of that degree."""
    rng = rng_for(seed, 4, k, SUBCOMMANDS.index(sub))
    if sub == "verify-cr":
        return ["verify-cr", "--model", f"swanson:{rng.uniform(0.0, 0.6):.4f}", "--dim", "128"], None
    if sub == "ladder":
        # at the default dim 96 the kernel vector of theta >= 0.5 no longer fits
        return ["ladder", "--model", f"swanson:{rng.uniform(0.0, 0.45):.4f}"], None
    if sub == "weights":
        if k % 2:
            return ["weights", "--gaussian"], None
        return ["weights", "--alpha", f"{rng.uniform(1.0, 4.0):.4f}"], None
    if sub == "normal-order":
        if block_degree is not None:
            text, parsed, normal_form = block_expr(rng, block_degree)
        elif rng.integers(0, 2):
            text, parsed, normal_form = block_expr(rng, int(rng.integers(4, 9)))
        else:
            text, parsed, normal_form = mixed_expr(rng)
        return ["normal-order", text, "--seed", str(int(rng.integers(0, 1000)))], (parsed, normal_form)
    form = k % 3
    if form == 0:
        return ["uncertainty", "--model", f"swanson:{rng.uniform(0.0, 0.6):.4f}", "--scan", "coherent:5x5"], None
    if form == 1:
        s, q = rng.uniform(0.5, 2.0, 2)
        return ["uncertainty", "--model", f"matrix2x2:{s:.4f},{q:.4f}", "--scan", "circle:11"], None
    r, phase = rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * math.pi)
    return ["uncertainty", "--model", f"swanson:{rng.uniform(0.0, 0.6):.4f}",
            "--state", f"coherent:{r * math.cos(phase):.4f},{r * math.sin(phase):.4f}"], None


def _run_subprocess(ctx, argv):
    proc = subprocess.run([sys.executable, "-m", "weakcr.cli", *argv], cwd=ctx.root, env=ctx.env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _run_main(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_op(ctx, sub, argv, expect, out_name, in_process=False):
    out_path = os.path.join(ctx.out_dir, out_name)
    argv = [*argv, "--out", out_path]

    def run(api):
        if in_process:
            return _run_main(api, argv)
        tracer = api.tracer
        if not tracer.enabled:
            return _run_subprocess(ctx, argv)
        start = perf_counter()
        try:
            return _run_subprocess(ctx, argv)
        finally:
            tracer.record("cli.subprocess", start, perf_counter())

    def check(out):
        code, stdout, stderr = out
        if code not in (0, 1):
            raise Mismatch(f"{sub} exited {code}: {stderr.strip()[-300:]}")
        with open(out_path) as fh:
            report = json.load(fh)
        check_cli_report(sub, argv, report, stdout, expect)
        if code == 1:
            if sub == "normal-order" and report["failures"] == ["fock_soundness"]:
                raise KnownFalseFail(f"normal-order {argv[1]!r}: fock_soundness "
                                     f"{report['results']['soundness_defect']:.2e} > 1e-10")
            raise Mismatch(f"{sub} failed its own checks {report['failures']}")

    return Op(("main." if in_process else "cli.") + sub, run, check)


def _number(v):
    return math.inf if v == "inf" else v


def check_cli_report(sub, argv, report, stdout, expect):
    res = report["results"]
    if sub == "verify-cr":
        theta, n = float(argv[2].split(":")[1]), int(argv[4])
        S, T = oracles.swanson_matrices(theta, n)
        scale = float(np.max(np.abs(S)) * np.max(np.abs(T)))
        oracles.check_relative_defect(res["weak_defect"], scale, 1e-12, "weak defect")
        oracles.check_relative_defect(res["quasi_strong_defect"], scale, 1e-10, "quasi-strong defect")
        oracles.check_relative_defect(res["weyl_defect"], scale, 1e-10, "Weyl defect")
    elif sub == "ladder":
        oracles.check_spectrum(np.array(res["restricted_spectrum"]), res["ladder_length"])
        oracles.check_relative_defect(res["gram_defect"], 1.0, 1e-7, "Gram defect")
    elif sub == "weights":
        values = [_number(v) for v in res["moments"]]
        if argv[1] == "--gaussian":
            oracles.check_moments(values, oracles.gaussian_moment)
        else:
            alpha = float(argv[2])
            oracles.check_moments(values, lambda k: oracles.rational_moment(alpha, k))
            if res["n_max"] != oracles.expected_n_max(alpha):
                raise Mismatch(f"weights n_max {res['n_max']} at alpha {alpha}")
    elif sub == "normal-order":
        parsed, normal_form = expect
        canonical = stdout.splitlines()[0]
        if res["canonical"] != canonical:
            raise Mismatch("report and stdout disagree on the canonical form")
        q = expr.parse_to_poly(canonical)
        if normal_form is not None:
            oracles.check_terms(q, normal_form, "closed-form normal order")
        oracles.check_canonical(q)
        p = expr.parse_to_poly(argv[1])
        oracles.check_terms(p, parsed, "parse")
        pair = fock.swanson_pair(0.3, SOUNDNESS_DIM)
        oracles.check_soundness(algebra.fock_eval(p, pair).entries, algebra.fock_eval(q, pair).entries,
                                SOUNDNESS_DIM - max(p.degree, 1))
    elif "--scan" in argv:
        oracles.check_ur_gap(res["summary"]["min_ur1_gap"], "UR1")
        oracles.check_ur_gap(res["summary"]["min_ur2_gap"], "UR2")
        if argv[2].startswith("matrix2x2"):
            s, q = (float(v) for v in argv[2].split(":")[1].split(","))
            for row in res["rows"]:
                want = oracles.matrix2x2_deltas(s, q, row["t"])
                oracles.check_close((row["dS"], row["dSd"], row["dT"], row["dTd"]), want, 1e-12, "2x2 deltas")
    else:
        oracles.check_ur_gap(res["ur1"]["gap"], "UR1")
        oracles.check_ur_gap(res["ur2"]["gap"], "UR2")


def cli_ops(ctx, seed):
    """One call per subcommand in fixed forms (weights --alpha, a coherent
    uncertainty scan, a degree-8 normal-order block), then the byte-identity
    repeat of the first call."""
    ops = []
    for sub in SUBCOMMANDS:
        argv, expect = cli_args(seed, 0, sub, block_degree=CLI_NORMAL_ORDER_DEGREE)
        ops.append(cli_op(ctx, sub, argv, expect, f"{sub}.json"))
    return ops + [byte_identity_op(ctx, seed)]


def byte_identity_op(ctx, seed):
    """Repeat the first call with a second --out and compare the bytes."""
    sub = SUBCOMMANDS[0]
    argv, expect = cli_args(seed, 0, sub)
    first = os.path.join(ctx.out_dir, f"{sub}.json")
    op = cli_op(ctx, sub, argv, expect, f"{sub}.repeat.json")

    def check(out):
        op.check(out)
        with open(first, "rb") as a, open(os.path.join(ctx.out_dir, f"{sub}.repeat.json"), "rb") as b:
            if a.read() != b.read():
                raise Mismatch(f"{sub} report is not byte-identical across identical invocations")

    return Op(op.shape, op.run, check)


# ---------------------------------------------------------------------------


def op_list(workload, seed, ctx):
    """The fixed, seeded ops that every pass of a run repeats."""
    if workload == "rewrite":
        return rewrite_round(seed, 0)
    if workload == "truncation":
        return truncation_round(seed, 0)
    if workload == "probe":
        return probe_round(seed, 0)
    if workload == "cli":
        return cli_ops(ctx, seed)
    raise ValueError(workload)


def passes(workload, seconds):
    """Passes per run: enough for ``seconds`` at the nominal pass time, and at
    least the minimum.  The count does not depend on the machine's speed, so
    every run of a workload has the same sample structure."""
    return max(MIN_PASSES[workload], round(seconds / PASS_S[workload]))


def pass_order(workload, seed, p, n):
    if workload not in SHUFFLED:
        return list(range(n))
    return [int(i) for i in rng_for(seed, 5, p).permutation(n)]


def warmup(workload, api):
    """What a user pays once before the first operation: lazy set-up inside
    the first calls.  The CLI pays it on every call, so it has none."""
    if workload == "rewrite":
        rewrite_op("warmup", "S^2 T^2", None, None, 0.3).run(api)
    elif workload == "truncation":
        truncation_op(0.3, TRUNCATION_OPS[0]).run(api)
    elif workload == "probe":
        scan_op(0.3, 64).run(api)
        state_op(0.3, 0.5j).run(api)
        matrix2x2_scan_op(1.0, 1.0).run(api)
        matrix2x2_report_op(1.0, 1.0, 0.5).run(api)
        weak_cr_op(2.5, [(weights.monomial(1), weights.monomial(1))]).run(api)
        gaussian_op(2).run(api)
