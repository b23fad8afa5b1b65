"""The weakcr benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: weakcr is imported from ./src, never from an
installed copy.  The last line of standard output is a JSON object with keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 passes alternate between
untraced and traced, a layer sweep follows, and the metrics are the per-layer
ones.  ``--workload all`` runs every workload both ways and prints it all.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the single-threaded baseline.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import functools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from oracles import KnownFalseFail
from spans import Api, Tracer, module_totals, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
# ``calibrate`` times a fixed piece of the benchmark's own work; CAL_REF_S is
# its time at full speed on the reference machine (a 2-core Intel Xeon VM,
# Python 3.11, OpenBLAS on one thread).
CAL_LOOP = 5000
CAL_MATRIX_N = 256
CAL_REF_S = {"python": 0.00044, "blas": 0.00062, "interpreter": 0.129}
TAIL_BEYOND = 10
SWEEP_REWRITE_ROUNDS = 3
SWEEP_DIMS = (128, 128, 128, 256, 256, 256, 512)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_weakcr():
    if not os.path.isfile(os.path.join(SRC, "weakcr", "__init__.py")):
        fail(f"no weakcr sources under {SRC}; run from the root of a weakcr checkout")
    sys.path.insert(0, SRC)
    import weakcr

    if os.path.dirname(os.path.dirname(os.path.abspath(weakcr.__file__))) != SRC:
        fail(f"imported weakcr from {weakcr.__file__}, not from {SRC}")
    return weakcr


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# measurement


@functools.lru_cache(maxsize=None)
def calibration_matrix():
    import numpy

    return numpy.random.default_rng(0).random((CAL_MATRIX_N, CAL_MATRIX_N))


def calibrate(kind):
    """Seconds a fixed piece of work takes now: the machine's current speed
    for pure-Python code (a dict loop), for BLAS (a matrix product) or for
    starting an interpreter (a fresh one that imports numpy)."""
    if kind == "interpreter":
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)
        return perf_counter() - start
    if kind == "blas":
        a = calibration_matrix()
        start = perf_counter()
        a @ a
        return perf_counter() - start
    start = perf_counter()
    d = {}
    for i in range(CAL_LOOP):
        d[i & 255] = d.get(i & 255, 0) + i
    return perf_counter() - start


class Scaler:
    """Scales latencies to the reference speed.

    A shared machine's speed swings by up to 2x for seconds at a time.  Each
    latency is multiplied by CAL_REF_S over the mean of the calibrations run
    just before and just after it, so a slow spell cancels out.
    """

    def __init__(self, kind):
        self.kind = kind
        self.before = calibrate(kind)

    def __call__(self, seconds):
        after = calibrate(self.kind)
        scaled = seconds * CAL_REF_S[self.kind] / ((self.before + after) / 2)
        self.before = after
        return scaled


class Tally:
    """Outcomes of the operations of one phase, and each op's latencies."""

    def __init__(self):
        self.latencies = {}  # op index -> [(traced, seconds)], one per pass
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.errors = []
        self.cache = [0, 0]  # weights.moment hits, misses

    def per_op(self, traced=False):
        """Each op's latency: the median of its passes with the given tracing."""
        return [statistics.median(t for tr, t in runs if tr == traced) for runs in self.latencies.values()]

    def ops_per_s(self, traced=False):
        """Ops per second of busy time, each op at its latency."""
        return len(self.latencies) / sum(self.per_op(traced))

    def samples(self):
        """Every untraced op run, valued at its op's latency."""
        return [value for value, runs in zip(self.per_op(), self.latencies.values())
                for tr, _ in runs if not tr]


def run_op(api, op, op_id, tally, traced):
    """Run one op with a cold ``weights.moment`` cache and check it; its latency."""
    from weakcr.weights import moment

    tracer = api.tracer
    moment.cache_clear()
    if traced:
        tracer.begin_op(op_id, op.shape)
    start = perf_counter()
    try:
        out, error = op.run(api), None
    except Exception as exc:  # a crash is a failed op; the run goes on
        out, error = None, exc
    latency = perf_counter() - start
    if traced:
        tracer.end_op()
    info = moment.cache_info()
    tally.cache[0] += info.hits
    tally.cache[1] += info.misses
    tally.attempted += 1
    try:
        if error is not None:
            raise error
        op.check(out)
    except KnownFalseFail as exc:
        tally.failed += 1
        tally.known += 1
        tally.errors.append(f"known false FAIL [{op.shape}] {exc}")
    except Exception as exc:
        tally.failed += 1
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        tally.errors.append(f"[{op.shape}] {detail}")
    return latency


def run_passes(api, workloads, workload, seed, ops, passes, alternate):
    """Every op once per pass, each latency scaled; odd passes traced if ``alternate``."""
    tally = Tally()
    scale = Scaler(workloads.CALIBRATION[workload])
    for p in range(passes):
        traced = alternate and p % 2 == 1
        api.tracer.enabled = traced
        for i in workloads.pass_order(workload, seed, p, len(ops)):
            latency = scale(run_op(api, ops[i], f"p{p}.{i}", tally, traced))
            tally.latencies.setdefault(i, []).append((traced, latency))
    api.tracer.enabled = False
    return tally


def setup_seconds(workload):
    """Median wall time of fresh interpreters that import weakcr and warm up,
    each scaled to the reference speed of starting an interpreter."""
    walls = []
    scale = Scaler("interpreter")
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                               "--workload", workload], cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        walls.append(scale(perf_counter() - start))
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(walls)


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, tally, setup_s):
    samples = tally.samples()
    value, pct, n = tail(samples)
    print(f"latency tail = p{pct:.1f} of {n} samples; error_rate = "
          f"{tally.failed}/{tally.attempted} ({tally.known} known false FAILs)")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


# ---------------------------------------------------------------------------
# traced run: layer sweep and per-layer metrics


def sweep_ops(workloads, seed, ctx):
    """Fixed-shape calls into every layer, the source of the sized metrics."""
    k0 = 1000
    ops = []
    for j in range(SWEEP_REWRITE_ROUNDS):
        ops += workloads.rewrite_round(seed, k0 + j, subrounds=1)
    for j, n in enumerate(SWEEP_DIMS):
        ops.append(workloads.truncation_op(workloads.spread(seed, k0 + j, 29, 0.0, 0.6), n))
    ops += workloads.probe_round(seed, k0)
    sweep_ctx = ctx._replace(out_dir=os.path.join(ctx.out_dir, "sweep"))
    os.makedirs(sweep_ctx.out_dir, exist_ok=True)
    for sub in workloads.SUBCOMMANDS:
        argv, expect = workloads.cli_args(seed, k0, sub)
        ops.append(workloads.cli_op(sweep_ctx, sub, argv, expect, f"{sub}.json"))
        ops.append(workloads.cli_op(sweep_ctx, sub, argv, expect, f"main-{sub}.json", in_process=True))
    return ops


def by_shape(spans, ops):
    """{(op shape, child span name): [seconds]} over the given op ids."""
    shapes = {sid: name for sid, parent, op, name, _, _ in spans if parent is None}
    out = {}
    for sid, parent, op, name, start, end in spans:
        if parent is not None and op in ops:
            out.setdefault((shapes[parent], name), []).append(end - start)
    return out


def fit(xs, ys):
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum((a - mx) ** 2 for a in xs)


def per_layer(workloads, api, tally, sweep_ids, cache):
    tracer = api.tracer
    spans = tracer.spans
    sized = by_shape(spans, sweep_ids)
    busy = self_times(spans)
    m = {}

    def ms(shape, name):
        return statistics.median(sized[(shape, name)]) * 1e3

    degrees = [*workloads.BLOCK_DEGREES, workloads.TOP_DEGREE]
    deg_ms = [ms(f"block.deg{d}", "algebra.normal_order") for d in degrees]
    for d, v in zip(degrees, deg_ms):
        m[f"algebra.normal_order.ms.deg{d}"] = (v, "ms")
    # time factor per extra degree: exp of the slope of log(ms) against degree
    m["algebra.normal_order.growth_per_degree"] = (math.exp(fit(degrees, [math.log(v) for v in deg_ms])), "1")
    m["algebra.normal_order.terms_out"] = (int(tracer.counters["algebra.normal_order.terms_out"]), "count")
    m["algebra.fock_eval.words"] = (int(tracer.counters["algebra.fock_eval.words"]), "count")
    for name in ("algebra.normal_order", "algebra.is_regular", "algebra.render",
                 "expr.parse_to_poly", "algebra.fock_eval"):
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")

    dims = (128, 256, 512)
    for name in ("fock.weak_defect", "fock.quasi_strong_defect", "fock.weyl_defect",
                 "ladder.kernel_vector", "ladder.intertwiners", "ladder.eigen_check",
                 "ladder.restricted_spectrum"):
        values = [ms(f"trunc.N{n}", name) for n in dims]
        for n, v in zip(dims, values):
            m[f"{name}.ms.N{n}"] = (v, "ms")
        # the exponent p of ms ~ N^p
        m[f"{name}.slope_N"] = (fit([math.log(n) for n in dims], [math.log(v) for v in values]), "1")
    m["ladder.accept_ratio"] = (tracer.counters["ladder.accepted"] / tracer.counters["ladder.requested"], "1")

    for n in (64, 128):
        m[f"uncertainty.saturation_scan.ms_per_state.N{n}"] = (
            ms(f"scan.N{n}", "uncertainty.saturation_scan") / workloads.SCAN_STATES, "ms")
    for name in ("ur1_check", "ur2_check", "delta_report", "swanson_closed_form", "matrix2x2_report"):
        m[f"uncertainty.{name}.busy_s"] = (busy.get(f"uncertainty.{name}", 0.0), "s")
    for name in ("moment_table", "weak_cr_check", "ladder_length", "gaussian_eigen_check"):
        m[f"weights.{name}.busy_s"] = (busy.get(f"weights.{name}", 0.0), "s")
    hits, misses = cache
    m["weights.moment.cache_hit_ratio"] = (hits / max(hits + misses, 1), "1")
    m["weights.moment.cache_hits"] = (hits, "count")
    m["weights.moment.cache_misses"] = (misses, "count")

    walls, mains = [], []
    for sub in workloads.SUBCOMMANDS:
        walls.append(ms(f"cli.{sub}", "cli.subprocess"))
        mains.append(ms(f"main.{sub}", "cli.main"))
        m[f"cli.{sub}.wall_ms"] = (walls[-1], "ms")
        m[f"cli.{sub}.main_ms"] = (mains[-1], "ms")
    m["cli.import_share"] = (1.0 - sum(mains) / sum(walls), "1")

    total = sum(busy.values())
    modules = module_totals(busy)
    for module in Api.MODULES + ("bench",):
        m[f"{module}.busy_s"] = (modules.get(module, 0.0), "s")
        m[f"{module}.share"] = (modules.get(module, 0.0) / total, "1")

    rates = {traced: tally.ops_per_s(traced) for traced in (False, True)}
    m["trace.ops_per_s_untraced"] = (rates[False], "1/s")
    m["trace.ops_per_s_traced"] = (rates[True], "1/s")
    m["trace.overhead_ops_per_s"] = (rates[False] - rates[True], "1/s")
    m["error_rate"] = (tally.failed / tally.attempted, "1")
    return m


def print_module_table(tracer, workload_ids):
    for label, ops in (("workload ops", workload_ids), ("whole traced run", None)):
        modules = module_totals(self_times(tracer.spans, ops))
        total = sum(modules.values()) or 1.0
        row = "  ".join(f"{k} {v:.3f}s ({v / total:.0%})" for k, v in sorted(modules.items(), key=lambda kv: -kv[1]))
        print(f"self time, {label}: {row}")


# ---------------------------------------------------------------------------


def environment(seed, cpus):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "calibration_ref_s": CAL_REF_S,
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(metrics, trace, tally, correct):
    declared = declared_metrics(trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}", 3)
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_all(workloads, args):
    """Every workload, untraced then traced, as child runs; one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            if trace == 0:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("rewrite", "truncation", "probe", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # one CPU for the benchmark and every process it starts, so that a
    # calibration and the op beside it run on the same core
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    import_weakcr()
    import workloads

    if args.setup_probe:
        if args.workload == "cli":
            import weakcr.cli  # noqa: F401  (the CLI's own import is its whole set-up)
        else:
            workloads.warmup(args.workload, Api(Tracer()))
        return
    if args.workload == "all":
        run_all(workloads, args)
        return

    setup_s = None if args.trace else setup_seconds(args.workload)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    ctx = workloads.CliContext(root=ROOT, out_dir=run_dir, env=child_env())
    api = Api(Tracer())
    workloads.warmup(args.workload, api)

    print("env", json.dumps(environment(args.seed, cpus)))
    ops = workloads.op_list(args.workload, args.seed, ctx)
    passes = workloads.passes(args.workload, args.seconds)
    tally = run_passes(api, workloads, args.workload, args.seed, ops, passes, alternate=bool(args.trace))
    print(f"{len(ops)} ops x {passes} passes")
    correct = tally.failed == tally.known
    if args.trace:
        workload_ids = {op for _, parent, op, *_ in api.tracer.spans if parent is None}
        sweep = Tally()
        api.tracer.enabled = True
        for i, op in enumerate(sweep_ops(workloads, args.seed, ctx)):
            run_op(api, op, f"s{i}", sweep, traced=True)
        api.tracer.enabled = False
        correct = correct and sweep.failed == sweep.known
        for line in sweep.errors:
            print("sweep:", line)
        sweep_ids = {op for _, parent, op, *_ in api.tracer.spans if parent is None} - workload_ids
        cache = (tally.cache[0] + sweep.cache[0], tally.cache[1] + sweep.cache[1])
        metrics = per_layer(workloads, api, tally, sweep_ids, cache)
        print_module_table(api.tracer, workload_ids)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        api.tracer.write(spans_path)
        print(f"spans: {len(api.tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(args.workload, tally, setup_s)
    for line in tally.errors:
        print(line)
    emit(metrics, args.trace, tally, correct)


if __name__ == "__main__":
    main()
