"""Layered benchmark for mrlife: end-to-end metrics per workload, per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report [--seed 1] [--seconds 20]
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --selftest

A workload run prints a human-readable summary, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the gated end-to-end ones (``END_TO_END``);
with ``--trace 1`` they are the per-layer ones (``PER_LAYER``), taken from
spans the benchmark's own wrappers record around mrlife's public calls.  A
traced run ignores ``--seconds``: it does a fixed amount of work, once
untraced and once traced, so that its counts repeat exactly for a seed.
Every run also writes a full record to ``perfbench/out/records/``, which
``--compare`` reads.  ``--report`` runs every workload both ways, prints
every metric by name with its unit, and adds the compiled-backend numbers
as an extra that is not gated.

The package runs on the pure-Python kernels unless ``--backend compiled``
is given; then ``src/mrlife/_ckernels.c`` is compiled with gcc into
``perfbench/out/build/`` and swapped in with ``active_backend``.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from speed import NOMINAL_S, SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("tables", "fit_predict", "cli")
SETUP_PROBES = 5

# gated end-to-end metrics, reported on every workload: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cells_per_s", "1/s", "higher"),
)

# workload-specific end-to-end metrics: reported and recorded, not gated
WORKLOAD_METRICS = {
    "tables": (),
    "fit_predict": (("fit_s", "s"), ("predict_rows_per_s", "1/s")),
    "cli": (("cli_ms_p50", "ms"), ("cli_ms_p75", "ms")),
}

SCALAR_KERNELS = ("upper_inc_gamma", "reg_inc_beta", "exp_integral_e1",
                  "gauss_2f1", "std_normal_quantile")
CLI_SUBCOMMANDS = ("residlife", "fit", "predict", "curve")

PER_LAYER = (
    ("specfun.calls", "count"),
    ("specfun.self_s", "s"),
    *((f"specfun.{k}.ns_per_call", "ns") for k in SCALAR_KERNELS),
    ("integrate.quadrature.calls", "count"),
    ("integrate.quadrature.self_s", "s"),
    ("distributions.make_distribution.calls", "count"),
    ("distributions.make_distribution.self_s", "s"),
    ("distributions.ln_pdf.calls", "count"),
    ("distributions.ln_survival.calls", "count"),
    ("distributions.isf.calls", "count"),
    ("distributions.isf.self_s", "s"),
    ("distributions.ln_survival_per_isf", "calls/isf"),
    ("distributions.mrl.self_s", "s"),
    ("residual.residual_life_table.self_s", "s"),
    ("residual.mean.self_s", "s"),
    ("residual.median.self_s", "s"),
    ("residual.percentile.self_s", "s"),
    ("residual.nan_cells", "count"),
    ("residual.inf_cells", "count"),
    ("regression.resolve_row.calls", "count"),
    ("regression.predict_residual_life.self_s", "s"),
    ("regression.load_model.calls", "count"),
    ("regression.load_model.self_s", "s"),
    ("fitting.fit.self_s", "s"),
    ("fitting.minimize.self_s", "s"),
    ("fitting.nfev", "count"),
    ("fitting.iterations", "count"),
    ("fitting.us_per_eval", "us"),
    ("fitting.outside_optimizer_s", "s"),
    ("cli.python_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_scipy_ms", "ms"),
    *((f"cli.{s}.ms_p50", "ms") for s in CLI_SUBCOMMANDS),
    ("cli.compute_render_ms", "ms"),
    ("trace.overhead_s", "s"),
)


def _fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _prepare_imports():
    """Put the package and the kernel benchmark on the path, pure-Python kernels."""
    for needed in (ROOT / "src" / "mrlife" / "__init__.py",
                   ROOT / "benchmarks" / "bench_kernels.py"):
        if not needed.is_file():
            _fail(f"{needed.relative_to(ROOT)} not found; run from an mrlife checkout")
    os.environ["MRLIFE_PURE_PYTHON"] = "1"
    os.environ.pop("MRLIFE_FORMAT", None)
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]


@contextmanager
def kernel_backend(name):
    """Run the body on the named kernel backend ("python" or "compiled").

    Yields the kernel module in use.
    """
    if name == "python":
        from mrlife import _pykernels
        yield _pykernels
        return
    import bench_kernels
    import ckernels

    try:
        module = ckernels.load()
    except ckernels.Unavailable as exc:
        _fail(str(exc), code=3)
    with bench_kernels.active_backend(module):
        yield module


@contextmanager
def workdir_for(tag):
    path = OUT / "work" / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def probe_setup(args):
    """Child side of a set-up probe: import, generate inputs, say ready."""
    from workloads import WORKLOADS

    with workdir_for("probe") as workdir, kernel_backend(args.backend):
        WORKLOADS[args.workload].prepare(args.seed, workdir)
        print("ready", flush=True)


def measure_setup(workload, seed, backend):
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", workload, "--seed", str(seed), "--backend", backend]
    env = {k: v for k, v in os.environ.items() if k != "MRLIFE_FORMAT"}
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        _fail(f"set-up probe for {workload} failed (exit {proc.returncode})", code=1)
    return elapsed


# ---------------------------------------------------------------------------
# cli layer probes
# ---------------------------------------------------------------------------

def _median_wall(argv, env, repeats):
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def scipy_import_ms(importtime_stderr):
    """Cumulative import time of scipy modules not imported by another scipy module."""
    lines = [ln for ln in importtime_stderr.splitlines()
             if ln.startswith("import time:") and "|" in ln
             and "imported package" not in ln]
    total_us = 0
    ancestors = []   # reversed post-order is pre-order: parents come first
    for line in reversed(lines):
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            total_us += int(cumulative)
        ancestors.append((depth, is_scipy))
    return total_us / 1e3


def cli_layer_probes():
    from workloads import child_env

    env = child_env()
    python = sys.executable
    start_s = _median_wall([python, "-c", "pass"], env, 5)
    code = ("import time; t = time.perf_counter(); import mrlife.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(3):
        done = subprocess.run([python, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        imports.append(float(done.stdout.strip()))
    done = subprocess.run([python, "-X", "importtime", "-c", "import mrlife.cli"],
                          env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    return {"cli.python_start_ms": start_s * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3,
            "cli.import_scipy_ms": scipy_import_ms(done.stderr)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def count_special_cells(tables):
    nan = inf = 0
    for columns in tables:
        for column in columns.values():
            for v in column:
                nan += v != v
                inf += v == float("inf")
    return nan, inf


def layer_metrics(tracer, workload, untraced, traced):
    t = tracer
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["specfun.calls"] = t.layer_total("specfun", 0)
    m["specfun.self_s"] = t.layer_total("specfun", 2)
    for name in ("integrate.quadrature", "distributions.make_distribution",
                 "regression.resolve_row", "regression.load_model"):
        m[f"{name}.calls"] = t.calls(name)
    for name in ("distributions.ln_pdf", "distributions.ln_survival",
                 "distributions.isf"):
        m[f"{name}.calls"] = t.calls(name)
    for name in ("integrate.quadrature", "distributions.make_distribution",
                 "distributions.isf", "distributions.mrl",
                 "residual.residual_life_table", "residual.mean", "residual.median",
                 "residual.percentile", "regression.predict_residual_life",
                 "regression.load_model", "fitting.fit", "fitting.minimize"):
        m[f"{name}.self_s"] = t.self_s(name)
    isf_calls = t.calls("distributions.isf")
    if isf_calls:
        m["distributions.ln_survival_per_isf"] = (
            t.edge_calls("distributions.isf", "distributions.ln_survival") / isf_calls)
    m["residual.nan_cells"], m["residual.inf_cells"] = count_special_cells(
        workload.result_tables(traced))
    m["fitting.nfev"] = t.nfev
    m["fitting.iterations"] = t.nit
    if t.nfev:
        m["fitting.us_per_eval"] = t.total_s("fitting.minimize") / t.nfev * 1e6
    m["fitting.outside_optimizer_s"] = (t.total_s("fitting.fit")
                                        - t.total_s("fitting.minimize"))
    m["trace.overhead_s"] = traced["elapsed"] - untraced["elapsed"]
    return m


def dominance_checks(workload, tracer, layers, untraced, traced):
    """Each workload's stated dominant layer, confirmed or reported as not holding."""
    if workload.name == "tables":
        name, own = max(((k, v[2]) for k, v in tracer.stats.items()),
                        key=lambda kv: kv[1])
        return {"claim": "distributions.isf.self_s is the largest self time",
                "holds": name == "distributions.isf",
                "largest": {"span": name, "self_s": own},
                "distributions.isf.self_s": tracer.self_s("distributions.isf")}
    if workload.name == "fit_predict":
        per_fit = []
        for record in traced["records"]:
            for (tag, _, with_factor), calls in zip(workload.FITS,
                                                    record["make_distribution"]):
                per_fit.append({"fit": tag, "factor": with_factor,
                                "make_distribution_calls": calls})
        factor = [f["make_distribution_calls"] for f in per_fit if f["factor"]]
        mean = sum(factor) / len(factor)
        return {"claim": "distributions.make_distribution.calls >= 1e5 per factor fit",
                "holds": mean >= 1e5, "mean_per_factor_fit": mean, "fits": per_fit}
    p50 = statistics.median(inv.wall_s * 1e3 for _, inv, _ in untraced["invocations"])
    return {"claim": "cli.import_ms is more than half of cli_ms_p50",
            "holds": layers["cli.import_ms"] > 0.5 * p50,
            "cli.import_ms": layers["cli.import_ms"], "cli_ms_p50": p50}


def run_info(args, inputs_size):
    import numpy
    import scipy
    from mrlife import specfun

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "backend": specfun.BACKEND,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "inputs": inputs_size}


def measure_untraced(workload, inputs, args):
    """End-to-end metrics of a timed run; returns (verdicts, metrics, record fields).

    Both gated times are in reference seconds (``speed.py``), converted with
    the reference speed measured over the timed loop that follows the
    set-up probes; the same metrics in wall seconds go to the record as
    ``wall``.
    """
    setup = [measure_setup(args.workload, args.seed, args.backend)
             for _ in range(SETUP_PROBES)]
    meter = SpeedMeter()
    outcome = workload.run(inputs, seconds=args.seconds, meter=meter)
    meter.finish()
    verdicts = workload.check(inputs, outcome)
    peak = outcome.get("peak_rss_mb",
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    to_reference = NOMINAL_S / meter.sample_s()
    metrics = {"setup_s": statistics.median(setup) * to_reference,
               "peak_rss_mb": peak,
               "cells_per_s": outcome["cells"] / (meter.busy_s() * to_reference)}
    wall = {"setup_s": statistics.median(setup),
            "cells_per_s": outcome["cells"] / meter.busy_s()}
    specific = workload.metrics(outcome)
    specific["error_rate"] = sum(v is not None for v in verdicts) / len(verdicts)
    samples = [ref * 1e3 for _, ref in meter.pairs]
    return verdicts, metrics, {
        "setup_probes_s": setup, "end_to_end": metrics, "wall": wall,
        "workload_metrics": specific, "elapsed_s": outcome["elapsed"],
        "reference_sample_ms": {"n": len(samples), "weighted": meter.sample_s() * 1e3,
                                "min": min(samples), "max": max(samples)}}


def measure_traced(workload, inputs, args, kernels):
    """Per-layer metrics of a fixed amount of work, run untraced, then traced."""
    import bench_kernels
    from tracer import LAYERS, Tracer

    untraced = workload.run(inputs, count=workload.TRACE_COUNT)
    tracer = Tracer().install(callers=[sys.modules[type(workload).__module__]])
    try:
        traced = workload.run(inputs, count=workload.TRACE_COUNT, tracer=tracer)
    finally:
        tracer.uninstall()
    verdicts = workload.check(inputs, untraced) + workload.check(inputs, traced)
    metrics = layer_metrics(tracer, workload, untraced, traced)
    per_call = bench_kernels.bench_scalar_kernels(kernels, 4000, seed=args.seed)
    for kernel in SCALAR_KERNELS:
        metrics[f"specfun.{kernel}.ns_per_call"] = per_call[kernel] * 1e9
    if workload.name == "cli":
        metrics.update(cli_layer_probes())
        walls = {}
        for call, inv, _ in untraced["invocations"]:
            walls.setdefault(call.sub, []).append(inv.wall_s * 1e3)
        for sub in CLI_SUBCOMMANDS:
            metrics[f"cli.{sub}.ms_p50"] = statistics.median(walls[sub])
        p50 = statistics.median(w for ws in walls.values() for w in ws)
        metrics["cli.compute_render_ms"] = (p50 - metrics["cli.python_start_ms"]
                                            - metrics["cli.import_ms"])
    layers = {layer: {"calls": tracer.layer_total(layer, 0),
                      "self_s": tracer.layer_total(layer, 2)} for layer in LAYERS}
    return verdicts, metrics, {
        "per_layer": metrics, "layers": layers, "spans": tracer.to_dict(),
        "untraced_elapsed_s": untraced["elapsed"],
        "traced_elapsed_s": traced["elapsed"],
        "dominant": dominance_checks(workload, tracer, metrics, untraced, traced)}


def run_workload(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.backend == "compiled":
        with kernel_backend("compiled"):
            pass  # build now, so a missing gcc ends the run before set-up
    with workdir_for(args.workload) as workdir, \
            kernel_backend(args.backend) as kernels:
        inputs = workload.prepare(args.seed, workdir)
        record = {"run": run_info(args, workload.input_sizes(inputs))}
        if args.trace:
            verdicts, metrics, fields = measure_traced(workload, inputs, args, kernels)
            units = dict(PER_LAYER)
        else:
            verdicts, metrics, fields = measure_untraced(workload, inputs, args)
            units = {n: u for n, u, _ in END_TO_END}
        record.update(fields)
    failures = [v for v in verdicts if v is not None]
    record.update(attempted=len(verdicts), failed=len(failures), failures=failures[:20])
    path = Path(args.record) if args.record else (
        OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"-{record['run']['backend']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")

    run = record["run"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {run['backend']}  python {run['python']}  numpy {run['numpy']}  "
          f"scipy {run['scipy']}  nproc {run['nproc']}")
    print(f"  inputs {json.dumps(run['inputs'])}")
    print(f"  attempted {len(verdicts)}  failed {len(failures)}")
    for failure in failures[:5]:
        print(f"  FAIL {failure}")
    if not args.trace:
        wall = record["wall"]
        print(f"  in wall seconds: setup_s {wall['setup_s']:.6g}  "
              f"cells_per_s {wall['cells_per_s']:.6g}")
        for name, value in record["workload_metrics"].items():
            print(f"  {name:<22} {value:.6g}")
        ref = record["reference_sample_ms"]
        print(f"  reference sample {ref['weighted']:.3f} ms, busy-weighted mean of "
              f"{ref['n']} (nominal {NOMINAL_S * 1e3:g} ms)")
    else:
        dominant = record["dominant"]
        print(f"  dominant layer: {dominant['claim']}: "
              f"{'holds' if dominant['holds'] else 'DOES NOT HOLD'}")
        print(f"  tracing overhead {metrics['trace.overhead_s']:.3f} s on "
              f"{record['untraced_elapsed_s']:.3f} s untraced")
    print(f"  record {path}")
    print(json.dumps({"correct": not failures, "attempted": len(verdicts),
                      "failed": len(failures),
                      "metrics": {name: {"value": float(metrics[name]),
                                         "unit": units[name]} for name in units}}))


# ---------------------------------------------------------------------------
# report, compare, self-test
# ---------------------------------------------------------------------------

def _recorded_run(name, args, trace, backend="python"):
    """Run one workload in a child process; (0, record) or (exit code, output)."""
    path = OUT / "records" / f"report-{name}-trace{trace}-{backend}.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--backend", backend, "--record", str(path)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        return done.returncode, (done.stdout + done.stderr).strip()
    return 0, json.loads(path.read_text(encoding="utf-8"))


def _print_metrics(values, units, indent="  ", skip_zero=False):
    for metric, unit in units:
        if not (skip_zero and values[metric] == 0):
            print(f"{indent}{metric:<44} {values[metric]:>14.6g} {unit}")


def report(args):
    """Every workload, untraced and traced; then the compiled backend as an extra."""
    e2e_units = [(n, u) for n, u, _ in END_TO_END]
    for name in WORKLOAD_NAMES:
        print(f"== {name} (pure-Python kernels, seed {args.seed}) ==")
        code, record = _recorded_run(name, args, trace=0)
        if code:
            print(f"  run failed (exit {code}):\n{record}")
            continue
        print(f"  attempted {record['attempted']}  failed {record['failed']}")
        _print_metrics(record["end_to_end"], e2e_units)
        _print_metrics(record["workload_metrics"],
                       WORKLOAD_METRICS[name] + (("error_rate", "1"),))
        code, record = _recorded_run(name, args, trace=1)
        if code:
            print(f"  traced run failed (exit {code}):\n{record}")
            continue
        print("  per layer (traced; zeros omitted):")
        _print_metrics(record["per_layer"], PER_LAYER, indent="    ", skip_zero=True)
        dominant = record["dominant"]
        print(f"  dominant layer: {dominant['claim']}: "
              f"{'holds' if dominant['holds'] else 'DOES NOT HOLD'}")
    print("== extra, not gated: compiled kernels (gcc build of _ckernels.c) ==")
    for name in ("tables", "fit_predict"):
        code, record = _recorded_run(name, args, trace=0, backend="compiled")
        if code == 3:
            print(f"  skipped: {record}")
            return
        if code:
            print(f"  {name}: run failed (exit {code}):\n{record}")
            continue
        print(f"  {name}: attempted {record['attempted']}  failed {record['failed']}")
        _print_metrics(record["end_to_end"], [("cells_per_s", "1/s")], indent="    ")
        _print_metrics(record["workload_metrics"], WORKLOAD_METRICS[name], indent="    ")


def compare(path_a, path_b):
    """Per-layer count and self-time deltas between two traced records."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    for rec, path in ((a, path_a), (b, path_b)):
        if "spans" not in rec:
            _fail(f"{path} is not a traced record (run with --trace 1)")
    if a["run"]["backend"] != b["run"]["backend"]:
        _fail(f"refusing to compare backends {a['run']['backend']!r} and "
              f"{b['run']['backend']!r}")
    print(f"base {path_a}: {a['run']['workload']} seed {a['run']['seed']}")
    print(f"new  {path_b}: {b['run']['workload']} seed {b['run']['seed']}")
    print(f"{'span':<40}{'calls base':>14}{'calls new':>14}{'ratio':>9}"
          f"{'self_s base':>14}{'self_s new':>14}{'ratio':>9}")
    sa, sb = a["spans"]["stats"], b["spans"]["stats"]
    for name in sorted(set(sa) | set(sb)):
        ca, _, wa = sa.get(name, (0, 0.0, 0.0))
        cb, _, wb = sb.get(name, (0, 0.0, 0.0))
        print(f"{name:<40}{ca:>14}{cb:>14}{_ratio(cb, ca):>9}"
              f"{wa:>14.6f}{wb:>14.6f}{_ratio(wb, wa):>9}")
    print(f"\n{'per-layer metric':<44}{'base':>16}{'new':>16}{'ratio':>9}")
    for name, unit in PER_LAYER:
        va, vb = a["per_layer"].get(name, 0.0), b["per_layer"].get(name, 0.0)
        print(f"{name:<44}{va:>16.6g}{vb:>16.6g}{_ratio(vb, va):>9} {unit}")


def _ratio(new, base):
    return f"{new / base:.3f}x" if base else "-"


def selftest():
    """The gate must count a wrong cell and a failed CLI exit as failures."""
    from workloads import WORKLOADS, Call, Cli, Tables, child_env, invoke

    problems = []
    tables = WORKLOADS["tables"]
    specs = tables.prepare(7, None)[:10]
    outcome = tables.run(specs, count=len(specs))
    if any(v is not None for v in tables.check(specs, outcome)):
        problems.append("the gate rejects correct tables")
    k, table = outcome["outputs"][0]
    table.columns["percentile"][3] *= 1.0 + 1e-6
    verdicts = tables.check(specs, outcome)
    if sum(v is not None for v in verdicts) != 1:
        problems.append(f"a wrong percentile cell gave verdicts {verdicts}")
    broken = Tables.check_table(specs[k], table)
    print(f"wrong cell -> {broken}")
    outcome["outputs"][1] = (outcome["outputs"][1][0], ValueError("raised on purpose"))
    verdicts = tables.check(specs, outcome)
    print(f"raised operation -> {verdicts[1]}")
    if sum(v is not None for v in verdicts) != 2:
        problems.append(f"a raised operation gave verdicts {verdicts}")

    with workdir_for("selftest") as workdir:
        argv = Cli.command(["residlife", "--values", "1", "--dist", "weibull",
                            "--params", "shape=1.5"])
        inv = invoke(argv, workdir, child_env())
        verdict = Cli.check_invocation(Call("residlife", argv, None, 1), inv, None, {})
        print(f"non-zero exit -> {verdict}")
        if inv.returncode == 0 or verdict is None:
            problems.append("a failed CLI exit was not counted")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] != \
            list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=("python", "compiled"), default="python")
    parser.add_argument("--record", help="write the run record here")
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    _prepare_imports()
    if args.selftest:
        return selftest()
    if args.report:
        report(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        probe_setup(args)
        return 0
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
