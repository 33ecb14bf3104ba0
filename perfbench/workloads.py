"""The three closed-loop workloads: input generation, timed loop, correctness gate.

Each workload has ``prepare(seed, workdir)`` (the set-up that ``setup_s``
times), ``run(inputs, seconds=..., count=...)`` (the closed loop: one caller
waits for each result before sending the next; ``count`` fixes the amount
of work instead of the duration, for traced runs whose counts must repeat;
an optional ``meter`` receives each operation's wall time, see ``speed.py``)
and ``check(inputs, outcome)``, which runs after the loop, outside the timed
region, and returns one entry per attempted operation: ``None`` when the
output is correct, else a message.

Why these three:

* ``tables``: few distribution objects, each evaluated many times.  The
  ``isf`` bisection, gengamma Q < 0 quadrature and the ``specfun`` kernels
  do almost all the work; ``fitting``, ``regression`` and ``cli`` do none.
* ``fit_predict``: the opposite use of ``distributions``: hundreds of
  thousands of distribution objects, each evaluated once, through all three
  likelihood paths (vectorized weibull, the per-row ``make_distribution``
  loop, ``censored_loglik`` without covariates).  No ``cli``.
* ``cli``: short ``mrlife`` processes, where interpreter start, imports and
  click parsing and rendering dominate; the only workload where the import
  layer and ``curve``'s per-point model reload show.
"""
import csv
import json
import math
import os
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mrlife import (DISTRIBUTION_TAGS, CensoredSample, ResidualLifeQuery,
                    censored_loglik, fit, load_model, make_distribution,
                    mrl_quadrature_oracle, predict_residual_life,
                    residual_life_table, save_model)
from mrlife.regression import (Covariate, CovariateSchema, SurvivalModel,
                               model_to_dict)

ROOT = Path(__file__).resolve().parent.parent
P_LEVEL = 0.7
LEVELS = ("High", "Low", "Medium")   # alphabetical, as fit() orders them
EFFECTS = (0.0, -0.4, 0.3)           # location shift per level; High is reference
clock = time.perf_counter


def same_bits(a, b):
    """Bit-for-bit float equality, with every NaN equal to every NaN."""
    if a != a and b != b:
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample_params(tag, rng, left_skew=False):
    """One parameter set from the ranges of tests/conftest.py::sample_params.

    The conftest sampler draws gengamma's left-skew (Q < 0) branch with
    probability 1/4; here the caller passes ``left_skew`` for exactly one
    set in four, so every seed carries the same share.
    """
    if tag == "exponential":
        return {"rate": _loguniform(rng, 0.05, 20.0)}
    if tag == "weibull":
        return {"shape": _loguniform(rng, 0.35, 5.0),
                "scale": _loguniform(rng, 0.1, 20.0)}
    if tag == "gamma":
        return {"shape": _loguniform(rng, 0.3, 8.0),
                "rate": _loguniform(rng, 0.05, 10.0)}
    if tag == "gompertz":
        return {"shape": _loguniform(rng, 0.05, 2.5),
                "rate": _loguniform(rng, 0.01, 2.0)}
    if tag == "lnorm":
        return {"meanlog": float(rng.uniform(-1.5, 2.0)),
                "sdlog": _loguniform(rng, 0.2, 2.0)}
    if tag == "llogis":
        return {"shape": _loguniform(rng, 1.2, 6.0),
                "scale": _loguniform(rng, 0.2, 10.0)}
    if tag == "gengamma.orig":
        return {"shape": _loguniform(rng, 0.4, 4.0),
                "scale": _loguniform(rng, 0.2, 10.0),
                "k": _loguniform(rng, 0.3, 8.0)}
    if tag == "gengamma":
        if left_skew:
            q = float(-rng.uniform(0.2, 1.5))
            sigma = _loguniform(rng, 0.2, 0.9 / abs(q))
        else:
            q = float(rng.uniform(0.2, 2.2))
            sigma = _loguniform(rng, 0.25, 1.8)
        return {"mu": float(rng.uniform(-1.0, 1.5)), "sigma": sigma, "Q": q}
    if tag == "genf.orig":
        sigma = _loguniform(rng, 0.3, 1.5)
        return {"mu": float(rng.uniform(-1.0, 1.0)), "sigma": sigma,
                "s1": _loguniform(rng, 0.5, 5.0),
                "s2": sigma + _loguniform(rng, 0.5, 6.0)}
    if tag == "genf":
        for _ in range(100):
            params = {"mu": float(rng.uniform(-1.0, 1.0)),
                      "sigma": _loguniform(rng, 0.3, 1.5),
                      "Q": float(rng.uniform(-1.2, 1.2)),
                      "P": _loguniform(rng, 0.2, 3.0)}
            if not math.isnan(make_distribution(tag, params).mean()):
                return params
        raise RuntimeError("could not sample a finite-mean genf set")
    raise KeyError(tag)


def _stratified_uniform(rng, n):
    """n uniforms, one in each of n equal strata, shuffled.

    Stratifying keeps the samples close to their distribution, so the
    optimizer's path (and with it the fit cost) varies less between seeds.
    """
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def censored_sample(tag, base, rng, n, with_factor):
    """Right-censored lifetimes with an optional 3-level factor on the location."""
    from scipy.special import gammaincinv, gammainccinv, ndtri

    level = (rng.permutation(np.arange(n) % 3) if with_factor
             else np.zeros(n, dtype=int))
    shift = np.array(EFFECTS)[level]
    u = _stratified_uniform(rng, n)  # survival probability of each lifetime
    if tag == "weibull":
        t = base["scale"] * np.exp(shift) * (-np.log(u)) ** (1.0 / base["shape"])
    elif tag == "lnorm":
        t = np.exp(base["meanlog"] + shift - base["sdlog"] * ndtri(u))
    elif tag == "gamma":
        t = gammainccinv(base["shape"], u) / (base["rate"] * np.exp(shift))
    elif tag == "gengamma":
        q = base["Q"]
        g = gammainccinv(q ** -2, u) if q > 0 else gammaincinv(q ** -2, u)
        t = np.exp(base["mu"] + shift + base["sigma"] * np.log(q * q * g) / q)
    else:
        raise KeyError(tag)
    censor = 3.0 * float(np.median(t)) * -np.log(_stratified_uniform(rng, n))
    event = (t <= censor).astype(float)
    groups = [LEVELS[i] for i in level]
    return np.minimum(t, censor), event, groups


def _factor_schema():
    return CovariateSchema((Covariate("group", "categorical", LEVELS),))


def _generating_model(tag, base, with_factor):
    from mrlife.regression import LOCATION_PARAMS

    location, link = LOCATION_PARAMS[tag]
    intercept = math.log(base[location]) if link == "log" else base[location]
    if with_factor:
        return SurvivalModel(tag, dict(base), (intercept,) + EFFECTS[1:],
                             _factor_schema())
    return SurvivalModel(tag, dict(base), (intercept,))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _failure_if(problems):
    return "; ".join(problems[:3]) if problems else None


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass
class TableSpec:
    tag: str
    params: dict
    dist: object
    query: ResidualLifeQuery
    oracle_row: int  # row whose mean is checked against the oracle; -1 = none


class Tables:
    """residual_life_table(type="all", p=0.7) over all ten families."""

    name = "tables"
    POOL = 48        # parameter sets per family
    ROWS = 20        # lifetimes spread over the 2%..98% quantiles
    DEEP_TAIL = 400.0  # extra lifetime at 400 x the 98% quantile
    TRACE_COUNT = 200  # tables per traced pass

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        specs = []
        for j in range(self.POOL):
            for tag in DISTRIBUTION_TAGS:
                params = sample_params(tag, rng, left_skew=(j % 4 == 3))
                dist = make_distribution(tag, params)
                lo, hi = dist.quantile(0.02), dist.quantile(0.98)
                values = sorted(float(v) for v in lo + (hi - lo) *
                                _stratified_uniform(rng, self.ROWS))
                values.append(hi * self.DEEP_TAIL)
                oracle_row = (int(rng.integers(self.ROWS))
                              if rng.uniform() < 0.25 else -1)
                specs.append(TableSpec(tag, params, dist, ResidualLifeQuery(
                    values=values, p=P_LEVEL, type="all"), oracle_row))
        return specs

    def run(self, specs, seconds=None, count=None, tracer=None, meter=None):
        outputs = []
        started = clock()
        i = 0
        families = len(DISTRIBUTION_TAGS)
        while True:
            spec = specs[i % len(specs)]
            t0 = clock()
            try:
                table = residual_life_table(spec.dist, spec.query)
            except Exception as exc:  # a failed operation; check() counts it
                table = exc
            if meter:
                meter.add(clock() - t0)
            outputs.append((i % len(specs), table))
            i += 1
            if count is not None:
                if i >= count:
                    break
            elif i % families == 0 and clock() - started >= seconds:
                break
        elapsed = clock() - started
        cells = sum(len(t) * len(t.columns) for _, t in outputs
                    if not isinstance(t, Exception))
        return {"outputs": outputs, "elapsed": elapsed, "cells": cells}

    def check(self, specs, outcome):
        verdicts = []
        first = {}
        for k, table in outcome["outputs"]:
            if isinstance(table, Exception):
                verdicts.append(f"{specs[k].tag} {specs[k].params}: "
                                f"residual_life_table raised {table!r}")
                continue
            if k in first:
                same = table.columns.keys() == first[k].columns.keys() and all(
                    len(table.columns[n]) == len(first[k].columns[n])
                    and all(map(same_bits, table.columns[n], first[k].columns[n]))
                    for n in table.columns)
                verdicts.append(None if same else
                                f"table {k}: repeat differs from the first evaluation")
                continue
            first[k] = table
            verdicts.append(self.check_table(specs[k], table))
        return verdicts

    @staticmethod
    def check_table(spec, table):
        """Degenerate-cell rules, percentile round trip (1e-8), oracle (1e-6)."""
        dist, problems = spec.dist, []
        if table.column_names != ["mean", "median", "percentile"] or \
                len(table) != len(spec.query.values):
            return f"{spec.tag}: table shape {table.column_names} x {len(table)}"
        for i, x in enumerate(table.values):
            mean = table.columns["mean"][i]
            s = dist.survival(x)
            where = f"{spec.tag} {spec.params} x={x!r}"
            if s <= 0.0:
                if not (math.isnan(mean) and table.columns["median"][i] == math.inf
                        and table.columns["percentile"][i] == math.inf):
                    problems.append(f"{where}: survival underflows but cells are "
                                    f"not NaN/Inf/Inf")
                continue
            if math.isnan(mean):
                # NaN is the documented answer only where quadrature of the
                # survival curve does not converge either
                _, converged = mrl_quadrature_oracle(dist, x, return_diagnostic=True)
                if converged:
                    problems.append(f"{where}: mean NaN but the oracle converges")
            elif not (math.isfinite(mean) and mean > 0.0):
                problems.append(f"{where}: mean {mean!r}")
            for alpha, column in ((0.5, "median"), (P_LEVEL, "percentile")):
                q = table.columns[column][i]
                upper = (1.0 - alpha) * s
                if upper <= 0.0:
                    if q != math.inf:
                        problems.append(f"{where}: {column} {q!r}, expected Inf")
                elif not (math.isfinite(q) and q >= 0.0 and
                          abs(dist.cdf(x + q) - (1.0 - upper)) <= 1e-8):
                    problems.append(f"{where}: {column} {q!r} fails the round trip")
            if i == spec.oracle_row and not math.isnan(mean):
                # a non-convergent oracle (NaN) cannot verify the cell
                oracle = mrl_quadrature_oracle(dist, x)
                if oracle == oracle and not abs(mean - oracle) <= 1e-6 * abs(oracle):
                    problems.append(f"{where}: mean {mean!r} vs oracle {oracle!r}")
        return _failure_if(problems)

    def metrics(self, outcome):
        return {}  # cells_per_s, the gated metric, is this workload's own

    @staticmethod
    def result_tables(outcome):
        return [table.columns for _, table in outcome["outputs"]
                if not isinstance(table, Exception)]

    def input_sizes(self, specs):
        return {"parameter_sets": len(specs), "families": len(DISTRIBUTION_TAGS),
                "rows_per_table": self.ROWS + 1, "p": P_LEVEL}


# ---------------------------------------------------------------------------
# fit_predict
# ---------------------------------------------------------------------------

@dataclass
class FitJob:
    tag: str
    sample: CensoredSample
    covariates: tuple
    truth: SurvivalModel
    life: float


class FitPredict:
    """Five fits at n=200, a model-file round trip each, predictions on the training rows."""

    name = "fit_predict"
    N = 200
    BATCHES = 4   # distinct seeded batches; a long run cycles through them
    MIN_BATCHES = 3  # fit cost varies with the sample: average over three at least
    TRACE_COUNT = 1  # batches per traced pass
    # (family, generating baseline, with the 3-level factor)
    FITS = (
        ("weibull", {"shape": 1.4, "scale": 5.0}, True),
        ("lnorm", {"meanlog": 1.2, "sdlog": 0.8}, True),
        ("gamma", {"shape": 2.0, "rate": 0.5}, True),
        ("gengamma", {"mu": 1.0, "sigma": 0.7, "Q": 0.8}, True),
        ("gengamma", {"mu": 1.0, "sigma": 0.7, "Q": 0.8}, False),
    )

    def prepare(self, seed, workdir):
        batches = []
        for b in range(self.BATCHES):
            rng = np.random.default_rng([seed, b])
            jobs = []
            for tag, base, with_factor in self.FITS:
                t, event, groups = censored_sample(tag, base, rng, self.N, with_factor)
                sample = CensoredSample.from_lists(
                    t, event, {"group": groups} if with_factor else None)
                jobs.append(FitJob(tag, sample, ("group",) if with_factor else (),
                                   _generating_model(tag, base, with_factor),
                                   float(np.median(t))))
            batches.append(jobs)
        return {"batches": batches, "workdir": Path(workdir)}

    def run(self, inputs, seconds=None, count=None, tracer=None, meter=None):
        batches, workdir = inputs["batches"], inputs["workdir"]
        records = []
        started = clock()
        b = 0
        while True:
            jobs = batches[b % len(batches)]
            fits, md_calls = [], []
            fit_s = predict_s = 0.0
            for job in jobs:
                before = tracer.calls("distributions.make_distribution") if tracer else 0
                t0 = clock()
                try:
                    fits.append(fit(job.tag, job.sample, job.covariates))
                except Exception as exc:  # a failed operation; check() counts it
                    fits.append(exc)
                busy = clock() - t0
                fit_s += busy
                if meter:
                    meter.add(busy)
                if tracer:
                    md_calls.append(tracer.calls("distributions.make_distribution") - before)
            predictions = []
            for k, (job, fitted) in enumerate(zip(jobs, fits)):
                if isinstance(fitted, Exception):
                    predictions.append(fitted)
                    continue
                path = workdir / f"model-{k}.json"
                t0 = clock()
                try:
                    save_model(fitted[1], path)
                    loaded = load_model(path)
                    predictions.append((loaded, predict_residual_life(
                        loaded, job.life, p=P_LEVEL, type="all")))
                except Exception as exc:
                    predictions.append(exc)
                busy = clock() - t0
                predict_s += busy
                if meter:
                    meter.add(busy)
            records.append({"batch": b % len(batches), "fits": fits,
                            "predictions": predictions, "fit_s": fit_s,
                            "predict_s": predict_s, "make_distribution": md_calls})
            b += 1
            if count is not None:
                if b >= count:
                    break
            elif clock() - started >= seconds and b >= self.MIN_BATCHES:
                break
        elapsed = clock() - started
        rows = sum(len(p[1]) for r in records for p in r["predictions"]
                   if not isinstance(p, Exception))
        return {"records": records, "elapsed": elapsed, "rows": rows,
                "cells": 3 * rows}

    def check(self, inputs, outcome):
        verdicts = []
        for record in outcome["records"]:
            jobs = inputs["batches"][record["batch"]]
            for job, fitted, predicted in zip(jobs, record["fits"],
                                              record["predictions"]):
                if isinstance(fitted, Exception):
                    verdicts.append(f"{job.tag}{list(job.covariates)}: fit raised "
                                    f"{fitted!r}")
                else:
                    verdicts.append(self.check_fit(job, fitted[0]))
                if isinstance(predicted, Exception):
                    verdicts.append(f"{job.tag}: prediction raised {predicted!r}")
                else:
                    verdicts.append(self.check_prediction(job, fitted[1], *predicted))
        return verdicts

    @staticmethod
    def check_fit(job, result):
        truth_loglik = censored_loglik(job.truth, job.sample)
        if not result.converged:
            return f"{job.tag}{list(job.covariates)}: not converged"
        if not result.loglik >= truth_loglik:
            return (f"{job.tag}{list(job.covariates)}: loglik {result.loglik!r} "
                    f"below the generating parameters' {truth_loglik!r}")
        return None

    @staticmethod
    def check_prediction(job, model, loaded, table):
        if loaded != model:
            return f"{job.tag}: model changed in the save/load round trip"
        rows = model.training_rows if model.training_rows is not None else [{}]
        if len(table) != len(rows):
            return f"{job.tag}: {len(table)} prediction rows for {len(rows)} inputs"
        query = ResidualLifeQuery(values=[job.life], p=P_LEVEL, type="all")
        problems = []
        for i, row in enumerate(rows):
            reference = residual_life_table(model.resolve_row(row), query)
            for name, column in reference.columns.items():
                if not same_bits(table.columns[name][i], column[0]):
                    problems.append(f"{job.tag} row {i} {name}: "
                                    f"{table.columns[name][i]!r} != {column[0]!r}")
        return _failure_if(problems)

    def metrics(self, outcome):
        records = outcome["records"]
        predict_s = sum(r["predict_s"] for r in records)
        return {"fit_s": statistics.median(r["fit_s"] for r in records),
                "predict_rows_per_s": outcome["rows"] / predict_s if predict_s else 0.0}

    @staticmethod
    def result_tables(outcome):
        return [p[1].columns for r in outcome["records"] for p in r["predictions"]
                if not isinstance(p, Exception)]

    def input_sizes(self, inputs):
        return {"n": self.N, "fits_per_batch": len(self.FITS),
                "distinct_batches": len(inputs["batches"]),
                "min_batches": self.MIN_BATCHES, "factor_levels": len(LEVELS)}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def child_env():
    """The whole environment of a CLI child: nothing ambient leaks in."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(ROOT / "src"),
            "LC_ALL": "C.UTF-8",
            "MRLIFE_PURE_PYTHON": "1"}


@dataclass
class Call:
    """One CLI invocation of the rotation."""

    sub: str
    argv: list
    expect: tuple      # residlife: (tag, params, values, type)
    cells: int         # residual-life cells it prints or writes
    output: str = None  # file it writes, read back for the gate


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    stdout: str
    stderr: str
    maxrss_mb: float


def invoke(argv, workdir, env, timeout=150.0):
    """Run one child to completion; wall time from spawn to reaping."""
    with open(Path(workdir) / "stdout.txt", "w+b") as out, \
            open(Path(workdir) / "stderr.txt", "w+b") as err:
        started = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(proc.returncode, wall,
                          out.read().decode("utf-8", "replace"),
                          err.read().decode("utf-8", "replace"),
                          usage.ru_maxrss / 1024.0)


class Cli:
    """A fixed rotation of mrlife subprocesses (python -m mrlife.cli, PYTHONPATH=src)."""

    name = "cli"
    N = 200
    VALUES = 19
    CURVE_POINTS = 10
    MIN_INVOCATIONS = 40   # leaves >= 10 invocations beyond the 75th percentile
    TRACE_COUNT = 2        # rotations per traced pass

    def prepare(self, seed, workdir):
        from mrlife.cli import parse_values

        workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        cases = []
        for tag, left_skew, rtype in (("weibull", False, "mean"),
                                      ("gengamma", True, "all")):
            params = sample_params(tag, rng, left_skew=left_skew)
            dist = make_distribution(tag, params)
            lo, hi = dist.quantile(0.02), dist.quantile(0.98)
            values = sorted(float(v) for v in lo + (hi - lo) *
                            _stratified_uniform(rng, self.VALUES))
            cases.append((tag, params, values, rtype))

        base = dict(FitPredict.FITS[0][1])
        t, event, groups = censored_sample("weibull", base, rng, self.N, True)
        train = workdir / "train.csv"
        _write_csv(train, ["time", "event", "group"],
                   [[repr(float(a)), repr(float(b)), g]
                    for a, b, g in zip(t, event, groups)])
        sample = CensoredSample.from_lists([float(v) for v in t],
                                           [float(v) for v in event],
                                           {"group": groups})
        fit_result, model = fit("weibull", sample, ["group"])
        model_path = workdir / "model.json"
        save_model(model, model_path)
        new_groups = [LEVELS[i] for i in rng.integers(0, 3, size=self.N)]
        newdata = workdir / "new.csv"
        _write_csv(newdata, ["group"], [[g] for g in new_groups])
        life = float(np.median(t))
        step = life / self.CURVE_POINTS
        curve_range = f"{step!r}:{step * self.CURVE_POINTS!r}:{step!r}"

        rotation = []
        for tag, params, values, rtype in cases:
            argv = ["residlife", "--values", ",".join(repr(v) for v in values),
                    "--dist", tag,
                    "--params", ",".join(f"{k}={v!r}" for k, v in params.items()),
                    "--type", rtype, "--p", repr(P_LEVEL), "--format", "json"]
            cells = len(values) * (3 if rtype == "all" else 1)
            rotation.append(Call("residlife", argv, (tag, params, values, rtype), cells))
        rotation.append(Call("fit", ["fit", "--data", "train.csv", "--time", "time",
                                     "--event", "event", "--dist", "weibull",
                                     "--covariates", "group", "--out", "fitted.json",
                                     "--format", "json"], None, 0, "fitted.json"))
        rotation.append(Call("predict", ["predict", "--model", "model.json",
                                         "--life", repr(life), "--p", repr(P_LEVEL),
                                         "--type", "all", "--newdata", "new.csv",
                                         "--format", "json"], None, 3 * self.N))
        curve_lives = parse_values(curve_range)
        rotation.append(Call("curve", ["curve", "--model", "model.json", "--newdata",
                                       "new.csv", "--range", curve_range,
                                       "--out", "curve.csv"], None, len(curve_lives),
                             "curve.csv"))
        return {"workdir": workdir, "rotation": rotation, "fit_result": fit_result,
                "model": model, "new_rows": [{"group": g} for g in new_groups],
                "life": life, "curve_lives": curve_lives}

    @staticmethod
    def command(argv, traced_out=None):
        if traced_out is None:
            return [sys.executable, "-m", "mrlife.cli"] + argv
        return [sys.executable, str(Path(__file__).with_name("cli_shim.py")),
                str(traced_out)] + argv

    def run(self, inputs, seconds=None, count=None, tracer=None, meter=None):
        workdir, rotation = inputs["workdir"], inputs["rotation"]
        env = child_env()
        invocations = []
        started = clock()
        rotations = 0
        while True:
            for call in rotation:
                traced_out = None
                if tracer is not None:
                    traced_out = workdir / f"spans-{len(invocations)}.json"
                inv = invoke(self.command(call.argv, traced_out), workdir, env)
                if meter:
                    meter.add(inv.wall_s)
                artifact = None
                if call.output:
                    path = workdir / call.output
                    artifact = path.read_text(encoding="utf-8") if path.exists() else ""
                    path.unlink(missing_ok=True)
                if traced_out is not None and traced_out.exists():
                    tracer.merge(json.loads(traced_out.read_text(encoding="utf-8")))
                    traced_out.unlink()
                invocations.append((call, inv, artifact))
            rotations += 1
            if count is not None:
                if rotations >= count:
                    break
            elif (clock() - started >= seconds
                  and len(invocations) >= self.MIN_INVOCATIONS):
                break
        elapsed = clock() - started
        return {"invocations": invocations, "elapsed": elapsed,
                "cells": sum(call.cells for call, _, _ in invocations),
                "peak_rss_mb": max(inv.maxrss_mb for _, inv, _ in invocations)}

    def check(self, inputs, outcome):
        expected = self._expectations(inputs)
        return [self.check_invocation(call, inv, artifact, expected)
                for call, inv, artifact in outcome["invocations"]]

    @staticmethod
    def _expectations(inputs):
        model = inputs["model"]
        predict = predict_residual_life(model, inputs["life"], p=P_LEVEL,
                                        type="all", newdata=inputs["new_rows"])
        curve = [predict_residual_life(model, life, type="mean",
                                       newdata=inputs["new_rows"]).columns["mean"][0]
                 for life in inputs["curve_lives"]]
        return {"predict": predict, "curve": curve,
                "fit": inputs["fit_result"],
                "model": json.loads(json.dumps(model_to_dict(model)))}

    @staticmethod
    def check_invocation(call, inv, artifact, expected):
        sub = call.sub
        if inv.returncode != 0:
            return f"{sub}: exit code {inv.returncode}: {inv.stderr.strip()[-200:]}"
        try:
            if sub == "residlife":
                tag, params, values, rtype = call.expect
                table = residual_life_table(make_distribution(tag, params),
                                            ResidualLifeQuery(values, P_LEVEL, rtype))
                return _compare_table_json(sub, inv.stdout, table)
            if sub == "predict":
                return _compare_table_json(sub, inv.stdout, expected["predict"])
            if sub == "fit":
                doc = json.loads(inv.stdout)
                result = expected["fit"]
                same = (doc["converged"] is True and doc["converged"] == result.converged
                        and same_bits(doc["loglik"], result.loglik)
                        and doc["iterations"] == result.iterations
                        and doc["estimates"].keys() == result.estimates.keys()
                        and all(same_bits(doc["estimates"][k], v)
                                and same_bits(doc["std_errors"][k], result.std_errors[k])
                                for k, v in result.estimates.items())
                        and json.loads(artifact) == expected["model"])
                return None if same else "fit: output differs from the in-process fit"
            if sub == "curve":
                rows = list(csv.reader(artifact.splitlines()))
                got = [float(r[1]) for r in rows[1:]]
                same = (rows and rows[0] == ["life", "mean"]
                        and len(got) == len(expected["curve"])
                        and all(same_bits(a, b) for a, b in zip(got, expected["curve"])))
                return None if same else "curve: file differs from the in-process curve"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{sub}: unreadable output ({exc!r})"
        return f"{sub}: unknown subcommand"

    def metrics(self, outcome):
        walls = [inv.wall_s * 1e3 for _, inv, _ in outcome["invocations"]]
        quartiles = statistics.quantiles(walls, n=4)
        return {"cli_ms_p50": statistics.median(walls), "cli_ms_p75": quartiles[2],
                "cli_invocations": len(walls)}

    @staticmethod
    def result_tables(outcome):
        tables = []
        for call, inv, _ in outcome["invocations"]:
            if call.sub in ("residlife", "predict") and inv.returncode == 0:
                try:
                    tables.append(json.loads(inv.stdout)["columns"])
                except (ValueError, KeyError):
                    pass
        return tables

    def input_sizes(self, inputs):
        return {"rotation": [call.sub for call in inputs["rotation"]], "n": self.N,
                "residlife_values": self.VALUES, "curve_points": self.CURVE_POINTS,
                "min_invocations": self.MIN_INVOCATIONS}


def _compare_table_json(sub, stdout, table):
    doc = json.loads(stdout)
    if doc.get("subcommand") != sub or list(doc["columns"]) != table.column_names:
        return f"{sub}: JSON has the wrong shape"
    if not all(same_bits(a, b) for a, b in zip(doc["values"], table.values)) or \
            len(doc["values"]) != len(table.values):
        return f"{sub}: JSON values differ"
    for name, column in table.columns.items():
        got = doc["columns"][name]
        if len(got) != len(column) or not all(same_bits(a, b)
                                              for a, b in zip(got, column)):
            return f"{sub}: JSON column {name} differs from the in-process result"
    return None


WORKLOADS = {w.name: w for w in (Tables(), FitPredict(), Cli())}
