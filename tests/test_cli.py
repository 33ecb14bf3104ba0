"""End-to-end CLI tests: goldens, formats, error contracts, files."""
import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import mpmath
import pytest
from click.testing import CliRunner

from mrlife.cli import MAX_VALUES, main, parse_values
from mrlife.regression import DataError, load_model

from conftest import weibull_censored_sample

WEIBULL_ARGS = ["--dist", "weibull", "--params", "shape=1.272,scale=6.191"]

TABLE_JSON_SCHEMA = {
    "type": "object",
    "required": ["subcommand", "values", "columns"],
    "properties": {
        "subcommand": {"type": "string"},
        "values": {"type": "array", "items": {"type": "number"}},
        "columns": {
            "type": "object",
            "additionalProperties": {"type": "array"},
        },
    },
}

FIT_JSON_SCHEMA = {
    "type": "object",
    "required": ["subcommand", "estimates", "std_errors", "ci95", "loglik",
                 "converged", "iterations", "evaluations"],
    "properties": {
        "subcommand": {"const": "fit"},
        "estimates": {"type": "object",
                      "additionalProperties": {"type": "number"}},
        "std_errors": {"type": "object"},
        "ci95": {"type": "object",
                 "additionalProperties": {"type": "array", "minItems": 2,
                                          "maxItems": 2}},
        "loglik": {"type": "number"},
        "converged": {"type": "boolean"},
        "iterations": {"type": "integer"},
        "evaluations": {"type": "integer"},
    },
}


def run(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


def parse_csv(text):
    rows = list(csv.reader(text.strip().splitlines()))
    header, body = rows[0], rows[1:]
    columns = {name: [] for name in header}
    for row in body:
        for name, cell in zip(header, row):
            columns[name].append(float(cell))
    return columns


def write_csv(path, columns):
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow([columns[name][i] for name in names])


class TestParseValues:
    def test_range_inclusive(self):
        values = parse_values("1:10:0.5")
        assert len(values) == 19
        assert values[0] == 1.0 and values[-1] == 10.0

    def test_range_with_drifting_step(self):
        values = parse_values("1:2:0.1")
        assert len(values) == 11
        assert values[-1] == 2.0

    def test_comma_list(self):
        assert parse_values("1,2.5,4") == [1.0, 2.5, 4.0]

    def test_bad_spec(self):
        import click
        with pytest.raises(click.UsageError):
            parse_values("1:10:-1")
        with pytest.raises(click.UsageError):
            parse_values("10:1:0.5")

    @pytest.mark.parametrize("spec", ["1:inf:1", "-inf:1:1", "1:2:inf",
                                      "nan:2:1"])
    def test_non_finite_range_bound_exit_2(self, spec):
        res = run(["residlife", "--values", spec, *WEIBULL_ARGS])
        assert res.exit_code == 2
        assert "bad --values/--range" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("spec", ["", ",", " , "])
    def test_empty_list_exit_2(self, spec):
        res = run(["residlife", "--values", spec, *WEIBULL_ARGS])
        assert res.exit_code == 2
        assert "no lifetimes given" in res.output
        assert "Traceback" not in res.output

    def test_range_is_capped(self):
        import click
        assert len(parse_values(f"1:{MAX_VALUES}:1")) == MAX_VALUES
        with pytest.raises(click.UsageError, match="at most"):
            parse_values(f"1:{MAX_VALUES + 1}:1")
        res = run(["residlife", "--values", "0:1e9:1e-3", *WEIBULL_ARGS])
        assert res.exit_code == 2
        assert "bad --values/--range" in res.output
        assert "Traceback" not in res.output


class TestResidlife:
    def test_golden_weibull_csv(self):
        res = run(["residlife", "--values", "1:10:0.5", *WEIBULL_ARGS,
                   "--format", "csv"])
        assert res.exit_code == 0
        cols = parse_csv(res.output)
        assert len(cols["mean"]) == 19
        assert cols["mean"][0] == pytest.approx(5.280618, abs=5e-6)
        assert cols["mean"][-1] == pytest.approx(3.942246, abs=5e-6)

    def test_table_mode_prints_golden_digits(self):
        res = run(["residlife", "--values", "1:10:0.5", *WEIBULL_ARGS])
        assert res.exit_code == 0
        assert "5.280618" in res.output
        assert "3.942246" in res.output

    def test_all_table_golden_row(self):
        res = run(["residlife", "--values", "1", *WEIBULL_ARGS,
                   "--type", "all", "--p", "0.7", "--format", "csv"])
        cols = parse_csv(res.output)
        assert cols["mean"][0] == pytest.approx(5.280618, abs=5e-6)
        assert cols["median"][0] == pytest.approx(4.151524, abs=5e-6)
        assert cols["percentile"][0] == pytest.approx(6.619995, abs=5e-6)

    def test_exponential_all_memoryless(self):
        res = run(["residlife", "--values", "1", "--dist", "exponential",
                   "--params", "rate=2", "--type", "all", "--p", "0.5",
                   "--format", "json"])
        doc = json.loads(res.output)
        assert doc["columns"]["mean"][0] == pytest.approx(0.5, rel=1e-12)
        assert doc["columns"]["median"][0] == pytest.approx(math.log(2) / 2,
                                                            rel=1e-12)
        assert doc["columns"]["percentile"][0] == pytest.approx(math.log(2) / 2,
                                                                rel=1e-12)

    def test_wrong_parameter_names_exit_2(self):
        res = run(["residlife", "--values", "1:10:0.5", "--dist", "weibull",
                   "--params", "shape=1.272,not_scale=6.191"])
        assert res.exit_code == 2
        assert ("incorrect parameters entered. Parameters for weibull are "
                "shape and scale") in res.output

    @pytest.mark.parametrize("dist,params", [
        ("gengamma", "mu=0,sigma=1,Q=1e-160"),  # Q**-2 overflows
        ("genf", "mu=0,sigma=1,Q=1e5,P=1e-300"),  # 2/0 converting to genf.orig
    ])
    def test_arithmetic_failure_is_a_usage_error(self, dist, params):
        # catch_exceptions=False: a traceback would fail the test itself
        res = run(["residlife", "--values", "1", "--dist", dist, "--params", params])
        assert res.exit_code == 2
        assert f"Error: parameters out of numerical range for {dist}" in res.output
        assert "Traceback" not in res.output

    def test_repeated_parameter_name_exit_2(self):
        res = run(["residlife", "--values", "1", "--dist", "weibull",
                   "--params", "shape=1.2,scale=3,shape=2"])
        assert res.exit_code == 2
        assert "'shape' more than once" in res.output

    def test_bad_p_exit_2(self):
        res = run(["residlife", "--values", "1", *WEIBULL_ARGS, "--p", "1.5"])
        assert res.exit_code == 2

    def test_json_schema(self):
        res = run(["residlife", "--values", "1,2", *WEIBULL_ARGS,
                   "--format", "json"])
        doc = json.loads(res.output)
        jsonschema.validate(doc, TABLE_JSON_SCHEMA)

    def test_csv_round_trips_bit_for_bit(self):
        from mrlife import ResidualLifeQuery, make_distribution, residual_life_table
        res = run(["residlife", "--values", "1:10:0.5", *WEIBULL_ARGS,
                   "--type", "all", "--p", "0.7", "--format", "csv"])
        parsed = parse_csv(res.output)
        d = make_distribution("weibull", {"shape": 1.272, "scale": 6.191})
        table = residual_life_table(
            d, ResidualLifeQuery(values=parse_values("1:10:0.5"), p=0.7,
                                 type="all"))
        for name in table.column_names:
            assert parsed[name] == table.columns[name]

    def test_nan_inf_rendering(self):
        res = run(["residlife", "--values", "22", "--dist", "weibull",
                   "--params", "shape=2.9,scale=2.2", "--type", "all",
                   "--p", "0.7"])
        assert "NaN" in res.output and "Inf" in res.output

    def test_env_var_sets_default_format(self):
        res = run(["residlife", "--values", "1", *WEIBULL_ARGS],
                  env={"MRLIFE_FORMAT": "json"})
        json.loads(res.output)

    @pytest.mark.parametrize("q", [-0.003, 0.003])
    def test_gengamma_near_lognormal_prints_no_unresolved_cell(self, q):
        # k = Q^-2 ~ 1.1e5: the incomplete-gamma kernels do not converge for
        # z near k, around t ~ e here.  Both commands must exit 0, and every
        # printed cell must be NaN or right: no root made up from the
        # bisection's pivot (once 2.218282 at x = 0.5 for Q < 0).
        from mrlife import make_distribution
        args = ["residlife", "--values", "0.5,2", "--dist", "gengamma",
                "--params", f"mu=1,sigma=0.5,Q={q}", "--type", "all"]
        res = run(args)
        assert res.exit_code == 0, res.output
        assert "2.218282" not in res.output
        doc = json.loads(run(args + ["--format", "json"]).output)
        d = make_distribution("gengamma", {"mu": 1.0, "sigma": 0.5, "Q": q})
        for i, x in enumerate(doc["values"]):
            mean = doc["columns"]["mean"][i]
            if math.isfinite(mean):
                assert mean == pytest.approx(_gengamma_mrl_mpmath(1.0, 0.5, q, x),
                                             rel=1e-6)
            for name in ("median", "percentile"):
                v = doc["columns"][name][i]
                if math.isfinite(v):
                    assert d.ln_survival(x + v) == pytest.approx(
                        math.log(0.5) + d.ln_survival(x), rel=1e-8)


def _gengamma_mrl_mpmath(mu, sigma, q, x):
    """E[T; T > x]/S(x) - x for gengamma at 50 digits."""
    with mpmath.workdps(50):
        mu, sigma, q, x = (mpmath.mpf(v) for v in (mu, sigma, q, x))
        k = 1 / q ** 2
        g = k + sigma / q
        scale = mpmath.exp(mu + 2 * (sigma / q) * mpmath.log(abs(q)))
        z = k * mpmath.exp(q * (mpmath.log(x) - mu) / sigma)
        if q > 0:
            ratio = mpmath.gammainc(g, z) / mpmath.gammainc(k, z)
        else:
            ratio = mpmath.gammainc(g, 0, z) / mpmath.gammainc(k, 0, z)
        return float(scale * ratio - x)


def _run_python(code, *argv, timeout=None):
    import mrlife
    src = str(Path(mrlife.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=timeout).stdout


def test_quantile_with_a_degenerate_pivot_returns():
    # the bisection pivot of this gengamma is exp of a cancelled 3e19 - 3e19:
    # 0.0, which no bracket can grow from
    code = "from mrlife.cli import main\nmain()\n"
    _run_python(code, "residlife", "--values", "0,1", "--dist", "gengamma",
                "--params", "mu=-4.06,sigma=0.0645,Q=-1.75e-19", "--type", "median",
                timeout=10)


def test_cli_import_leaves_out_scipy_and_numpy():
    code = ("import sys, mrlife.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    assert _run_python(code).strip() == "[]"


def test_fit_leaves_out_scipy(tmp_path):
    # the optimizer is fitting.minimize; scipy is left to the quadrature oracle
    time, event = weibull_censored_sample(60, 1.5, 4.0, 0.2, seed=3)
    path = tmp_path / "sample.csv"
    write_csv(path, {"t": list(time), "status": [int(e) for e in event],
                     "group": ["ab"[i % 2] for i in range(60)]})
    code = ("import sys, mrlife.fitting\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "from mrlife.cli import main\n"
            "main(['fit', '--data', sys.argv[1], '--time', 't', '--event', 'status',\n"
            "      '--dist', 'weibull', '--covariates', 'group', '--format', 'json'],\n"
            "     standalone_mode=False)\n"
            "print(scipy())\n")
    lines = _run_python(code, str(path)).strip().splitlines()
    assert lines[0] == "[]"
    assert json.loads("\n".join(lines[1:-1]))["converged"] is True
    assert lines[-1] == "[]"


def test_cli_runs_with_numpy_and_scipy_blocked(tmp_path):
    # the package depends on click alone: with numpy and scipy unimportable,
    # residlife and fit exit 0 and print what an unblocked run prints
    time, event = weibull_censored_sample(60, 1.5, 4.0, 0.2, seed=3)
    path = tmp_path / "sample.csv"
    write_csv(path, {"t": list(time), "status": [int(e) for e in event],
                     "group": ["abc"[i % 3] for i in range(60)]})
    block = "import sys; sys.modules['numpy'] = sys.modules['scipy'] = None\n"
    code = ("import sys, mrlife\n"
            "from mrlife.cli import main\n"
            "main(sys.argv[1:], prog_name='mrlife')\n")
    for args in (["residlife", "--values", "0.5,2,7", *WEIBULL_ARGS, "--type", "all"],
                 ["fit", "--data", str(path), "--time", "t", "--event", "status",
                  "--dist", "weibull", "--covariates", "group", "--format", "json"]):
        blocked = _run_python(block + code, *args)
        assert blocked and blocked == _run_python(code, *args)


def test_version_names_package_and_backend():
    import mrlife
    from mrlife import specfun
    result = run(["--version"])
    assert result.exit_code == 0
    assert result.output == f"mrlife {mrlife.__version__} ({specfun.BACKEND} kernels)\n"


def test_version_matches_pyproject():
    import re
    import mrlife
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert declared and declared.group(1) == mrlife.__version__


@pytest.fixture
def weibull_csv(tmp_path):
    time, event = weibull_censored_sample(800, 1.5, 4.0, 0.2, seed=42)
    path = tmp_path / "sample.csv"
    write_csv(path, {"t": list(time), "status": [int(e) for e in event]})
    return path


class TestFitCommand:
    def test_fit_recovers_and_writes_model(self, tmp_path, weibull_csv):
        model_path = tmp_path / "model.json"
        res = run(["fit", "--data", str(weibull_csv), "--time", "t",
                   "--event", "status", "--dist", "weibull",
                   "--out", str(model_path), "--format", "json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        jsonschema.validate(doc, FIT_JSON_SCHEMA)
        assert doc["estimates"]["shape"] == pytest.approx(1.5, rel=0.1)
        assert doc["estimates"]["scale"] == pytest.approx(4.0, rel=0.1)
        model_doc = json.loads(model_path.read_text())
        assert model_doc["schema_version"] == 1

    def test_fit_csv_matches_json(self, tmp_path):
        path = tmp_path / "covariate.csv"
        time, event = weibull_censored_sample(120, 1.5, 4.0, 0.2, seed=7)
        write_csv(path, {"t": list(time), "status": [int(e) for e in event],
                         "group": ["abc"[i % 3] for i in range(120)]})
        args = ["fit", "--data", str(path), "--time", "t", "--event", "status",
                "--dist", "weibull", "--covariates", "group", "--format"]
        doc = json.loads(run(args + ["json"]).output)
        res = run(args + ["csv"])
        assert res.exit_code == 0
        rows = list(csv.reader(res.output.splitlines()))
        assert rows[0] == ["parameter", "est", "L95", "U95", "se"]
        assert [row[0] for row in rows[1:]] == list(doc["estimates"])
        for name, est, lo, hi, se in rows[1:]:
            # repr round trip: the csv cells carry every bit of the json floats
            assert float(est) == doc["estimates"][name]
            assert [float(lo), float(hi)] == doc["ci95"][name]
            assert float(se) == doc["std_errors"][name]

    def test_fit_table_output(self, weibull_csv):
        res = run(["fit", "--data", str(weibull_csv), "--time", "t",
                   "--event", "status", "--dist", "weibull"])
        assert res.exit_code == 0
        assert "est" in res.output and "L95" in res.output
        assert "loglik:" in res.output

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_convergence_exits_0(self, monkeypatch, weibull_csv, fmt):
        # a search that stops short is reported in the output, not as an error
        from dataclasses import replace
        from mrlife import cli
        real = cli.fit_mle

        def stopped_short(*args):
            result, model = real(*args)
            return replace(result, converged=False), model

        monkeypatch.setattr(cli, "fit_mle", stopped_short)
        res = run(["fit", "--data", str(weibull_csv), "--time", "t",
                   "--event", "status", "--dist", "weibull", "--format", fmt])
        assert res.exit_code == 0
        if fmt == "json":
            doc = json.loads(res.output)
            jsonschema.validate(doc, FIT_JSON_SCHEMA)
            assert doc["converged"] is False
        else:
            assert "converged: False" in res.output

    def test_all_censored_is_an_error(self, tmp_path):
        path = tmp_path / "cens.csv"
        write_csv(path, {"t": [1.0, 2.0], "status": [0, 0]})
        res = run(["fit", "--data", str(path), "--time", "t",
                   "--event", "status", "--dist", "weibull"])
        assert res.exit_code == 1
        assert "no observed events" in res.output

    def test_unknown_column_exit_2(self, weibull_csv):
        res = run(["fit", "--data", str(weibull_csv), "--time", "missing",
                   "--event", "status", "--dist", "weibull"])
        assert res.exit_code == 2

    def test_unreadable_file_exit_2(self):
        res = run(["fit", "--data", "/nonexistent.csv", "--time", "t",
                   "--event", "status", "--dist", "weibull"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("column", ["t", "x"])
    def test_non_finite_value_exit_1(self, tmp_path, column):
        columns = {"t": [1.0, 2.0, 3.0], "status": [1, 0, 1], "x": [0.1, 0.2, 0.3]}
        columns[column][1] = {"t": "inf", "x": "nan"}[column]
        path = tmp_path / "nonfinite.csv"
        write_csv(path, columns)
        res = run(["fit", "--data", str(path), "--time", "t", "--event",
                   "status", "--dist", "weibull", "--covariates", "x"])
        assert res.exit_code == 1
        assert "Error:" in res.output and "finite" in res.output

    def test_repeated_covariate_name_exit_2(self, tmp_path):
        path = tmp_path / "group.csv"
        write_csv(path, {"t": [1.0, 2.0, 3.0], "status": [1, 0, 1],
                         "group": ["a", "b", "a"]})
        res = run(["fit", "--data", str(path), "--time", "t", "--event",
                   "status", "--dist", "weibull", "--covariates", "group,group"])
        assert res.exit_code == 2
        assert "'group' more than once" in res.output

    def test_non_binary_event_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, {"t": [1.0, 2.0], "status": [1, 2]})
        res = run(["fit", "--data", str(path), "--time", "t",
                   "--event", "status", "--dist", "weibull"])
        assert res.exit_code == 2


@pytest.fixture
def fitted_covariate_model(tmp_path):
    import numpy as np
    rng = np.random.default_rng(77)
    n = 500
    group = rng.choice(["Good", "Medium", "Poor"], size=n)
    age = rng.uniform(30.0, 70.0, size=n)
    scale = 5.0 * np.exp(0.3 * (group == "Medium") - 0.4 * (group == "Poor")
                         + 0.01 * (age - 50.0))
    t = scale * (-np.log(rng.uniform(size=n))) ** (1 / 1.4)
    data_path = tmp_path / "train.csv"
    write_csv(data_path, {"recyrs": list(t), "censrec": [1] * n,
                          "group": list(group), "age": list(age)})
    model_path = tmp_path / "model.json"
    res = run(["fit", "--data", str(data_path), "--time", "recyrs",
               "--event", "censrec", "--dist", "weibull",
               "--covariates", "group,age", "--out", str(model_path)])
    assert res.exit_code == 0
    return model_path


class TestPredictCommand:
    def test_intercept_only_matches_residlife(self, tmp_path, weibull_csv):
        model_path = tmp_path / "m.json"
        run(["fit", "--data", str(weibull_csv), "--time", "t", "--event",
             "status", "--dist", "weibull", "--out", str(model_path)])
        pred = run(["predict", "--model", str(model_path), "--life", "2",
                    "--format", "json"])
        doc = json.loads(pred.output)
        model_doc = json.loads(model_path.read_text())
        shape = model_doc["baseline"]["shape"]
        scale = model_doc["baseline"]["scale"]
        direct = run(["residlife", "--values", "2", "--dist", "weibull",
                      "--params", f"shape={shape!r},scale={scale!r}",
                      "--format", "json"])
        expected = json.loads(direct.output)["columns"]["mean"][0]
        assert doc["columns"]["mean"] == [expected]

    def test_newdata_column_permutation_and_extras(self, tmp_path,
                                                   fitted_covariate_model):
        base = tmp_path / "new1.csv"
        permuted = tmp_path / "new2.csv"
        extra = tmp_path / "new3.csv"
        age = [43.0, 35.0, 39.0]
        group = ["Medium", "Good", "Poor"]
        write_csv(base, {"age": age, "group": group})
        write_csv(permuted, {"group": group, "age": age})
        write_csv(extra, {"age": age, "group": group, "extra": [100.0] * 3})
        outputs = []
        for path in (base, permuted, extra):
            res = run(["predict", "--model", str(fitted_covariate_model),
                       "--life", "4", "--p", "0.6", "--type", "all",
                       "--newdata", str(path), "--format", "csv"])
            assert res.exit_code == 0
            outputs.append(res.output)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unseen_level_exit_1(self, tmp_path, fitted_covariate_model):
        bad = tmp_path / "bad.csv"
        write_csv(bad, {"age": [43.0, 35.0, 39.0],
                        "group": ["Medium", "Good", "Terrible"]})
        res = run(["predict", "--model", str(fitted_covariate_model),
                   "--life", "4", "--newdata", str(bad)])
        assert res.exit_code == 1
        assert "Incorrect Level Entered" in res.output

    def test_missing_column_exit_1(self, tmp_path, fitted_covariate_model):
        bad = tmp_path / "short.csv"
        write_csv(bad, {"group": ["Medium", "Good", "Poor"]})
        res = run(["predict", "--model", str(fitted_covariate_model),
                   "--life", "4", "--newdata", str(bad)])
        assert res.exit_code == 1
        assert "age" in res.output

    def test_defaults_to_training_rows(self, fitted_covariate_model):
        res = run(["predict", "--model", str(fitted_covariate_model),
                   "--life", "4", "--format", "csv"])
        assert res.exit_code == 0
        assert len(parse_csv(res.output)["mean"]) == 500

    def test_overflowing_linear_predictor_exit_1(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "schema_version": 1, "dist": "weibull",
            "baseline": {"shape": 1.4, "scale": 1.0},
            "coefficients": [800.0], "covariates": []}))
        res = run(["predict", "--model", str(path), "--life", "1"])
        assert res.exit_code == 1
        assert "Error:" in res.output and "overflows" in res.output

    def test_nonpositive_life_exit_2(self, fitted_covariate_model):
        res = run(["predict", "--model", str(fitted_covariate_model),
                   "--life", "0"])
        assert res.exit_code == 2


_MODEL_DOC = {
    "schema_version": 1, "dist": "weibull",
    "baseline": {"shape": 1.4, "scale": 4.0},
    "location_param": "scale", "link": "log",
    "coefficients": [1.4, 0.2, -0.3],
    "covariates": [{"name": "group", "kind": "categorical",
                    "levels": ["a", "b", "c"]}],
    "training_rows": [{"group": "b"}, {"group": "c"}],
}

_BAD_MODEL_DOCS = {
    "array": [_MODEL_DOC],
    "unknown_dist": {**_MODEL_DOC, "dist": "foo"},
    "dist_not_a_string": {**_MODEL_DOC, "dist": ["weibull"]},
    "baseline_names": {**_MODEL_DOC, "baseline": {"shape": 1.4, "rate": 4.0}},
    "baseline_value": {**_MODEL_DOC, "baseline": {"shape": "x", "scale": 4.0}},
    "covariate_kind": {**_MODEL_DOC, "covariates": [
        {"name": "group", "kind": "factor", "levels": ["a", "b", "c"]}]},
    "covariate_entry": {**_MODEL_DOC, "covariates": ["group"]},
    "repeated_level": {**_MODEL_DOC, "covariates": [
        {"name": "group", "kind": "categorical", "levels": ["a", "a", "b"]}]},
    "too_few_coefficients": {**_MODEL_DOC, "coefficients": [1.4, 0.2]},
    "coefficients_without_covariates": {
        **_MODEL_DOC, "covariates": [], "training_rows": None,
        "coefficients": [1.4, 0.2]},
    "coefficient_value": {**_MODEL_DOC, "coefficients": [1.4, None, -0.3]},
    "coefficient_past_float_range": {**_MODEL_DOC,
                                     "coefficients": [10 ** 400, 0.2, -0.3]},
    "location_param": {**_MODEL_DOC, "location_param": "shape"},
    "link": {**_MODEL_DOC, "link": "identity"},
    "training_rows": {**_MODEL_DOC, "training_rows": 3},
}
_BAD_MODEL_TEXTS = {
    "truncated": json.dumps(_MODEL_DOC)[:-1],
    "not_utf8": "\udcff{}",
    "nested_too_deep": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("case", list(_BAD_MODEL_DOCS) + list(_BAD_MODEL_TEXTS))
def test_malformed_model_file_exit_1(tmp_path, case):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_MODEL_DOC))
    text = _BAD_MODEL_TEXTS.get(case) or json.dumps(_BAD_MODEL_DOCS[case])
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    load_model(good)
    with pytest.raises(DataError) as info:
        load_model(bad)
    assert info.value.code == "bad_model_file"
    for path in (good, bad):
        for argv in (["predict", "--model", str(path), "--life", "2"],
                     ["curve", "--model", str(path), "--range", "1:3:1",
                      "--out", str(tmp_path / "curve.csv")]):
            res = run(argv)
            assert "Traceback" not in res.output
            if path is good:
                assert res.exit_code == 0, res.output
            else:
                assert res.exit_code == 1
                assert f"Error: cannot load model {path}" in res.output


class TestCurveCommand:
    def test_params_route_matches_residlife(self, tmp_path):
        out = tmp_path / "curve.csv"
        res = run(["curve", *WEIBULL_ARGS, "--range", "1:10:0.5",
                   "--out", str(out)])
        assert res.exit_code == 0
        curve_cols = parse_csv(out.read_text())
        direct = run(["residlife", "--values", "1:10:0.5", *WEIBULL_ARGS,
                      "--format", "csv"])
        direct_cols = parse_csv(direct.output)
        assert curve_cols["life"] == direct_cols["value"]
        assert curve_cols["mean"] == direct_cols["mean"]

    def test_model_route_matches_predict_per_point(self, tmp_path,
                                                   fitted_covariate_model):
        newdata = tmp_path / "one.csv"
        write_csv(newdata, {"age": [43.0], "group": ["Medium"]})
        out = tmp_path / "curve.csv"
        res = run(["curve", "--model", str(fitted_covariate_model),
                   "--newdata", str(newdata), "--range", "1:10:1",
                   "--out", str(out)])
        assert res.exit_code == 0
        cols = parse_csv(out.read_text())
        assert len(cols["life"]) == 10
        for life, value in zip(cols["life"], cols["mean"]):
            pred = run(["predict", "--model", str(fitted_covariate_model),
                        "--life", str(life), "--newdata", str(newdata),
                        "--format", "json"])
            expected = json.loads(pred.output)["columns"]["mean"][0]
            assert value == expected

    def test_model_route_type_all_matches_predict_per_point(
            self, tmp_path, fitted_covariate_model):
        newdata = tmp_path / "two.csv"
        write_csv(newdata, {"age": [43.0, 61.0], "group": ["Medium", "Poor"]})
        out = tmp_path / "curve.csv"
        res = run(["curve", "--model", str(fitted_covariate_model),
                   "--newdata", str(newdata), "--range", "1:9:2", "--p", "0.7",
                   "--type", "all", "--out", str(out)])
        assert res.exit_code == 0
        cols = parse_csv(out.read_text())
        assert list(cols) == ["life", "mean", "median", "percentile"]
        for i, life in enumerate(cols["life"]):
            pred = run(["predict", "--model", str(fitted_covariate_model),
                        "--life", str(life), "--newdata", str(newdata),
                        "--p", "0.7", "--type", "all", "--format", "json"])
            expected = json.loads(pred.output)["columns"]
            for name in ("mean", "median", "percentile"):
                assert cols[name][i] == expected[name][0], (life, name)

    def test_model_route_unseen_level_in_a_later_row_exit_1(
            self, tmp_path, fitted_covariate_model):
        bad = tmp_path / "bad.csv"
        write_csv(bad, {"age": [43.0, 35.0], "group": ["Medium", "Terrible"]})
        res = run(["curve", "--model", str(fitted_covariate_model),
                   "--newdata", str(bad), "--range", "1:3:1",
                   "--out", str(tmp_path / "c.csv")])
        assert res.exit_code == 1
        assert "Incorrect Level Entered" in res.output

    def test_svg_is_well_formed_with_one_polyline(self, tmp_path):
        out = tmp_path / "curve.svg"
        res = run(["curve", *WEIBULL_ARGS, "--range", "1:10:0.5",
                   "--out", str(out), "--format", "svg"])
        assert res.exit_code == 0
        root = ET.parse(out).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == 19
        labels = [el.text for el in root.findall(f".//{ns}text")]
        assert "Survival Time" in labels and "MRL" in labels

    def test_svg_rejects_type_all(self, tmp_path):
        res = run(["curve", *WEIBULL_ARGS, "--range", "1:10:0.5", "--type",
                   "all", "--out", str(tmp_path / "c.svg"), "--format", "svg"])
        assert res.exit_code == 2

    def test_empty_range_exit_2(self, tmp_path):
        res = run(["curve", *WEIBULL_ARGS, "--range", "-5:-1:1",
                   "--out", str(tmp_path / "c.csv")])
        assert res.exit_code == 2

    def test_needs_exactly_one_source(self, tmp_path):
        res = run(["curve", "--range", "1:10:1",
                   "--out", str(tmp_path / "c.csv")])
        assert res.exit_code == 2
