"""Command-line interface.

Four subcommands tie the engine together::

    mrlife residlife --values 1:10:0.5 --dist weibull --params shape=1.272,scale=6.191
    mrlife fit --data sample.csv --time recyrs --event censrec --dist weibull --out model.json
    mrlife predict --model model.json --life 1 --type mean [--newdata new.csv]
    mrlife curve --dist weibull --params shape=1.272,scale=6.191 --range 1:10:0.5 --out curve.csv

Rendered tables honour ``--format table|csv|json`` (default from the
MRLIFE_FORMAT environment variable, falling back to ``table``).  Exit
codes: 0 success, 2 usage error (bad flags, bad parameter names), 1
computation/data error (bad factor level, missing columns, ...).
``mrlife --version`` prints the package version and the active kernel
backend (``specfun.BACKEND``).
"""
import csv
import io
import json
import math
import sys

import click

from . import __version__, specfun
from .distributions import DISTRIBUTION_TAGS, ParameterError, make_distribution
from .fitting import CensoredSample, fit as fit_mle
from .regression import (DataError, distinct_design_rows, load_model,
                         predict_residual_life, prediction_rows, rows_of,
                         save_model)
from .residual import (RESIDUAL_TYPES, ResidualLifeQuery, ResidualLifeTable,
                       residual_life_table)

_FORMATS = ("table", "csv", "json")
MAX_VALUES = 1_000_000  # lifetimes one --values/--range may make


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def parse_values(spec):
    """Comma list ('1,2.5,4') or inclusive range ('start:stop:step') of at
    most MAX_VALUES values."""
    s = spec.strip()
    try:
        if ":" in s:
            parts = s.split(":")
            if len(parts) == 2:
                parts.append("1")
            if len(parts) != 3:
                raise ValueError("ranges look like start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0.0:
                raise ValueError("range step must be positive")
            if stop < start:
                raise ValueError("empty range: stop is below start")
            span = (stop - start) / step + 1e-9
            if not span < MAX_VALUES:  # int(span) + 1 values; inf on overflow
                raise ValueError(f"a range makes at most {MAX_VALUES:,} values")
            n = int(span) + 1
            values = [start + i * step for i in range(n)]
            if values and abs(values[-1] - stop) < 1e-9 * max(1.0, abs(stop)):
                values[-1] = stop
            return values
        values = [float(v) for v in s.split(",") if v.strip() != ""]
        if not values:
            raise ValueError("no lifetimes given")
        return values
    except ValueError as exc:
        raise click.UsageError(f"bad --values/--range '{spec}': {exc}")


def parse_params(spec):
    """'name=value,name=value' into an ordered dict."""
    params = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise click.UsageError(f"bad --params entry '{item}'; use name=value")
        name, _, raw = item.partition("=")
        name = name.strip()
        if name in params:
            raise click.UsageError(f"--params names '{name}' more than once")
        try:
            params[name] = float(raw)
        except ValueError:
            raise click.UsageError(f"bad numeric value in --params: '{item}'")
    if not params:
        raise click.UsageError("--params is empty")
    return params


def read_data_csv(path):
    """CSV with a header row; columns become float lists when fully numeric."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise click.ClickException(f"{path}: empty CSV")
            columns = {name: [] for name in reader.fieldnames}
            for record in reader:
                for name in columns:
                    columns[name].append(record[name])
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    for name, col in columns.items():
        try:
            columns[name] = [float(v) for v in col]
        except (TypeError, ValueError):
            columns[name] = [str(v) for v in col]
    return columns


def _build_dist(dist, params):
    try:
        return make_distribution(dist, params)
    except ParameterError as exc:
        raise click.UsageError(str(exc))


def _validate(query):
    try:
        query.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_cell(v):
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "Inf"
    if v == float("-inf"):
        return "-Inf"
    return f"{v:.7g}"


def render_table_text(table: ResidualLifeTable):
    names = table.column_names
    cells = [[_fmt_cell(v) for v in table.columns[name]] for name in names]
    widths = [max(len(name), *(len(c) for c in col)) if col else len(name)
              for name, col in zip(names, cells)]
    idx_width = len(str(max(len(table), 1)))
    lines = [" " * idx_width + "  " +
             " ".join(name.rjust(w) for name, w in zip(names, widths))]
    for i in range(len(table)):
        row = " ".join(cells[j][i].rjust(widths[j]) for j in range(len(names)))
        lines.append(f"{str(i + 1).rjust(idx_width)}  {row}")
    return "\n".join(lines)


def render_table_csv(table: ResidualLifeTable):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value"] + table.column_names)
    for i, v in enumerate(table.values):
        writer.writerow([repr(v)] + [repr(table.columns[n][i])
                                     for n in table.column_names])
    return buf.getvalue()


def render_table_json(table: ResidualLifeTable, subcommand):
    doc = {
        "subcommand": subcommand,
        "values": list(table.values),
        "columns": {name: list(col) for name, col in table.columns.items()},
    }
    return json.dumps(doc, indent=2)


def emit_table(table, fmt, subcommand):
    if fmt == "table":
        click.echo(render_table_text(table))
    elif fmt == "csv":
        click.echo(render_table_csv(table), nl=False)
    else:
        click.echo(render_table_json(table, subcommand))


def render_fit_text(result):
    names = list(result.estimates)
    header = f"{'':<12}{'est':>12}{'L95':>12}{'U95':>12}{'se':>12}"
    lines = [header]
    for name in names:
        lo, hi = result.ci95[name]
        lines.append(f"{name:<12}{_fmt_cell(result.estimates[name]):>12}"
                     f"{_fmt_cell(lo):>12}{_fmt_cell(hi):>12}"
                     f"{_fmt_cell(result.std_errors[name]):>12}")
    lines.append(f"loglik: {result.loglik:.6f}  (n={result.n}, "
                 f"events={result.n_events})")
    lines.append(f"converged: {result.converged}  iterations: {result.iterations}"
                 f"  evaluations: {result.evaluations}")
    return "\n".join(lines)


def render_fit_json(result):
    return json.dumps({
        "subcommand": "fit",
        "estimates": result.estimates,
        "std_errors": result.std_errors,
        "ci95": {k: list(v) for k, v in result.ci95.items()},
        "loglik": result.loglik,
        "converged": result.converged,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "n": result.n,
        "n_events": result.n_events,
    }, indent=2)


def render_fit_csv(result):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["parameter", "est", "L95", "U95", "se"])
    for name in result.estimates:
        lo, hi = result.ci95[name]
        writer.writerow([name, repr(result.estimates[name]), repr(lo), repr(hi),
                         repr(result.std_errors[name])])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__, prog_name="mrlife",
                      message=f"%(prog)s %(version)s ({specfun.BACKEND} kernels)")
def main():
    """Closed-form residual-lifetime toolkit for parametric survival models."""


_format_option = click.option(
    "--format", "fmt", type=click.Choice(_FORMATS), default=None,
    envvar="MRLIFE_FORMAT",
    help="Output format (default: table; env var MRLIFE_FORMAT).")


@main.command()
@click.option("--values", required=True,
              help="Comma list or start:stop:step range of elapsed lifetimes.")
@click.option("--dist", required=True, help="Distribution tag.")
@click.option("--params", required=True, help="name=value,... parameter list.")
@click.option("--p", default=0.5, show_default=True,
              help="Percentile level for type=percentile/all.")
@click.option("--type", "rtype", default="mean", show_default=True,
              type=click.Choice(RESIDUAL_TYPES),
              help="Residual-life measure(s) to compute.")
@_format_option
def residlife(values, dist, params, p, rtype, fmt):
    """Residual lifetimes for user-supplied distribution parameters."""
    query = ResidualLifeQuery(values=parse_values(values), p=p, type=rtype)
    d = _build_dist(dist, parse_params(params))
    _validate(query)
    emit_table(residual_life_table(d, query), fmt or "table", "residlife")


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(),
              help="CSV with a header row.")
@click.option("--time", "time_col", required=True, help="Time column name.")
@click.option("--event", "event_col", required=True,
              help="Event indicator column (1=observed, 0=censored).")
@click.option("--dist", required=True, help="Distribution tag.")
@click.option("--covariates", default="", help="Comma list of covariate columns.")
@click.option("--out", "out_path", type=click.Path(),
              help="Write the fitted model file here.")
@_format_option
def fit(data_path, time_col, event_col, dist, covariates, out_path, fmt):
    """Fit a distribution to right-censored data by maximum likelihood."""
    if dist not in DISTRIBUTION_TAGS:
        raise click.UsageError(
            f"unknown distribution '{dist}'; choose one of {', '.join(DISTRIBUTION_TAGS)}")
    columns = read_data_csv(data_path)
    for col in (time_col, event_col):
        if col not in columns:
            raise click.UsageError(f"column '{col}' not found in {data_path}")
    names = [c.strip() for c in covariates.split(",") if c.strip()]
    for i, name in enumerate(names):
        if name not in columns:
            raise click.UsageError(f"covariate column '{name}' not found in {data_path}")
        if name in names[:i]:
            raise click.UsageError(f"--covariates names '{name}' more than once")
    time = columns[time_col]
    event = columns[event_col]
    if not all(isinstance(v, float) for v in time):
        raise click.UsageError(f"time column '{time_col}' is not numeric")
    if not all(isinstance(v, float) and v in (0.0, 1.0) for v in event):
        raise click.UsageError(f"event column '{event_col}' must be binary 0/1")
    covs = {name: columns[name] for name in names} if names else None
    try:
        sample = CensoredSample.from_lists(time, event, covs)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    result, model = fit_mle(dist, sample, names)
    if out_path:
        save_model(model, out_path)
    fmt = fmt or "table"
    if fmt == "table":
        click.echo(render_fit_text(result))
    elif fmt == "csv":
        click.echo(render_fit_csv(result), nl=False)
    else:
        click.echo(render_fit_json(result))


def _load_predict_inputs(model_path, newdata_path):
    """The model and the newdata rows (None: the model's training rows)."""
    try:
        model = load_model(model_path)
    except (OSError, DataError) as exc:
        raise click.ClickException(f"cannot load model {model_path}: {exc}")
    rows = None
    if newdata_path:
        columns = read_data_csv(newdata_path)
        names = list(columns)
        rows = rows_of(columns, names, len(columns[names[0]]) if names else 0)
    return model, rows


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(),
              help="Model file written by 'mrlife fit'.")
@click.option("--life", required=True, type=float,
              help="Elapsed lifetime to condition on.")
@click.option("--p", default=0.5, show_default=True)
@click.option("--type", "rtype", default="mean", show_default=True,
              type=click.Choice(RESIDUAL_TYPES))
@click.option("--newdata", "newdata_path", type=click.Path(),
              help="CSV of new observations (defaults to the training rows).")
@_format_option
def predict(model_path, life, p, rtype, newdata_path, fmt):
    """Per-observation residual-life predictions from a fitted model."""
    if not life > 0.0:
        raise click.UsageError("--life must be positive")
    model, rows = _load_predict_inputs(model_path, newdata_path)
    try:
        table = predict_residual_life(model, life, p=p, type=rtype, newdata=rows)
    except (DataError, ParameterError) as exc:
        raise click.ClickException(str(exc))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit_table(table, fmt or "table", "predict")


@main.command()
@click.option("--model", "model_path", type=click.Path(),
              help="Model file (first newdata/training row drives the curve).")
@click.option("--newdata", "newdata_path", type=click.Path())
@click.option("--dist", help="Distribution tag (alternative to --model).")
@click.option("--params", help="name=value,... (with --dist).")
@click.option("--range", "life_range", required=True,
              help="start:stop:step range of lifetimes.")
@click.option("--p", default=0.5, show_default=True)
@click.option("--type", "rtype", default="mean", show_default=True,
              type=click.Choice(RESIDUAL_TYPES))
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Output file (.csv or .svg).")
@click.option("--format", "fmt", type=click.Choice(("csv", "svg")), default=None,
              help="File format (default: from --out extension, else csv).")
def curve(model_path, newdata_path, dist, params, life_range, p, rtype,
          out_path, fmt):
    """Residual-life curve over a range of lifetimes, as CSV or SVG."""
    lives = [v for v in parse_values(life_range) if v > 0.0]
    if not lives:
        raise click.UsageError("the requested range contains no positive lifetimes")
    if fmt is None:
        fmt = "svg" if str(out_path).lower().endswith(".svg") else "csv"
    if (model_path is None) == (dist is None):
        raise click.UsageError("provide exactly one of --model or --dist/--params")
    if fmt == "svg" and rtype == "all":
        raise click.UsageError("svg output draws a single curve; pick one type")

    query = ResidualLifeQuery(values=lives, p=p, type=rtype)
    if model_path is not None:
        model, rows = _load_predict_inputs(model_path, newdata_path)
        try:
            rows = prediction_rows(model, rows)
            query.validate()
            designs, _ = distinct_design_rows(model.schema, rows)
            if not designs:
                raise click.ClickException("model yielded no prediction rows")
            d = model.resolve_parameters(designs[0])
        except (DataError, ParameterError) as exc:
            raise click.ClickException(str(exc))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    else:
        if not params:
            raise click.UsageError("--params is required with --dist")
        d = _build_dist(dist, parse_params(params))
        _validate(query)
    columns = residual_life_table(d, query).columns

    if fmt == "csv":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["life"] + list(columns))
            for i, life in enumerate(lives):
                writer.writerow([repr(life)] + [repr(columns[n][i]) for n in columns])
    else:
        series = columns[rtype if rtype != "all" else "mean"]
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(render_curve_svg(lives, series))
    click.echo(f"wrote {out_path}")


def render_curve_svg(lives, series, width=800, height=600):
    """Hand-emitted SVG 1.1: one polyline, 5-tick linear axes."""
    margin = 70
    points = [(x, y) for x, y in zip(lives, series) if math.isfinite(y)]
    if not points:
        raise click.ClickException("no finite curve points to plot")
    xs = [pt[0] for pt in points]
    ys = [pt[1] for pt in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    ticks = []
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        fy = y0 + (y1 - y0) * i / 4
        px, py = sx(fx), sy(fy)
        ticks.append(f'<line x1="{px:.2f}" y1="{height - margin}" '
                     f'x2="{px:.2f}" y2="{height - margin + 6}" stroke="black"/>')
        ticks.append(f'<text x="{px:.2f}" y="{height - margin + 22}" '
                     f'text-anchor="middle" font-size="12">{fx:.4g}</text>')
        ticks.append(f'<line x1="{margin - 6}" y1="{py:.2f}" '
                     f'x2="{margin}" y2="{py:.2f}" stroke="black"/>')
        ticks.append(f'<text x="{margin - 10}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-size="12">{fy:.4g}</text>')
    tick_markup = "\n  ".join(ticks)
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1"
     viewBox="0 0 {width} {height}" width="{width}" height="{height}">
  <rect x="0" y="0" width="{width}" height="{height}" fill="white"/>
  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}"
        y2="{height - margin}" stroke="black"/>
  <line x1="{margin}" y1="{margin}" x2="{margin}"
        y2="{height - margin}" stroke="black"/>
  {tick_markup}
  <text x="{width / 2}" y="{height - 20}" text-anchor="middle"
        font-size="16">Survival Time</text>
  <text x="22" y="{height / 2}" text-anchor="middle" font-size="16"
        transform="rotate(-90 22 {height / 2})">MRL</text>
  <polyline fill="none" stroke="steelblue" stroke-width="2" points="{poly}"/>
</svg>
"""


if __name__ == "__main__":
    main()
