"""Covariate-aware survival models and per-observation residual-life prediction.

A :class:`SurvivalModel` couples a distribution family with a linear
predictor on one location parameter.  Categorical covariates use
treatment contrasts (first declared level is the reference and
contributes all-zero indicators).  Prediction accepts mappings or
tabular rows; extra columns are ignored and column order never matters.

Model files are versioned JSON documents (see ``save_model`` /
``load_model``) carrying the distribution tag, baseline parameters, the
link, coefficients, the covariate schema and, optionally, the training
rows so that predictions without new data keep working after a reload.
"""
import json
import math
import numbers
import sys
from array import array
from collections import abc
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .distributions import (PARAM_NAMES, POSITIVE_PARAMS, Distribution,
                            ParameterError, make_distribution)
from .residual import ResidualLifeQuery, ResidualLifeTable, residual_life_table

MODEL_SCHEMA_VERSION = 1

# location parameter receiving the linear predictor, per distribution tag,
# with its link: log exactly where the fit estimates it on the log scale
LOCATION_PARAMS = {
    tag: (name, "log" if name in POSITIVE_PARAMS[tag] else "identity")
    for tag, name in (("exponential", "rate"), ("weibull", "scale"),
                      ("gamma", "rate"), ("gompertz", "rate"),
                      ("lnorm", "meanlog"), ("llogis", "scale"),
                      ("gengamma.orig", "scale"), ("gengamma", "mu"),
                      ("genf.orig", "mu"), ("genf", "mu"))
}


class DataError(ValueError):
    """Prediction/fitting data problem (missing column, unseen level, ...)."""

    def __init__(self, message, code="bad_data"):
        super().__init__(message)
        self.code = code


class MissingColumnError(DataError):
    def __init__(self, name):
        super().__init__(f"missing covariate column: {name}", code="missing_column")
        self.column = name


class UnknownLevelError(DataError):
    def __init__(self, name, value):
        super().__init__(
            f"Incorrect Level Entered: '{value}' is not a level of '{name}'",
            code="unknown_level")
        self.column = name
        self.value = value


@dataclass(frozen=True)
class Covariate:
    """One covariate: numeric passthrough or categorical with ordered levels."""

    name: str
    kind: str  # "numeric" | "categorical"
    levels: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"covariate kind must be numeric or categorical, "
                             f"got '{self.kind}'")
        if self.kind == "categorical" and not self.levels:
            raise ValueError(f"categorical covariate '{self.name}' needs levels")
        if len(set(self.levels)) != len(self.levels):  # one value, two indicators
            raise ValueError(f"covariate '{self.name}' repeats a level")


@dataclass(frozen=True)
class CovariateSchema:
    """Ordered covariates; defines the design-matrix columns."""

    covariates: Tuple[Covariate, ...] = ()

    def __post_init__(self):
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise ValueError("covariate names must be unique")

    @property
    def column_names(self):
        cols = []
        for cov in self.covariates:
            if cov.kind == "numeric":
                cols.append(cov.name)
            else:
                cols.extend(f"{cov.name}{lvl}" for lvl in cov.levels[1:])
        return cols

    def design_row(self, row) -> List[float]:
        """Treatment-contrast encoding of one observation.

        Numeric covariates pass through; a categorical with L levels adds
        L-1 indicators (reference level encodes as all zeros).  Raises
        MissingColumnError / UnknownLevelError on bad rows.
        """
        out = []
        for cov in self.covariates:
            if cov.name not in row:
                raise MissingColumnError(cov.name)
            value = row[cov.name]
            if cov.kind == "numeric":
                out.append(float(value))
            else:
                value = str(value)
                if value not in cov.levels:
                    raise UnknownLevelError(cov.name, value)
                out.extend(1.0 if value == lvl else 0.0 for lvl in cov.levels[1:])
        return out


def build_design_row(schema: CovariateSchema, row) -> List[float]:
    """Module-level alias for CovariateSchema.design_row."""
    return schema.design_row(row)


def rows_of(columns, names, n) -> List[MappingProxyType]:
    """The first ``n`` rows of equal-length ``columns`` as read-only mappings
    of ``names`` to values, shared per distinct row (see ``_shared_rows``); a
    name missing from ``columns`` raises ValueError."""
    for name in names:
        if name not in columns:
            raise ValueError(f"covariate column '{name}' not in sample")
    return _shared_rows({name: columns[name][i] for name in names}
                        for i in range(n))


def _shared_rows(rows) -> List[MappingProxyType]:
    """Each of ``rows`` as a read-only mapping, one object per distinct row,
    so a model keeps one mapping per covariate pattern rather than one per
    observation.  Rows are told apart by ``repr``, which keeps 1, 1.0, True
    and '1', or 0.0 and -0.0, apart."""
    shared, out = {}, []
    for row in rows:
        key = repr(row)
        proxy = shared.get(key)
        if proxy is None:
            proxy = shared[key] = MappingProxyType(dict(row))
        out.append(proxy)
    return out


class TrainingRows(abc.Sequence):
    """A model's training rows: each distinct row once, and one code per
    row into them, in an array of the narrowest unsigned type that holds
    the codes.  A tuple takes 8 bytes a row; with up to 256 patterns this
    takes one.  ``rows`` are mappings shared per distinct row, as
    ``rows_of`` and ``_shared_rows`` give them."""

    __slots__ = ("_distinct", "_codes")

    def __init__(self, rows):
        index, distinct, codes = {}, [], []
        for row in rows:
            code = index.get(id(row))
            if code is None:
                code = index[id(row)] = len(distinct)
                distinct.append(row)
            codes.append(code)
        typecode = next(c for c in "BHIQ"
                        if len(distinct) <= 1 << 8 * array(c).itemsize)
        self._distinct = tuple(distinct)
        self._codes = array(typecode, codes)

    def __len__(self):
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._distinct.__getitem__, self._codes[i]))
        return self._distinct[self._codes[i]]

    def __iter__(self):
        return map(self._distinct.__getitem__, self._codes)

    def __eq__(self, other):
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"TrainingRows({list(self)!r})"


def distinct_design_rows(schema: CovariateSchema, rows):
    """(designs, group_of_row): the distinct design rows of ``rows`` in
    order of first appearance, and each row's index into them.  Every row
    object is encoded, so a bad one raises even when its pattern was seen;
    a read-only mapping, which ``rows_of`` gives one of per pattern, is
    encoded once however often it comes."""
    designs, group_of_row, index, read_only = [], [], {}, {}
    for row in rows:
        seen = read_only.get(id(row))
        if seen is None:
            design = schema.design_row(row)
            key = tuple(design)
            group = index.get(key)
            if group is None:
                group = index[key] = len(designs)
                designs.append(design)
            seen = row, group  # holding row keeps its id from being reused
            if type(row) is MappingProxyType:
                read_only[id(row)] = seen
        group_of_row.append(seen[1])
    return designs, group_of_row


@dataclass(frozen=True)
class SurvivalModel:
    """Fitted or user-supplied survival model with a covariate linear predictor.

    ``coefficients`` holds the intercept first, then one value per design
    column; the location parameter is exp(eta) under the log link and eta
    itself under the identity link, with every other parameter taken from
    ``baseline``.
    """

    dist: str
    baseline: Dict[str, float]
    coefficients: Tuple[float, ...]
    schema: CovariateSchema = field(default_factory=CovariateSchema)
    training_rows: Optional[Sequence[Mapping]] = None

    @property
    def location_param(self):
        return LOCATION_PARAMS[self.dist][0]

    @property
    def link(self):
        return LOCATION_PARAMS[self.dist][1]

    def resolve_parameters(self, design_row: Sequence[float]) -> Distribution:
        """Distribution for one design row: eta = intercept + sum of beta *
        value into the location, as exp(eta) under the log link
        (ParameterError when that overflows)."""
        if len(design_row) != len(self.coefficients) - 1:
            raise DataError(f"design row has {len(design_row)} columns; "
                            f"model expects {len(self.coefficients) - 1}",
                            code="bad_design_row")
        location, link = LOCATION_PARAMS[self.dist]
        eta = self.coefficients[0]
        for beta, value in zip(self.coefficients[1:], design_row):
            eta += beta * value
        if link == "log":
            try:
                eta = math.exp(eta)
            except OverflowError:
                raise ParameterError(f"linear predictor {eta!r} overflows "
                                     f"exp()") from None
        return make_distribution(self.dist, {**self.baseline, location: eta})

    def resolve_row(self, row) -> Distribution:
        return self.resolve_parameters(self.schema.design_row(row))


def prediction_rows(model: SurvivalModel, newdata=None):
    """The rows a prediction covers: ``newdata``, else the model's stored
    training rows, else one empty row for a model without covariates."""
    if newdata is not None:
        return newdata
    if model.training_rows is not None:
        return model.training_rows
    if model.schema.covariates:
        raise DataError("model has covariates but no stored training "
                        "rows; supply newdata", code="missing_data")
    return [{}]


def predict_residual_life(model: SurvivalModel, life, p=0.5, type="mean",
                          newdata=None) -> ResidualLifeTable:
    """Residual life of each observation, given survival to ``life``.

    ``newdata`` is a sequence of mappings (or anything dict-like per row);
    when absent, the model's stored training rows are used.  Columns beyond
    the schema's covariates are ignored, so column order and extra columns
    cannot change the result.
    """
    if not life > 0.0:
        raise ValueError("life must be a positive number")
    rows = prediction_rows(model, newdata)
    query = ResidualLifeQuery(values=[life], p=p, type=type)
    query.validate()
    designs, group_of_row = distinct_design_rows(model.schema, rows)
    tables = [residual_life_table(model.resolve_parameters(design), query)
              for design in designs]
    table = ResidualLifeTable(values=[float(life)] * len(group_of_row))
    for group in group_of_row:
        for name, col in tables[group].columns.items():
            table.columns.setdefault(name, []).extend(col)
    return table


def model_to_dict(model: SurvivalModel) -> dict:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "dist": model.dist,
        "baseline": dict(model.baseline),
        "location_param": model.location_param,
        "link": model.link,
        "coefficients": list(model.coefficients),
        "covariates": [
            {"name": c.name, "kind": c.kind,
             **({"levels": list(c.levels)} if c.kind == "categorical" else {})}
            for c in model.schema.covariates
        ],
    }
    if model.training_rows is not None:
        doc["training_rows"] = [dict(r) for r in model.training_rows]
    return doc


def _require(condition, message):
    if not condition:
        raise DataError(message, code="bad_model_file")


def _is_number(value):
    """A JSON number that float() takes: no bool, no int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _is_covariate(entry):
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("levels", []), list)
            and all(isinstance(level, str) for level in entry.get("levels", [])))


def model_from_dict(doc: dict) -> SurvivalModel:
    """The model a ``model_to_dict`` document describes.  Anything else
    raises DataError (``bad_model_file``) here, not at prediction: a
    location_param or link other than the family's, baseline names other
    than PARAM_NAMES[dist], a value that is not a number, or a coefficient
    count other than 1 + the number of design columns."""
    _require(isinstance(doc, dict), "a model file holds one JSON object")
    version = doc.get("schema_version")
    _require(version == MODEL_SCHEMA_VERSION,
             f"unsupported model schema_version: {version!r}")
    dist = doc.get("dist")
    _require(isinstance(dist, str) and dist in LOCATION_PARAMS,
             f"unknown distribution {dist!r}")
    for key, expected in zip(("location_param", "link"), LOCATION_PARAMS[dist]):
        _require(doc.get(key, expected) == expected,
                 f"{key} of {dist} is {expected!r}, not {doc.get(key)!r}")
    names = PARAM_NAMES[dist]
    baseline = doc.get("baseline")
    _require(isinstance(baseline, dict) and set(baseline) == set(names)
             and all(map(_is_number, baseline.values())),
             f"baseline of {dist} must give numbers for {', '.join(names)}")
    entries = doc.get("covariates", [])
    _require(isinstance(entries, list) and all(map(_is_covariate, entries)),
             "covariates must be a list of {name, kind, levels} objects")
    try:
        schema = CovariateSchema(tuple(
            Covariate(c["name"], c.get("kind"), tuple(c.get("levels", ())))
            for c in entries))
    except ValueError as exc:
        raise DataError(f"bad covariates: {exc}", code="bad_model_file") from None
    coefficients = doc.get("coefficients")
    count = 1 + len(schema.column_names)
    _require(isinstance(coefficients, list) and len(coefficients) == count
             and all(map(_is_number, coefficients)),
             f"coefficients must be the intercept and one number per design "
             f"column, {count} in all")
    rows = doc.get("training_rows")
    _require(rows is None or isinstance(rows, list)
             and all(isinstance(row, dict) for row in rows),
             "training_rows must be a list of objects")
    return SurvivalModel(
        dist=dist,
        baseline={k: float(v) for k, v in baseline.items()},
        coefficients=tuple(float(c) for c in coefficients),
        schema=schema,
        training_rows=TrainingRows(_shared_rows(rows)) if rows is not None else None,
    )


def _json_number(value):
    """Other number types (numpy scalars in training rows) as int or float."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_model(model: SurvivalModel, path):
    """Write the model as a versioned JSON document; a value that cannot be
    serialized raises TypeError before ``path`` is opened."""
    text = json.dumps(model_to_dict(model), indent=2, default=_json_number)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> SurvivalModel:
    """Read a model written by save_model; a file that is not UTF-8 JSON
    raises DataError (``bad_model_file``) too, see model_from_dict."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # decode or nesting depth
            raise DataError(f"not a JSON document: {exc}",
                            code="bad_model_file") from None
    return model_from_dict(doc)
