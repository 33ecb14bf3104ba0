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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .distributions import Distribution, ParameterError, make_distribution
from .residual import ResidualLifeQuery, ResidualLifeTable, residual_life_table

MODEL_SCHEMA_VERSION = 1

# location parameter receiving the linear predictor, per distribution tag
LOCATION_PARAMS = {
    "exponential": ("rate", "log"),
    "weibull": ("scale", "log"),
    "gamma": ("rate", "log"),
    "gompertz": ("rate", "log"),
    "lnorm": ("meanlog", "identity"),
    "llogis": ("scale", "log"),
    "gengamma.orig": ("scale", "log"),
    "gengamma": ("mu", "identity"),
    "genf.orig": ("mu", "identity"),
    "genf": ("mu", "identity"),
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


def distinct_design_rows(schema: CovariateSchema, rows):
    """(designs, group_of_row): the distinct design rows of ``rows`` in
    order of first appearance, and each row's index into them.  Every row
    is encoded, so a bad one raises even when its pattern was seen."""
    designs, group_of_row, index = [], [], {}
    for row in rows:
        design = schema.design_row(row)
        key = tuple(design)
        group = index.get(key)
        if group is None:
            group = index[key] = len(designs)
            designs.append(design)
        group_of_row.append(group)
    return designs, group_of_row


def linear_predictor(dist: str, coefficients: Sequence[float],
                     design_row: Sequence[float]) -> float:
    """Location parameter of ``dist`` for one design row: eta = intercept +
    sum of beta * value, or exp(eta) under the log link (ParameterError
    when that overflows)."""
    if len(design_row) != len(coefficients) - 1:
        raise DataError(f"design row has {len(design_row)} columns; "
                        f"model expects {len(coefficients) - 1}",
                        code="bad_design_row")
    eta = coefficients[0]
    for beta, value in zip(coefficients[1:], design_row):
        eta += beta * value
    if LOCATION_PARAMS[dist][1] != "log":
        return eta
    try:
        return math.exp(eta)
    except OverflowError:
        raise ParameterError(f"linear predictor {eta!r} overflows exp()") from None


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
    training_rows: Optional[Tuple[Mapping, ...]] = None

    @property
    def location_param(self):
        return LOCATION_PARAMS[self.dist][0]

    @property
    def link(self):
        return LOCATION_PARAMS[self.dist][1]

    def resolve_parameters(self, design_row: Sequence[float]) -> Distribution:
        """Distribution for one design row: linear predictor into the location."""
        params = dict(self.baseline)
        params[self.location_param] = linear_predictor(
            self.dist, self.coefficients, design_row)
        return make_distribution(self.dist, params)

    def resolve_row(self, row) -> Distribution:
        return self.resolve_parameters(self.schema.design_row(row))


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
    rows = newdata
    if rows is None:
        if model.training_rows is None:
            if model.schema.covariates:
                raise DataError("model has covariates but no stored training "
                                "rows; supply newdata", code="missing_data")
            rows = [{}]
        else:
            rows = model.training_rows
    query = ResidualLifeQuery(values=[life], p=p, type=type)
    query.validate()
    designs, group_of_row = distinct_design_rows(model.schema, rows)
    tables = [residual_life_table(model.resolve_parameters(design), query)
              for design in designs]
    table = ResidualLifeTable(values=[])
    for group in group_of_row:
        table.values.append(float(life))
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


def model_from_dict(doc: dict) -> SurvivalModel:
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported model schema_version: {version!r}",
                        code="bad_model_file")
    covs = tuple(
        Covariate(name=c["name"], kind=c["kind"],
                  levels=tuple(c.get("levels", ())))
        for c in doc.get("covariates", ())
    )
    rows = doc.get("training_rows")
    if rows is not None and not all(isinstance(row, dict) for row in rows):
        raise DataError("training_rows must be a list of objects",
                        code="bad_model_file")
    return SurvivalModel(
        dist=doc["dist"],
        baseline={k: float(v) for k, v in doc["baseline"].items()},
        coefficients=tuple(float(c) for c in doc["coefficients"]),
        schema=CovariateSchema(covs),
        training_rows=tuple(_shared_rows(rows)) if rows is not None else None,
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
    """Read a model written by save_model."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
