"""Residual-life engine: mean, median and percentile residual lifetimes.

``residual_life_table`` evaluates the requested residual-life measures
over a vector of elapsed lifetimes, reproducing the columnar output of
the ``residlife`` workflow.  ``mrl_quadrature_oracle`` integrates the
survival curve directly and is the ground truth every closed form is
tested against; when the two disagree the closed form is wrong, not the
oracle.
"""
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .distributions import Distribution

_INF = float("inf")
_NAN = float("nan")

RESIDUAL_TYPES = ("mean", "median", "percentile", "all")


@dataclass(frozen=True)
class ResidualLifeQuery:
    """Requested lifetimes, percentile level and output type."""

    values: Sequence[float]
    p: float = 0.5
    type: str = "mean"

    def validate(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be strictly between 0 and 1")
        if self.type not in RESIDUAL_TYPES:
            options = ", ".join(RESIDUAL_TYPES)
            raise ValueError(f"type must be one of {options}; got '{self.type}'")
        for v in self.values:
            if v < 0.0 or v != v:
                raise ValueError("values must be nonnegative")


@dataclass
class ResidualLifeTable:
    """Columnar result aligned with the queried values; NaN/Inf entries allowed."""

    values: List[float]
    columns: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def column_names(self):
        return list(self.columns)

    def __len__(self):
        return len(self.values)


def mean_residual_life(dist: Distribution, x) -> float:
    """Expected remaining lifetime at x (closed form; NaN when degenerate)."""
    return dist.mrl(x)


def percentile_residual_life(dist: Distribution, x, alpha) -> float:
    """Time by which a fraction alpha of the survivors to x will have failed.

    Solves F(x + q) = 1 - (1-alpha) S(x) on the survival scale, so the
    answer stays finite as long as (1-alpha) S(x) is representable; once
    that mass underflows the result is +inf.  A survival the kernels
    cannot resolve (NaN) gives NaN.
    """
    if x < 0.0 or x != x:
        raise ValueError("x must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be strictly between 0 and 1")
    upper = (1.0 - alpha) * dist.survival(x)
    if upper != upper:
        return _NAN
    if upper <= 0.0:
        return _INF
    t = dist.isf(upper)
    if t == _INF or t != t:
        return t
    return max(t - x, 0.0)


def median_residual_life(dist: Distribution, x) -> float:
    """Median remaining lifetime; the alpha = 0.5 percentile."""
    return percentile_residual_life(dist, x, 0.5)


def residual_life_table(dist: Distribution, query: ResidualLifeQuery) -> ResidualLifeTable:
    """Evaluate the query element-wise; 'all' yields mean, median, percentile."""
    query.validate()
    values = [float(v) for v in query.values]
    table = ResidualLifeTable(values=values)
    if query.type in ("mean", "all"):
        table.columns["mean"] = [mean_residual_life(dist, v) for v in values]
    if query.type in ("median", "all"):
        table.columns["median"] = [median_residual_life(dist, v) for v in values]
    if query.type in ("percentile", "all"):
        table.columns["percentile"] = [
            percentile_residual_life(dist, v, query.p) for v in values
        ]
    return table


def mrl_quadrature_oracle(dist: Distribution, x, return_diagnostic=False):
    """Mean residual life by adaptive quadrature of the survival curve.

    This is the reference implementation the closed forms are verified
    against.  Requires survival(x) > 0; a non-convergent integral yields
    NaN (with converged=False when return_diagnostic is set).
    """
    from ._integrate import conditional_survival_integral  # scipy, oracle only

    if x < 0.0 or x != x:
        raise ValueError("x must be nonnegative")
    if dist.survival(x) <= 0.0:
        return (_NAN, False) if return_diagnostic else _NAN
    value, converged = conditional_survival_integral(dist, x)
    result = value if converged else _NAN
    if return_diagnostic:
        return result, converged
    return result
