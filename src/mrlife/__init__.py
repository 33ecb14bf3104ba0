"""Closed-form residual-lifetime toolkit for parametric survival models.

Quick start::

    from mrlife import make_distribution, residual_life_table, ResidualLifeQuery

    d = make_distribution("weibull", {"shape": 1.272, "scale": 6.191})
    table = residual_life_table(d, ResidualLifeQuery(values=[1, 1.5, 2], type="all", p=0.7))

Fitting and prediction::

    from mrlife import CensoredSample, fit, predict_residual_life

    sample = CensoredSample.from_lists(times, events, {"group": groups})
    result, model = fit("weibull", sample, covariates=["group"])
    predict_residual_life(model, life=4, type="mean")
"""
from . import specfun
from .distributions import (DISTRIBUTION_TAGS, Distribution, ParameterError,
                            convert_genf_to_orig, convert_gengamma_from_orig,
                            convert_gengamma_to_orig, make_distribution)
from .fitting import CensoredSample, FitResult, censored_loglik, fit
from .regression import (Covariate, CovariateSchema, DataError,
                         MissingColumnError, SurvivalModel, UnknownLevelError,
                         build_design_row, load_model, predict_residual_life,
                         save_model)
from .residual import (ResidualLifeQuery, ResidualLifeTable,
                       mean_residual_life, median_residual_life,
                       mrl_quadrature_oracle, percentile_residual_life,
                       residual_life_table)

__version__ = "0.1.0"

__all__ = [
    "CensoredSample", "Covariate", "CovariateSchema", "DISTRIBUTION_TAGS",
    "DataError", "Distribution", "FitResult", "MissingColumnError",
    "ParameterError", "ResidualLifeQuery", "ResidualLifeTable",
    "SurvivalModel", "UnknownLevelError", "build_design_row",
    "censored_loglik", "convert_genf_to_orig", "convert_gengamma_from_orig",
    "convert_gengamma_to_orig", "fit", "load_model", "make_distribution",
    "mean_residual_life", "median_residual_life", "mrl_quadrature_oracle",
    "percentile_residual_life", "predict_residual_life", "residual_life_table",
    "save_model", "specfun",
]

