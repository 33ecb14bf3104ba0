"""Maximum-likelihood fitting of the survival families to right-censored data.

Parameters are maximized on an unconstrained scale (log transform for
strictly positive parameters, identity for the rest) with a derivative-free
Nelder-Mead simplex plus deterministic restarts from perturbed optima.
Standard errors come from the inverse of a central-finite-difference
Hessian at the optimum, mapped back to the natural scale by the delta
method; 95% intervals are est*exp(+-1.96*se) for log-scale parameters and
est +- 1.96*se otherwise.
"""
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .distributions import (DISTRIBUTION_TAGS, Distribution, PARAM_NAMES,
                            POSITIVE_PARAMS, make_distribution)
from .regression import (Covariate, CovariateSchema, LOCATION_PARAMS,
                         SurvivalModel)

_BIG = 1e12
_Z95 = 1.96

# tags whose likelihood terms have straight numpy expressions (hot paths)
_VECTORIZED_TAGS = ("exponential", "weibull")


@dataclass(frozen=True)
class CensoredSample:
    """Right-censored observations: times, event flags, optional covariates."""

    time: np.ndarray
    event: np.ndarray
    covariates: Optional[Dict[str, list]] = None

    @staticmethod
    def from_lists(time, event, covariates=None):
        sample = CensoredSample(
            time=np.asarray(time, dtype=float),
            event=np.asarray(event, dtype=float),
            covariates=covariates,
        )
        sample.validate()
        return sample

    def validate(self):
        if self.time.ndim != 1 or self.event.shape != self.time.shape:
            raise ValueError("time and event must be equal-length vectors")
        if not np.all(self.time > 0.0):
            raise ValueError("all times must be positive")
        if not np.all((self.event == 0.0) | (self.event == 1.0)):
            raise ValueError("event indicators must be 0 (censored) or 1 (observed)")
        if not np.any(self.event == 1.0):
            raise ValueError("no observed events in the sample")
        if self.covariates is not None:
            for name, col in self.covariates.items():
                if len(col) != len(self.time):
                    raise ValueError(f"covariate column '{name}' length mismatch")

    def __len__(self):
        return len(self.time)


@dataclass
class FitResult:
    """Estimates and uncertainty of one maximum-likelihood fit."""

    estimates: Dict[str, float]
    std_errors: Dict[str, float]
    ci95: Dict[str, Tuple[float, float]]
    loglik: float
    converged: bool
    iterations: int
    n: int
    n_events: int


def _vectorized_terms(tag, params, t):
    """(ln_pdf, ln_survival) arrays for the numpy-expressible families."""
    with np.errstate(over="ignore"):  # overflow saturates to a -inf loglik
        if tag == "exponential":
            rate = params["rate"]
            ls = -rate * t
            lp = np.log(rate) + ls
            return lp, ls
        if tag == "weibull":
            shape, scale = params["shape"], params["scale"]
            ln_ratio = np.log(t) - np.log(scale)
            cum = np.exp(shape * ln_ratio)
            lp = np.log(shape) - np.log(scale) + (shape - 1.0) * ln_ratio - cum
            return lp, -cum
    raise KeyError(tag)


def censored_loglik(obj, sample: CensoredSample) -> float:
    """Right-censored log likelihood: sum of event*ln f(t) + (1-event)*ln S(t).

    ``obj`` is a Distribution (same parameters for every row) or a
    SurvivalModel (per-row parameters through its covariate schema, using
    the sample's covariate columns).  Returns NaN when any contributing
    density or survival term is zero or undefined.
    """
    t = sample.time
    event = sample.event
    if isinstance(obj, Distribution):
        if obj.tag in _VECTORIZED_TAGS:
            lp, ls = _vectorized_terms(obj.tag, obj.params(), t)
            terms = np.where(event == 1.0, lp, ls)
        else:
            terms = np.array([
                obj.ln_pdf(ti) if ei == 1.0 else obj.ln_survival(ti)
                for ti, ei in zip(t.tolist(), event.tolist())
            ])
    elif isinstance(obj, SurvivalModel):
        if sample.covariates is None and obj.schema.covariates:
            raise ValueError("sample has no covariate columns for this model")
        rows = _sample_rows(sample, [c.name for c in obj.schema.covariates])
        terms = np.empty(len(t))
        dists = {}  # one distribution per distinct design row
        for i, (row, ti, ei) in enumerate(zip(rows, t.tolist(), event.tolist())):
            design = obj.schema.design_row(row)
            key = tuple(design)
            dist = dists.get(key)
            if dist is None:
                dist = dists[key] = obj.resolve_parameters(design)
            terms[i] = dist.ln_pdf(ti) if ei == 1.0 else dist.ln_survival(ti)
    else:
        raise TypeError("expected a Distribution or SurvivalModel")
    total = float(np.sum(terms))
    if not math.isfinite(total):
        return float("nan")
    return total


def _sample_rows(sample, names):
    cols = sample.covariates or {}
    for name in names:
        if name not in cols:
            raise ValueError(f"covariate column '{name}' not in sample")
    return [{name: cols[name][i] for name in names} for i in range(len(sample))]


def infer_schema(columns: Dict[str, list], names: Sequence[str]) -> CovariateSchema:
    """Numeric when every value is a real number, else categorical with
    alphabetically ordered levels (first level is the reference)."""
    covs = []
    for name in names:
        if name not in columns:
            raise ValueError(f"covariate column '{name}' not found")
        values = columns[name]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            covs.append(Covariate(name=name, kind="numeric"))
        else:
            levels = tuple(sorted({str(v) for v in values}))
            covs.append(Covariate(name=name, kind="categorical", levels=levels))
    return CovariateSchema(tuple(covs))


def _start_values(tag, sample):
    events = sample.time[sample.event == 1.0]
    tbar = float(np.mean(events))
    mean_log = float(np.mean(np.log(events)))
    defaults = {
        "rate": 1.0 / tbar, "scale": tbar, "shape": 1.0, "k": 1.0,
        "meanlog": mean_log, "sdlog": 1.0, "mu": mean_log, "sigma": 1.0,
        "Q": 0.5, "P": 1.0, "s1": 1.0, "s2": 1.0,
    }
    return {name: defaults[name] for name in PARAM_NAMES[tag]}


def _transform(tag, name, value):
    return math.log(value) if name in POSITIVE_PARAMS[tag] else value


def _back_transform(tag, name, value):
    return math.exp(value) if name in POSITIVE_PARAMS[tag] else value


def fit(dist: str, sample: CensoredSample, covariates: Sequence[str] = ()):
    """Fit one family to a censored sample, optionally with covariates.

    Returns (FitResult, SurvivalModel).  The location parameter's
    transformed value doubles as the regression intercept; covariate
    coefficients start at zero.
    """
    if dist not in DISTRIBUTION_TAGS:
        raise ValueError(f"unknown distribution '{dist}'")
    sample.validate()
    param_names = PARAM_NAMES[dist]
    location, link = LOCATION_PARAMS[dist]

    schema = (infer_schema(sample.covariates or {}, covariates)
              if covariates else CovariateSchema())
    design_cols = schema.column_names
    if covariates:
        rows = _sample_rows(sample, list(covariates))
        design = np.array([schema.design_row(r) for r in rows])
    else:
        rows = None
        design = np.zeros((len(sample), 0))

    start = _start_values(dist, sample)
    theta0 = np.array([_transform(dist, name, start[name]) for name in param_names]
                      + [0.0] * len(design_cols))
    loc_index = param_names.index(location)
    t = sample.time
    event = sample.event
    vectorized = dist in _VECTORIZED_TAGS
    # Python floats for the per-row loop: on numpy scalars every step of the
    # scalar kernels is slower (a gamma ln_survival: 4.4 us against 7.1 us)
    t_list = t.tolist()
    observed = (event == 1.0).tolist()

    def unpack(theta):
        values = theta.tolist()
        params = {name: _back_transform(dist, name, values[i])
                  for i, name in enumerate(param_names)}
        betas = theta[len(param_names):]
        return params, betas

    def build(params):
        try:
            return make_distribution(dist, params)
        except ValueError:  # outside the family's domain
            return None

    def loglik(theta):
        params, betas = unpack(theta)
        eta = theta[loc_index] + design @ betas if len(betas) else theta[loc_index]
        loc = np.exp(eta) if link == "log" else eta
        if vectorized:
            pr = dict(params)
            pr[location] = loc
            lp, ls = _vectorized_terms(dist, pr, t)
            total = float(np.sum(np.where(event == 1.0, lp, ls)))
            return total if math.isfinite(total) else float("nan")
        if len(betas):
            # one distribution per distinct location value, summed in row order
            dists = {}
            total = 0.0
            for ti, obs, li in zip(t_list, observed, loc.tolist()):
                d = dists.get(li)
                if d is None:
                    params[location] = li
                    d = dists[li] = build(params)
                    if d is None:
                        return float("nan")
                total += d.ln_pdf(ti) if obs else d.ln_survival(ti)
                if not math.isfinite(total):
                    return float("nan")
            return total
        params[location] = float(loc)
        d = build(params)
        if d is None:
            return float("nan")
        return censored_loglik(d, sample)

    def objective(theta):
        value = loglik(theta)
        return -value if math.isfinite(value) else _BIG

    options = dict(maxiter=5000, maxfev=10000, xatol=1e-9, fatol=1e-12,
                   adaptive=len(theta0) > 2)
    best = minimize(objective, theta0, method="Nelder-Mead", options=options)
    iterations = best.nit
    converged = bool(best.success)
    for restart in range(3):
        step = 1e-3 * (restart + 1)
        perturbed = best.x + step * (1.0 + np.abs(best.x)) * \
            np.where((np.arange(len(best.x)) + restart) % 2 == 0, 1.0, -1.0)
        retry = minimize(objective, perturbed, method="Nelder-Mead", options=options)
        iterations += retry.nit
        improvement = best.fun - retry.fun
        if retry.fun < best.fun:
            best = retry
            converged = bool(retry.success)
        if improvement <= 1e-10 * (1.0 + abs(best.fun)):
            break

    theta_hat = best.x
    final_loglik = loglik(theta_hat)

    se_t = _hessian_std_errors(objective, theta_hat)
    names = list(param_names) + design_cols
    estimates, std_errors, ci95 = {}, {}, {}
    for i, name in enumerate(names):
        is_param = i < len(param_names)
        log_scale = is_param and name in POSITIVE_PARAMS[dist]
        raw = float(theta_hat[i])
        est = math.exp(raw) if log_scale else raw
        se = float(se_t[i])
        if log_scale:
            estimates[name] = est
            std_errors[name] = est * se
            ci95[name] = (est * math.exp(-_Z95 * se), est * math.exp(_Z95 * se))
        else:
            estimates[name] = est
            std_errors[name] = se
            ci95[name] = (est - _Z95 * se, est + _Z95 * se)

    baseline = {name: estimates[name] for name in param_names}
    # intercept first: the location slot of theta, then the design betas
    coefficients = (float(theta_hat[loc_index]),) + tuple(
        float(v) for v in theta_hat[len(param_names):])
    model = SurvivalModel(
        dist=dist,
        baseline=baseline,
        coefficients=coefficients,
        schema=schema,
        training_rows=tuple(rows) if rows is not None else None,
    )
    result = FitResult(
        estimates=estimates,
        std_errors=std_errors,
        ci95=ci95,
        loglik=final_loglik,
        converged=converged,
        iterations=int(iterations),
        n=len(sample),
        n_events=int(np.sum(event == 1.0)),
    )
    return result, model


def _hessian_std_errors(objective, theta):
    """Delta-method standard errors from a central-difference Hessian."""
    k = len(theta)
    h = 1e-4 * (1.0 + np.abs(theta))
    hess = np.empty((k, k))
    f0 = objective(theta)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        hess[i, i] = (objective(theta + ei) - 2.0 * f0 + objective(theta - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            fpp = objective(theta + ei + ej)
            fpm = objective(theta + ei - ej)
            fmp = objective(theta - ei + ej)
            fmm = objective(theta - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    try:
        cov = np.linalg.inv(hess)
        diag = np.diag(cov)
        with np.errstate(invalid="ignore"):
            se = np.sqrt(np.where(diag > 0.0, diag, np.nan))
    except np.linalg.LinAlgError:
        se = np.full(k, np.nan)
    return se
