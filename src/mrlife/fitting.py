"""Maximum-likelihood fitting of the survival families to right-censored data.

Parameters are maximized on an unconstrained scale (log transform for
strictly positive parameters, identity for the rest) with a derivative-free
Nelder-Mead simplex plus deterministic restarts from perturbed optima.
The simplex is this module's ``minimize``: the adaptive Nelder-Mead of
Gao & Han (2012), which takes the same steps as scipy's, so fitting needs
numpy but not scipy.  Standard errors come from the inverse of a
central-finite-difference Hessian at the optimum, mapped back to the
natural scale by the delta method; 95% intervals are est*exp(+-1.96*se)
for log-scale parameters and est +- 1.96*se otherwise.

One likelihood core, ``_loglik``, serves ``censored_loglik`` and the fit
objective, and the location comes from ``regression.linear_predictor`` in
both, so the ``loglik`` a fit reports equals ``censored_loglik`` of the
model it returns, to the bit.
"""
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .distributions import (DISTRIBUTION_TAGS, Distribution, PARAM_NAMES,
                            POSITIVE_PARAMS, _exp, make_distribution)
from .regression import (Covariate, CovariateSchema, LOCATION_PARAMS,
                         SurvivalModel, distinct_design_rows, linear_predictor,
                         rows_of)

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
        if not np.all((self.time > 0.0) & np.isfinite(self.time)):
            raise ValueError("all times must be positive and finite")
        if not np.all((self.event == 0.0) | (self.event == 1.0)):
            raise ValueError("event indicators must be 0 (censored) or 1 (observed)")
        if not np.any(self.event == 1.0):
            raise ValueError("no observed events in the sample")
        if self.covariates is not None:
            for name, col in self.covariates.items():
                if len(col) != len(self.time):
                    raise ValueError(f"covariate column '{name}' length mismatch")
                if any(isinstance(v, float) and not math.isfinite(v) for v in col):
                    raise ValueError(f"covariate column '{name}' has a "
                                     f"non-finite value")

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


def _loglik(tag, params, locations, groups, sample):
    """Censored log likelihood of ``tag`` with ``params`` and, on row i, the
    location ``locations[groups[i]]``: ``censored_loglik`` and ``fit``'s
    objective both call it.  Exponential and weibull terms are numpy
    expressions; every other family builds one distribution per distinct
    location, as rows reach it, and sums the scalar terms in row order.
    NaN when the sum is not finite; ParameterError outside the domain.
    """
    if tag in _VECTORIZED_TAGS:
        loc = np.array(locations)[groups]  # exponential rate, weibull scale
        t = sample.time
        with np.errstate(over="ignore"):  # overflow saturates to a -inf loglik
            if tag == "exponential":
                ls = -loc * t
                lp = np.log(loc) + ls
            else:
                shape = params["shape"]
                ln_ratio = np.log(t) - np.log(loc)
                ls = -np.exp(shape * ln_ratio)
                lp = np.log(shape) - np.log(loc) + (shape - 1.0) * ln_ratio + ls
        total = float(np.sum(np.where(sample.event == 1.0, lp, ls)))
        return total if math.isfinite(total) else float("nan")
    location = LOCATION_PARAMS[tag][0]
    params = dict(params)
    dists = {}  # groups that share a location value share a distribution
    total = 0.0
    # Python floats: on numpy scalars every step of the scalar kernels is
    # slower (a gamma ln_survival: 4.4 us against 7.1 us)
    for group, ti, ei in zip(groups.tolist(), sample.time.tolist(),
                             sample.event.tolist()):
        loc = locations[group]
        d = dists.get(loc)
        if d is None:
            params[location] = loc
            d = dists[loc] = make_distribution(tag, params)
        total += d.ln_pdf(ti) if ei == 1.0 else d.ln_survival(ti)
        if not math.isfinite(total):
            return float("nan")
    return total


def censored_loglik(obj, sample: CensoredSample) -> float:
    """Right-censored log likelihood: sum of event*ln f(t) + (1-event)*ln S(t).

    ``obj`` is a Distribution (same parameters for every row) or a
    SurvivalModel (per-row parameters through its covariate schema, using
    the sample's covariate columns).  Returns NaN when any contributing
    density or survival term is zero or undefined.  For a model returned
    by ``fit`` this is, to the bit, the ``loglik`` that ``fit`` reported.
    """
    if isinstance(obj, Distribution):
        params = obj.params()
        locations = [params[LOCATION_PARAMS[obj.tag][0]]]
        groups = np.zeros(len(sample), dtype=int)
        return _loglik(obj.tag, params, locations, groups, sample)
    if isinstance(obj, SurvivalModel):
        names = [c.name for c in obj.schema.covariates]
        rows = rows_of(sample.covariates or {}, names, len(sample))
        designs, groups = distinct_design_rows(obj.schema, rows)
        locations = [linear_predictor(obj.dist, obj.coefficients, design)
                     for design in designs]
        return _loglik(obj.dist, obj.baseline, locations, np.array(groups), sample)
    raise TypeError("expected a Distribution or SurvivalModel")


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

    schema = infer_schema(sample.covariates or {}, covariates)
    design_cols = schema.column_names
    rows = rows_of(sample.covariates or {}, list(covariates), len(sample))
    designs, groups = distinct_design_rows(schema, rows)
    groups = np.array(groups)

    start = _start_values(dist, sample)
    theta0 = np.array([_transform(dist, name, start[name]) for name in param_names]
                      + [0.0] * len(design_cols))
    loc_index = param_names.index(LOCATION_PARAMS[dist][0])
    n_params = len(param_names)

    def loglik(theta):
        values = theta.tolist()
        # intercept first: the location slot of theta, then the design betas
        coefficients = [values[loc_index]] + values[n_params:]
        try:
            params = {name: _back_transform(dist, name, values[i])
                      for i, name in enumerate(param_names)}
            locations = [linear_predictor(dist, coefficients, design)
                         for design in designs]
            return _loglik(dist, params, locations, groups, sample)
        except (ValueError, ArithmeticError):  # outside the domain or float range
            return float("nan")

    def objective(theta):
        value = loglik(theta)
        return -value if math.isfinite(value) else _BIG

    options = dict(maxiter=5000, maxfev=10000, xatol=1e-9, fatol=1e-12,
                   adaptive=len(theta0) > 2)
    best = minimize(objective, theta0, **options)
    iterations = best.nit
    converged = bool(best.success)
    for restart in range(3):
        step = 1e-3 * (restart + 1)
        perturbed = best.x + step * (1.0 + np.abs(best.x)) * \
            np.where((np.arange(len(best.x)) + restart) % 2 == 0, 1.0, -1.0)
        retry = minimize(objective, perturbed, **options)
        iterations += retry.nit
        improvement = best.fun - retry.fun
        if retry.fun < best.fun:
            best = retry
            converged = bool(retry.success)
        if improvement <= 1e-10 * (1.0 + abs(best.fun)):
            break

    theta_hat = best.x
    final_loglik = loglik(theta_hat)
    converged = converged and math.isfinite(final_loglik)

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
            ci95[name] = (est * _exp(-_Z95 * se), est * _exp(_Z95 * se))
        else:
            estimates[name] = est
            std_errors[name] = se
            ci95[name] = (est - _Z95 * se, est + _Z95 * se)

    baseline = {name: estimates[name] for name in param_names}
    values = theta_hat.tolist()
    model = SurvivalModel(
        dist=dist,
        baseline=baseline,
        coefficients=tuple([values[loc_index]] + values[n_params:]),
        schema=schema,
        training_rows=tuple(rows) if covariates else None,
    )
    result = FitResult(
        estimates=estimates,
        std_errors=std_errors,
        ci95=ci95,
        loglik=final_loglik,
        converged=converged,
        iterations=int(iterations),
        n=len(sample),
        n_events=int(np.sum(sample.event == 1.0)),
    )
    return result, model


@dataclass(frozen=True)
class NelderMeadResult:
    """Best vertex and value of one ``minimize`` run, with its costs."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


class _BudgetSpent(Exception):
    """``maxfev`` evaluations are spent; the step in progress is dropped."""


def _ranked(sim, fsim):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def minimize(fun, x0, *, maxiter, maxfev, xatol, fatol, adaptive):
    """Minimize ``fun`` from ``x0`` with the Nelder-Mead simplex.

    The steps are those of ``scipy.optimize.minimize(method="Nelder-Mead")``
    with the same options, to the bit: the same initial simplex (a 5% step
    per coordinate, 0.00025 for a zero one), the same arithmetic, and the
    same ``np.argsort`` ranking, so ties such as ``_BIG`` resolve alike.
    ``adaptive`` scales the expansion, contraction and shrink coefficients
    with the dimension (Gao & Han 2012, Comput. Optim. Appl. 51(1)).  The
    search stops when every vertex is within ``xatol`` and every value
    within ``fatol`` of the best; ``success`` is false when ``maxfev``
    evaluations or ``maxiter`` iterations stop it first.  ``fun`` gets a
    copy of each point.
    """
    x0 = np.array(x0, dtype=float).ravel()
    n = len(x0)
    if adaptive:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025

    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(np.copy(x))

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    # ranked twice, as scipy does: a second argsort may reorder ties
    sim, fsim = _ranked(*_ranked(sim, fsim))
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]  # scipy's rho is 1: no factor changes bits
            fxr = evaluate(xr)
            if fxr < fsim[0]:  # expand
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside or inside, else shrink toward the best
                if fxr < fsim[-1]:
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = evaluate(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = evaluate(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = _ranked(sim, fsim)
    return NelderMeadResult(x=sim[0], fun=float(np.min(fsim)), nit=iterations,
                            nfev=nfev,
                            success=nfev < maxfev and iterations < maxiter)


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
