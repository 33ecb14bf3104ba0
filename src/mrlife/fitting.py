"""Maximum-likelihood fitting of the survival families to right-censored data.

Parameters are maximized on an unconstrained scale (log transform for
strictly positive parameters, identity for the rest) by one BFGS run,
this module's ``minimize``: a mixed gradient, an Armijo backtracking line
search, and a stop on the predicted decrease, all on Python lists, so
fitting needs no array library.  The partials along the intercept and
the betas are analytic: each likelihood pass can also sum, per distinct
design row, the rows' location score ``Distribution.ln_scale_score``,
and the betas weight those sums by the design values.  The shape
parameters take central differences.  Standard errors come from the
inverse of a Hessian at the optimum, through its Cholesky factor, mapped
back to the natural scale by the delta method: its intercept and beta
rows are central differences of the analytic partials, the shape block
central second differences of the objective.  A Hessian that is not
positive definite gives NaN for every standard error.  95% intervals are
est*exp(+-1.96*se) for log-scale parameters and est +- 1.96*se otherwise.

One likelihood core, ``_loglik``, sums over the distributions that
``SurvivalModel.resolve_parameters`` builds, one per distinct design row,
for ``censored_loglik`` and for the fit objective.  The objective scores
the model at each trial point and ``fit`` returns the model at the last
one, so the ``loglik`` a fit reports equals ``censored_loglik`` of the
model it returns, to the bit.
"""
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .distributions import (DISTRIBUTION_TAGS, Distribution, PARAM_NAMES,
                            POSITIVE_PARAMS, _exp)
from .regression import (Covariate, CovariateSchema, LOCATION_PARAMS,
                         SurvivalModel, distinct_design_rows, rows_of)

_BIG = 1e12
_Z95 = 1.96


@dataclass(frozen=True)
class CensoredSample:
    """Right-censored observations: times, event flags, optional covariates."""

    time: Tuple[float, ...]
    event: Tuple[float, ...]
    covariates: Optional[Dict[str, list]] = None

    @staticmethod
    def from_lists(time, event, covariates=None):
        """A validated sample from sequences of real numbers, arrays included."""
        try:
            sample = CensoredSample(tuple(map(float, time)), tuple(map(float, event)),
                                    covariates)
        except TypeError:  # a scalar, or a sequence of sequences
            raise ValueError("time and event must be equal-length vectors") from None
        sample.validate()
        return sample

    def validate(self):
        if len(self.event) != len(self.time):
            raise ValueError("time and event must be equal-length vectors")
        if not all(t > 0.0 and math.isfinite(t) for t in self.time):
            raise ValueError("all times must be positive and finite")
        if not all(e == 0.0 or e == 1.0 for e in self.event):
            raise ValueError("event indicators must be 0 (censored) or 1 (observed)")
        if 1.0 not in self.event:
            raise ValueError("no observed events in the sample")
        if self.covariates is not None:
            for name, col in self.covariates.items():
                if len(col) != len(self.time):
                    raise ValueError(f"covariate column '{name}' length mismatch")
                if any(isinstance(v, numbers.Real) and not math.isfinite(v)
                       for v in col):
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


def _loglik(dists, groups, sample, scores=None):
    """Censored log likelihood with row i drawn from ``dists[groups[i]]``:
    ``censored_loglik`` and ``fit``'s objective both call it.  The scalar
    terms are summed in row order; NaN once the sum is not finite.  Given
    ``scores``, one entry per distribution, each row's ``ln_scale_score``
    is also added to its group's entry.
    """
    total = 0.0
    for group, ti, ei in zip(groups, sample.time, sample.event):
        d = dists[group]
        term = d.ln_pdf(ti) if ei == 1.0 else d.ln_survival(ti)
        total += term
        if not math.isfinite(total):
            return float("nan")
        if scores is not None:
            scores[group] += d.ln_scale_score(ti, ei, term)
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
        return _loglik([obj], [0] * len(sample), sample)
    if isinstance(obj, SurvivalModel):
        names = [c.name for c in obj.schema.covariates]
        rows = rows_of(sample.covariates or {}, names, len(sample))
        designs, groups = distinct_design_rows(obj.schema, rows)
        return _loglik([obj.resolve_parameters(d) for d in designs], groups,
                       sample)
    raise TypeError("expected a Distribution or SurvivalModel")


def infer_schema(columns: Dict[str, list], names: Sequence[str]) -> CovariateSchema:
    """Numeric when every value is a real number, else categorical with
    alphabetically ordered levels (first level is the reference)."""
    covs = []
    for name in names:
        if name not in columns:
            raise ValueError(f"covariate column '{name}' not found")
        values = columns[name]
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in values):
            covs.append(Covariate(name=name, kind="numeric"))
        else:
            levels = tuple(sorted({str(v) for v in values}))
            covs.append(Covariate(name=name, kind="categorical", levels=levels))
    return CovariateSchema(tuple(covs))


def _start_values(tag, sample):
    events = [t for t, e in zip(sample.time, sample.event) if e == 1.0]
    tbar = math.fsum(events) / len(events)
    mean_log = math.fsum(map(math.log, events)) / len(events)
    defaults = {
        "rate": 1.0 / tbar, "scale": tbar, "shape": 1.0, "k": 1.0,
        "meanlog": mean_log, "sdlog": 1.0, "mu": mean_log, "sigma": 1.0,
        "Q": 0.5, "P": 1.0, "s1": 1.0, "s2": 1.0,
    }
    return {name: defaults[name] for name in PARAM_NAMES[tag]}


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
    training_rows = tuple(rows) if covariates else None

    # positive parameters live on the log scale in theta; the betas never do
    on_log = ([name in POSITIVE_PARAMS[dist] for name in param_names]
              + [False] * len(design_cols))
    start = _start_values(dist, sample)
    theta0 = ([math.log(start[name]) if log else start[name]
               for name, log in zip(param_names, on_log)]
              + [0.0] * len(design_cols))
    location = LOCATION_PARAMS[dist][0]
    loc_index = param_names.index(location)
    n_params = len(param_names)
    # the intercept and the betas move eta, and eta moves ln s (the time
    # scale of ln_scale_score) forward, or backward for a rate
    analytic = [loc_index] + list(range(n_params, len(theta0)))
    eta_to_ln_s = -1.0 if location == "rate" else 1.0

    def model_at(theta):
        baseline = {name: math.exp(value) if log else value
                    for name, log, value in zip(param_names, on_log, theta)}
        # intercept first: the location slot of theta, then the design betas
        coefficients = tuple([theta[loc_index]] + theta[n_params:])
        return SurvivalModel(dist, baseline, coefficients, schema, training_rows)

    def loglik(theta, scores=None):
        try:
            model = model_at([float(v) for v in theta])
            return _loglik([model.resolve_parameters(d) for d in designs],
                           groups, sample, scores)
        except (ValueError, ArithmeticError):  # outside the domain or float range
            return float("nan")

    def objective(theta):
        value = loglik(theta)
        return -value if math.isfinite(value) else _BIG

    def partials(theta):
        """The objective's partials along ``analytic`` from one likelihood
        pass, or None where the loglik or a partial is not finite."""
        scores = [0.0] * len(designs)
        if not math.isfinite(loglik(theta, scores)):
            return None
        d_eta = [-eta_to_ln_s * s for s in scores]  # of -loglik, per group
        out = [math.fsum(d_eta)] + [
            math.fsum(g * design[j] for g, design in zip(d_eta, designs))
            for j in range(len(design_cols))]
        return out if all(map(math.isfinite, out)) else None

    best = minimize(objective, theta0, maxiter=5000, maxfev=10000,
                    partials=partials, analytic=analytic)
    theta_hat = best.x
    final_loglik = loglik(theta_hat)
    converged = best.success and math.isfinite(final_loglik)

    se_t = _hessian_std_errors(objective, theta_hat, partials, analytic)
    names = list(param_names) + design_cols
    estimates, std_errors, ci95 = {}, {}, {}
    for i, name in enumerate(names):
        est, se = theta_hat[i], se_t[i]
        if on_log[i]:
            est = math.exp(est)
            std_errors[name] = est * se
            ci95[name] = (est * _exp(-_Z95 * se), est * _exp(_Z95 * se))
        else:
            std_errors[name] = se
            ci95[name] = (est - _Z95 * se, est + _Z95 * se)
        estimates[name] = est

    result = FitResult(
        estimates=estimates,
        std_errors=std_errors,
        ci95=ci95,
        loglik=final_loglik,
        converged=converged,
        iterations=best.nit,
        n=len(sample),
        n_events=sample.event.count(1.0),
    )
    return result, model_at(theta_hat)


@dataclass(frozen=True)
class MinimizeResult:
    """Last accepted point and value of one ``minimize`` run, with its costs."""

    x: List[float]
    fun: float
    nit: int
    nfev: int
    success: bool


class _BudgetSpent(Exception):
    """``maxfev`` evaluations are spent; the step in progress is dropped."""


def minimize(fun, x0, *, maxiter, maxfev, partials=None, analytic=()):
    """Minimize ``fun`` from ``x0`` by BFGS.

    ``partials(x)``, when given, returns the partials of ``fun`` at x along
    the coordinates ``analytic``, in that order, or None where it has none;
    ``fit`` passes the location score.  The gradient takes those and
    central differences with steps h_i = 1e-5 (1 + |x_i|) along the other
    coordinates, or along all of them where ``partials`` gives None.  A
    call of ``partials`` counts as one evaluation in ``nfev`` and against
    ``maxfev``.  The inverse Hessian starts as I / max(1, |g|_inf), so no
    coordinate moves more than 1 in the first step, is rescaled after it
    (Nocedal & Wright 2006, eq. 6.20) and then follows the BFGS update (eq.
    6.17), skipped when s'y is not positive.  Each step backtracks from the
    full step, by a safeguarded quadratic, until the Armijo condition holds;
    ``_BIG`` and non-finite values count as no decrease.  The search
    succeeds when the predicted decrease g'Hg/2 is at most 1e-12 (1 + |f|);
    a gradient-norm stop would sit at the level of the finite-difference
    noise.  ``success`` is false when the line search finds no decrease or
    ``maxiter`` iterations or ``maxfev`` evaluations stop it first.  ``fun``
    and ``partials`` get a copy of each point.
    """
    x = [float(v) for v in x0]
    n = len(x)
    nfev = 0

    def evaluate(point, f=fun):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(list(point))

    def gradient(point):
        known = {}
        if partials is not None:
            known = dict(zip(analytic, evaluate(point, partials) or ()))
        g = []
        for i in range(n):
            if i in known:
                g.append(known[i])
                continue
            h = 1e-5 * (1.0 + abs(point[i]))
            up, down = list(point), list(point)
            up[i] += h
            down[i] -= h
            g.append((evaluate(up) - evaluate(down)) / (up[i] - down[i]))
        return g

    def line_search(point, f0, p, slope):
        """Armijo step length along ``p`` and its value, or None when no
        representable step decreases ``fun``."""
        alpha = 1.0
        while any(xi + alpha * pi != xi for xi, pi in zip(point, p)):
            f_new = evaluate([xi + alpha * pi for xi, pi in zip(point, p)])
            if not (math.isfinite(f_new) and f_new < _BIG):
                alpha *= 0.1
            elif f_new <= f0 + 1e-4 * alpha * slope:
                return alpha, f_new
            else:  # minimizer of the quadratic through f0, slope and f_new
                trial = -slope * alpha ** 2 / (2.0 * (f_new - f0 - slope * alpha))
                alpha = min(max(trial, 0.1 * alpha), 0.5 * alpha)
        return None

    def diagonal(value):
        return [[value if i == j else 0.0 for j in range(n)] for i in range(n)]

    def scaled_identity(g):  # no coordinate of the step -H g exceeds 1
        return diagonal(1.0 / max(1.0, max(abs(gi) for gi in g)))

    f, nit, success = math.inf, 0, False
    try:
        f = evaluate(x)
        g = gradient(x)
        hess_inv = scaled_identity(g)
        first_step = True
        while True:
            p = [-_dot(row, g) for row in hess_inv]
            slope = _dot(g, p)
            if not slope <= 0.0:  # rounding cost positive definiteness: restart
                hess_inv = scaled_identity(g)
                p = [-_dot(row, g) for row in hess_inv]
                slope = _dot(g, p)
            if -0.5 * slope <= 1e-12 * (1.0 + abs(f)):
                success = True
                break
            if nit >= maxiter:
                break
            found = line_search(x, f, p, slope)
            if found is None:
                break
            alpha, f_new = found
            s = [alpha * pi for pi in p]
            x_new = [xi + si for xi, si in zip(x, s)]
            g_new = gradient(x_new)
            y = [a - b for a, b in zip(g_new, g)]
            sy = _dot(s, y)
            if sy > 0.0:
                if first_step:
                    hess_inv = diagonal(sy / _dot(y, y))
                # eq. 6.17 multiplied out; H is symmetric, so y'H is (Hy)'
                rho = 1.0 / sy
                hy = [_dot(row, y) for row in hess_inv]
                c = rho * rho * _dot(y, hy) + rho
                hess_inv = [[hess_inv[i][j] - rho * (s[i] * hy[j] + hy[i] * s[j])
                             + c * s[i] * s[j] for j in range(n)] for i in range(n)]
            first_step = False
            x, f, g = x_new, f_new, g_new
            nit += 1
    except _BudgetSpent:
        pass
    return MinimizeResult(x=x, fun=float(f), nit=nit, nfev=nfev, success=success)


def _dot(a, b):
    return sum(ai * bi for ai, bi in zip(a, b))


def _hessian_std_errors(objective, theta, partials=None, analytic=()):
    """Delta-method standard errors from a Hessian H of the objective: the
    square roots of the diagonal of H^-1, through the Cholesky factor
    H = L L'.  The rows of H along the ``analytic`` coordinates are central
    differences of ``partials`` (see ``minimize``), 2k calls in all; the
    rest of H takes central second differences of the objective.  Every
    standard error is NaN when H is not positive definite, since then no
    factor exists and the optimum is no maximum of the likelihood, and when
    ``partials`` gives None near theta."""
    k = len(theta)
    h = [1e-4 * (1.0 + abs(v)) for v in theta]

    def moved(*moves):  # theta moved by sign * h[i] per (i, sign)
        point = list(theta)
        for i, sign in moves:
            point[i] += sign * h[i]
        return point

    def at(*moves):
        return objective(moved(*moves))

    # the rows of H along analytic; column j from the partials at theta -+ h_j
    row_of = {i: [math.nan] * k for i in analytic}
    for j in range(k if analytic else 0):
        up, down = partials(moved((j, 1.0))), partials(moved((j, -1.0)))
        if up is not None and down is not None:
            for i, u, d in zip(analytic, up, down):
                row_of[i][j] = (u - d) / (2.0 * h[j])

    f0 = objective(theta) if len(row_of) < k else math.nan
    chol = []  # the rows of L, each found as soon as that row of H is
    for i in range(k):
        row = []
        for j in range(i):
            if i in row_of or j in row_of:
                hess_ij = row_of[i][j] if i in row_of else row_of[j][i]
            else:
                hess_ij = (at((j, 1.0), (i, 1.0)) - at((j, 1.0), (i, -1.0))
                           - at((j, -1.0), (i, 1.0)) + at((j, -1.0), (i, -1.0))
                           ) / (4.0 * h[j] * h[i])
            row.append((hess_ij - _dot(row, chol[j])) / chol[j][j])
        if i in row_of:
            hess_ii = row_of[i][i]
        else:
            hess_ii = (at((i, 1.0)) - 2.0 * f0 + at((i, -1.0))) / h[i] ** 2
        pivot = hess_ii - _dot(row, row)
        if not pivot > 0.0:  # not positive definite
            return [math.nan] * k
        row.append(math.sqrt(pivot))
        chol.append(row)
    se = []
    for i in range(k):
        m = [0.0] * k  # column i of L^-1, from L m = e_i
        m[i] = 1.0 / chol[i][i]
        for r in range(i + 1, k):
            m[r] = -_dot(chol[r][i:r], m[i:r]) / chol[r][r]
        se.append(math.sqrt(_dot(m, m)))
    return se
