"""Maximum-likelihood fitting of the survival families to right-censored data.

Parameters are maximized on an unconstrained scale (log transform for
strictly positive parameters, identity for the rest) by one BFGS run,
this module's ``minimize``: a mixed gradient, an Armijo backtracking line
search, and a stop on the predicted decrease, all on Python lists, so
fitting needs no array library.

One likelihood loop, ``_loglik``, serves ``censored_loglik`` and ``fit``.
It makes one ``Distribution.ln_group_scores`` call per distinct design
row, one distribution each, for all of that row's observations: the
rows' terms, with the bits of ``ln_pdf`` or ``ln_survival``, which it adds
in row order, and per group the sums of the location score s, ln t * s,
the shape scores and the location curvature c = ds/d ln s weighted by 1,
ln t and (ln t)**2.  From one pass, ``fit``'s ``score`` gives the
objective and its partials: along the intercept and the betas from the
sums of s, the betas weighting them by the design values; along ln sigma
for the log-location-scale families of ``LOG_SCALE_PARAMS``, where
W = (ln T - eta)/sigma has a law free of eta and sigma, as
d ln f/d ln sigma = (ln t - eta) s - 1 for an event and (ln t - eta) s
when censored (Kalbfleisch & Prentice 2002, ch. 3; Lawless 2003, ch. 6);
and along the shape k of the gamma-power families of
``GAMMA_SHAPE_PARAMS``, T = scale * G**(1/b) with G ~ Gamma(k), whose row
terms move with k by the shape score less psi(k), psi(k) taken once per
pass (gengamma's Q also moves ln z and ln|b|).

``minimize`` and ``_hessian_std_errors`` call ``score`` and nothing else.
The line search scores its trial points, so the accepted point's pass
supplies the next gradient and its value is the reported loglik, to the
bit ``censored_loglik`` of the model ``fit`` returns.  The Gompertz
shape, genf's P and Q and genf.orig's s1 and s2 have no closed-form
partial and take central differences of the objective.  Standard errors
come from the inverse of the Hessian at the optimum, through its Cholesky
factor, mapped back to the natural scale by the delta method; a Hessian
that is not positive definite gives NaN for every standard error.  Its
entries among the intercept, ln sigma and the betas are closed forms in
the curvature sums of the pass at the optimum, which the search's last
accepted pass usually is (with v = ln t - eta: the sums of c, of
v c - s and of v (v c - s)); only the shape coordinates take central
differences, two passes each.  95% intervals are est*exp(+-1.96*se) for
log-scale parameters and est +- 1.96*se otherwise.
"""
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import specfun as sf
from .distributions import (DISTRIBUTION_TAGS, Distribution, PARAM_NAMES,
                            POSITIVE_PARAMS, _exp)
from .regression import (Covariate, CovariateSchema, LOCATION_PARAMS,
                         SurvivalModel, TrainingRows, distinct_design_rows,
                         rows_of)

_BIG = 1e12
_Z95 = 1.96

# sigma of ln T = eta + sigma W per log-location-scale family, eta being the
# location of LOCATION_PARAMS, with the sign of ln sigma in theta: theta
# holds ln sigma, or for a shape ln(1/sigma)
LOG_SCALE_PARAMS = {
    "weibull": ("shape", -1.0), "llogis": ("shape", -1.0),
    "gengamma.orig": ("shape", -1.0), "lnorm": ("sdlog", 1.0),
    "gengamma": ("sigma", 1.0), "genf.orig": ("sigma", 1.0),
    "genf": ("sigma", 1.0),
}

# the parameter that sets the shape k of the gamma-power core,
# T = scale * G**(1/b) with G ~ Gamma(k): theta holds ln k for gamma and
# gengamma.orig, and Q, with k = Q**-2, for gengamma
GAMMA_SHAPE_PARAMS = {"gamma": "shape", "gengamma.orig": "k", "gengamma": "Q"}


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
    evaluations: int  # likelihood passes of the optimizer and the Hessian


def _rows_by_group(groups, n_groups, sample):
    """``_loglik``'s view of a sample whose row i is drawn from
    distribution ``groups[i]``: per group, the ``(times, ln_times,
    events)`` of its rows, and for each row its place among the groups'
    rows laid end to end."""
    members = [[] for _ in range(n_groups)]
    for i, group in enumerate(groups):
        members[group].append(i)
    ln_times = [math.log(t) for t in sample.time]
    rows = [tuple(tuple(column[i] for i in m)
                  for column in (sample.time, ln_times, sample.event))
            for m in members]
    place = [0] * len(groups)
    for position, i in enumerate(i for m in members for i in m):
        place[i] = position
    return rows, place


def _loglik(dists, rows, place):
    """Censored log likelihood of the rows ``_rows_by_group`` gives, group g
    drawn from ``dists[g]``, and its score sums: ``censored_loglik`` and
    ``fit``'s score both call it.  One ``ln_group_scores`` call per
    distribution gives its rows' terms, which have the bits of ``ln_pdf``
    and ``ln_survival`` and are summed in row order, and its six score
    sums.  Returns ``(total, sums)``, ``sums`` holding those six per
    distribution, or ``(NaN, None)`` when the total is not finite.
    """
    scored = [d.ln_group_scores(*group_rows) for d, group_rows in zip(dists, rows)]
    terms = [term for group_terms, _ in scored for term in group_terms]
    total = 0.0
    for i in place:
        total += terms[i]
    if not math.isfinite(total):
        return math.nan, None
    return total, [sums for _, sums in scored]


def censored_loglik(obj, sample: CensoredSample) -> float:
    """Right-censored log likelihood: sum of event*ln f(t) + (1-event)*ln S(t).

    ``obj`` is a Distribution (same parameters for every row) or a
    SurvivalModel (per-row parameters through its covariate schema, using
    the sample's covariate columns).  Returns NaN when any contributing
    density or survival term is zero or undefined.  For a model returned
    by ``fit`` this is, to the bit, the ``loglik`` that ``fit`` reported.
    """
    if isinstance(obj, Distribution):
        dists, groups = [obj], [0] * len(sample)
    elif isinstance(obj, SurvivalModel):
        names = [c.name for c in obj.schema.covariates]
        rows = rows_of(sample.covariates or {}, names, len(sample))
        designs, groups = distinct_design_rows(obj.schema, rows)
        dists = [obj.resolve_parameters(d) for d in designs]
    else:
        raise TypeError("expected a Distribution or SurvivalModel")
    return _loglik(dists, *_rows_by_group(groups, len(dists), sample))[0]


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
    training_rows = TrainingRows(rows) if covariates else None

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
    # scale of the location score in ln_term_scores) forward, or backward
    # for a rate; ln sigma and the gamma shape are analytic where the
    # family has them
    eta_to_ln_s = -1.0 if location == "rate" else 1.0
    log_scale = LOG_SCALE_PARAMS.get(dist)
    shape = GAMMA_SHAPE_PARAMS.get(dist)
    shape_index = param_names.index(shape) if shape else None
    analytic = ([loc_index]
                + ([param_names.index(log_scale[0])] if log_scale else [])
                + ([shape_index] if shape else [])
                + list(range(n_params, len(theta0))))
    rows_by_group, place = _rows_by_group(groups, len(designs), sample)
    events = [sum(group_events) for _, _, group_events in rows_by_group]

    def model_at(theta):
        baseline = {name: math.exp(value) if log else value
                    for name, log, value in zip(param_names, on_log, theta)}
        # intercept first: the location slot of theta, then the design betas
        coefficients = tuple([theta[loc_index]] + theta[n_params:])
        return SurvivalModel(dist, baseline, coefficients, schema, training_rows)

    def etas_at(theta):
        etas = []
        for design in designs:
            eta = theta[loc_index]
            for beta, x in zip(theta[n_params:], design):
                eta += beta * x
            etas.append(eta)
        return etas

    passes = 0
    latest = [None, None]  # theta and per-group score sums of the latest pass

    def score(theta):
        """The objective, -loglik or ``_BIG`` where that is not finite, at
        theta and its partials along ``analytic``, from one likelihood pass;
        the partials are None where the loglik or a partial is not finite."""
        nonlocal passes
        passes += 1
        theta = [float(v) for v in theta]
        latest[:] = theta, None
        try:
            model = model_at(theta)
            value, sums = _loglik([model.resolve_parameters(d) for d in designs],
                                  rows_by_group, place)
        except (ValueError, ArithmeticError):  # outside the domain or float range
            return _BIG, None
        if sums is None:
            return _BIG, None
        latest[1] = sums
        by_group, by_group_ln_t, by_group_k, *_ = zip(*sums)
        d_eta = [-eta_to_ln_s * s for s in by_group]  # of -loglik, per group
        out = [math.fsum(d_eta)]
        if log_scale is not None:
            # sum over a group's rows of (ln t - eta) s - event
            d_ln_sigma = math.fsum(
                s_ln_t - eta * s - e for eta, s, s_ln_t, e
                in zip(etas_at(theta), by_group, by_group_ln_t, events))
            out.append(-log_scale[1] * d_ln_sigma)
        if shape is not None:
            # d loglik/dk: the rows' shape scores less psi(k) once per row
            theta_k = theta[shape_index]
            k = theta_k ** -2 if dist == "gengamma" else math.exp(theta_k)
            d_k = math.fsum(by_group_k) - len(sample) * sf.digamma(k)
            if dist != "gengamma":  # theta holds ln k
                out.append(-k * d_k)
            else:
                # Q moves k = Q**-2, ln z = Q w - 2 ln|Q| with
                # w = (ln t - eta)/sigma, and ln|b| = ln|Q/sigma| of an event;
                # the location score gives d/d ln z = -s sigma/Q, and the
                # ln sigma partial the sum of (ln t - eta) s - event
                q, sigma = theta_k, math.exp(theta[param_names.index("sigma")])
                out.append(2.0 * d_k / q ** 3 + d_ln_sigma / q
                           - 2.0 * sigma * math.fsum(by_group) / q ** 2)
        out += [math.fsum(g * design[j] for g, design in zip(d_eta, designs))
                for j in range(len(design_cols))]
        return -value, out if all(map(math.isfinite, out)) else None

    def curvature(theta):
        """The Hessian of the objective among the intercept, ln sigma and
        the betas, in closed form from the latest pass's sums of the
        location curvature c, or None unless that pass scored theta.
        Per group, eta moves ln s by +-1, so d2/d eta2 is the sum of c;
        with v = ln t - eta, d2/d eta d ln sigma is the sum of v c - s
        and d2/d ln sigma2 that of v (v c - s), ln s being eta itself for
        every family with a sigma (Kalbfleisch & Prentice 2002, ch. 3)."""
        if latest[1] is None or latest[0] != list(theta):
            return None
        s, s_ln_t, _, c, c_ln_t, c_ln_t2 = zip(*latest[1])
        # d eta/d theta of each group along the intercept and the betas
        eta_coords = [loc_index] + list(range(n_params, len(theta)))
        eta_units = [[1.0] + design for design in designs]
        hess = {}
        for a, i in enumerate(eta_coords):
            for b, j in enumerate(eta_coords[:a + 1]):
                hess[i, j] = hess[j, i] = -math.fsum(
                    unit[a] * unit[b] * cg for unit, cg in zip(eta_units, c))
        if log_scale is not None:
            cross, own = [], []
            for eta, sg, ls, cg, lc, llc in zip(etas_at(theta), s, s_ln_t, c,
                                                c_ln_t, c_ln_t2):
                v_c = lc - eta * cg
                cross.append(v_c - sg)
                own.append(llc - 2.0 * eta * lc + eta * eta * cg - (ls - eta * sg))
            sigma_index = param_names.index(log_scale[0])
            for a, i in enumerate(eta_coords):
                hess[i, sigma_index] = hess[sigma_index, i] = -log_scale[1] * math.fsum(
                    unit[a] * x for unit, x in zip(eta_units, cross))
            hess[sigma_index, sigma_index] = -math.fsum(own)
        return hess

    best = minimize(score, theta0, maxiter=5000, maxfev=10000, analytic=analytic)
    theta_hat = best.x
    # the search's last pass scored theta_hat: its value is the loglik
    final_loglik = -best.fun if best.fun < _BIG else math.nan
    converged = best.success and math.isfinite(final_loglik)

    se_t = _hessian_std_errors(score, theta_hat, best.fun, analytic=analytic,
                               curvature=curvature)
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
        evaluations=passes,
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


def minimize(score, x0, *, maxiter, maxfev, analytic=()):
    """Minimize an objective f from ``x0`` by BFGS.

    ``score(x)`` returns the pair ``(f(x), partials)``: the partials of f
    at x along the coordinates ``analytic``, in that order, or None where
    it has none; ``fit`` passes its likelihood pass.  The start and each
    line-search trial are scored once, so an accepted point's call
    supplies the next gradient (Nocedal & Wright 2006, ch. 3).  The
    gradient takes those partials and central differences of f with steps
    h_i = 1e-5 (1 + |x_i|) along the other coordinates, or along all of
    them where ``score`` gives None.  Each call of ``score`` counts as one
    evaluation in ``nfev`` and against ``maxfev``.  The inverse Hessian
    starts as I / max(1, |g|_inf), so no coordinate moves more than 1 in
    the first step, is rescaled after it (eq. 6.20) and then follows the
    BFGS update (eq. 6.17), skipped when s'y is not positive.  Each step
    backtracks from the full step, by a safeguarded quadratic, until the
    Armijo condition holds; ``_BIG`` and non-finite values count as no
    decrease.  The search succeeds when the predicted decrease g'Hg/2 is
    at most 1e-12 (1 + |f|); a gradient-norm stop would sit at the level
    of the finite-difference noise.  ``success`` is false when the line
    search finds no decrease or ``maxiter`` iterations or ``maxfev``
    evaluations stop it first.  ``score`` gets a copy of each point.
    """
    x = [float(v) for v in x0]
    n = len(x)
    nfev = 0

    def evaluate(point):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return score(list(point))

    def gradient(point, known):
        known = dict(zip(analytic, known or ()))
        g = []
        for i in range(n):
            if i in known:
                g.append(known[i])
                continue
            h = 1e-5 * (1.0 + abs(point[i]))
            up, down = list(point), list(point)
            up[i] += h
            down[i] -= h
            g.append((evaluate(up)[0] - evaluate(down)[0]) / (up[i] - down[i]))
        return g

    def line_search(point, f0, p, slope):
        """Armijo step length along ``p`` with the score of its point, or
        None when no representable step decreases f."""
        alpha = 1.0
        while any(xi + alpha * pi != xi for xi, pi in zip(point, p)):
            f_new, known = evaluate([xi + alpha * pi for xi, pi in zip(point, p)])
            if not (math.isfinite(f_new) and f_new < _BIG):
                alpha *= 0.1
            elif f_new <= f0 + 1e-4 * alpha * slope:
                return alpha, f_new, known
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
        f, known = evaluate(x)
        g = gradient(x, known)
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
            alpha, f_new, known = found
            s = [alpha * pi for pi in p]
            x_new = [xi + si for xi, si in zip(x, s)]
            g_new = gradient(x_new, known)
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


def _hessian_std_errors(score, theta, f0, analytic=(), curvature=None):
    """Delta-method standard errors from a Hessian H of the objective f that
    ``score`` gives with its partials (see ``minimize``): the square roots
    of the diagonal of H^-1, through the Cholesky factor H = L L'.

    ``curvature(theta)``, where given, returns the entries of H it has in
    closed form, as a mapping from (i, j), both orders, to H_ij; or None
    when it needs a call of ``score`` at theta first, which is then made
    once.  H takes differences only along the other coordinates: along
    each, 2 calls give its column in the rows along ``analytic``, as
    central differences of those partials, and, where it is not analytic,
    its diagonal entry as a central second difference of f around ``f0``,
    its value at theta; two such non-analytic coordinates take 4 calls
    more for their cross entry.  Every standard error is NaN when H is not
    positive definite, since then no factor exists and the optimum is no
    maximum of the likelihood, and when ``score`` gives None for the
    partials near theta."""
    k = len(theta)
    h = [1e-4 * (1.0 + abs(v)) for v in theta]
    known = {}
    if curvature is not None:
        known = curvature(theta)
        if known is None:
            score(list(theta))
            known = curvature(theta)
        if known is None:  # no finite pass at theta
            return [math.nan] * k

    def moved(*moves):  # theta moved by sign * h[i] per (i, sign)
        point = list(theta)
        for i, sign in moves:
            point[i] += sign * h[i]
        return point

    def at(*moves):
        return score(moved(*moves))[0]

    # along each coordinate j outside ``known``: f at theta -+ h_j and the
    # rows along analytic of column j from the partials there
    values, row_of = {}, {i: {} for i in analytic}
    for j in range(k):
        if (j, j) in known:
            continue
        (f_up, up), (f_down, down) = score(moved((j, 1.0))), score(moved((j, -1.0)))
        values[j] = f_up, f_down
        if up is None or down is None:
            up = down = [math.nan] * len(analytic)
        for i, u, d in zip(analytic, up, down):
            row_of[i][j] = (u - d) / (2.0 * h[j])

    def hess_at(i, j):
        if (i, j) in known:
            return known[i, j]
        if j in row_of.get(i, ()):
            return row_of[i][j]
        if i in row_of.get(j, ()):
            return row_of[j][i]
        if i == j:
            f_up, f_down = values[i]
            return (f_up - 2.0 * f0 + f_down) / h[i] ** 2
        return (at((j, 1.0), (i, 1.0)) - at((j, 1.0), (i, -1.0))
                - at((j, -1.0), (i, 1.0)) + at((j, -1.0), (i, -1.0))
                ) / (4.0 * h[j] * h[i])

    chol = []  # the rows of L, each found as soon as that row of H is
    for i in range(k):
        row = []
        for j in range(i):
            row.append((hess_at(i, j) - _dot(row, chol[j])) / chol[j][j])
        pivot = hess_at(i, i) - _dot(row, row)
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
