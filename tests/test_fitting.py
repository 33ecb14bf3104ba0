"""Censored maximum-likelihood fitting tests."""
import math

import numpy as np
import pytest

from mrlife import (CensoredSample, censored_loglik, convert_genf_to_orig, fit,
                    make_distribution)
from mrlife import fitting
from mrlife import specfun as sf
from mrlife.distributions import (_LN_2PI, DISTRIBUTION_TAGS, PARAM_NAMES,
                                  POSITIVE_PARAMS, Weibull,
                                  _exp, _log, _softplus)
from mrlife.regression import LOCATION_PARAMS

from conftest import sample_params, weibull_censored_sample

# families whose likelihood runs the per-row loop (not _VECTORIZED_TAGS)
_LOOP_TAGS = ("gamma", "gompertz", "lnorm", "llogis", "gengamma.orig",
              "gengamma", "genf.orig", "genf")
_LEVELS = ("a", "b", "c")


def _same_bits(a, b):
    return float(a).hex() == float(b).hex()


class TestCensoredSample:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CensoredSample.from_lists([1.0, 0.0], [1, 1])
        with pytest.raises(ValueError, match="0 .censored. or 1"):
            CensoredSample.from_lists([1.0, 2.0], [1, 2])
        with pytest.raises(ValueError, match="no observed events"):
            CensoredSample.from_lists([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError, match="equal-length"):
            CensoredSample.from_lists([1.0, 2.0], [1])
        with pytest.raises(ValueError, match="length mismatch"):
            CensoredSample.from_lists([1.0, 2.0], [1, 0], {"g": ["a"]})

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            CensoredSample.from_lists([1.0, math.inf], [1, 0])
        with pytest.raises(ValueError, match="'x' has a non-finite value"):
            CensoredSample.from_lists([1.0, 2.0], [1, 0], {"x": [0.5, math.nan]})


class TestCensoredLoglik:
    def test_exponential_complete_closed_form(self):
        t = np.array([0.5, 1.2, 3.3, 0.9])
        sample = CensoredSample.from_lists(t, np.ones(4))
        rate = 0.7
        d = make_distribution("exponential", {"rate": rate})
        expected = len(t) * math.log(rate) - rate * t.sum()
        assert censored_loglik(d, sample) == pytest.approx(expected, rel=1e-14)

    def test_censored_rows_contribute_survival_only(self):
        d = make_distribution("weibull", {"shape": 1.3, "scale": 2.0})
        t = np.array([1.0, 2.0, 3.0])
        all_mixed = CensoredSample.from_lists(t, [1, 0, 0])
        expected = d.ln_pdf(1.0) + d.ln_survival(2.0) + d.ln_survival(3.0)
        assert censored_loglik(d, all_mixed) == pytest.approx(expected, rel=1e-14)

    def test_direct_sum_oracle_weibull_500(self):
        # brute-force summation with independently coded formulas
        time, event = weibull_censored_sample(500, 1.4, 3.0, 0.25, seed=3)
        sample = CensoredSample.from_lists(time, event)
        shape, scale = 1.37, 3.21
        d = make_distribution("weibull", {"shape": shape, "scale": scale})
        total = 0.0
        for t, e in zip(time, event):
            z = (t / scale) ** shape
            if e == 1.0:
                total += (math.log(shape) - math.log(scale)
                          + (shape - 1.0) * math.log(t / scale) - z)
            else:
                total += -z
        assert censored_loglik(d, sample) == pytest.approx(total, abs=1e-10 * abs(total))

    def test_scalar_and_vector_paths_agree(self):
        time, event = weibull_censored_sample(60, 1.4, 3.0, 0.25, seed=5)
        sample = CensoredSample.from_lists(time, event)
        d = make_distribution("weibull", {"shape": 1.1, "scale": 2.5})
        vector = censored_loglik(d, sample)
        scalar = sum(
            d.ln_pdf(t) if e == 1.0 else d.ln_survival(t)
            for t, e in zip(time, event))
        assert vector == pytest.approx(scalar, rel=1e-13)

    def test_zero_density_gives_nan(self):
        d = Weibull(2.0, 1.0)
        sample = CensoredSample.from_lists([1e200], [1])
        assert math.isnan(censored_loglik(d, sample))


class TestFit:
    def test_exponential_complete_data_mle(self):
        rng = np.random.default_rng(101)
        t = rng.exponential(2.0, size=300)
        sample = CensoredSample.from_lists(t, np.ones_like(t))
        result, model = fit("exponential", sample)
        analytic = len(t) / t.sum()
        assert result.estimates["rate"] == pytest.approx(analytic, rel=1e-6)
        assert result.converged
        assert model.baseline["rate"] == result.estimates["rate"]

    def test_weibull_recovery_with_censoring(self):
        time, event = weibull_censored_sample(1500, 1.5, 4.0, 0.2, seed=11)
        sample = CensoredSample.from_lists(time, event)
        result, _ = fit("weibull", sample)
        assert result.estimates["shape"] == pytest.approx(1.5, rel=0.07)
        assert result.estimates["scale"] == pytest.approx(4.0, rel=0.07)
        assert result.n == 1500
        assert result.n_events == int(event.sum())

    def test_loglik_not_worse_than_truth(self):
        time, event = weibull_censored_sample(800, 1.5, 4.0, 0.2, seed=13)
        sample = CensoredSample.from_lists(time, event)
        result, _ = fit("weibull", sample)
        truth = censored_loglik(make_distribution(
            "weibull", {"shape": 1.5, "scale": 4.0}), sample)
        assert result.loglik >= truth - 1e-6

    def test_gradient_vanishes_at_optimum(self):
        time, event = weibull_censored_sample(500, 1.5, 4.0, 0.2, seed=17)
        sample = CensoredSample.from_lists(time, event)
        result, _ = fit("weibull", sample)
        shape, scale = result.estimates["shape"], result.estimates["scale"]

        def ll(log_shape, log_scale):
            d = make_distribution("weibull", {"shape": math.exp(log_shape),
                                              "scale": math.exp(log_scale)})
            return censored_loglik(d, sample)

        h = 1e-5
        g1 = (ll(math.log(shape) + h, math.log(scale))
              - ll(math.log(shape) - h, math.log(scale))) / (2 * h)
        g2 = (ll(math.log(shape), math.log(scale) + h)
              - ll(math.log(shape), math.log(scale) - h)) / (2 * h)
        assert abs(g1) <= 1e-3
        assert abs(g2) <= 1e-3

    def test_confidence_intervals_bracket(self):
        time, event = weibull_censored_sample(600, 1.5, 4.0, 0.2, seed=19)
        result, _ = fit("weibull", CensoredSample.from_lists(time, event))
        for name, est in result.estimates.items():
            lo, hi = result.ci95[name]
            assert lo < est < hi
            assert result.std_errors[name] >= 0.0

    def test_deterministic(self):
        time, event = weibull_censored_sample(400, 1.5, 4.0, 0.2, seed=23)
        sample = CensoredSample.from_lists(time, event)
        r1, _ = fit("weibull", sample)
        r2, _ = fit("weibull", sample)
        assert r1.estimates == r2.estimates
        assert r1.loglik == r2.loglik
        assert r1.iterations == r2.iterations

    def test_lnorm_identity_location(self):
        rng = np.random.default_rng(29)
        t = np.exp(rng.normal(0.6, 0.9, size=900))
        result, model = fit("lnorm", CensoredSample.from_lists(t, np.ones_like(t)))
        assert result.estimates["meanlog"] == pytest.approx(0.6, abs=0.1)
        assert result.estimates["sdlog"] == pytest.approx(0.9, rel=0.1)
        assert model.link == "identity"

    def test_covariate_fit_recovers_aft_structure(self):
        rng = np.random.default_rng(31)
        n = 1200
        group = rng.choice(["A", "B"], size=n)
        shape = 1.5
        scale_i = 4.0 * np.exp(0.4 * (group == "B"))
        t = scale_i * (-np.log(rng.uniform(size=n))) ** (1 / shape)
        sample = CensoredSample.from_lists(t, np.ones(n), {"group": list(group)})
        result, model = fit("weibull", sample, ["group"])
        assert result.estimates["shape"] == pytest.approx(1.5, rel=0.08)
        assert result.estimates["scale"] == pytest.approx(4.0, rel=0.08)
        assert result.estimates["groupB"] == pytest.approx(0.4, abs=0.08)
        # resolved scale tracks the generating scale * exp(beta x)
        d_b = model.resolve_row({"group": "B"})
        assert d_b.scale == pytest.approx(4.0 * math.exp(0.4), rel=0.08)
        assert model.training_rows is not None
        assert len(model.training_rows) == n

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gengamma_loglik_not_below_the_families_it_nests(self, seed):
        # log-normal lifetimes, ~30% censored by U(0, 10): gengamma nests
        # lnorm (Q -> 0) and weibull (Q = 1), so its fit may not fall below them
        rng = np.random.default_rng(seed)
        t = rng.lognormal(1.0, 0.5, size=300)
        c = rng.uniform(0.0, 10.0, size=300)
        sample = CensoredSample.from_lists(np.minimum(t, c), (t <= c).astype(float))
        results = {tag: fit(tag, sample)[0] for tag in ("lnorm", "weibull", "gengamma")}
        assert all(r.converged for r in results.values())
        assert results["gengamma"].loglik >= max(results["lnorm"].loglik,
                                                 results["weibull"].loglik) - 1e-6

    def test_unknown_distribution(self):
        sample = CensoredSample.from_lists([1.0], [1])
        with pytest.raises(ValueError, match="unknown distribution"):
            fit("weibullish", sample)

    def test_huge_standard_error_saturates_the_interval(self, monkeypatch):
        time, event = weibull_censored_sample(50, 1.4, 3.0, 0.2, seed=11)
        monkeypatch.setattr(fitting, "_hessian_std_errors",
                            lambda objective, theta: np.full(len(theta), 400.0))
        result, _ = fit("weibull", CensoredSample.from_lists(time, event))
        assert result.ci95["shape"] == (0.0, math.inf)

    def test_non_finite_final_loglik_is_not_converged(self, monkeypatch):
        time, event = weibull_censored_sample(50, 1.4, 3.0, 0.2, seed=11)
        monkeypatch.setattr(fitting, "_loglik", lambda *args: math.nan)
        result, _ = fit("weibull", CensoredSample.from_lists(time, event))
        assert math.isnan(result.loglik)
        assert not result.converged


# covariate names per kind of design, for _covariate_sample
_DESIGNS = {"none": (), "factor": ("group",), "numeric": ("x",)}


class TestReportedLoglik:
    @pytest.mark.parametrize("design", list(_DESIGNS))
    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_is_censored_loglik_of_the_returned_model(self, monkeypatch, tag,
                                                      design):
        # the identity holds wherever the search stops: a small budget
        # keeps the slow families quick
        uncapped = fitting.minimize
        monkeypatch.setattr(fitting, "minimize", lambda fun, x0, **options:
                            uncapped(fun, x0, **dict(options, maxfev=300)))
        sample = _covariate_sample(tag, DISTRIBUTION_TAGS.index(tag) + 71,
                                   numeric=design == "numeric")
        if design == "none":
            sample = CensoredSample.from_lists(sample.time, sample.event)
        result, model = fit(tag, sample, _DESIGNS[design])
        assert math.isfinite(result.loglik)
        assert _same_bits(result.loglik, censored_loglik(model, sample))


def _covariate_sample(tag, seed, numeric=False, n=45):
    """Seeded censored sample whose location a 3-level factor "group" shifts
    by -0.3, 0 or 0.3, or with ``numeric``, a covariate x ~ U(-1, 1) by 0.3 x."""
    rng = np.random.default_rng(seed)
    base = sample_params(tag, rng)
    location, link = LOCATION_PARAMS[tag]
    values, times = [], []
    for i in range(n):
        params = dict(base)
        if numeric:
            value = float(rng.uniform(-1.0, 1.0))
            shift = 0.3 * value
        else:
            value, shift = _LEVELS[i % 3], 0.3 * (i % 3 - 1)
        params[location] = (params[location] * math.exp(shift) if link == "log"
                            else params[location] + shift)
        values.append(value)
        times.append(make_distribution(tag, params).isf(float(rng.uniform(0.02, 0.98))))
    event = (rng.uniform(size=n) < 0.7).astype(float)
    event[0] = 1.0
    return CensoredSample.from_lists(times, event, {"x" if numeric else "group": values})


class _Captured(Exception):
    pass


def _objective(monkeypatch, tag, sample):
    """fit()'s objective and start values, caught at the optimizer call."""
    seen = {}

    def capture(fun, x0, **kwargs):
        seen["objective"], seen["theta0"] = fun, np.array(x0)
        raise _Captured

    monkeypatch.setattr(fitting, "minimize", capture)
    with pytest.raises(_Captured):
        fit(tag, sample, ["group"])
    return seen["objective"], seen["theta0"]


def _naive_objective(tag, sample, theta):
    """One make_distribution per row and a sequential sum, as fit() once did."""
    names = PARAM_NAMES[tag]
    location, link = LOCATION_PARAMS[tag]
    schema = fitting.infer_schema(sample.covariates, ["group"])
    design = np.array([schema.design_row({"group": g})
                       for g in sample.covariates["group"]])
    eta = theta[names.index(location)] + design @ theta[len(names):]
    loc = np.exp(eta) if link == "log" else eta
    total = 0.0
    for i in range(len(sample)):
        params = {name: math.exp(theta[j]) if name in POSITIVE_PARAMS[tag]
                  else float(theta[j]) for j, name in enumerate(names)}
        params[location] = float(loc[i])
        d = make_distribution(tag, params)
        t = float(sample.time[i])
        total += d.ln_pdf(t) if sample.event[i] == 1.0 else d.ln_survival(t)
    return -total


def _thetas(theta0):
    k = np.arange(len(theta0))
    return (theta0,
            theta0 + 0.05 * np.where(k % 2 == 0, 1.0, -1.0),
            theta0 - 0.08 * np.where(k % 3 == 0, 1.0, -0.5))


class TestLikelihoodLoop:
    @pytest.mark.parametrize("tag", _LOOP_TAGS)
    def test_objective_matches_per_row_loop_bit_for_bit(self, monkeypatch, tag):
        sample = _covariate_sample(tag, seed=_LOOP_TAGS.index(tag) + 41)
        objective, theta0 = _objective(monkeypatch, tag, sample)
        for theta in _thetas(theta0):
            expected = _naive_objective(tag, sample, theta)
            assert math.isfinite(expected)
            assert _same_bits(objective(theta), expected), (tag, theta)

    @pytest.mark.parametrize("tag", ["weibull", "gamma"])
    def test_overflowing_location_is_outside_the_domain(self, monkeypatch, tag):
        sample = _covariate_sample(tag, seed=51)
        objective, theta0 = _objective(monkeypatch, tag, sample)
        for index in (PARAM_NAMES[tag].index(LOCATION_PARAMS[tag][0]), -1):
            theta = theta0.copy()
            theta[index] = 800.0  # exp(800) overflows: the intercept, a beta
            assert objective(theta) == fitting._BIG

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", ["exponential", "weibull"])
    def test_underflowing_location_is_nan_without_warnings(self, monkeypatch, tag):
        sample = _covariate_sample(tag, seed=53)
        params = {name: 1.0 for name in PARAM_NAMES[tag]}
        groups = np.zeros(len(sample), dtype=int)
        assert math.isnan(fitting._loglik(tag, params, [math.exp(-800.0)],
                                          groups, sample))
        objective, theta0 = _objective(monkeypatch, tag, sample)
        theta = theta0.copy()
        theta[PARAM_NAMES[tag].index(LOCATION_PARAMS[tag][0])] = -800.0
        assert objective(theta) == fitting._BIG

    def test_one_distribution_per_level_per_evaluation(self, monkeypatch):
        sample = _covariate_sample("gamma", seed=43)
        objective, theta0 = _objective(monkeypatch, "gamma", sample)
        calls = []

        def counted(tag, params):
            calls.append(tag)
            return make_distribution(tag, params)

        monkeypatch.setattr(fitting, "make_distribution", counted)
        for theta in _thetas(theta0):
            calls.clear()
            objective(theta)
            assert 1 <= len(calls) <= 3


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _walled_bowl(x):
    """A bowl centred at 2 in every coordinate, walled off at _BIG past
    sum(x) = 4.02, so the minimum lies on the wall."""
    if np.sum(x) > 4.02:
        return fitting._BIG
    return float(np.sum((x - 2.0) ** 2) + 0.1 * x[0] * x[1])


def _quadratic(x):
    """Minimum 0 at (1, -2, 3), with curvatures 1 to 100 and a cross term."""
    d = x - np.array([1.0, -2.0, 3.0])
    return float(0.5 * d[0] ** 2 + 10.0 * d[1] ** 2 + 50.0 * d[2] ** 2
                 + d[0] * d[1])


_CAPS = dict(maxiter=5000, maxfev=10000)


class TestMinimize:
    @pytest.mark.parametrize("fun, x0, minimizer", [
        (_quadratic, [0.0, 0.0, 0.0], [1.0, -2.0, 3.0]),
        (_rosenbrock, [-1.2, 1.0], [1.0, 1.0]),
    ], ids=["quadratic", "rosenbrock"])
    def test_reaches_the_minimizer(self, fun, x0, minimizer):
        result = fitting.minimize(fun, np.array(x0), **_CAPS)
        assert result.success
        assert np.max(np.abs(result.x - minimizer)) <= 1e-6
        assert result.fun == fun(result.x)
        assert 0 < result.nit and result.nit < result.nfev <= _CAPS["maxfev"]

    @pytest.mark.parametrize("caps", [dict(_CAPS, maxfev=57),
                                      dict(_CAPS, maxfev=1),
                                      dict(_CAPS, maxiter=5)],
                             ids=["maxfev", "maxfev in the first gradient",
                                  "maxiter"])
    def test_caps_stop_without_success(self, caps):
        result = fitting.minimize(_rosenbrock, np.array([-1.2, 1.0]), **caps)
        assert not result.success
        assert result.nfev <= caps["maxfev"]
        assert result.nit <= caps["maxiter"]
        if caps["maxiter"] == 5:
            assert result.nit == 5

    def test_objective_gets_a_copy(self):
        def scribble(x):
            value = _rosenbrock(x)
            x[:] = np.nan
            return value

        result = fitting.minimize(scribble, np.array([-1.2, 1.0]), **_CAPS)
        assert result.success and np.max(np.abs(result.x - 1.0)) <= 1e-6

    def test_no_accepted_point_is_walled_off(self):
        # the k-th accepted point is what a run capped at k iterations returns
        x0 = np.ones(4)
        final = fitting.minimize(_walled_bowl, x0, **_CAPS)
        assert 4.0 < np.sum(final.x) <= 4.02  # it ends on the wall
        for k in range(final.nit + 1):
            result = fitting.minimize(_walled_bowl, x0, **dict(_CAPS, maxiter=k))
            assert result.nit == k
            assert result.fun == _walled_bowl(result.x) < fitting._BIG


def _gamma_power_terms(t, ln_scale, k, b):
    """(ln_pdf, ln_survival) of T = exp(ln_scale) * G**(1/b), G ~ Gamma(k)."""
    ln_z = b * (_log(t) - ln_scale)
    ln_inc = sf.ln_upper_inc_gamma if b > 0.0 else sf.ln_lower_inc_gamma
    return ((math.log(abs(b)) - sf.ln_gamma(k) - _log(t) + k * ln_z - _exp(ln_z)),
            ln_inc(_exp(ln_z), k) - sf.ln_gamma(k))


def _beta_prime_power_terms(t, mu, sigma, s1, s2):
    """(ln_pdf, ln_survival) of T = exp(mu) * (s2/s1 * u)**sigma with
    u ~ beta-prime(s1, s2)."""
    ln_u = -mu / sigma + _log(s1 / s2) + _log(t) / sigma
    return ((-math.log(sigma) - sf.ln_beta(s1, s2) - _log(t) + s1 * ln_u
             - (s1 + s2) * _softplus(ln_u)),
            sf.ln_reg_inc_beta(1.0 / (1.0 + _exp(ln_u)), s2, s1))


def _uncached_terms(d, t):
    """(ln_pdf, ln_survival) from the formulas without cached constants."""
    tag = d.tag
    if tag == "gamma":
        return _gamma_power_terms(t, -math.log(d.rate), d.shape, 1.0)
    if tag == "gompertz":
        return math.log(d.rate) + d.shape * t + d.ln_survival(t), d.ln_survival(t)
    if tag == "lnorm":
        w = (_log(t) - d.meanlog) / d.sdlog
        return (-_log(t) - math.log(d.sdlog) - 0.5 * _LN_2PI
                - 0.5 * w * w), d.ln_survival(t)
    if tag == "llogis":
        ln_pdf, _ = _beta_prime_power_terms(t, math.log(d.scale), 1.0 / d.shape, 1.0, 1.0)
        return ln_pdf, -_softplus(d.shape * _log(t / d.scale))
    if tag == "gengamma.orig":
        return _gamma_power_terms(t, math.log(d.scale), d.k, d.shape)
    if tag == "gengamma":
        ln_scale = d.mu + 2.0 * (d.sigma / d.q) * math.log(abs(d.q))
        return _gamma_power_terms(t, ln_scale, d.q ** -2, d.q / d.sigma)
    if tag == "genf.orig":
        return _beta_prime_power_terms(t, d.mu, d.sigma, d.s1, d.s2)
    if tag == "genf":
        return _beta_prime_power_terms(t, *convert_genf_to_orig(d.mu, d.sigma, d.q, d.p))
    raise KeyError(tag)


@pytest.mark.parametrize("tag", _LOOP_TAGS)
def test_cached_constants_give_the_same_bits(tag):
    rng = np.random.default_rng(_LOOP_TAGS.index(tag) + 61)
    for _ in range(20):
        d = make_distribution(tag, sample_params(tag, rng))
        for t in (1e-3, 0.05, 0.5, 1.0, 2.5, 10.0, 60.0):
            ln_pdf, ln_survival = _uncached_terms(d, t)
            assert _same_bits(d.ln_pdf(t), ln_pdf), (d, t)
            assert _same_bits(d.ln_survival(t), ln_survival), (d, t)
