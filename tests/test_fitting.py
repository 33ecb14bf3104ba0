"""Censored maximum-likelihood fitting tests."""
import math
import sys

import numpy as np
import pytest

from mrlife import (CensoredSample, censored_loglik, convert_genf_to_orig, fit,
                    make_distribution, mrl_quadrature_oracle)
from mrlife import distributions, fitting, regression
from mrlife import specfun as sf
from mrlife.distributions import (_LN_2PI, DISTRIBUTION_TAGS, PARAM_NAMES,
                                  POSITIVE_PARAMS, ParameterError, Weibull,
                                  _exp, _log, _softplus)
from mrlife.regression import LOCATION_PARAMS, SurvivalModel

from conftest import sample_params, weibull_censored_sample

# families whose terms _uncached_terms re-derives; the two closed forms
# follow, so that every family keeps its seed in _ALL_TAGS
_LOOP_TAGS = ("gamma", "gompertz", "lnorm", "llogis", "gengamma.orig",
              "gengamma", "genf.orig", "genf")
_ALL_TAGS = _LOOP_TAGS + ("exponential", "weibull")
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
        with pytest.raises(ValueError, match="equal-length vectors"):
            CensoredSample.from_lists([[1.0, 2.0]], [[1, 1]])
        with pytest.raises(ValueError, match="length mismatch"):
            CensoredSample.from_lists([1.0, 2.0], [1, 0], {"g": ["a"]})

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            CensoredSample.from_lists([1.0, math.inf], [1, 0])
        with pytest.raises(ValueError, match="'x' has a non-finite value"):
            CensoredSample.from_lists([1.0, 2.0], [1, 0], {"x": [0.5, math.nan]})
        with pytest.raises(ValueError, match="'x' has a non-finite value"):
            CensoredSample.from_lists([1.0, 2.0], [1, 0],
                                      {"x": np.array([0.5, np.nan], dtype=np.float32)})

    def test_array_integer_covariate_is_numeric(self):
        time, event = weibull_censored_sample(40, 1.4, 3.0, 0.2, seed=7)
        x = np.arange(40) % 4
        fits = [fit("weibull", CensoredSample.from_lists(time, event, {"x": column}),
                    ["x"]) for column in (x, x.tolist())]
        for result, model in fits:
            assert model.schema.covariates[0].kind == "numeric"
            assert list(result.estimates) == ["shape", "scale", "x"]
        assert fits[0][0].loglik == fits[1][0].loglik


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

    def test_is_the_row_order_sum_of_ln_pdf_and_ln_survival(self, monkeypatch,
                                                             kernel_modules):
        # every family, one distribution for all rows and a 3-level factor
        # model, on each kernel module: the bits of the sequential sum
        for kernels in kernel_modules:
            monkeypatch.setattr(distributions, "sf", kernels)
            for tag in DISTRIBUTION_TAGS:
                # the parameters _covariate_sample draws its rows from
                seed = DISTRIBUTION_TAGS.index(tag) + 141
                sample = _covariate_sample(tag, seed)
                params = sample_params(tag, np.random.default_rng(seed))
                d = make_distribution(tag, params)
                location, link = LOCATION_PARAMS[tag]
                intercept = (math.log(params[location]) if link == "log"
                             else params[location])
                schema = fitting.infer_schema(sample.covariates, ["group"])
                model = SurvivalModel(tag, params, (intercept - 0.3, 0.3, 0.6),
                                      schema)
                rows = [model.resolve_row({"group": g})
                        for g in sample.covariates["group"]]
                for obj, dists in ((d, [d] * len(sample)), (model, rows)):
                    total = 0.0
                    for row, t, e in zip(dists, sample.time, sample.event):
                        total += row.ln_pdf(t) if e == 1.0 else row.ln_survival(t)
                    assert math.isfinite(total), (kernels.__name__, tag)
                    assert _same_bits(censored_loglik(obj, sample), total), (
                        kernels.__name__, tag, obj)

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
                            lambda score, theta, f0, **options:
                            np.full(len(theta), 400.0))
        result, _ = fit("weibull", CensoredSample.from_lists(time, event))
        assert result.ci95["shape"] == (0.0, math.inf)

    def test_non_finite_final_loglik_is_not_converged(self, monkeypatch):
        time, event = weibull_censored_sample(50, 1.4, 3.0, 0.2, seed=11)
        monkeypatch.setattr(fitting, "_loglik", lambda *args: (math.nan, None))
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
        monkeypatch.setattr(fitting, "minimize", lambda score, x0, **options:
                            uncapped(score, x0, **dict(options, maxfev=300)))
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


def _optimizer_call(monkeypatch, tag, sample, covariates=("group",)):
    """The arguments fit() passes to the optimizer, caught at the call."""
    seen = {}

    def capture(score, x0, **kwargs):
        seen.update(kwargs, score=score, theta0=np.array(x0))
        raise _Captured

    monkeypatch.setattr(fitting, "minimize", capture)
    with pytest.raises(_Captured):
        fit(tag, sample, list(covariates))
    return seen


def _objective(monkeypatch, tag, sample):
    """fit()'s objective, the value its score gives, and start values."""
    seen = _optimizer_call(monkeypatch, tag, sample)
    return (lambda theta: seen["score"](theta)[0]), seen["theta0"]


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
    @pytest.mark.parametrize("tag", _ALL_TAGS)
    def test_objective_matches_per_row_loop_bit_for_bit(self, monkeypatch, tag):
        sample = _covariate_sample(tag, seed=_ALL_TAGS.index(tag) + 41)
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
        with pytest.raises(ParameterError, match="must be > 0"):
            SurvivalModel(tag, params, (-800.0,)).resolve_parameters([])
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

        monkeypatch.setattr(regression, "make_distribution", counted)
        for theta in _thetas(theta0):
            calls.clear()
            objective(theta)
            assert len(calls) == 3


# ln sigma of ln T = eta + sigma W, the partial the location score pass
# also gives, per log-location-scale family
_LOG_SCALE = {"weibull": "shape", "llogis": "shape", "gengamma.orig": "shape",
              "lnorm": "sdlog", "gengamma": "sigma", "genf.orig": "sigma",
              "genf": "sigma"}
# the parameter that sets the gamma-power shape k, whose partial the same
# pass gives from the rows' shape scores
_GAMMA_SHAPE = {"gamma": "shape", "gengamma.orig": "k", "gengamma": "Q"}


class TestLocationScore:
    @pytest.mark.parametrize("design", ["factor", "numeric"])
    @pytest.mark.parametrize("tag", _ALL_TAGS)
    def test_matches_central_differences(self, monkeypatch, kernel_modules,
                                         tag, design):
        sample = _covariate_sample(tag, seed=_ALL_TAGS.index(tag) + 81,
                                   numeric=design == "numeric")
        seen = _optimizer_call(monkeypatch, tag, sample, _DESIGNS[design])
        score, analytic = seen["score"], seen["analytic"]
        # the intercept, ln sigma where the family has one, the gamma shape
        # where it has one, then one beta per design column
        names = PARAM_NAMES[tag]
        order = [names.index(LOCATION_PARAMS[tag][0])]
        if tag in _LOG_SCALE:
            order.append(names.index(_LOG_SCALE[tag]))
        if tag in _GAMMA_SHAPE:
            order.append(names.index(_GAMMA_SHAPE[tag]))
        assert analytic == order + list(range(len(names), len(seen["theta0"])))
        for kernels in kernel_modules:
            monkeypatch.setattr(distributions, "sf", kernels)
            monkeypatch.setattr(fitting, "sf", kernels)
            for theta in _thetas(seen["theta0"]):
                _, got = score(list(theta))
                for i, partial in zip(analytic, got):
                    h = 1e-6 * (1.0 + abs(theta[i]))
                    up, down = list(theta), list(theta)
                    up[i] += h
                    down[i] -= h
                    expected = (score(up)[0] - score(down)[0]) / (up[i] - down[i])
                    assert partial == pytest.approx(expected, rel=1e-6), (
                        kernels.__name__, i)

    def test_outside_the_domain_gives_none(self, monkeypatch):
        sample = _covariate_sample("weibull", seed=51)
        seen = _optimizer_call(monkeypatch, "weibull", sample)
        theta = seen["theta0"].copy()
        theta[seen["analytic"][0]] = 800.0  # exp(800) overflows
        assert seen["score"](list(theta)) == (fitting._BIG, None)

    @pytest.mark.parametrize("tag", ["weibull", "lnorm", "llogis"])
    def test_two_parameter_fits_take_no_central_differences(self, monkeypatch,
                                                            tag):
        _check_every_pass_sums_the_scores(monkeypatch, tag, seed=91)

    @pytest.mark.parametrize("tag, seed", [("gamma", 91), ("gengamma.orig", 91),
                                           ("gengamma", 91), ("gengamma", 87)])
    def test_gamma_shape_fits_take_no_central_differences(self, monkeypatch,
                                                          tag, seed):
        # gengamma seed 91 draws Q > 0 and seed 87 Q < 0, the lower gamma
        model = _check_every_pass_sums_the_scores(monkeypatch, tag, seed)
        if tag == "gengamma":
            assert (model.baseline["Q"] > 0.0) == (seed == 91)

    def test_one_digamma_per_pass(self, monkeypatch):
        # a numeric covariate gives one distribution per distinct value, all
        # with one shape k: psi(k) is taken once per pass, not per object
        passes, calls = [], []
        loglik, digamma = fitting._loglik, sf.digamma

        def counted(*args):
            passes.append(len(calls))
            return loglik(*args)

        monkeypatch.setattr(fitting, "_loglik", counted)
        monkeypatch.setattr(sf, "digamma", lambda a: calls.append(a) or digamma(a))
        sample = _covariate_sample("gamma", seed=93, numeric=True, n=200)
        assert len(set(sample.covariates["x"])) == 200
        result, _ = fit("gamma", sample, ["x"])
        assert result.converged
        per_pass = np.diff(passes + [len(calls)])
        assert max(per_pass) <= 1
        assert sum(per_pass) == len(passes)


def _moved(tag, params, d_ln_s=0.0, d_ln_sigma=0.0):
    """The distribution ``params`` give with ln s moved by ``d_ln_s`` (s
    being scale, exp(mu), exp(meanlog) or 1/rate) and ln sigma of a
    log-location-scale family by ``d_ln_sigma``."""
    params = dict(params)
    location, link = LOCATION_PARAMS[tag]
    if link == "log":
        params[location] *= math.exp(-d_ln_s if location == "rate" else d_ln_s)
    else:
        params[location] += d_ln_s
    if d_ln_sigma:
        name = _LOG_SCALE[tag]  # sigma is 1/shape, sdlog or sigma
        params[name] *= math.exp(-d_ln_sigma if name == "shape" else d_ln_sigma)
    return make_distribution(tag, params)


def _row_scores(d, t, event):
    """(s, c): one row's location score and its curvature."""
    _, sums = d.ln_group_scores((t,), (math.log(t),), (event,))
    return sums[0], sums[3]


def _row_times(d):
    return [d.isf(p) for p in (0.95, 0.7, 0.4, 0.1, 0.02)]


class TestLocationCurvature:
    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_matches_central_differences_of_the_score(self, monkeypatch,
                                                      kernel_modules, tag):
        # c = ds/d ln s for event and censored rows
        rng = np.random.default_rng(DISTRIBUTION_TAGS.index(tag) + 151)
        draws = [sample_params(tag, rng) for _ in range(5)]
        h = 1e-5
        for kernels in kernel_modules:
            monkeypatch.setattr(distributions, "sf", kernels)
            for params in draws:
                d = make_distribution(tag, params)
                up, down = _moved(tag, params, h), _moved(tag, params, -h)
                for t in _row_times(d):
                    for event in (1.0, 0.0):
                        expected = (_row_scores(up, t, event)[0]
                                    - _row_scores(down, t, event)[0]) / (2.0 * h)
                        assert _row_scores(d, t, event)[1] == pytest.approx(
                            expected, rel=1e-6), (kernels.__name__, params, t, event)

    @pytest.mark.parametrize("tag", list(_LOG_SCALE))
    def test_ln_sigma_identities(self, monkeypatch, kernel_modules, tag):
        # with v = ln t - eta, the row's second partials along ln sigma:
        # d s/d ln sigma = v c - s, and d (v s - event)/d ln sigma = v (v c - s)
        rng = np.random.default_rng(DISTRIBUTION_TAGS.index(tag) + 161)
        draws = [sample_params(tag, rng) for _ in range(5)]
        h = 1e-5
        location, link = LOCATION_PARAMS[tag]
        for kernels in kernel_modules:
            monkeypatch.setattr(distributions, "sf", kernels)
            for params in draws:
                d = make_distribution(tag, params)
                eta = math.log(params[location]) if link == "log" else params[location]
                up, down = (_moved(tag, params, d_ln_sigma=h),
                            _moved(tag, params, d_ln_sigma=-h))
                for t in _row_times(d):
                    v = math.log(t) - eta
                    for event in (1.0, 0.0):
                        s, c = _row_scores(d, t, event)
                        s_up, s_down = (_row_scores(up, t, event)[0],
                                        _row_scores(down, t, event)[0])
                        assert v * c - s == pytest.approx(
                            (s_up - s_down) / (2.0 * h), rel=1e-6), (
                            kernels.__name__, params, t, event)
                        assert v * (v * c - s) == pytest.approx(
                            ((v * s_up - event) - (v * s_down - event)) / (2.0 * h),
                            rel=1e-6), (kernels.__name__, params, t, event)


def _reference_hessian(score, theta, f0, analytic, closed):
    """The Hessian of the objective as it was taken before closed forms:
    central differences of the analytic partials, with h = 1e-4 (1 + |x|),
    and central second differences of the objective along the other
    coordinates.  The entries among ``closed``, which the fit takes in
    closed form, are Richardson-extrapolated from h and h/2 instead: their
    plain differences are ~1e-7 off, and an ill-conditioned Hessian (a
    gengamma.orig fit's is ~1e6) would multiply that past the tolerance.
    An entry between a closed coordinate and another takes the difference
    along the other, as the fit does."""
    k = len(theta)

    def column(j, h):  # the analytic partials differenced along j
        up, down = list(theta), list(theta)
        up[j] += h
        down[j] -= h
        g_up, g_down = score(up)[1], score(down)[1]
        return {i: (u - d) / (2.0 * h) for i, u, d in zip(analytic, g_up, g_down)}

    def value(*moves):
        point = list(theta)
        for i, step in moves:
            point[i] += step
        return score(point)[0]

    steps = [1e-4 * (1.0 + abs(v)) for v in theta]
    hess = np.zeros((k, k))
    for j in range(k):
        h = steps[j]
        plain = column(j, h)
        if j in closed:
            fine = column(j, h / 2.0)
            for i in closed:
                hess[i, j] = (4.0 * fine[i] - plain[i]) / 3.0
            continue
        for i in analytic:
            hess[i, j] = hess[j, i] = plain[i]
        if j not in analytic:
            hess[j, j] = (value((j, h)) - 2.0 * f0 + value((j, -h))) / h ** 2
            for i in range(j):
                if i not in analytic and i not in closed:
                    hi = steps[i]
                    hess[i, j] = hess[j, i] = (
                        value((j, h), (i, hi)) - value((j, h), (i, -hi))
                        - value((j, -h), (i, hi)) + value((j, -h), (i, -hi))
                    ) / (4.0 * h * hi)
    return 0.5 * (hess + hess.T)


class TestHessianPasses:
    @pytest.mark.parametrize("design", ["factor", "numeric"])
    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_standard_errors_match_central_differences(self, monkeypatch, tag,
                                                       design):
        # at the parameters the sample is drawn from, where the Hessian is
        # that of a well-posed problem: a generalized F search stops where
        # P -> 0 or s1 -> inf, with condition numbers past 1e8, and there no
        # two ways of taking the Hessian agree to 1e-6.  Where the Hessian
        # at the truth is not positive definite (the gengamma.orig and
        # genf.orig samples here), every standard error is NaN
        seed = DISTRIBUTION_TAGS.index(tag) + 171
        sample = _covariate_sample(tag, seed, numeric=design == "numeric", n=400)
        params = sample_params(tag, np.random.default_rng(seed))
        names = PARAM_NAMES[tag]
        location, link = LOCATION_PARAMS[tag]
        theta = [math.log(params[name]) if name in POSITIVE_PARAMS[tag]
                 else params[name] for name in names]
        loc_index = names.index(location)
        if design == "factor":  # levels a, b, c shift eta by -0.3, 0, 0.3
            theta[loc_index] -= 0.3
            theta += [0.3, 0.6]
        else:
            theta += [0.3]
        hessian, seen = fitting._hessian_std_errors, {}

        def at_truth(score, x0, **options):
            return fitting.MinimizeResult(x=list(theta), fun=score(theta)[0],
                                          nit=0, nfev=1, success=True)

        def standard_errors(score, theta, f0, **options):
            seen.update(options, score=score, f0=f0)
            seen["se"] = hessian(score, theta, f0, **options)
            return seen["se"]

        monkeypatch.setattr(fitting, "minimize", at_truth)
        monkeypatch.setattr(fitting, "_hessian_std_errors", standard_errors)
        result, _ = fit(tag, sample, _DESIGNS[design])
        # the intercept, ln sigma and the betas take closed forms, from the
        # sums of the pass at theta: the Hessian takes no extra one there
        closed = {loc_index} | set(range(len(names), len(theta)))
        if tag in _LOG_SCALE:
            closed.add(names.index(_LOG_SCALE[tag]))
        shapes = len(theta) - len(closed)
        assert result.evaluations == 1 + 2 * shapes + 4 * (shapes * (shapes - 1) // 2)
        seen["score"](theta)  # the latest pass, whose sums it reads
        known = seen["curvature"](theta)
        assert set(known) == {(i, j) for i in closed for j in closed}
        hess = _reference_hessian(seen["score"], theta, seen["f0"],
                                  seen["analytic"], closed)
        for (i, j), value in known.items():
            assert value == pytest.approx(hess[i, j], rel=1e-6), (i, j)
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            assert all(math.isnan(se) for se in seen["se"])
        else:
            expected = np.sqrt(np.diag(np.linalg.inv(hess)))
            assert np.max(np.abs(np.asarray(seen["se"]) / expected - 1.0)) <= 1e-6

    @pytest.mark.parametrize("tag, shapes", [
        ("exponential", 0), ("weibull", 0), ("lnorm", 0), ("llogis", 0),
        ("gamma", 1), ("gengamma.orig", 1), ("gengamma", 1)])
    def test_only_shape_coordinates_take_passes(self, monkeypatch, tag, shapes):
        # evaluations counts the passes of the search and the Hessian: at
        # most one at the optimum for the curvature sums, and two per shape
        # coordinate
        uncapped, seen = fitting.minimize, {}

        def search(score, x0, **options):
            seen["result"] = uncapped(score, x0, **options)
            return seen["result"]

        monkeypatch.setattr(fitting, "minimize", search)
        sample = _covariate_sample(tag, DISTRIBUTION_TAGS.index(tag) + 181, n=400)
        result, _ = fit(tag, sample, ["group"])
        assert result.converged
        assert result.evaluations - seen["result"].nfev <= 1 + 2 * shapes


def _check_every_pass_sums_the_scores(monkeypatch, tag, seed):
    """Fit ``tag`` with a factor and check that neither the optimizer nor
    the Hessian takes central differences of the objective: every
    coordinate has an analytic partial and every score call gives them.
    ``evaluations`` counts those calls."""
    analytic, partials = [], []

    def recorded(call):
        def wrapped(score, *args, **options):
            def scored(theta):
                value, got = score(theta)
                partials.append(got)
                return value, got
            analytic.append(options["analytic"])
            return call(scored, *args, **options)
        return wrapped

    for name in ("minimize", "_hessian_std_errors"):
        monkeypatch.setattr(fitting, name, recorded(getattr(fitting, name)))
    result, model = fit(tag, _covariate_sample(tag, seed=seed, n=150), ["group"])
    assert result.converged
    k = len(result.estimates)
    assert [sorted(a) for a in analytic] == [list(range(k))] * 2
    assert None not in partials
    assert result.evaluations == len(partials)
    return model


def _rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _walled_bowl(x):
    """A bowl centred at 2 in every coordinate, walled off at _BIG past
    sum(x) = 4.02, so the minimum lies on the wall."""
    x = np.asarray(x)
    if np.sum(x) > 4.02:
        return fitting._BIG
    return float(np.sum((x - 2.0) ** 2) + 0.1 * x[0] * x[1])


def _quadratic(x):
    """Minimum 0 at (1, -2, 3), with curvatures 1 to 100 and a cross term."""
    d = np.asarray(x) - np.array([1.0, -2.0, 3.0])
    return float(0.5 * d[0] ** 2 + 10.0 * d[1] ** 2 + 50.0 * d[2] ** 2
                 + d[0] * d[1])


_CAPS = dict(maxiter=5000, maxfev=10000)


def _value_only(fun):
    """A score callable with no partials: the objective ``fun`` alone."""
    return lambda x: (fun(x), None)


def _probes(point, coords):
    """The central-difference points around ``point`` along ``coords``, as
    ``minimize`` forms them."""
    out = []
    for i in coords:
        h = 1e-5 * (1.0 + abs(point[i]))
        up, down = list(point), list(point)
        up[i] += h
        down[i] -= h
        out += [tuple(up), tuple(down)]
    return out


class TestMinimize:
    @pytest.mark.parametrize("fun, x0, minimizer", [
        (_quadratic, [0.0, 0.0, 0.0], [1.0, -2.0, 3.0]),
        (_rosenbrock, [-1.2, 1.0], [1.0, 1.0]),
    ], ids=["quadratic", "rosenbrock"])
    def test_reaches_the_minimizer(self, fun, x0, minimizer):
        result = fitting.minimize(_value_only(fun), np.array(x0), **_CAPS)
        assert result.success
        assert np.max(np.abs(np.asarray(result.x) - minimizer)) <= 1e-6
        assert result.fun == fun(result.x)
        assert 0 < result.nit and result.nit < result.nfev <= _CAPS["maxfev"]

    @pytest.mark.parametrize("caps", [dict(_CAPS, maxfev=57),
                                      dict(_CAPS, maxfev=1),
                                      dict(_CAPS, maxiter=5)],
                             ids=["maxfev", "maxfev in the first gradient",
                                  "maxiter"])
    def test_caps_stop_without_success(self, caps):
        result = fitting.minimize(_value_only(_rosenbrock), np.array([-1.2, 1.0]),
                                  **caps)
        assert not result.success
        assert result.nfev <= caps["maxfev"]
        assert result.nit <= caps["maxiter"]
        if caps["maxiter"] == 5:
            assert result.nit == 5

    @pytest.mark.parametrize("analytic", [(2, 0), (0, 1, 2)])
    def test_takes_partials_and_counts_each_call(self, analytic):
        points = []

        def score(x):
            points.append(tuple(x))
            d = np.asarray(x) - np.array([1.0, -2.0, 3.0])
            gradient = (d[0] + d[1], 20.0 * d[1] + d[0], 100.0 * d[2])
            return _quadratic(x), [gradient[i] for i in analytic]

        result = fitting.minimize(score, np.zeros(3), analytic=list(analytic),
                                  **_CAPS)
        assert result.success
        assert np.max(np.abs(np.asarray(result.x) - [1.0, -2.0, 3.0])) <= 1e-6
        # the start and every line-search trial are scored once each, and
        # each gradient takes central differences along the other
        # coordinates, around the start and every accepted point
        others = [i for i in range(3) if i not in analytic]
        probes = {q for p in points for q in _probes(p, others)}
        trials = [p for p in points if p not in probes]
        assert result.nit + 1 <= len(trials) == len(set(trials))
        assert len(points) - len(trials) == 2 * len(others) * (result.nit + 1)
        assert result.nfev == len(points)

    def test_partials_none_falls_back_to_central_differences(self):
        plain = fitting.minimize(_value_only(_rosenbrock), np.array([-1.2, 1.0]),
                                 **_CAPS)
        result = fitting.minimize(_value_only(_rosenbrock), np.array([-1.2, 1.0]),
                                  analytic=[0], **_CAPS)
        assert result.x == plain.x and result.nit == plain.nit
        assert result.nfev == plain.nfev

    def test_objective_gets_a_copy(self):
        def scribble(x):
            value = _rosenbrock(x)
            x[:] = [math.nan] * len(x)
            return value

        result = fitting.minimize(_value_only(scribble), np.array([-1.2, 1.0]),
                                  **_CAPS)
        assert result.success and np.max(np.abs(np.asarray(result.x) - 1.0)) <= 1e-6

    def test_no_accepted_point_is_walled_off(self):
        # the k-th accepted point is what a run capped at k iterations returns
        x0 = np.ones(4)
        final = fitting.minimize(_value_only(_walled_bowl), x0, **_CAPS)
        assert 4.0 < np.sum(final.x) <= 4.02  # it ends on the wall
        for k in range(final.nit + 1):
            result = fitting.minimize(_value_only(_walled_bowl), x0,
                                      **dict(_CAPS, maxiter=k))
            assert result.nit == k
            assert result.fun == _walled_bowl(result.x) < fitting._BIG


class TestHessianStdErrors:
    def test_saddle_gives_nan_for_every_standard_error(self):
        def saddle(x):
            return x[0] ** 2 - x[1] ** 2 + 0.5 * x[2] ** 2

        theta = [0.3, -0.2, 0.1]
        se = fitting._hessian_std_errors(_value_only(saddle), theta, saddle(theta))
        assert len(se) == 3 and all(math.isnan(v) for v in se)

    def test_positive_definite_matches_the_inverse(self):
        _check_standard_errors_of_a_quadratic(())

    @pytest.mark.parametrize("analytic", [(0, 3), tuple(range(5))])
    def test_rows_from_partials_match_the_inverse(self, analytic):
        _check_standard_errors_of_a_quadratic(analytic)

    @pytest.mark.parametrize("closed, analytic, calls", [
        ((0, 3), (0, 1, 3), 2 + 2 + 2 + 4),  # 1 analytic, 2 and 4 not
        ((0, 3), (0, 1, 2, 3, 4), 2 * 3),
        (tuple(range(5)), tuple(range(5)), 0),
    ])
    @pytest.mark.parametrize("latest_at_theta", [True, False])
    def test_closed_form_entries_take_no_calls(self, closed, analytic, calls,
                                               latest_at_theta):
        # a pass at theta first where the curvature needs one
        count = _check_standard_errors_of_a_quadratic(analytic, closed,
                                                      latest_at_theta)
        assert count == calls + (not latest_at_theta)


def _check_standard_errors_of_a_quadratic(analytic, closed=(), latest_at_theta=True):
    """_hessian_std_errors of 0.5 x'Hx at 0, with the rows ``analytic`` of
    H from the exact gradient Hx and the entries among ``closed`` from a
    curvature callable, against sqrt(diag(H^-1)).  Returns the number of
    score calls; the curvature has its entries only once a call scored 0
    unless ``latest_at_theta``."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    hess = a @ a.T + 0.5 * np.eye(5)
    points = []

    def quadratic(x):
        # minimum 0 at the origin: steps from 0 are exact and no large
        # f(0) cancels, so the differences give hess to rounding
        x = np.asarray(x)
        return float(0.5 * x @ hess @ x)

    def score(x):
        points.append(list(x))
        return quadratic(x), list((hess @ np.asarray(x))[list(analytic)])

    def curvature(theta):
        if not (latest_at_theta or points and points[-1] == theta):
            return None
        return {(i, j): hess[i, j] for i in closed for j in closed}

    se = fitting._hessian_std_errors(score, [0.0] * 5, 0.0, analytic,
                                     curvature=curvature if closed else None)
    expected = np.sqrt(np.diag(np.linalg.inv(hess)))
    assert np.max(np.abs(np.asarray(se) / expected - 1.0)) <= 1e-12
    return len(points)


def test_oracle_without_scipy_names_the_extra(monkeypatch):
    monkeypatch.delitem(sys.modules, "mrlife._integrate", raising=False)
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match=r"pip install mrlife\[oracle\]"):
        mrl_quadrature_oracle(make_distribution("weibull", {"shape": 1.5,
                                                           "scale": 2.0}), 1.0)


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
    if tag == "exponential":
        return math.log(d.rate) - d.rate * t, -d.rate * t
    if tag == "weibull":
        ln_pdf, _ = _gamma_power_terms(t, math.log(d.scale), 1.0, d.shape)
        return ln_pdf, -_exp(d.shape * (_log(t) - math.log(d.scale)))
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


@pytest.mark.parametrize("tag", _ALL_TAGS)
def test_cached_constants_give_the_same_bits(tag):
    # ln_pdf is read off ln_term_scores, so this pins every family's row
    # term to a formula written out here
    rng = np.random.default_rng(_ALL_TAGS.index(tag) + 61)
    for _ in range(20):
        d = make_distribution(tag, sample_params(tag, rng))
        for t in (1e-3, 0.05, 0.5, 1.0, 2.5, 10.0, 60.0):
            ln_pdf, ln_survival = _uncached_terms(d, t)
            assert _same_bits(d.ln_pdf(t), ln_pdf), (d, t)
            assert _same_bits(d.ln_survival(t), ln_survival), (d, t)


@pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
def test_row_term_has_the_bits_of_ln_pdf_and_ln_survival(kernel_modules, tag,
                                                         monkeypatch):
    # every likelihood pass, censored_loglik's too, sums ln_term_scores:
    # ln_pdf reads its event terms off it, and its censored terms are ln_survival
    rng = np.random.default_rng(DISTRIBUTION_TAGS.index(tag) + 131)
    dists = [make_distribution(tag, sample_params(tag, rng)) for _ in range(20)]
    for kernels in kernel_modules:
        monkeypatch.setattr(distributions, "sf", kernels)
        for d in dists:
            for t in (1e-3, 0.05, 0.5, 1.0, 2.5, 10.0, 60.0):
                assert _same_bits(d.ln_term_scores(t, 1.0)[0], d.ln_pdf(t)), (d, t)
                assert _same_bits(d.ln_term_scores(t, 0.0)[0], d.ln_survival(t)), (d, t)
