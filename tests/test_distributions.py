"""Distribution-level tests: construction, probability laws, conversions."""
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from mrlife import (DISTRIBUTION_TAGS, ParameterError, convert_genf_to_orig,
                    convert_gengamma_from_orig, convert_gengamma_to_orig,
                    make_distribution)
from mrlife import specfun as sf
from mrlife.distributions import GenFOrig, GenGamma, GenGammaOrig

from conftest import sample_distribution, sample_params

REFERENCE_PARAMS = {
    "exponential": {"rate": 0.7},
    "weibull": {"shape": 1.272, "scale": 6.191},
    "gamma": {"shape": 2.3, "rate": 0.4},
    "gompertz": {"shape": 0.8, "rate": 0.3},
    "lnorm": {"meanlog": 0.4, "sdlog": 0.9},
    "llogis": {"shape": 2.5, "scale": 3.0},
    "gengamma.orig": {"shape": 1.5, "scale": 2.0, "k": 1.2},
    "gengamma": {"mu": 0.3, "sigma": 0.7, "Q": 1.4},
    "genf.orig": {"mu": 0.2, "sigma": 1.1, "s1": 2.0, "s2": 3.0},
    "genf": {"mu": 0.1, "sigma": 1.2, "Q": 0.5, "P": 0.8},
}


def reference_dist(tag):
    return make_distribution(tag, REFERENCE_PARAMS[tag])


class TestConstruction:
    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_reference_parameters_accepted(self, tag):
        d = reference_dist(tag)
        assert d.tag == tag

    def test_wrong_parameter_names_message(self):
        with pytest.raises(ParameterError) as err:
            make_distribution("weibull", {"shape": 1.272, "not_scale": 6.191})
        assert str(err.value) == ("incorrect parameters entered. "
                                  "Parameters for weibull are shape and scale")

    def test_wrong_names_every_tag(self):
        for tag in DISTRIBUTION_TAGS:
            params = dict(REFERENCE_PARAMS[tag])
            params["bogus"] = params.pop(next(iter(params)))
            with pytest.raises(ParameterError) as err:
                make_distribution(tag, params)
            assert str(err.value).startswith("incorrect parameters entered")

    def test_gamma_dual_parameterization(self):
        by_scale = make_distribution("gamma", {"shape": 1.272, "scale": 6.191})
        by_rate = make_distribution("gamma", {"shape": 1.272, "rate": 1.0 / 6.191})
        assert by_scale.params() == by_rate.params()
        assert by_scale.rate == 1.0 / 6.191

    def test_unknown_tag(self):
        with pytest.raises(ParameterError, match="unknown distribution"):
            make_distribution("weibullish", {"shape": 1.0, "scale": 1.0})

    @pytest.mark.parametrize("tag,params", [
        ("gengamma", {"mu": 0.0, "sigma": 1.0, "Q": 1e-160}),  # Q**-2 overflows
        ("genf", {"mu": 0.0, "sigma": 1.0, "Q": 1e5, "P": 1e-300}),  # 2/0
    ])
    def test_arithmetic_error_is_a_parameter_error(self, tag, params):
        with pytest.raises(ParameterError, match="out of numerical range"):
            make_distribution(tag, params)

    @pytest.mark.parametrize("tag,params", [
        ("weibull", {"shape": -1.0, "scale": 2.0}),
        ("weibull", {"shape": 1.0, "scale": 0.0}),
        ("exponential", {"rate": -2.0}),
        ("lnorm", {"meanlog": 0.0, "sdlog": -1.0}),
        ("gengamma.orig", {"shape": 1.0, "scale": 1.0, "k": 0.0}),
        ("genf.orig", {"mu": 0.0, "sigma": 1.0, "s1": -1.0, "s2": 2.0}),
        ("genf", {"mu": 0.0, "sigma": 1.0, "Q": 0.0, "P": 0.0}),
        ("gompertz", {"shape": 0.5, "rate": 0.0}),
    ])
    def test_positivity_enforced(self, tag, params):
        with pytest.raises(ParameterError):
            make_distribution(tag, params)

    def test_gompertz_shape_may_be_negative_or_zero(self):
        make_distribution("gompertz", {"shape": -0.4, "rate": 1.0})
        make_distribution("gompertz", {"shape": 0.0, "rate": 1.0})

    def test_gengamma_q_zero_rejected(self):
        with pytest.raises(ParameterError, match="lnorm"):
            make_distribution("gengamma", {"mu": 0.0, "sigma": 1.0, "Q": 0.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            make_distribution("exponential", {"rate": float("inf")})

    def test_value_semantics(self):
        a = reference_dist("weibull")
        b = reference_dist("weibull")
        assert a == b and hash(a) == hash(b)
        assert a != reference_dist("gamma")


class TestProbabilityLaw:
    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_pdf_integrates_to_one(self, tag):
        d = reference_dist(tag)

        def integrand(u):
            t = u / (1.0 - u)
            return d.pdf(t) / (1.0 - u) ** 2

        total, _ = quad(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-10, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_survival_is_exact_complement(self, tag, rng):
        d = reference_dist(tag)
        for t in rng.uniform(0.0, 15.0, size=50):
            s = d.survival(float(t))
            assert d.cdf(float(t)) + s == 1.0
            assert 0.0 <= s <= 1.0

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_survival_at_zero_and_monotone(self, tag):
        d = reference_dist(tag)
        assert d.survival(0.0) == 1.0
        ts = np.linspace(0.0, 20.0, 60)
        values = [d.survival(float(t)) for t in ts]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_ln_survival_matches_survival(self, tag):
        d = reference_dist(tag)
        for t in (0.3, 1.0, 4.2, 11.0):
            assert math.exp(d.ln_survival(t)) == pytest.approx(d.survival(t),
                                                               rel=1e-11)

    def test_negative_time_rejected(self):
        d = reference_dist("weibull")
        for method in (d.pdf, d.cdf, d.mrl):
            with pytest.raises(ValueError):
                method(-0.5)

    def test_weibull_shape_one_nests_exponential(self):
        scale = 3.7
        w = make_distribution("weibull", {"shape": 1.0, "scale": scale})
        e = make_distribution("exponential", {"rate": 1.0 / scale})
        assert w.survival(0.7) == pytest.approx(e.survival(0.7), rel=1e-14)

    def test_gengamma_orig_survival_identity(self):
        # survival = Gamma((t/a)^b, k) / Gamma(k); arranged so (t/a)^b = 1.3
        d = make_distribution("gengamma.orig", {"shape": 2.0, "scale": 1.0, "k": 2.4})
        t = 1.3 ** 0.5
        assert d.survival(t) == pytest.approx(0.73760877615505958991, rel=1e-12)

    def test_gompertz_zero_shape_is_exponential(self):
        g = make_distribution("gompertz", {"shape": 0.0, "rate": 0.8})
        e = make_distribution("exponential", {"rate": 0.8})
        for t in (0.0, 0.5, 2.0, 7.0):
            assert g.survival(t) == pytest.approx(e.survival(t), rel=1e-14)
        assert g.mean() == pytest.approx(e.mean(), rel=1e-14)

    def test_gompertz_negative_shape_has_survival_plateau(self):
        g = make_distribution("gompertz", {"shape": -0.5, "rate": 0.3})
        plateau = math.exp(0.3 / -0.5)
        assert g.survival(1e9) == pytest.approx(plateau, rel=1e-12)
        assert g.quantile(1.0 - plateau / 2.0) == math.inf
        assert math.isnan(g.mean())
        assert math.isnan(g.mrl(1.0))


class TestQuantiles:
    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_cdf_round_trip(self, tag):
        d = reference_dist(tag)
        for p in (0.05, 0.3, 0.5, 0.8, 0.97):
            t = d.quantile(p)
            assert d.cdf(t) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_time_round_trip_in_bulk(self, tag):
        d = reference_dist(tag)
        for t in (d.quantile(0.2), d.quantile(0.6), d.quantile(0.9)):
            assert d.quantile(d.cdf(t)) == pytest.approx(t, rel=1e-8)

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_isf_inverts_survival(self, tag):
        d = reference_dist(tag)
        for s in (1e-12, 1e-6, 0.2, 0.9):
            t = d.isf(s)
            assert d.ln_survival(t) == pytest.approx(math.log(s), rel=1e-9)

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_edges(self, tag):
        d = reference_dist(tag)
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == math.inf
        with pytest.raises(ValueError):
            d.quantile(-0.01)
        with pytest.raises(ValueError):
            d.quantile(1.01)

    def test_exponential_median(self):
        d = make_distribution("exponential", {"rate": 2.0})
        assert d.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-14)

    def test_bisection_quantile_cross_checked_by_cdf(self):
        d = reference_dist("gengamma")
        t = d.quantile(0.9)
        assert d.cdf(t) == pytest.approx(0.9, abs=1e-10)


class TestMoments:
    def test_exponential_mean(self):
        assert make_distribution("exponential", {"rate": 0.25}).mean() == 4.0

    def test_weibull_mean_frozen(self):
        d = reference_dist("weibull")
        assert d.mean() == pytest.approx(5.7439105133962148562, rel=1e-12)

    def test_genf_orig_mean_frozen(self):
        # quadrature of t*pdf at 30 digits
        d = reference_dist("genf.orig")
        assert d.mean() == pytest.approx(2.0162820490576330475, rel=1e-12)

    def test_gengamma_orig_mean_is_mrl_at_zero(self):
        d = reference_dist("gengamma.orig")
        assert d.mrl(0.0) == pytest.approx(d.mean(), rel=1e-12)

    def test_gengamma_negative_q_mean_frozen(self):
        d = make_distribution("gengamma", {"mu": 0.2, "sigma": 0.6, "Q": -0.8})
        assert d.mean() == pytest.approx(2.20692314071963, rel=1e-10)

    def test_llogis_heavy_tail_has_no_mean(self):
        d = make_distribution("llogis", {"shape": 0.9, "scale": 1.0})
        assert math.isnan(d.mean())
        assert math.isnan(d.mrl(1.0))
        d = make_distribution("llogis", {"shape": 1.0, "scale": 1.0})
        assert math.isnan(d.mean())

    @pytest.mark.parametrize("tag", DISTRIBUTION_TAGS)
    def test_mean_positive_when_finite(self, tag, rng):
        for _ in range(10):
            d = sample_distribution(tag, rng)
            m = d.mean()
            assert math.isnan(m) or m > 0.0


class TestResidualLifeClosedForms:
    def test_gengamma_orig_frozen(self):
        d = reference_dist("gengamma.orig")
        assert d.mrl(0.8) == pytest.approx(1.5532606158179421752, rel=1e-10)

    def test_gompertz_frozen(self):
        d = reference_dist("gompertz")
        assert d.mrl(1.5) == pytest.approx(0.64058671773370456033, rel=1e-10)

    def test_genf_orig_frozen(self):
        d = make_distribution("genf.orig",
                              {"mu": 0.0, "sigma": 1.0, "s1": 1.5, "s2": 4.0})
        assert d.mrl(0.5) == pytest.approx(1.306659592656209356, rel=1e-10)

    def test_genf_2f1_branches_agree_with_quadrature_values(self):
        # large x puts the hypergeometric argument inside (-1, 0)
        d = reference_dist("genf.orig")
        assert d.mrl(3.0) == pytest.approx(3.38263504694, rel=1e-9)
        assert d.mrl(8.0) == pytest.approx(6.33450067059, rel=1e-9)

    def test_survival_underflow_returns_nan(self):
        d = make_distribution("weibull", {"shape": 2.9, "scale": 2.2})
        assert d.survival(22.0) == 0.0
        assert math.isnan(d.mrl(22.0))
        assert d.mrl(21.0) == pytest.approx(0.01042322, abs=5e-6)

    def test_genf_undefined_when_s2_not_above_sigma(self):
        d = make_distribution("genf.orig",
                              {"mu": 0.0, "sigma": 2.0, "s1": 1.0, "s2": 1.5})
        assert math.isnan(d.mean())
        for x in (0.0, 0.5, 2.0, 10.0):
            assert math.isnan(d.mrl(x))
        boundary = make_distribution(
            "genf.orig", {"mu": 0.0, "sigma": 1.5, "s1": 1.0, "s2": 1.5})
        assert math.isnan(boundary.mrl(1.0))


class TestConversions:
    def test_gengamma_forward_pdf_equality(self, rng):
        mu, sigma, q = 0.3, 0.7, 1.4
        shape, scale, k = convert_gengamma_to_orig(mu, sigma, q)
        prentice = GenGamma(mu, sigma, q)
        orig = GenGammaOrig(shape, scale, k)
        for t in rng.uniform(0.05, 8.0, size=20):
            assert prentice.pdf(float(t)) == pytest.approx(orig.pdf(float(t)),
                                                           rel=1e-12)

    def test_gengamma_reverse_pdf_equality_and_round_trip(self, rng):
        shape, scale, k = 1.5, 2.0, 1.2
        mu, sigma, q = convert_gengamma_from_orig(shape, scale, k)
        assert (mu, sigma, q) == pytest.approx(
            (math.log(scale) + math.log(k) / shape,
             1.0 / (shape * math.sqrt(k)), 1.0 / math.sqrt(k)), rel=1e-15)
        back = convert_gengamma_to_orig(mu, sigma, q)
        assert back == pytest.approx((shape, scale, k), rel=1e-13)
        prentice = GenGamma(mu, sigma, q)
        orig = GenGammaOrig(shape, scale, k)
        for t in rng.uniform(0.05, 8.0, size=20):
            assert orig.pdf(float(t)) == pytest.approx(prentice.pdf(float(t)),
                                                       rel=1e-12)

    def test_gengamma_exponential_nesting(self):
        shape, scale, k = convert_gengamma_to_orig(0.0, 1.0, 1.0)
        assert (shape, scale, k) == (1.0, 1.0, 1.0)

    def test_gengamma_conversion_requires_positive_q(self):
        with pytest.raises(ParameterError, match="unsupported conversion"):
            convert_gengamma_to_orig(0.0, 1.0, -0.5)
        with pytest.raises(ParameterError):
            convert_gengamma_to_orig(0.0, 1.0, 0.0)

    def test_genf_conversion_pdf_equality(self, rng):
        mu, sigma, q, p = 0.1, 1.2, 0.5, 0.8
        om, osigma, s1, s2 = convert_genf_to_orig(mu, sigma, q, p)
        direct = make_distribution("genf", {"mu": mu, "sigma": sigma, "Q": q, "P": p})
        orig = GenFOrig(om, osigma, s1, s2)
        for t in rng.uniform(0.05, 10.0, size=20):
            assert direct.pdf(float(t)) == pytest.approx(orig.pdf(float(t)),
                                                         rel=1e-12)

    def test_genf_symmetric_case(self):
        om, osigma, s1, s2 = convert_genf_to_orig(0.0, 1.0, 0.0, 1.0)
        assert s1 == pytest.approx(s2, rel=1e-15)
        assert s1 == pytest.approx(1.0, rel=1e-15)

    def test_genf_delta_identity(self):
        q, p = 0.7, 1.3
        delta = math.sqrt(q * q + 2.0 * p)
        assert delta * delta == pytest.approx(q * q + 2.0 * p, rel=4e-16)

    def test_genf_conversion_requires_positive_p(self):
        with pytest.raises(ParameterError):
            convert_genf_to_orig(0.0, 1.0, 0.5, 0.0)

    def test_gengamma_q_negative_uses_own_density(self, rng):
        d = make_distribution("gengamma", {"mu": 0.2, "sigma": 0.6, "Q": -0.8})
        # cdf formula cross-checked by integrating the density
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            mass, _ = quad(d.pdf, 0.0, 1.7, epsabs=1e-12, epsrel=1e-11)
        assert d.cdf(1.7) == pytest.approx(mass, rel=1e-9)
