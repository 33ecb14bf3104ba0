"""Pins for the two family cores behind every closed-form mrl.

The gamma-power core carries weibull, gamma, gengamma.orig and gengamma;
the beta-prime-power core carries llogis, genf.orig and genf.  Families
that nest exactly must agree on pdf, survival and mrl to rounding, and
gengamma with Q < 0 right at the edge of a finite mean (sigma close to
1/|Q|) must stay finite and agree with the quadrature oracle wherever that
converges.
"""
import math

import numpy as np
import pytest

from mrlife import make_distribution, mrl_quadrature_oracle

from conftest import survival_integral

QUANTILES = (0.02, 0.5, 0.9, 0.999)


def _nested_pair(kind, mu, sigma):
    if kind == "gengamma Q=1 is weibull":
        return (make_distribution("gengamma", {"mu": mu, "sigma": sigma, "Q": 1.0}),
                make_distribution("weibull", {"shape": 1.0 / sigma,
                                              "scale": math.exp(mu)}))
    if kind == "gengamma Q=sigma is gamma":
        return (make_distribution("gengamma", {"mu": mu, "sigma": sigma, "Q": sigma}),
                make_distribution("gamma", {"shape": sigma ** -2,
                                            "scale": sigma * sigma * math.exp(mu)}))
    return (make_distribution("genf.orig", {"mu": mu, "sigma": sigma,
                                            "s1": 1.0, "s2": 1.0}),
            make_distribution("llogis", {"shape": 1.0 / sigma, "scale": math.exp(mu)}))


@pytest.mark.parametrize("kind", ["gengamma Q=1 is weibull",
                                  "gengamma Q=sigma is gamma",
                                  "genf.orig s1=s2=1 is llogis"])
def test_nesting_identities(kind):
    rng = np.random.default_rng(1974)
    for _ in range(12):
        mu = float(rng.uniform(-1.0, 1.5))
        sigma = float(np.exp(rng.uniform(np.log(0.25), np.log(1.8))))
        wide, narrow = _nested_pair(kind, mu, sigma)
        for q in QUANTILES:
            x = narrow.quantile(q)
            for method in ("pdf", "survival", "mrl"):
                expected = getattr(narrow, method)(x)
                got = getattr(wide, method)(x)
                if math.isnan(expected):  # llogis shape <= 1 has no mrl
                    assert math.isnan(got), (kind, mu, sigma, q, method)
                    continue
                assert math.isclose(got, expected, rel_tol=1e-12), \
                    (kind, mu, sigma, q, method, got, expected)


def test_gengamma_negative_q_near_the_mean_boundary():
    # sigma = 0.90-0.99/|Q| leaves k + sigma/Q = (1 - sigma|Q|)/Q^2 small:
    # the mean barely exists and the tail is heavy
    rng = np.random.default_rng(1975)
    compared = 0
    for _ in range(20):
        q = -float(rng.uniform(0.2, 1.5))
        sigma = float(rng.uniform(0.90, 0.99)) / abs(q)
        mu = float(rng.uniform(-1.0, 1.5))
        d = make_distribution("gengamma", {"mu": mu, "sigma": sigma, "Q": q})
        mean = d.mean()
        assert math.isfinite(mean)
        for p in (0.1, 0.5, 0.9, 0.99):
            x = d.quantile(p)
            m = d.mrl(x)
            assert math.isfinite(m) and m > 0.0, (mu, sigma, q, p, m)
            # anchored two-point identity m(x) S(x) = mean - int_0^x S
            assert math.isclose(m * d.survival(x), mean - survival_integral(d, x),
                                rel_tol=1e-9, abs_tol=1e-9 * mean), (mu, sigma, q, p)
            oracle, converged = mrl_quadrature_oracle(d, x, return_diagnostic=True)
            if converged:
                compared += 1
                assert m == pytest.approx(oracle, rel=1e-6), (mu, sigma, q, p)
    assert compared > 0
