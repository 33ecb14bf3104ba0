"""Residual-life engine tests: tables, percentiles, and the quadrature oracle."""
import math

import numpy as np
import pytest

from mrlife import (Distribution, ResidualLifeQuery, make_distribution,
                    mean_residual_life, median_residual_life, mrl_quadrature_oracle,
                    percentile_residual_life, residual_life_table)

from conftest import sample_distribution, survival_integral


class TestMeanResidualLife:
    def test_exponential_memoryless(self):
        d = make_distribution("exponential", {"rate": 0.4})
        for x in (0.0, 0.7, 3.0, 25.0):
            assert mean_residual_life(d, x) == pytest.approx(2.5, rel=1e-14)

    def test_weibull_golden_endpoints(self):
        d = make_distribution("weibull", {"shape": 1.272, "scale": 6.191})
        assert mean_residual_life(d, 1.0) == pytest.approx(5.280618, abs=5e-6)
        assert mean_residual_life(d, 10.0) == pytest.approx(3.942246, abs=5e-6)

    def test_gompertz_matches_oracle(self):
        d = make_distribution("gompertz", {"shape": 0.8, "rate": 0.3})
        assert mean_residual_life(d, 1.5) == pytest.approx(
            mrl_quadrature_oracle(d, 1.5), rel=1e-9)


class TestPercentileResidualLife:
    def test_exponential_invariance_in_x(self):
        rate, alpha = 1.7, 0.35
        d = make_distribution("exponential", {"rate": rate})
        expected = -math.log1p(-alpha) / rate
        for x in (0.0, 1.0, 5.0, 40.0):
            q = percentile_residual_life(d, x, alpha)
            assert q == pytest.approx(expected, rel=1e-12)

    def test_lnorm_round_trip_identity(self):
        # cdf(x + q) = 1 - (1-alpha) S(x)
        d = make_distribution("lnorm", {"meanlog": 0.4, "sdlog": 0.9})
        x, alpha = 2.0, 0.8
        q = percentile_residual_life(d, x, alpha)
        assert d.cdf(x + q) == pytest.approx(1.0 - 0.2 * d.survival(x), abs=1e-10)

    def test_monotone_in_alpha(self, rng):
        for _ in range(20):
            d = sample_distribution("weibull", rng)
            x = d.quantile(0.4)
            qs = [percentile_residual_life(d, x, a)
                  for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_median_is_alpha_half(self):
        d = make_distribution("gamma", {"shape": 2.0, "rate": 0.5})
        assert median_residual_life(d, 1.3) == percentile_residual_life(d, 1.3, 0.5)

    def test_underflowed_survival_gives_inf(self):
        d = make_distribution("weibull", {"shape": 2.9, "scale": 2.2})
        assert percentile_residual_life(d, 22.0, 0.7) == math.inf

    def test_unresolved_survival_gives_nan(self):
        # ln S is NaN beyond t = 20, as where a kernel does not converge: a
        # search that meets it, or a NaN S(x), must come back NaN, not a
        # made-up root near the bisection's pivot
        class NaNBeyondTwenty(Distribution):
            def ln_survival(self, t):
                return -t if t <= 20.0 else math.nan

            def survival(self, t):
                return math.exp(self.ln_survival(t))

        d = NaNBeyondTwenty()
        assert d.isf(math.exp(-1.5)) == pytest.approx(1.5, rel=1e-12)
        assert math.isnan(d.isf(math.exp(-30.0)))
        assert math.isnan(percentile_residual_life(d, 10.0, 1.0 - 1e-6))
        assert math.isnan(percentile_residual_life(d, 30.0, 0.5))

        # the bracket's first step up from the pivot t = 1 lands at t = 8,
        # inside the band; the root 1.5 lies where ln S is finite
        class NaNBeyondTwo(NaNBeyondTwenty):
            def ln_survival(self, t):
                return -t if t <= 2.0 else math.nan

        assert NaNBeyondTwo().isf(math.exp(-1.5)) == pytest.approx(1.5, rel=1e-12)
        assert math.isnan(NaNBeyondTwo().isf(math.exp(-3.0)))

        # the same below the pivot: the step down to t = 1/8 lands in the band
        class NaNBelowHalf(NaNBeyondTwenty):
            def ln_survival(self, t):
                return -t if t >= 0.5 else math.nan

        assert NaNBelowHalf().isf(math.exp(-0.7)) == pytest.approx(0.7, rel=1e-12)
        assert math.isnan(NaNBelowHalf().isf(math.exp(-0.2)))

    def test_validation(self):
        d = make_distribution("exponential", {"rate": 1.0})
        with pytest.raises(ValueError):
            percentile_residual_life(d, -1.0, 0.5)
        with pytest.raises(ValueError):
            percentile_residual_life(d, 1.0, 0.0)
        with pytest.raises(ValueError):
            percentile_residual_life(d, 1.0, 1.0)


class TestResidualLifeTable:
    def test_mean_table_matches_scalar_calls(self):
        d = make_distribution("weibull", {"shape": 1.272, "scale": 6.191})
        values = [1.0 + 0.5 * i for i in range(19)]
        table = residual_life_table(d, ResidualLifeQuery(values=values))
        assert table.column_names == ["mean"]
        assert table.columns["mean"] == [mean_residual_life(d, v) for v in values]

    def test_all_column_order_and_median_consistency(self):
        d = make_distribution("weibull", {"shape": 1.272, "scale": 6.191})
        query = ResidualLifeQuery(values=[1.0, 4.0], p=0.7, type="all")
        table = residual_life_table(d, query)
        assert table.column_names == ["mean", "median", "percentile"]
        median_only = residual_life_table(
            d, ResidualLifeQuery(values=[1.0, 4.0], p=0.7, type="median"))
        assert table.columns["median"] == median_only.columns["median"]

    def test_percentile_column_uses_p(self):
        d = make_distribution("exponential", {"rate": 2.0})
        table = residual_life_table(
            d, ResidualLifeQuery(values=[1.0], p=0.5, type="all"))
        assert table.columns["mean"][0] == pytest.approx(0.5, rel=1e-14)
        assert table.columns["median"][0] == pytest.approx(math.log(2) / 2, rel=1e-12)
        assert table.columns["percentile"][0] == pytest.approx(math.log(2) / 2,
                                                               rel=1e-12)

    def test_empty_values(self):
        d = make_distribution("exponential", {"rate": 1.0})
        table = residual_life_table(d, ResidualLifeQuery(values=[], type="all"))
        assert len(table) == 0
        assert all(col == [] for col in table.columns.values())

    def test_invalid_arguments(self):
        d = make_distribution("exponential", {"rate": 1.0})
        with pytest.raises(ValueError, match="strictly between"):
            residual_life_table(d, ResidualLifeQuery(values=[1.0], p=1.5))
        with pytest.raises(ValueError, match="type must be one of"):
            residual_life_table(d, ResidualLifeQuery(values=[1.0], type="midmean"))
        with pytest.raises(ValueError, match="nonnegative"):
            residual_life_table(d, ResidualLifeQuery(values=[-1.0]))

    def test_degenerate_rows_pattern(self):
        d = make_distribution("weibull", {"shape": 2.9, "scale": 2.2})
        query = ResidualLifeQuery(values=list(range(15, 31)), p=0.7, type="all")
        table = residual_life_table(d, query)
        for i, value in enumerate(range(15, 31)):
            mean, med, pct = (table.columns[c][i]
                              for c in ("mean", "median", "percentile"))
            if value <= 21:
                assert math.isfinite(mean) and math.isfinite(med) and math.isfinite(pct)
            else:
                assert math.isnan(mean)
                assert med == math.inf and pct == math.inf


    def test_deep_tail_gengamma_underflow_pattern(self):
        # 400x the 98% quantile puts z near 7e16, where the incomplete-gamma
        # continued fraction stalls; S must be 0 there, not NaN
        d = make_distribution("gengamma", {"mu": 0.4357432199138789,
                                           "sigma": 0.3090211757766392,
                                           "Q": 1.9641699981910046})
        x = 400.0 * d.quantile(0.98)
        table = residual_life_table(
            d, ResidualLifeQuery(values=[x], p=0.7, type="all"))
        assert d.survival(x) == 0.0
        assert math.isnan(table.columns["mean"][0])
        assert table.columns["median"] == [math.inf]
        assert table.columns["percentile"] == [math.inf]


class TestQuadratureOracle:
    def test_exponential_exact(self):
        d = make_distribution("exponential", {"rate": 2.0})
        assert mrl_quadrature_oracle(d, 3.0) == pytest.approx(0.5, rel=1e-9)

    def test_genf_matches_2f1_closed_form(self):
        d = make_distribution("genf.orig",
                              {"mu": 0.0, "sigma": 1.0, "s1": 1.5, "s2": 4.0})
        assert mrl_quadrature_oracle(d, 0.5) == pytest.approx(d.mrl(0.5), rel=1e-8)

    def test_underflow_is_flagged(self):
        d = make_distribution("weibull", {"shape": 2.9, "scale": 2.2})
        value, converged = mrl_quadrature_oracle(d, 25.0, return_diagnostic=True)
        assert math.isnan(value) and not converged

    def test_cross_validated_against_gauss_legendre(self):
        # fixed-order composite rule on the same [0, 1) transform
        nodes, weights = np.polynomial.legendre.leggauss(40)
        cases = [
            make_distribution("exponential", {"rate": 0.8}),
            make_distribution("weibull", {"shape": 1.7, "scale": 3.0}),
            make_distribution("gengamma.orig",
                              {"shape": 1.5, "scale": 2.0, "k": 1.2}),
        ]
        for d in cases:
            x = d.quantile(0.35)
            ln_sx = d.ln_survival(x)
            total = 0.0
            panels = np.linspace(0.0, 1.0, 65)
            for lo, hi in zip(panels[:-1], panels[1:]):
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                for node, weight in zip(nodes, weights):
                    u = mid + half * node
                    t = x + u / (1.0 - u)
                    ln_st = d.ln_survival(t)
                    if ln_st > -math.inf:
                        total += weight * half * math.exp(ln_st - ln_sx) \
                            / ((1.0 - u) * (1.0 - u))
            assert mrl_quadrature_oracle(d, x) == pytest.approx(total, rel=1e-8)

    @pytest.mark.parametrize("tag", ["weibull", "gamma", "lnorm", "gengamma"])
    def test_mean_minus_partial_integral_identity(self, tag, rng):
        # MRL(x) = (mean - int_0^x S) / S(x)
        for _ in range(3):
            d = sample_distribution(tag, rng)
            mean = d.mean()
            if math.isnan(mean):
                continue
            x = d.quantile(0.55)
            alt = (mean - survival_integral(d, x)) / d.survival(x)
            assert d.mrl(x) == pytest.approx(alt, rel=1e-6)
