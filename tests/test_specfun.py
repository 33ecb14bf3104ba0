"""Kernel unit tests: frozen high-precision values, identities, domains.

Frozen constants were computed beforehand with a 50-digit
series/recurrence oracle (mpmath) or, where noted, adaptive quadrature
of the defining integral; they are independent of the code under test.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mrlife import specfun as sf

EULER_GAMMA = 0.5772156649015328606


def _same_bits(a, b):
    return float(a).hex() == float(b).hex()


class TestLnGamma:
    def test_one(self):
        assert sf.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half(self):
        assert sf.ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_frozen_7_3(self):
        assert sf.ln_gamma(7.3) == pytest.approx(7.1478925230222490328, rel=1e-13)

    def test_near_unit_zero(self):
        assert sf.ln_gamma(1.0 + 1e-8) == pytest.approx(-5.7721565667686256643e-9,
                                                        rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
    def test_domain(self, bad):
        assert math.isnan(sf.ln_gamma(bad))


class TestIncompleteGamma:
    def test_full_domain(self):
        assert sf.upper_inc_gamma(0.0, 3.7) == pytest.approx(
            math.exp(sf.ln_gamma(3.7)), rel=1e-14)

    def test_exponential_tail(self):
        assert sf.upper_inc_gamma(2.2, 1.0) == pytest.approx(math.exp(-2.2), rel=1e-13)

    def test_frozen_quadrature_value(self):
        # adaptive quadrature of int_2.5^inf t^2.7 e^-t dt, 30 digits
        assert sf.upper_inc_gamma(2.5, 3.7) == pytest.approx(
            2.9255240018950217836, rel=1e-12)

    def test_complement_identity(self, rng):
        # Gamma(x,a) + gamma(x,a) = Gamma(a)
        for _ in range(300):
            a = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            x = float(rng.uniform(0.0, 4.0 * a + 10.0))
            total = math.exp(sf.ln_upper_inc_gamma(x, a) - sf.ln_gamma(a)) + \
                math.exp(sf.ln_lower_inc_gamma(x, a) - sf.ln_gamma(a))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_strictly_decreasing_in_x(self, rng):
        for _ in range(50):
            a = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
            xs = np.sort(rng.uniform(0.0, 5.0 * a + 5.0, size=8))
            values = [sf.upper_inc_gamma(x, a) for x in xs]
            assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_domain(self):
        assert math.isnan(sf.upper_inc_gamma(-1.0, 2.0))
        assert math.isnan(sf.upper_inc_gamma(1.0, 0.0))
        assert math.isnan(sf.upper_inc_gamma(1.0, -2.0))

    def test_log_versions_match_linear(self):
        with mpmath.workdps(40):
            for (x, a) in [(0.3, 2.0), (5.0, 2.0), (40.0, 3.3), (1e-8, 0.4)]:
                assert math.exp(sf.ln_upper_inc_gamma(x, a)) == pytest.approx(
                    float(mpmath.gammainc(a, x)), rel=1e-12)

    def test_deep_tail_log_scale(self):
        # ratios must stay usable where the plain values underflow
        ln_q = sf.ln_upper_inc_gamma(794.0, 0.3448) - sf.ln_gamma(0.3448)
        assert -1000.0 < ln_q < -700.0


class TestExpIntegral:
    def test_asymptotic_identity_at_700(self):
        assert sf.exp_integral_e1_scaled(700.0) * 700.0 == pytest.approx(1.0, abs=2e-3)
        assert sf.exp_integral_e1_scaled(700.0) * 700.0 == pytest.approx(
            0.99857549281062068425, rel=1e-12)

    def test_frozen_one(self):
        # quadrature of the defining integral at z=1
        assert sf.exp_integral_e1(1.0) == pytest.approx(0.21938393439552027368,
                                                        rel=1e-12)

    @pytest.mark.parametrize("z,expected", [
        (0.35, 0.79421543462083579477),
        (7.2, 9.218811688716204234e-5),
    ])
    def test_frozen_branches(self, z, expected):
        assert sf.exp_integral_e1(z) == pytest.approx(expected, rel=1e-12)

    def test_small_z_series(self):
        z = 1e-6
        series = -EULER_GAMMA - math.log(z) + z - z * z / 4.0
        assert sf.exp_integral_e1(z) == pytest.approx(series, abs=1e-9)
        assert sf.exp_integral_e1(z) == pytest.approx(13.238295893062491244, rel=1e-12)

    def test_domain(self):
        assert math.isnan(sf.exp_integral_e1(0.0))
        assert math.isnan(sf.exp_integral_e1(-1.0))


class TestLargeArgument:
    """x >= 2**51, where the continued fractions can stall one ulp short of
    their stopping test; both kernel twins answer by an asymptotic branch.
    Each test runs on specfun and on every kernel module directly."""

    @staticmethod
    def _grid():
        rng = np.random.default_rng(2051)
        xs = np.exp(rng.uniform(np.log(2.0 ** 51), np.log(1e300), size=30))
        shapes = np.exp(rng.uniform(np.log(0.05), np.log(1e6), size=30))
        return list(zip(xs.tolist(), shapes.tolist())) + [
            (2.0 ** 51, 25.0), (3e15, 0.3), (7e16, 25.0), (1e20, 1.0), (1e300, 0.5)]

    def test_incomplete_gamma_against_mpmath(self, kernel_modules):
        with mpmath.workdps(40):
            for x, a in self._grid():
                ln_upper = float(mpmath.log(mpmath.gammainc(a, x)))
                ln_lower = float(mpmath.log(mpmath.gammainc(a, 0, x)))
                for k in kernel_modules:
                    assert math.isclose(k.ln_upper_inc_gamma(x, a), ln_upper,
                                        rel_tol=1e-15), (k.__name__, x, a)
                    # ln Gamma(a) itself: lgamma's absolute error near its zeros
                    assert math.isclose(k.ln_lower_inc_gamma(x, a), ln_lower,
                                        rel_tol=1e-15, abs_tol=1e-15), (k.__name__, x, a)
                    # the regularized values reach their limits exactly
                    assert k.upper_inc_gamma(x, a) == 0.0
                    assert math.exp(k.ln_upper_inc_gamma(x, a) - k.ln_gamma(a)) == 0.0
                    assert k.ln_lower_inc_gamma(x, a) - k.ln_gamma(a) == 0.0

    def test_exp_integral_against_mpmath(self, kernel_modules):
        with mpmath.workdps(40):
            for x, _ in self._grid():
                scaled = float(mpmath.e1(x) * mpmath.exp(x))
                for k in kernel_modules:
                    assert math.isclose(k.exp_integral_e1_scaled(x), scaled,
                                        rel_tol=1e-15), (k.__name__, x)
                    assert k.exp_integral_e1(x) == 0.0

    def test_infinite_argument_is_the_limit(self, kernel_modules):
        for k in kernel_modules:
            assert k.ln_upper_inc_gamma(math.inf, 2.5) == -math.inf, k.__name__
            assert k.ln_lower_inc_gamma(math.inf, 2.5) - k.ln_gamma(2.5) == 0.0, \
                k.__name__
            assert k.exp_integral_e1_scaled(math.inf) == 0.0, k.__name__

    def test_domain_still_nan(self, kernel_modules):
        for k in kernel_modules:
            assert math.isnan(k.ln_upper_inc_gamma(1e20, 0.0)), k.__name__
            assert math.isnan(k.ln_lower_inc_gamma(1e20, -1.0)), k.__name__
            assert math.isnan(k.ln_upper_inc_gamma(1e20, math.nan)), k.__name__


class TestShapePartial:
    """digamma and the (ln value, partial along a) pairs of the incomplete
    gamma against mpmath, on specfun and on every kernel module directly:
    a log-uniform in [0.05, 40] with x in (0, 40], x within 0.1% of a + 1
    (the series/fraction switch), and x >= 2**51 (the asymptotic branch)."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(1982)
        points = []
        for _ in range(80):
            a = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
            points.append((40.0 - float(rng.uniform(0.0, 40.0)), a))
            points.append(((a + 1.0) * (1.0 + float(rng.uniform(-1e-3, 1e-3))), a))
        big = np.exp(rng.uniform(np.log(2.0 ** 51), np.log(1e30), size=6))
        shapes = np.exp(rng.uniform(np.log(0.05), np.log(40.0), size=6))
        points += list(zip(big.tolist(), shapes.tolist()))
        # where a fraction partial stopped with its value is 4.4e-4 off
        return points + [(3.0746, 2.0)]

    def test_incomplete_gamma_partials_against_mpmath(self, kernel_modules):
        for x, a in self._points():
            # ln Gamma(x, a) ~ -x: the partial needs log10(x) more digits
            with mpmath.workdps(40 + max(0, int(math.log10(x)))):
                mx = mpmath.mpf(x)
                expected = {
                    "upper": float(mpmath.diff(
                        lambda s: mpmath.log(mpmath.gammainc(s, mx)), a)),
                    "lower": float(mpmath.diff(
                        lambda s: mpmath.log(mpmath.gammainc(s, 0, mx)), a))}
            for k in kernel_modules:
                for side, want in expected.items():
                    value, partial = getattr(k, f"ln_{side}_inc_gamma_da")(x, a)
                    assert _same_bits(value, getattr(k, f"ln_{side}_inc_gamma")(x, a))
                    assert abs(partial - want) <= 1e-12 * max(1.0, abs(want)), (
                        k.__name__, side, x, a, partial, want)

    def test_digamma_against_mpmath(self, kernel_modules):
        rng = np.random.default_rng(1983)
        points = np.exp(rng.uniform(np.log(0.05), np.log(40.0), size=300)).tolist()
        # the root near 1.46, the recurrence's switch at 10, far shapes
        points += [1.4616321449683623, 9.999999999999998, 10.0, 1e-8, 1e6, 1e300]
        with mpmath.workdps(40):
            for a in points:
                want = float(mpmath.digamma(a))
                for k in kernel_modules:
                    assert abs(k.digamma(a) - want) <= 1e-14 * max(1.0, abs(want)), (
                        k.__name__, a)

    def test_edges(self, kernel_modules):
        for k in kernel_modules:
            for bad in (0.0, -1.0, math.inf, math.nan):
                assert math.isnan(k.digamma(bad)), (k.__name__, bad)
            for side in ("upper", "lower"):
                fn = getattr(k, f"ln_{side}_inc_gamma_da")
                for x, a in ((-1.0, 2.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)):
                    assert all(map(math.isnan, fn(x, a))), (k.__name__, side, x, a)
            # Gamma(0, a) = Gamma(a) and gamma(inf, a) = Gamma(a): psi(a)
            assert k.ln_upper_inc_gamma_da(0.0, 2.5) == (k.ln_gamma(2.5), k.digamma(2.5))
            assert k.ln_lower_inc_gamma_da(math.inf, 2.5)[1] == k.digamma(2.5)
            assert k.ln_upper_inc_gamma_da(math.inf, 2.5) == (-math.inf, math.inf)
            assert k.ln_lower_inc_gamma_da(0.0, 2.5) == (-math.inf, -math.inf)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert sf.reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert sf.reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        for x in (0.05, 0.37, 0.93):
            assert sf.reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, rel=1e-14)

    def test_frozen_quadrature_value(self):
        # quadrature of t^1.5 (1-t)^-0.2 on [0, 0.3], normalized by B(2.5, 0.8)
        assert sf.reg_inc_beta(0.3, 2.5, 0.8) == pytest.approx(
            0.035905378647413408681, rel=1e-12)

    def test_frozen_complement_branch(self):
        assert sf.reg_inc_beta(0.85, 0.4, 3.1) == pytest.approx(
            0.99933971630327116584, rel=1e-12)

    def test_strictly_increasing_in_x(self, rng):
        for _ in range(50):
            a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            xs = np.sort(rng.uniform(0.001, 0.999, size=8))
            values = [sf.reg_inc_beta(x, a, b) for x in xs]
            assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    def test_domain(self):
        assert math.isnan(sf.reg_inc_beta(-0.1, 1.0, 1.0))
        assert math.isnan(sf.reg_inc_beta(1.1, 1.0, 1.0))
        assert math.isnan(sf.reg_inc_beta(0.5, 0.0, 1.0))
        assert math.isnan(sf.reg_inc_beta(0.5, 1.0, -1.0))

    def test_log_version(self):
        for (x, a, b) in [(0.2, 2.0, 3.0), (0.95, 1.5, 0.5), (1e-9, 0.7, 4.0)]:
            assert math.exp(sf.ln_reg_inc_beta(x, a, b)) == pytest.approx(
                sf.reg_inc_beta(x, a, b), rel=1e-12)


class TestGauss2F1:
    def test_empty_series(self):
        assert sf.gauss_2f1(1.7, 0.3, 2.9, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        z = -0.5
        assert sf.gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log1p(-z) / z, rel=1e-12)

    @pytest.mark.parametrize("args,expected", [
        ((3.2, 1.1, 2.1, -4.0), 0.094501799991884204347),
        ((2.7, 0.9, 1.4, -0.35), 0.60330818976367815768),
        ((5.5, 2.2, 3.0, -17.0), 1.749928578468402096e-4),
    ])
    def test_frozen_values(self, args, expected):
        # frozen from quadrature of the integral representation
        assert sf.gauss_2f1(*args) == pytest.approx(expected, rel=1e-10)

    def test_domain(self):
        assert math.isnan(sf.gauss_2f1(1.0, 2.0, 1.5, -1.0))  # c <= b
        assert math.isnan(sf.gauss_2f1(1.0, -0.5, 1.5, -1.0))  # b <= 0
        assert math.isnan(sf.gauss_2f1(1.0, 0.5, 1.5, 0.5))  # z > 0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_integral_representation(self, rng):
        # int_0^inf t^(c-b-1) (t+1)^(a-c) (1+t-z)^(-a) dt * G(c)/(G(b)G(c-b))
        for _ in range(100):
            a = float(rng.uniform(-2.0, 6.0))
            b = float(rng.uniform(0.1, 4.0))
            c = b + float(rng.uniform(0.1, 4.0))
            z = -float(rng.uniform(0.0, 50.0))

            def integrand(t, a=a, b=b, c=c, z=z):
                return (t ** (c - b - 1.0) * (t + 1.0) ** (a - c)
                        * (1.0 + t - z) ** (-a))

            integral, _ = quad(integrand, 0.0, np.inf,
                               epsabs=1e-13, epsrel=1e-11, limit=400)
            expected = integral * math.exp(
                sf.ln_gamma(c) - sf.ln_gamma(b) - sf.ln_gamma(c - b))
            assert sf.gauss_2f1(a, b, c, z) == pytest.approx(expected, rel=1e-8)


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class TestStdNormal:
    def test_symmetry_at_zero(self):
        assert sf.ln_std_normal_sf(0.0) == math.log(0.5)
        assert sf.std_normal_quantile(0.5) == 0.0

    def test_symmetry_pair(self):
        z = 1.7
        assert math.exp(sf.ln_std_normal_sf(-z)) + math.exp(
            sf.ln_std_normal_sf(z)) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_frozen(self):
        # bisection on the CDF, frozen at 50 digits
        assert sf.std_normal_quantile(0.975) == pytest.approx(
            1.9599639845400542355, rel=1e-12)

    def test_quantile_round_trip(self):
        # Above z ~ 5.5 the rounding of cdf(z) itself moves the answer by up
        # to ulp(1)/(2*pdf(z)) ~ 9e-9, so the tolerance widens there.
        for z in np.linspace(-6.0, 6.0, 41):
            p = _phi(float(z))
            tol = 1e-9 if z <= 5.5 else 2e-8
            assert sf.std_normal_quantile(p) == pytest.approx(float(z), abs=tol)

    def test_quantile_edges(self):
        assert sf.std_normal_quantile(0.0) == -math.inf
        assert sf.std_normal_quantile(1.0) == math.inf
        assert math.isnan(sf.std_normal_quantile(-0.1))
        assert math.isnan(sf.std_normal_quantile(1.1))

    def test_deep_tail_quantile(self):
        p = 1e-300
        z = sf.std_normal_quantile(p)
        assert sf.ln_std_normal_sf(-z) == pytest.approx(math.log(p), rel=1e-9)

    def test_ln_sf_matches_cdf(self):
        for z in (-3.0, 0.0, 2.0, 8.0, 30.0, 36.9, 37.1, 45.0):
            direct = sf.ln_std_normal_sf(z)
            if z < 36.0:
                assert math.exp(direct) == pytest.approx(
                    _phi(-z), rel=1e-12)
            else:
                assert direct < -640.0
