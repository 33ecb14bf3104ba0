"""The pure-Python kernels must mirror the compiled extension.

Both backends share algorithms and constants, so their outputs agree to
within a few ulp; the suite also pins the pure-Python backend against a
few frozen values so the fallback stays correct even when the extension
is the active import.  The compiled side is the importable extension, or
a gcc build of ``src/mrlife/_ckernels.c`` (``compiled_kernels`` fixture).
"""
import math

import numpy as np
import pytest

from mrlife import _pykernels as pk
from mrlife import specfun as sf

_KERNELS = [
    "ln_gamma", "ln_beta", "reg_lower_gamma", "reg_upper_gamma",
    "ln_upper_inc_gamma", "ln_lower_inc_gamma", "upper_inc_gamma",
    "exp_integral_e1", "exp_integral_e1_scaled", "reg_inc_beta",
    "ln_reg_inc_beta", "gauss_2f1", "ln_gauss_2f1", "std_normal_cdf",
    "ln_std_normal_sf", "std_normal_quantile",
]


def test_backend_exports_complete(compiled_kernels):
    for name in _KERNELS:
        assert callable(getattr(pk, name))
        assert callable(getattr(sf, name))
        if compiled_kernels is not None:
            assert callable(getattr(compiled_kernels, name))


def _argument_grid(rng, n=2000):
    for _ in range(n):
        x = float(rng.uniform(0.0, 40.0))
        a = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
        yield "ln_upper_inc_gamma", (x, a)
        yield "ln_lower_inc_gamma", (max(x, 1e-12), a)
        yield "reg_lower_gamma", (x, a)
        z = float(np.exp(rng.uniform(np.log(1e-3), np.log(60.0))))
        yield "exp_integral_e1", (z,)
        yield "exp_integral_e1_scaled", (z,)
        xb = float(rng.uniform(0.0, 1.0))
        ab = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        bb = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        yield "reg_inc_beta", (xb, ab, bb)
        yield "ln_reg_inc_beta", (xb, ab, bb)
        a2 = float(rng.uniform(-2.0, 8.0))
        b2 = float(rng.uniform(0.1, 5.0))
        c2 = b2 + float(rng.uniform(0.1, 5.0))
        yield "gauss_2f1", (a2, b2, c2, -float(rng.uniform(0.0, 50.0)))
        yield "std_normal_cdf", (float(rng.uniform(-40.0, 40.0)),)
        yield "ln_std_normal_sf", (float(rng.uniform(-10.0, 60.0)),)
        yield "std_normal_quantile", (float(rng.uniform(0.0, 1.0)),)
    # the large-argument branch: x >= 2**51 with a <= x/1024, and x = inf
    big = np.random.default_rng(251)
    xs = np.exp(big.uniform(np.log(2.0 ** 51), np.log(1e300), size=200)).tolist()
    shares = np.exp(big.uniform(np.log(1e-20), 0.0, size=200)).tolist()
    points = [(x, x / 1024.0 * u) for x, u in zip(xs, shares)]
    points += [(2.0 ** 51, 25.0), (7e16, 25.0), (1e300, 0.5), (math.inf, 2.5),
               (math.inf, 1e6)]
    for x, a in points:
        for name in ("ln_upper_inc_gamma", "ln_lower_inc_gamma", "reg_lower_gamma",
                     "reg_upper_gamma", "upper_inc_gamma"):
            yield name, (x, a)
        yield "exp_integral_e1", (x,)
        yield "exp_integral_e1_scaled", (x,)


def test_twins_agree(rng, compiled_kernels):
    if compiled_kernels is None:
        pytest.skip("gcc not found; compiled kernels cannot be built")
    for name, args in _argument_grid(rng):
        v_py = getattr(pk, name)(*args)
        v_c = getattr(compiled_kernels, name)(*args)
        if v_py == v_c or (math.isnan(v_py) and math.isnan(v_c)):
            continue
        scale = max(abs(v_py), abs(v_c), 1e-300)
        assert abs(v_py - v_c) / scale < 1e-12, (name, args, v_py, v_c)


def test_pure_python_frozen_values():
    assert pk.ln_gamma(7.3) == pytest.approx(7.1478925230222490328, rel=1e-13)
    assert pk.upper_inc_gamma(2.5, 3.7) == pytest.approx(2.9255240018950217836,
                                                         rel=1e-12)
    assert pk.exp_integral_e1(1.0) == pytest.approx(0.21938393439552027368,
                                                    rel=1e-12)
    assert pk.reg_inc_beta(0.3, 2.5, 0.8) == pytest.approx(
        0.035905378647413408681, rel=1e-12)
    assert pk.gauss_2f1(3.2, 1.1, 2.1, -4.0) == pytest.approx(
        0.094501799991884204347, rel=1e-10)
    assert pk.std_normal_quantile(0.975) == pytest.approx(1.9599639845400542355,
                                                          rel=1e-12)


def test_selected_backend_is_reported():
    assert sf.BACKEND in ("compiled", "python")
    assert sf.using_compiled_kernels() == (sf.BACKEND == "compiled")
