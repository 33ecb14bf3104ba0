"""Shared test helpers: random parameter samplers, synthetic data, the
compiled kernel module, and the acceptance-criterion reporting hook."""
import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from mrlife import _pykernels, make_distribution, specfun

ROOT = Path(__file__).resolve().parents[1]


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(number, description): acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker and report.when == "call":
        status = {"passed": "PASS", "failed": "FAIL",
                  "skipped": "SKIP"}.get(report.outcome,
                                         report.outcome.upper())
        number, description = marker.args
        print(f"\n[acceptance criterion {number:>2}] {status}: {description}")


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample_params(tag, rng):
    """One random, valid, well-conditioned parameter set for a family.

    Ranges stay inside the regime where the mean exists and the tail is
    light enough for the quadrature oracle (llogis shape > 1.2, genf.orig
    s2 comfortably above sigma, ...), since the equivalence suite compares
    closed forms against that oracle.
    """
    if tag == "exponential":
        return {"rate": _loguniform(rng, 0.05, 20.0)}
    if tag == "weibull":
        return {"shape": _loguniform(rng, 0.35, 5.0),
                "scale": _loguniform(rng, 0.1, 20.0)}
    if tag == "gamma":
        return {"shape": _loguniform(rng, 0.3, 8.0),
                "rate": _loguniform(rng, 0.05, 10.0)}
    if tag == "gompertz":
        return {"shape": _loguniform(rng, 0.05, 2.5),
                "rate": _loguniform(rng, 0.01, 2.0)}
    if tag == "lnorm":
        return {"meanlog": float(rng.uniform(-1.5, 2.0)),
                "sdlog": _loguniform(rng, 0.2, 2.0)}
    if tag == "llogis":
        return {"shape": _loguniform(rng, 1.2, 6.0),
                "scale": _loguniform(rng, 0.2, 10.0)}
    if tag == "gengamma.orig":
        return {"shape": _loguniform(rng, 0.4, 4.0),
                "scale": _loguniform(rng, 0.2, 10.0),
                "k": _loguniform(rng, 0.3, 8.0)}
    if tag == "gengamma":
        q = float(rng.uniform(0.2, 2.2))
        sigma = _loguniform(rng, 0.25, 1.8)
        if rng.uniform() < 0.25:
            # left-skew branch: keep the mean finite (sigma < 1/|Q|)
            q = float(-rng.uniform(0.2, 1.5))
            sigma = _loguniform(rng, 0.2, 0.9 / abs(q))
        return {"mu": float(rng.uniform(-1.0, 1.5)), "sigma": sigma, "Q": q}
    if tag == "genf.orig":
        sigma = _loguniform(rng, 0.3, 1.5)
        return {"mu": float(rng.uniform(-1.0, 1.0)), "sigma": sigma,
                "s1": _loguniform(rng, 0.5, 5.0),
                "s2": sigma + _loguniform(rng, 0.5, 6.0)}
    if tag == "genf":
        for _ in range(100):
            params = {"mu": float(rng.uniform(-1.0, 1.0)),
                      "sigma": _loguniform(rng, 0.3, 1.5),
                      "Q": float(rng.uniform(-1.2, 1.2)),
                      "P": _loguniform(rng, 0.2, 3.0)}
            d = make_distribution(tag, params)
            if d.mean() == d.mean():  # finite-mean sets only
                return params
        raise AssertionError("could not sample a finite-mean genf set")
    raise KeyError(tag)


def sample_distribution(tag, rng):
    return make_distribution(tag, sample_params(tag, rng))


def survival_integral(d, x):
    """int_0^x S(t) dt by a fixed Gauss-Legendre rule on geometric panels.

    Panels [x/2^(j+1), x/2^j] keep every panel analytic however S behaves
    at t = 0 (t^shape terms for shape < 1); the part below 2^-40 x that is
    left out is at most 2^-40 x, since S <= 1.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    total = 0.0
    for j in range(40):
        lo, hi = x / 2.0 ** (j + 1), x / 2.0 ** j
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * sum(w * d.survival(mid + half * u)
                            for u, w in zip(nodes, weights))
    return total


def weibull_censored_sample(n, shape, scale, censored_share, seed):
    """Seeded Weibull sample under independent Weibull censoring.

    The censoring scale is chosen so that P(censored) equals
    ``censored_share`` exactly (same shape => proportional hazards).
    """
    rng = np.random.default_rng(seed)
    t = scale * (-np.log(rng.uniform(size=n))) ** (1.0 / shape)
    if censored_share > 0.0:
        ratio = censored_share / (1.0 - censored_share)
        censor_scale = scale * ratio ** (-1.0 / shape)
        c = censor_scale * (-np.log(rng.uniform(size=n))) ** (1.0 / shape)
        event = (t <= c).astype(float)
        time = np.minimum(t, c)
    else:
        event = np.ones(n)
        time = t
    return time, event


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def compiled_kernels():
    """The compiled kernel module, or None when there is no way to get one.

    The installed/in-place ``mrlife._ckernels`` when it imports; otherwise
    ``src/mrlife/_ckernels.c`` built with gcc by ``perfbench/ckernels.py``
    (into the ignored ``perfbench/out/build/``).  None only without gcc; a
    failing build is an error, not a skip.
    """
    try:
        from mrlife import _ckernels
        return _ckernels
    except ImportError:
        pass
    if shutil.which("gcc") is None:
        return None
    spec = importlib.util.spec_from_file_location(
        "perfbench_ckernels", ROOT / "perfbench" / "ckernels.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    return builder.load()


@pytest.fixture(scope="session")
def kernel_modules(compiled_kernels):
    """specfun and, directly, each kernel twin it can select."""
    return [m for m in (specfun, _pykernels, compiled_kernels) if m is not None]
