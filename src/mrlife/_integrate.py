"""Adaptive tail integration of survival curves: the engine of
``residual.mrl_quadrature_oracle``.

No distribution uses it; every family's mean residual life is a closed
form.  It is imported only when the oracle runs, since it pulls in scipy.
"""
import math
import warnings

try:
    from scipy.integrate import IntegrationWarning, quad
except ImportError as exc:
    raise ImportError("mrl_quadrature_oracle needs scipy: "
                      "pip install mrlife[oracle]") from exc

_INF = float("inf")
_NAN = float("nan")


def conditional_survival_integral(dist, x):
    """int_x^inf S(t)/S(x) dt, i.e. the mean residual life at x, by quadrature.

    The improper integral is mapped onto [0, 1) with t = x + u/(1-u) and
    handed to adaptive Gauss-Kronrod quadrature.  Integrating the
    conditional survival S(t)/S(x) = exp(ln S(t) - ln S(x)) keeps the
    integrand O(1) far into the tail where S itself underflows.

    Returns (value, converged); a non-convergent integral reports
    converged=False and the caller decides what to surface.
    """
    ln_sx = dist.ln_survival(x)
    if not ln_sx > -_INF:
        return _NAN, False

    def integrand(u):
        if u >= 1.0:
            return 0.0
        ln_st = dist.ln_survival(x + u / (1.0 - u))
        if ln_st == -_INF:
            return 0.0
        return math.exp(ln_st - ln_sx) / ((1.0 - u) * (1.0 - u))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            value, abserr = quad(integrand, 0.0, 1.0,
                                 epsabs=1e-12, epsrel=1e-11, limit=300)
        except Exception:
            return _NAN, False
    if not math.isfinite(value):
        return _NAN, False
    converged = abserr <= 1e-9 * max(1.0, abs(value))
    return value, converged

