"""Special-function kernel front end.

Selects the compiled extension (``mrlife._ckernels``) when it is
available and falls back to the pure-Python twin otherwise.  Set
``MRLIFE_PURE_PYTHON=1`` in the environment to force the fallback (the
benchmark and the backend cross-check tests use this).

Exported functions (identical in both backends):

``ln_gamma(a)``
    ln Gamma(a), a > 0.
``upper_inc_gamma(x, a)`` / ``ln_upper_inc_gamma(x, a)``
    Unnormalized upper incomplete gamma with the integral limit first:
    Gamma(x, a) = int_x^inf t^(a-1) e^-t dt.  Series for x < a+1,
    Lentz continued fraction for x >= a+1.
``ln_lower_inc_gamma(x, a)``, ``reg_lower_gamma(x, a)``, ``reg_upper_gamma(x, a)``
    Lower counterpart and the regularized P/Q pair.
``exp_integral_e1(z)`` / ``exp_integral_e1_scaled(z)``
    E1(z) and exp(z)*E1(z); series below z=1, continued fraction above.
``reg_inc_beta(x, a, b)`` / ``ln_reg_inc_beta(x, a, b)``, ``ln_beta(a, b)``
    Regularized incomplete beta I_x(a, b) and helpers.
``gauss_2f1(a, b, c, z)`` / ``ln_gauss_2f1(a, b, c, z)``
    Gauss hypergeometric for c > b > 0, z <= 0 (power series plus a
    Pfaff transformation for z <= -0.5).
``std_normal_cdf(z)``, ``ln_std_normal_sf(z)``, ``std_normal_quantile(p)``
    Standard normal CDF (via erfc), log survival, and quantile.

Every function is a pure function of its arguments and returns NaN on
domain violations rather than raising, so the kernels are safe to call
from any thread.
"""
import math
import os

if os.environ.get("MRLIFE_PURE_PYTHON", "").lower() in ("1", "true", "yes"):
    from . import _pykernels as _impl
else:
    try:
        from . import _ckernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _pykernels as _impl

BACKEND = _impl.BACKEND

ln_gamma = _impl.ln_gamma
ln_beta = _impl.ln_beta
reg_inc_beta = _impl.reg_inc_beta
ln_reg_inc_beta = _impl.ln_reg_inc_beta
gauss_2f1 = _impl.gauss_2f1
ln_gauss_2f1 = _impl.ln_gauss_2f1
std_normal_cdf = _impl.std_normal_cdf
ln_std_normal_sf = _impl.ln_std_normal_sf
std_normal_quantile = _impl.std_normal_quantile


def using_compiled_kernels():
    """True when the compiled extension is the active backend."""
    return BACKEND == "compiled"


# Large-argument branch.  From x = 2**51 on, the kernels' continued fractions
# can stall one ulp short of their stopping test and return NaN.  There, with
# 0 < a <= x/1024, ln Gamma(x, a) = (a-1) ln x - x + ln(1 + (a-1)/x + ...) and
# exp(z) E1(z) = (1 - 1/z + 2/z^2 - ...)/z (DiDonato & Morris 1986, ACM TOMS
# 12(4); Numerical Recipes 3rd ed. 6.2-6.3).  e^-x underflows to 0 there, so
# the other entry points take their limits.
_BIG_X = 2.0 ** 51


def _small_shape(x, a):
    return 0.0 < a <= x / 1024.0


def ln_upper_inc_gamma(x, a):
    if not (x >= _BIG_X and _small_shape(x, a)):
        return _impl.ln_upper_inc_gamma(x, a)
    if x == math.inf:
        return -math.inf
    term = total = 1.0
    n = 1.0
    while abs(term) > 1e-17 * total:  # each term is <= 1/1024 of the last
        term *= (a - n) / x
        total += term
        n += 1.0
    return (a - 1.0) * math.log(x) - x + math.log(total)


def ln_lower_inc_gamma(x, a):
    if x >= _BIG_X and _small_shape(x, a):
        return math.lgamma(a)
    return _impl.ln_lower_inc_gamma(x, a)


def upper_inc_gamma(x, a):
    if x >= _BIG_X and _small_shape(x, a):
        return 0.0
    return _impl.upper_inc_gamma(x, a)


def reg_upper_gamma(x, a):
    if x >= _BIG_X and _small_shape(x, a):
        return 0.0
    return _impl.reg_upper_gamma(x, a)


def reg_lower_gamma(x, a):
    if x >= _BIG_X and _small_shape(x, a):
        return 1.0
    return _impl.reg_lower_gamma(x, a)


def exp_integral_e1_scaled(z):
    if z >= _BIG_X:
        return (1.0 - 1.0 / z) / z
    return _impl.exp_integral_e1_scaled(z)


def exp_integral_e1(z):
    if z >= _BIG_X:
        return 0.0
    return _impl.exp_integral_e1(z)
