"""Pure-Python special-function kernels.

Fallback twin of the compiled ``_ckernels`` extension (hand-written C):
same algorithms, same constants, same branch points, function for
function, so results agree to within a few ulp and either backend can run
the full test suite.  ``specfun`` aliases one module's functions directly;
nothing sits in front of them, so every kernel fix goes into both twins.

Conventions shared by both backends:

* incomplete gamma uses the integral-limit-first argument order
  ``upper_inc_gamma(x, a) = int_x^inf t^(a-1) exp(-t) dt``;
* every function returns NaN on a domain violation instead of raising;
* ratios that can overflow are served through the ``ln_*`` variants.

All routines follow the classic series / continued-fraction regime
splits (Lentz's method for the continued fractions).  The incomplete gamma
has one series, one continued fraction and one complement
ln(Gamma(a) - exp(ln_part)), the only place ln Gamma(a) enters; E1(z) is
Gamma(z, 0), so for z >= 1 it is that fraction at a = 0.  Each helper
returns one value, on the log scale where the caller needs a log, or for
the ``_da`` kernels the pair (value, its partial along the shape a): each
piece differentiated forward and iterated until its own step is
negligible, the value keeping the bits of the plain kernel.

The public functions here are the kernel set that the ``specfun`` docstring
lists; the compiled twin and ``bench_kernels._KERNEL_NAMES`` name the same.
"""
import math

BACKEND = "python"

_EPS = 1e-16            # relative term/sum stopping criterion
_FPMIN = 1e-300         # Lentz underflow guard
_MAX_ITER = 1000        # series / continued-fraction iteration cap
_MAX_2F1_TERMS = 10000  # hypergeometric power-series cap

_EULER_GAMMA = 0.5772156649015328606
_SQRT2 = 1.4142135623730950488
_SQRT_2PI = 2.5066282746310005024

_NAN = float("nan")
_INF = float("inf")

# Large-argument branch.  From x = 2**51 on, the continued fractions can stall
# one ulp short of their stopping test (b += 2 stops changing b above 2**53)
# and would return NaN.  There, with a <= x/1024, the asymptotic series
# ln Gamma(x, a) = (a-1) ln x - x + ln(1 + (a-1)/x + ...) and
# exp(z) E1(z) = (1 - 1/z + 2/z^2 - ...)/z answer instead (DiDonato & Morris
# 1986, ACM TOMS 12(4); Numerical Recipes 3rd ed. 6.2-6.3); e^-x underflows
# to 0, so the regularized values take their limits.
_BIG_X = 2.0 ** 51


def ln_gamma(a):
    """Natural log of the gamma function for a > 0 (NaN otherwise)."""
    if not a > 0.0 or math.isinf(a):
        return _NAN
    return math.lgamma(a)


def digamma(a):
    """psi(a) = d ln Gamma(a)/da for 0 < a < inf (NaN otherwise): the
    recurrence psi(a) = psi(a + 1) - 1/a up to a >= 10, then the asymptotic
    series through a**-14 (Abramowitz & Stegun 6.3.5, 6.3.18)."""
    if not a > 0.0 or math.isinf(a):
        return _NAN
    shift = 0.0
    while a < 10.0:
        shift += 1.0 / a
        a += 1.0
    w = 1.0 / (a * a)
    tail = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0 - w / 12.0))))))
    return math.log(a) - 0.5 / a - tail - shift


def ln_beta(a, b):
    """ln B(a, b) for a, b > 0 (NaN otherwise)."""
    if not (a > 0.0 and b > 0.0):
        return _NAN
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

def _ln_lower_gamma_series(x, a):
    """ln gamma(x, a) by its power series, x < a + 1; NaN at the iteration cap."""
    ap = a
    delt = 1.0 / a
    total = delt
    for _ in range(_MAX_ITER):
        ap += 1.0
        delt *= x / ap
        total += delt
        if abs(delt) < abs(total) * _EPS:
            return -x + a * math.log(x) + math.log(total)
    return _NAN


def _ln_lower_gamma_series_da(x, a):
    """(ln gamma(x, a), its partial along a) from the series, the value as
    ``_ln_lower_gamma_series`` gives it.  Term n, x**n/(a (a+1) ... (a+n)),
    has the partial -term * (1/a + ... + 1/(a+n)); a harmonic sum carries
    those, and the partials are summed on past the value's stop until one
    step is below _EPS of their sum.  Every term is positive.  NaN at the
    iteration cap."""
    ap = a
    delt = 1.0 / a
    total = delt
    harmonic = delt
    d_sum = delt * harmonic  # minus the partial of total
    for i in range(_MAX_ITER):
        ap += 1.0
        delt *= x / ap
        harmonic += 1.0 / ap
        total += delt
        d_sum += delt * harmonic
        if delt < total * _EPS:
            break
    else:
        return _NAN, _NAN
    value = -x + a * math.log(x) + math.log(total)
    for _ in range(i + 1, _MAX_ITER):
        ap += 1.0
        delt *= x / ap
        harmonic += 1.0 / ap
        step = delt * harmonic
        d_sum += step
        if not step > d_sum * _EPS:
            return value, math.log(x) - d_sum / total
    return value, _NAN


def _gamma_cf(x, a):
    """Lentz continued fraction h = exp(x) x**-a Gamma(x, a), x >= a + 1 or
    a = 0; NaN at the iteration cap.  At a = 0 it is exp(z) E1(z)."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            return h
    return _NAN


def _gamma_cf_da(x, a):
    """(h, d ln h/da) for the fraction of ``_gamma_cf``, a > 0: h has the
    bits ``_gamma_cf`` gives; the partial sums d ln(delt)/da = C'/C - D'/D
    of each Lentz factor delt = C/D, with b' = -1 and an' = i, until that
    step is below _EPS of the sum (Moore 1982, Appl. Stat. AS 187).  NaN at
    the iteration cap."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    d_log_c = 0.0   # c'/c
    d_log_d = d     # d'/d
    d_log_h = d_log_d
    value = None
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d_den = d * (i + an * d_log_d) - 1.0   # D' for D = an d + b
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        d_num = -1.0 + (i - an * d_log_c) / c  # C' for C = b + an/c
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        d_log_d = -d_den * d
        d_log_c = d_num / c
        step = d_log_c + d_log_d
        d_log_h += step
        if value is None:
            delt = d * c
            h *= delt
            if abs(delt - 1.0) < _EPS:
                value = h
        if value is not None and not abs(step) > abs(d_log_h) * _EPS:
            return value, d_log_h
    return (_NAN if value is None else value), _NAN


def _ln_upper_gamma_cf(x, a):
    """ln Gamma(x, a) for x >= a + 1: the continued fraction, or from
    x = _BIG_X on with a <= x/1024 its asymptotic series."""
    if x >= _BIG_X and a <= x / 1024.0:
        if x == _INF:
            return -_INF
        term = total = 1.0
        n = 1.0
        while abs(term) > 1e-17 * total:  # each term is <= 1/1024 of the last
            term *= (a - n) / x
            total += term
            n += 1.0
        return (a - 1.0) * math.log(x) - x + math.log(total)
    return -x + a * math.log(x) + math.log(_gamma_cf(x, a))


def _ln_upper_gamma_cf_da(x, a):
    """(ln Gamma(x, a), its partial along a) for x >= a + 1, on the branches
    of ``_ln_upper_gamma_cf``; the asymptotic series' terms
    prod (a - j)/x have the partials term' = (term_prev' (a - n) + term_prev)/x."""
    if x >= _BIG_X and a <= x / 1024.0:
        if x == _INF:
            return -_INF, _INF
        term = total = 1.0
        d_term = d_total = 0.0
        n = 1.0
        value = None
        while True:
            d_term = (d_term * (a - n) + term) / x
            d_total += d_term
            term *= (a - n) / x
            if value is None:
                total += term
                if not abs(term) > 1e-17 * total:
                    value = (a - 1.0) * math.log(x) - x + math.log(total)
            n += 1.0
            if value is not None and not abs(d_term) > 1e-17 * abs(d_total):
                return value, math.log(x) + d_total / total
    h, d_log_h = _gamma_cf_da(x, a)
    return -x + a * math.log(x) + math.log(h), math.log(x) + d_log_h


def _ln_gamma_complement(ln_part, a):
    """ln(Gamma(a) - exp(ln_part)), the other incomplete gamma; NaN unless
    exp(ln_part) < Gamma(a)."""
    ln_gamma_a = math.lgamma(a)
    ratio = math.exp(ln_part - ln_gamma_a)
    if not ratio < 1.0:
        return _NAN
    return ln_gamma_a + math.log1p(-ratio)


def _ln_gamma_complement_da(ln_part, d_part, a):
    """(ln(Gamma(a) - exp(ln_part)), its partial along a), given d_part,
    the partial of ln_part: (psi(a) - r d_part)/(1 - r) with
    r = exp(ln_part)/Gamma(a).  The value has the bits of
    ``_ln_gamma_complement``."""
    ln_gamma_a = math.lgamma(a)
    ratio = math.exp(ln_part - ln_gamma_a)
    if not ratio < 1.0:
        return _NAN, _NAN
    psi = digamma(a)
    if ratio == 0.0:  # d_part may be infinite there
        return ln_gamma_a, psi
    return ln_gamma_a + math.log1p(-ratio), (psi - ratio * d_part) / (1.0 - ratio)


def ln_upper_inc_gamma(x, a):
    """ln Gamma(x, a), the unnormalized upper incomplete gamma in log scale."""
    if not (x >= 0.0 and a > 0.0):
        return _NAN
    if x == 0.0:
        return math.lgamma(a)
    if x < a + 1.0:
        return _ln_gamma_complement(_ln_lower_gamma_series(x, a), a)
    return _ln_upper_gamma_cf(x, a)


def ln_lower_inc_gamma(x, a):
    """ln gamma(x, a), the unnormalized lower incomplete gamma in log scale."""
    if not (x >= 0.0 and a > 0.0):
        return _NAN
    if x == 0.0:
        return -_INF
    if x < a + 1.0:
        return _ln_lower_gamma_series(x, a)
    return _ln_gamma_complement(_ln_upper_gamma_cf(x, a), a)


def ln_upper_inc_gamma_da(x, a):
    """(ln Gamma(x, a), d ln Gamma(x, a)/da); the value has the bits of
    ``ln_upper_inc_gamma``."""
    if not (x >= 0.0 and a > 0.0):
        return _NAN, _NAN
    if x == 0.0:
        return math.lgamma(a), digamma(a)
    if x < a + 1.0:
        if a < 0.2 and x >= 0.3:
            # the complement's 1 - r keeps only the absolute rounding of
            # ln r, and its partial scales that by ~1/a: 1.5e-12 off at
            # a = 0.05, x = 1, against 1e-13 at a = 0.2.  From x = 0.3 the
            # fraction converges within ~300 steps and gives the partial
            # directly
            return (_ln_gamma_complement(_ln_lower_gamma_series(x, a), a),
                    _ln_upper_gamma_cf_da(x, a)[1])
        return _ln_gamma_complement_da(*_ln_lower_gamma_series_da(x, a), a)
    return _ln_upper_gamma_cf_da(x, a)


def ln_lower_inc_gamma_da(x, a):
    """(ln gamma(x, a), d ln gamma(x, a)/da); the value has the bits of
    ``ln_lower_inc_gamma``."""
    if not (x >= 0.0 and a > 0.0):
        return _NAN, _NAN
    if x == 0.0:
        return -_INF, -_INF
    if x < a + 1.0:
        return _ln_lower_gamma_series_da(x, a)
    return _ln_gamma_complement_da(*_ln_upper_gamma_cf_da(x, a), a)


def upper_inc_gamma(x, a):
    """Unnormalized upper incomplete gamma Gamma(x, a) = int_x^inf t^(a-1) e^-t dt."""
    v = ln_upper_inc_gamma(x, a)
    if math.isnan(v):
        return _NAN
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


# ---------------------------------------------------------------------------
# exponential integral E1
# ---------------------------------------------------------------------------

def _e1_scaled_cf(z):
    """exp(z)*E1(z) for z >= 1: the incomplete-gamma fraction at a = 0."""
    if z >= _BIG_X:
        return (1.0 - 1.0 / z) / z
    return _gamma_cf(z, 0.0)


def _e1_series(z):
    """Convergent small-z series for E1(z), z < 1."""
    total = -_EULER_GAMMA - math.log(z)
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        term *= -z / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < abs(total) * _EPS:
            return total
    return _NAN


def exp_integral_e1(z):
    """Exponential integral E1(z) = int_z^inf t^-1 e^-t dt for z > 0."""
    if not z > 0.0:
        return _NAN
    if z < 1.0:
        return _e1_series(z)
    h = _e1_scaled_cf(z)
    return math.exp(-z) * h


def exp_integral_e1_scaled(z):
    """exp(z) * E1(z); stays representable for large z."""
    if not z > 0.0:
        return _NAN
    if z < 1.0:
        return math.exp(z) * _e1_series(z)
    return _e1_scaled_cf(z)


# ---------------------------------------------------------------------------
# regularized incomplete beta
# ---------------------------------------------------------------------------

def _betacf(x, a, b):
    """Lentz continued fraction for the incomplete beta (NR 'betacf')."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            return h
    return _NAN


def _ln_inc_beta_direct(x, a, b):
    """ln I_x(a, b) on the branch where the continued fraction converges fast."""
    cf = _betacf(x, a, b)
    if math.isnan(cf) or cf <= 0.0:
        return _NAN
    return (-ln_beta(a, b) + a * math.log(x) + b * math.log1p(-x)
            + math.log(cf) - math.log(a))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for 0 <= x <= 1, a, b > 0."""
    if not (0.0 <= x <= 1.0 and a > 0.0 and b > 0.0):
        return _NAN
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(_ln_inc_beta_direct(x, a, b))
    return 1.0 - math.exp(_ln_inc_beta_direct(1.0 - x, b, a))


def ln_reg_inc_beta(x, a, b):
    """ln I_x(a, b) in log scale; accurate for I_x down to the underflow floor."""
    if not (0.0 <= x <= 1.0 and a > 0.0 and b > 0.0):
        return _NAN
    if x == 0.0:
        return -_INF
    if x == 1.0:
        return 0.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _ln_inc_beta_direct(x, a, b)
    q = math.exp(_ln_inc_beta_direct(1.0 - x, b, a))
    if not q < 1.0:
        return _NAN
    return math.log1p(-q)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1
# ---------------------------------------------------------------------------

def _hyp2f1_series(a, b, c, z):
    """Power series for 2F1; argument must satisfy |z| < 1."""
    term = 1.0
    total = 1.0
    for n in range(_MAX_2F1_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= abs(total) * _EPS:
            return total
    return _NAN


def gauss_2f1(a, b, c, z):
    """2F1(a, b; c; z) for the survival-ratio regime c > b > 0, z <= 0.

    The power series is summed directly for z in (-0.5, 0]; for z <= -0.5 the
    Pfaff transformation z -> z/(z-1) maps the argument into (0, 1) first.
    The direct-series window stops at -0.5 rather than -1 because alternating
    sums with large parameter values lose too many digits near z = -1.
    """
    if not (c > b > 0.0) or z > 0.0 or math.isnan(a) or math.isnan(z):
        return _NAN
    if z == 0.0:
        return 1.0
    if z > -0.5:
        return _hyp2f1_series(a, b, c, z)
    w = z / (z - 1.0)
    s = _hyp2f1_series(c - a, b, c, w)
    if math.isnan(s):
        return _NAN
    return math.exp(-b * math.log1p(-z)) * s


# ---------------------------------------------------------------------------
# standard normal
# ---------------------------------------------------------------------------

def ln_std_normal_sf(z):
    """ln(1 - Phi(z)); asymptotic tail expansion once erfc would underflow."""
    if math.isnan(z):
        return _NAN
    if z < 37.0:
        return math.log(0.5 * math.erfc(z / _SQRT2))
    zz = z * z
    corr = -1.0 / zz + 3.0 / (zz * zz) - 15.0 / (zz * zz * zz) \
        + 105.0 / (zz * zz * zz * zz)
    return -0.5 * zz - math.log(z * _SQRT_2PI) + math.log1p(corr)


# Acklam's rational approximation to the normal quantile, then one Halley step.
_QN_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QN_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_QN_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QN_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
_QN_PLOW = 0.02425


def std_normal_quantile(p):
    """Standard normal quantile; p=0 -> -inf, p=1 -> +inf, outside [0,1] -> NaN."""
    if math.isnan(p) or p < 0.0 or p > 1.0:
        return _NAN
    if p == 0.0:
        return -_INF
    if p == 1.0:
        return _INF
    a, b, c, d = _QN_A, _QN_B, _QN_C, _QN_D
    if p < _QN_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    elif p <= 1.0 - _QN_PLOW:
        q = p - 0.5
        r = q * q
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    # Halley refinement; skipped in the far tails where exp(x*x/2) overflows.
    # The residual is formed on whichever side of 0.5 keeps it cancellation
    # free (1-p is exact for p >= 0.5).
    if x * x < 1400.0:
        if p <= 0.5:
            e = 0.5 * math.erfc(-x / _SQRT2) - p
        else:
            e = (1.0 - p) - 0.5 * math.erfc(x / _SQRT2)
        u = e * _SQRT_2PI * math.exp(x * x / 2.0)
        x -= u / (1.0 + x * u / 2.0)
    return x
