/* Compiled special-function kernels.
 *
 * Hand-written C twin of ``_pykernels.py``: the same algorithms, constants
 * and branch points, function for function, so the two agree to within a
 * few ulp and the test suite cross-checks them.  ln Gamma comes from libm's
 * ``lgamma`` (the pure-Python twin uses CPython's ``math.lgamma``).  Keep the
 * two files in lockstep.  The incomplete gamma has one series, one continued
 * fraction and one complement ln(Gamma(a) - exp(ln_part)), the only place
 * ln Gamma(a) enters; E1(z) is Gamma(z, 0), so for z >= 1 it is that
 * fraction at a = 0.  Every helper returns its one value, or one ``pair``
 * (a value and its partial along a) by value; none writes through an
 * out-pointer.
 *
 * Build as a plain CPython extension, no code generator needed:
 *
 *     gcc -shared -fPIC -O2 -I <python include dir> _ckernels.c \
 *         -o _ckernels$(python3-config --extension-suffix) -lm
 *
 * (``setup.py`` does the same through setuptools.)  Every function takes
 * and returns floats and returns NaN on a domain violation instead of
 * raising.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define EPS 1e-16             /* relative term/sum stopping criterion */
#define FPMIN 1e-300          /* Lentz underflow guard */
#define MAX_ITER 1000         /* series / continued-fraction iteration cap */
#define MAX_2F1_TERMS 10000   /* hypergeometric power-series cap */

#define EULER_GAMMA 0.5772156649015328606
#define SQRT2 1.4142135623730950488
#define SQRT_2PI 2.5066282746310005024

/* Large-argument branch.  From x = 2**51 on, the continued fractions can
 * stall one ulp short of their stopping test (b += 2 stops changing b above
 * 2**53) and would return NaN.  There, with a <= x/1024, the asymptotic
 * series ln Gamma(x, a) = (a-1) ln x - x + ln(1 + (a-1)/x + ...) and
 * exp(z) E1(z) = (1 - 1/z + 2/z^2 - ...)/z answer instead (DiDonato & Morris
 * 1986, ACM TOMS 12(4); Numerical Recipes 3rd ed. 6.2-6.3); e^-x underflows
 * to 0, so the regularized values take their limits. */
#define BIG_X 2251799813685248.0  /* 2**51 */

static double ln_gamma(double a)
{
    if (!(a > 0.0) || isinf(a))
        return NAN;
    return lgamma(a);
}

/* psi(a) = d ln Gamma(a)/da for 0 < a < inf (NaN otherwise): the recurrence
 * psi(a) = psi(a + 1) - 1/a up to a >= 10, then the asymptotic series
 * through a**-14 (Abramowitz & Stegun 6.3.5, 6.3.18). */
static double digamma(double a)
{
    double shift = 0.0, w, tail;
    if (!(a > 0.0) || isinf(a))
        return NAN;
    while (a < 10.0) {
        shift += 1.0 / a;
        a += 1.0;
    }
    w = 1.0 / (a * a);
    tail = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0 - w / 12.0))))));
    return log(a) - 0.5 / a - tail - shift;
}

static double ln_beta(double a, double b)
{
    if (!(a > 0.0 && b > 0.0))
        return NAN;
    return lgamma(a) + lgamma(b) - lgamma(a + b);
}

/* ------------------------------------------------------------------------
 * incomplete gamma
 * ------------------------------------------------------------------------ */

/* ln gamma(x, a) by its power series, x < a + 1; NaN at the iteration cap. */
static double ln_lower_gamma_series(double x, double a)
{
    double ap = a;
    double delt = 1.0 / a;
    double total = delt;
    int i;
    for (i = 0; i < MAX_ITER; i++) {
        ap += 1.0;
        delt *= x / ap;
        total += delt;
        if (fabs(delt) < fabs(total) * EPS)
            return -x + a * log(x) + log(total);
    }
    return NAN;
}

/* A value and its partial along a. */
typedef struct {
    double value, d;
} pair;

static pair make_pair(double value, double d)
{
    pair p;
    p.value = value;
    p.d = d;
    return p;
}

/* (ln gamma(x, a), its partial along a) from the series, the value as
 * ln_lower_gamma_series gives it.  Term n, x**n/(a (a+1) ... (a+n)), has the
 * partial -term * (1/a + ... + 1/(a+n)); a harmonic sum carries those, and
 * the partials are summed on past the value's stop until one step is below
 * EPS of their sum.  Every term is positive.  NaN at the iteration cap. */
static pair ln_lower_gamma_series_da(double x, double a)
{
    double ap = a;
    double delt = 1.0 / a;
    double total = delt;
    double harmonic = delt;
    double d_sum = delt * harmonic;  /* minus the partial of total */
    double value, step;
    int i;
    for (i = 0; i < MAX_ITER; i++) {
        ap += 1.0;
        delt *= x / ap;
        harmonic += 1.0 / ap;
        total += delt;
        d_sum += delt * harmonic;
        if (delt < total * EPS)
            break;
    }
    if (i == MAX_ITER)
        return make_pair(NAN, NAN);
    value = -x + a * log(x) + log(total);
    for (i++; i < MAX_ITER; i++) {
        ap += 1.0;
        delt *= x / ap;
        harmonic += 1.0 / ap;
        step = delt * harmonic;
        d_sum += step;
        if (!(step > d_sum * EPS))
            return make_pair(value, log(x) - d_sum / total);
    }
    return make_pair(value, NAN);
}

/* Lentz continued fraction h = exp(x) x**-a Gamma(x, a), x >= a + 1 or
 * a = 0; NaN at the iteration cap.  At a = 0 it is exp(z) E1(z). */
static double gamma_cf(double x, double a)
{
    double b = x + 1.0 - a;
    double c = 1.0 / FPMIN;
    double d = 1.0 / b;
    double h = d;
    double an, delt;
    int i;
    for (i = 1; i <= MAX_ITER; i++) {
        an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (fabs(d) < FPMIN)
            d = FPMIN;
        c = b + an / c;
        if (fabs(c) < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        delt = d * c;
        h *= delt;
        if (fabs(delt - 1.0) < EPS)
            return h;
    }
    return NAN;
}

/* (h, d ln h/da) for the fraction of gamma_cf, a > 0: h has the bits
 * gamma_cf gives; the partial sums d ln(delt)/da = C'/C - D'/D of each Lentz
 * factor delt = C/D, with b' = -1 and an' = i, until that step is below EPS
 * of the sum (Moore 1982, Appl. Stat. AS 187).  NaN at the iteration cap. */
static pair gamma_cf_da(double x, double a)
{
    double b = x + 1.0 - a;
    double c = 1.0 / FPMIN;
    double d = 1.0 / b;
    double h = d;
    double d_log_c = 0.0;   /* c'/c */
    double d_log_d = d;     /* d'/d */
    double d_log_h = d_log_d;
    double value = NAN, an, d_den, d_num, step, delt;
    int done = 0, i;
    for (i = 1; i <= MAX_ITER; i++) {
        an = -i * (i - a);
        b += 2.0;
        d_den = d * (i + an * d_log_d) - 1.0;   /* D' for D = an d + b */
        d = an * d + b;
        if (fabs(d) < FPMIN)
            d = FPMIN;
        d_num = -1.0 + (i - an * d_log_c) / c;  /* C' for C = b + an/c */
        c = b + an / c;
        if (fabs(c) < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        d_log_d = -d_den * d;
        d_log_c = d_num / c;
        step = d_log_c + d_log_d;
        d_log_h += step;
        if (!done) {
            delt = d * c;
            h *= delt;
            if (fabs(delt - 1.0) < EPS) {
                value = h;
                done = 1;
            }
        }
        if (done && !(fabs(step) > fabs(d_log_h) * EPS))
            return make_pair(value, d_log_h);
    }
    return make_pair(value, NAN);
}

/* ln Gamma(x, a) for x >= a + 1: the continued fraction, or from x = BIG_X
 * on with a <= x/1024 its asymptotic series. */
static double ln_upper_gamma_cf(double x, double a)
{
    double term = 1.0, total = 1.0, n = 1.0;
    if (x >= BIG_X && a <= x / 1024.0) {
        if (x == INFINITY)
            return -INFINITY;
        while (fabs(term) > 1e-17 * total) {  /* each term is <= 1/1024 of the last */
            term *= (a - n) / x;
            total += term;
            n += 1.0;
        }
        return (a - 1.0) * log(x) - x + log(total);
    }
    return -x + a * log(x) + log(gamma_cf(x, a));
}

/* (ln Gamma(x, a), its partial along a) for x >= a + 1, on the branches of
 * ln_upper_gamma_cf; the asymptotic series' terms prod (a - j)/x have the
 * partials term' = (term_prev' (a - n) + term_prev)/x. */
static pair ln_upper_gamma_cf_da(double x, double a)
{
    double term = 1.0, total = 1.0, n = 1.0;
    double d_term = 0.0, d_total = 0.0, value = NAN;
    int done = 0;
    pair h;
    if (x >= BIG_X && a <= x / 1024.0) {
        if (x == INFINITY)
            return make_pair(-INFINITY, INFINITY);
        for (;;) {
            d_term = (d_term * (a - n) + term) / x;
            d_total += d_term;
            term *= (a - n) / x;
            if (!done) {
                total += term;
                if (!(fabs(term) > 1e-17 * total)) {
                    value = (a - 1.0) * log(x) - x + log(total);
                    done = 1;
                }
            }
            n += 1.0;
            if (done && !(fabs(d_term) > 1e-17 * fabs(d_total)))
                return make_pair(value, log(x) + d_total / total);
        }
    }
    h = gamma_cf_da(x, a);
    return make_pair(-x + a * log(x) + log(h.value), log(x) + h.d);
}

/* ln(Gamma(a) - exp(ln_part)), the other incomplete gamma; NaN unless
 * exp(ln_part) < Gamma(a). */
static double ln_gamma_complement(double ln_part, double a)
{
    double ln_gamma_a = lgamma(a);
    double ratio = exp(ln_part - ln_gamma_a);
    if (!(ratio < 1.0))
        return NAN;
    return ln_gamma_a + log1p(-ratio);
}

/* (ln(Gamma(a) - exp(ln_part)), its partial along a), given part.d, the
 * partial of ln_part = part.value: (psi(a) - r part.d)/(1 - r) with
 * r = exp(ln_part)/Gamma(a).  The value has the bits of ln_gamma_complement. */
static pair ln_gamma_complement_da(pair part, double a)
{
    double ln_gamma_a = lgamma(a);
    double ratio = exp(part.value - ln_gamma_a);
    double psi;
    if (!(ratio < 1.0))
        return make_pair(NAN, NAN);
    psi = digamma(a);
    if (ratio == 0.0)  /* part.d may be infinite there */
        return make_pair(ln_gamma_a, psi);
    return make_pair(ln_gamma_a + log1p(-ratio), (psi - ratio * part.d) / (1.0 - ratio));
}

/* ln Gamma(x, a), the unnormalized upper incomplete gamma in log scale. */
static double ln_upper_inc_gamma(double x, double a)
{
    if (!(x >= 0.0 && a > 0.0))
        return NAN;
    if (x == 0.0)
        return lgamma(a);
    if (x < a + 1.0)
        return ln_gamma_complement(ln_lower_gamma_series(x, a), a);
    return ln_upper_gamma_cf(x, a);
}

/* ln gamma(x, a), the unnormalized lower incomplete gamma in log scale. */
static double ln_lower_inc_gamma(double x, double a)
{
    if (!(x >= 0.0 && a > 0.0))
        return NAN;
    if (x == 0.0)
        return -INFINITY;
    if (x < a + 1.0)
        return ln_lower_gamma_series(x, a);
    return ln_gamma_complement(ln_upper_gamma_cf(x, a), a);
}

/* (ln Gamma(x, a), d ln Gamma(x, a)/da); the value has the bits of
 * ln_upper_inc_gamma. */
static pair ln_upper_inc_gamma_da(double x, double a)
{
    if (!(x >= 0.0 && a > 0.0))
        return make_pair(NAN, NAN);
    if (x == 0.0)
        return make_pair(lgamma(a), digamma(a));
    if (x < a + 1.0) {
        if (a < 0.2 && x >= 0.3)
            /* the complement's 1 - r keeps only the absolute rounding of
             * ln r, and its partial scales that by ~1/a: 1.5e-12 off at
             * a = 0.05, x = 1, against 1e-13 at a = 0.2.  From x = 0.3 the
             * fraction converges within ~300 steps and gives the partial
             * directly */
            return make_pair(ln_gamma_complement(ln_lower_gamma_series(x, a), a),
                             ln_upper_gamma_cf_da(x, a).d);
        return ln_gamma_complement_da(ln_lower_gamma_series_da(x, a), a);
    }
    return ln_upper_gamma_cf_da(x, a);
}

/* (ln gamma(x, a), d ln gamma(x, a)/da); the value has the bits of
 * ln_lower_inc_gamma. */
static pair ln_lower_inc_gamma_da(double x, double a)
{
    if (!(x >= 0.0 && a > 0.0))
        return make_pair(NAN, NAN);
    if (x == 0.0)
        return make_pair(-INFINITY, -INFINITY);
    if (x < a + 1.0)
        return ln_lower_gamma_series_da(x, a);
    return ln_gamma_complement_da(ln_upper_gamma_cf_da(x, a), a);
}

/* Unnormalized upper incomplete gamma Gamma(x, a) = int_x^inf t^(a-1) e^-t dt. */
static double upper_inc_gamma(double x, double a)
{
    double v = ln_upper_inc_gamma(x, a);
    if (isnan(v))
        return NAN;
    return exp(v);
}

/* ------------------------------------------------------------------------
 * exponential integral E1
 * ------------------------------------------------------------------------ */

/* exp(z)*E1(z) for z >= 1: the incomplete-gamma fraction at a = 0. */
static double e1_scaled_cf(double z)
{
    if (z >= BIG_X)
        return (1.0 - 1.0 / z) / z;
    return gamma_cf(z, 0.0);
}

/* Convergent small-z series for E1(z), z < 1. */
static double e1_series(double z)
{
    double total = -EULER_GAMMA - log(z);
    double term = 1.0;
    double contrib;
    int k;
    for (k = 1; k <= MAX_ITER; k++) {
        term *= -z / k;
        contrib = -term / k;
        total += contrib;
        if (fabs(contrib) < fabs(total) * EPS)
            return total;
    }
    return NAN;
}

/* Exponential integral E1(z) = int_z^inf t^-1 e^-t dt for z > 0. */
static double exp_integral_e1(double z)
{
    if (!(z > 0.0))
        return NAN;
    if (z < 1.0)
        return e1_series(z);
    return exp(-z) * e1_scaled_cf(z);
}

/* exp(z) * E1(z); stays representable for large z. */
static double exp_integral_e1_scaled(double z)
{
    if (!(z > 0.0))
        return NAN;
    if (z < 1.0)
        return exp(z) * e1_series(z);
    return e1_scaled_cf(z);
}

/* ------------------------------------------------------------------------
 * regularized incomplete beta
 * ------------------------------------------------------------------------ */

/* Lentz continued fraction for the incomplete beta (NR 'betacf'). */
static double betacf(double x, double a, double b)
{
    double qab = a + b;
    double qap = a + 1.0;
    double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    double h, aa, delt;
    int m, m2;
    if (fabs(d) < FPMIN)
        d = FPMIN;
    d = 1.0 / d;
    h = d;
    for (m = 1; m <= MAX_ITER; m++) {
        m2 = 2 * m;
        aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (fabs(d) < FPMIN)
            d = FPMIN;
        c = 1.0 + aa / c;
        if (fabs(c) < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (fabs(d) < FPMIN)
            d = FPMIN;
        c = 1.0 + aa / c;
        if (fabs(c) < FPMIN)
            c = FPMIN;
        d = 1.0 / d;
        delt = d * c;
        h *= delt;
        if (fabs(delt - 1.0) < EPS)
            return h;
    }
    return NAN;
}

/* ln I_x(a, b) on the branch where the continued fraction converges fast. */
static double ln_inc_beta_direct(double x, double a, double b)
{
    double cf = betacf(x, a, b);
    if (isnan(cf) || cf <= 0.0)
        return NAN;
    return (-ln_beta(a, b) + a * log(x) + b * log1p(-x)
            + log(cf) - log(a));
}

/* Regularized incomplete beta I_x(a, b) for 0 <= x <= 1, a, b > 0. */
static double reg_inc_beta(double x, double a, double b)
{
    if (!(0.0 <= x && x <= 1.0 && a > 0.0 && b > 0.0))
        return NAN;
    if (x == 0.0)
        return 0.0;
    if (x == 1.0)
        return 1.0;
    if (x < (a + 1.0) / (a + b + 2.0))
        return exp(ln_inc_beta_direct(x, a, b));
    return 1.0 - exp(ln_inc_beta_direct(1.0 - x, b, a));
}

/* ln I_x(a, b) in log scale; accurate for I_x down to the underflow floor. */
static double ln_reg_inc_beta(double x, double a, double b)
{
    double q;
    if (!(0.0 <= x && x <= 1.0 && a > 0.0 && b > 0.0))
        return NAN;
    if (x == 0.0)
        return -INFINITY;
    if (x == 1.0)
        return 0.0;
    if (x < (a + 1.0) / (a + b + 2.0))
        return ln_inc_beta_direct(x, a, b);
    q = exp(ln_inc_beta_direct(1.0 - x, b, a));
    if (!(q < 1.0))
        return NAN;
    return log1p(-q);
}

/* ------------------------------------------------------------------------
 * Gauss hypergeometric 2F1
 * ------------------------------------------------------------------------ */

/* Power series for 2F1; argument must satisfy |z| < 1. */
static double hyp2f1_series(double a, double b, double c, double z)
{
    double term = 1.0;
    double total = 1.0;
    int n;
    for (n = 0; n < MAX_2F1_TERMS; n++) {
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z;
        total += term;
        if (fabs(term) <= fabs(total) * EPS)
            return total;
    }
    return NAN;
}

/* 2F1(a, b; c; z) for c > b > 0, z <= 0: the power series on (-0.5, 0], the
 * Pfaff transformation z -> z/(z-1) below that. */
static double gauss_2f1(double a, double b, double c, double z)
{
    double w, s;
    if (!(c > b && b > 0.0) || z > 0.0 || isnan(a) || isnan(z))
        return NAN;
    if (z == 0.0)
        return 1.0;
    if (z > -0.5)
        return hyp2f1_series(a, b, c, z);
    w = z / (z - 1.0);
    s = hyp2f1_series(c - a, b, c, w);
    if (isnan(s))
        return NAN;
    return exp(-b * log1p(-z)) * s;
}

/* ------------------------------------------------------------------------
 * standard normal
 * ------------------------------------------------------------------------ */

/* ln(1 - Phi(z)); asymptotic tail expansion once erfc would underflow. */
static double ln_std_normal_sf(double z)
{
    double zz, corr;
    if (isnan(z))
        return NAN;
    if (z < 37.0)
        return log(0.5 * erfc(z / SQRT2));
    zz = z * z;
    corr = -1.0 / zz + 3.0 / (zz * zz) - 15.0 / (zz * zz * zz)
        + 105.0 / (zz * zz * zz * zz);
    return -0.5 * zz - log(z * SQRT_2PI) + log1p(corr);
}

/* Acklam's rational approximation to the normal quantile, then one Halley step. */
static const double QN_A[6] = {
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00};
static const double QN_B[5] = {
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01};
static const double QN_C[6] = {
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00};
static const double QN_D[4] = {
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00};
#define QN_PLOW 0.02425

/* Standard normal quantile; p=0 -> -inf, p=1 -> +inf, outside [0,1] -> NaN. */
static double std_normal_quantile(double p)
{
    const double *a = QN_A, *b = QN_B, *c = QN_C, *d = QN_D;
    double q, r, x, e, u;
    if (isnan(p) || p < 0.0 || p > 1.0)
        return NAN;
    if (p == 0.0)
        return -INFINITY;
    if (p == 1.0)
        return INFINITY;
    if (p < QN_PLOW) {
        q = sqrt(-2.0 * log(p));
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0));
    }
    else if (p <= 1.0 - QN_PLOW) {
        q = p - 0.5;
        r = q * q;
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0));
    }
    else {
        q = sqrt(-2.0 * log1p(-p));
        x = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0));
    }
    /* Halley refinement; skipped in the far tails where exp(x*x/2) overflows.
     * The residual is formed on whichever side of 0.5 keeps it cancellation
     * free (1-p is exact for p >= 0.5). */
    if (x * x < 1400.0) {
        if (p <= 0.5)
            e = 0.5 * erfc(-x / SQRT2) - p;
        else
            e = (1.0 - p) - 0.5 * erfc(x / SQRT2);
        u = e * SQRT_2PI * exp(x * x / 2.0);
        x -= u / (1.0 + x * u / 2.0);
    }
    return x;
}

/* ------------------------------------------------------------------------
 * Python bindings: one METH_FASTCALL wrapper per kernel
 * ------------------------------------------------------------------------ */

/* Convert exactly `want` positional arguments to doubles; -1 with an
 * exception set on a wrong count or a non-number. */
static inline int as_doubles(const char *name, PyObject *const *args,
                             Py_ssize_t nargs, Py_ssize_t want, double *out)
{
    Py_ssize_t i;
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd argument%s "
                     "(%zd given)", name, want, want == 1 ? "" : "s", nargs);
        return -1;
    }
    for (i = 0; i < want; i++) {
        PyObject *o = args[i];
        out[i] = PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

#define WRAP(fn, n, ...)                                                     \
    static PyObject *                                                        \
    py_##fn(PyObject *self, PyObject *const *args, Py_ssize_t nargs)         \
    {                                                                        \
        double v[n];                                                         \
        if (as_doubles(#fn, args, nargs, n, v) < 0)                          \
            return NULL;                                                     \
        return PyFloat_FromDouble(fn(__VA_ARGS__));                          \
    }

/* The same for a kernel that returns a pair: a tuple of two floats. */
#define WRAP_PAIR(fn, n, ...)                                                \
    static PyObject *                                                        \
    py_##fn(PyObject *self, PyObject *const *args, Py_ssize_t nargs)         \
    {                                                                        \
        double v[n];                                                         \
        pair r;                                                              \
        if (as_doubles(#fn, args, nargs, n, v) < 0)                          \
            return NULL;                                                     \
        r = fn(__VA_ARGS__);                                                 \
        return Py_BuildValue("(dd)", r.value, r.d);                          \
    }

WRAP(ln_gamma, 1, v[0])
WRAP(digamma, 1, v[0])
WRAP(ln_beta, 2, v[0], v[1])
WRAP(ln_upper_inc_gamma, 2, v[0], v[1])
WRAP(ln_lower_inc_gamma, 2, v[0], v[1])
WRAP_PAIR(ln_upper_inc_gamma_da, 2, v[0], v[1])
WRAP_PAIR(ln_lower_inc_gamma_da, 2, v[0], v[1])
WRAP(upper_inc_gamma, 2, v[0], v[1])
WRAP(exp_integral_e1, 1, v[0])
WRAP(exp_integral_e1_scaled, 1, v[0])
WRAP(reg_inc_beta, 3, v[0], v[1], v[2])
WRAP(ln_reg_inc_beta, 3, v[0], v[1], v[2])
WRAP(gauss_2f1, 4, v[0], v[1], v[2], v[3])
WRAP(ln_std_normal_sf, 1, v[0])
WRAP(std_normal_quantile, 1, v[0])

#define ENTRY(fn, doc) \
    {#fn, (PyCFunction)(void (*)(void))py_##fn, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    ENTRY(ln_gamma, "ln_gamma(a)\n--\n\nNatural log of the gamma function "
          "for a > 0 (NaN otherwise)."),
    ENTRY(digamma, "digamma(a)\n--\n\npsi(a) = d ln Gamma(a)/da for 0 < a < inf "
          "(NaN otherwise)."),
    ENTRY(ln_beta, "ln_beta(a, b)\n--\n\nln B(a, b) for a, b > 0 (NaN otherwise)."),
    ENTRY(ln_upper_inc_gamma, "ln_upper_inc_gamma(x, a)\n--\n\nln Gamma(x, a), "
          "the unnormalized upper incomplete gamma in log scale."),
    ENTRY(ln_lower_inc_gamma, "ln_lower_inc_gamma(x, a)\n--\n\nln gamma(x, a), "
          "the unnormalized lower incomplete gamma in log scale."),
    ENTRY(ln_upper_inc_gamma_da, "ln_upper_inc_gamma_da(x, a)\n--\n\n"
          "(ln Gamma(x, a), d ln Gamma(x, a)/da); the value has the bits of "
          "ln_upper_inc_gamma."),
    ENTRY(ln_lower_inc_gamma_da, "ln_lower_inc_gamma_da(x, a)\n--\n\n"
          "(ln gamma(x, a), d ln gamma(x, a)/da); the value has the bits of "
          "ln_lower_inc_gamma."),
    ENTRY(upper_inc_gamma, "upper_inc_gamma(x, a)\n--\n\nUnnormalized upper "
          "incomplete gamma Gamma(x, a) = int_x^inf t^(a-1) e^-t dt."),
    ENTRY(exp_integral_e1, "exp_integral_e1(z)\n--\n\nExponential integral "
          "E1(z) = int_z^inf t^-1 e^-t dt for z > 0."),
    ENTRY(exp_integral_e1_scaled, "exp_integral_e1_scaled(z)\n--\n\n"
          "exp(z) * E1(z); stays representable for large z."),
    ENTRY(reg_inc_beta, "reg_inc_beta(x, a, b)\n--\n\nRegularized incomplete "
          "beta I_x(a, b) for 0 <= x <= 1, a, b > 0."),
    ENTRY(ln_reg_inc_beta, "ln_reg_inc_beta(x, a, b)\n--\n\nln I_x(a, b) in log "
          "scale; accurate for I_x down to the underflow floor."),
    ENTRY(gauss_2f1, "gauss_2f1(a, b, c, z)\n--\n\n2F1(a, b; c; z) for the "
          "survival-ratio regime c > b > 0, z <= 0."),
    ENTRY(ln_std_normal_sf, "ln_std_normal_sf(z)\n--\n\nln(1 - Phi(z)); "
          "asymptotic tail expansion once erfc would underflow."),
    ENTRY(std_normal_quantile, "std_normal_quantile(p)\n--\n\nStandard normal "
          "quantile; p=0 -> -inf, p=1 -> +inf, outside [0,1] -> NaN."),
    {NULL, NULL, 0, NULL}
};

static int kernels_exec(PyObject *module)
{
    return PyModule_AddStringConstant(module, "BACKEND", "compiled");
}

static PyModuleDef_Slot kernel_slots[] = {
    {Py_mod_exec, kernels_exec},
    {0, NULL}
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "_ckernels",
    "Compiled special-function kernels; twin of ``_pykernels``.",
    0,
    kernel_methods,
    kernel_slots,
    NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    return PyModuleDef_Init(&kernels_module);
}
