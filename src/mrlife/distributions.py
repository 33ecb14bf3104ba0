"""Parametric survival distributions with closed-form mean residual life.

Ten families are supported, keyed by the tag strings used throughout the
package and the CLI::

    exponential    rate
    weibull        shape, scale
    gamma          shape, rate   (shape, scale also accepted)
    gompertz       shape, rate
    lnorm          meanlog, sdlog
    llogis         shape, scale
    gengamma.orig  shape, scale, k
    gengamma       mu, sigma, Q
    genf.orig      mu, sigma, s1, s2
    genf           mu, sigma, Q, P

Every distribution object exposes ``pdf``, ``cdf``, ``survival``,
``ln_survival``, ``quantile``, ``isf``, ``mean`` and ``mrl``.  Each family
defines three formulas, ``ln_group_scores``, ``ln_survival`` and ``_mrl``.
``ln_group_scores`` states the family's log-likelihood row once and scores
every row of one distribution in one call: ln f(t) for an event or ln S(t)
when censored, and the sums fitting needs of the rows' location scores,
their curvatures and, for the gamma-power core, their partials along the
shape k.  ``ln_term_scores`` is its one-row view and ``ln_pdf`` the event
term of that, and ``pdf`` and ``survival`` are the exponentials of
``ln_pdf`` and ``ln_survival``.  The mean residual
life ``mrl(x)`` is the closed form E[T; T > x]/S(x) - x, in log space;
``mrl`` takes ln S(x) once and hands it to ``_mrl`` as the denominator.
The exponential is the Gompertz at shape 0 and takes its formulas.  Beyond
gompertz and lnorm, T is a power of a gamma or of a beta-prime variable,
and one of two family cores, ``_GammaPower`` and ``_BetaPrimePower``,
carries every method; each family on them only maps its parameters.
When the survival probability at ``x`` underflows to zero the result is
NaN (the same degenerate rows a double-precision reference produces).
``pdf`` is 0 at t = inf and takes its limit at t = 0 (0, finite or
+inf).  Distribution objects are immutable after construction and all
methods are pure, so instances are safe to share across threads.
"""
import math
from typing import NamedTuple

from . import specfun as sf

_INF = float("inf")
_NAN = float("nan")
_LN_2 = 0.69314718055994530942
_LN_2PI = 1.8378770664093454836


class ParameterError(ValueError):
    """Bad distribution tag, parameter names, or parameter values."""

    def __init__(self, message, code="bad_parameters"):
        super().__init__(message)
        self.code = code


def _log(x):
    """log with C semantics: log(0) = -inf, log(x<0) = NaN."""
    if x > 0.0:
        return math.log(x)
    if x == 0.0:
        return -_INF
    return _NAN


def _exp(y):
    """exp that saturates to inf/0 instead of raising."""
    if y != y:
        return _NAN
    if y > 709.0:
        return _INF
    if y < -746.0:
        return 0.0
    return math.exp(y)


def _softplus(y):
    """log(1 + exp(y)) without overflow."""
    if y > 0.0:
        return y + math.log1p(_exp(-y))
    return math.log1p(_exp(y))


def _ln_pdf_limit(t, power, ln_coef):
    """ln f where its formula meets inf - inf: -inf at t = inf, where every
    density vanishes, and at t = 0 the limit of coef * t**power."""
    if t == 0.0:
        return -_INF if power > 0.0 else _INF if power < 0.0 else ln_coef
    return -_INF if t == _INF else _NAN


class Distribution:
    """Shared machinery for the parametric families."""

    tag = ""
    param_names = ()

    def params(self):
        """Named parameter values, in canonical order."""
        return {name: getattr(self, self._attr(name)) for name in self.param_names}

    @staticmethod
    def _attr(name):
        return name.lower()

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other):
        return type(other) is type(self) and other.params() == self.params()

    def __hash__(self):
        return hash((self.tag, tuple(self.params().items())))

    # -- densities and probabilities ------------------------------------

    def pdf(self, t):
        """Density at t >= 0; its limit at t = 0, and 0 at t = inf."""
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        return _exp(self.ln_pdf(t))

    def cdf(self, t):
        """P(T <= t); exact complement of survival()."""
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        return 1.0 - self.survival(t)

    def survival(self, t):
        """P(T > t), the exponential of ln_survival."""
        return _exp(self.ln_survival(t))

    def ln_survival(self, t):
        raise NotImplementedError

    def ln_pdf(self, t):
        """ln f(t): the event term of ``ln_term_scores``."""
        return self.ln_term_scores(t, 1.0)[0]

    def ln_term_scores(self, t, event):
        """One row's log-likelihood term, its location score and its shape
        score: the one-row view of ``ln_group_scores``."""
        terms, sums = self.ln_group_scores((t,), (_log(t),), (event,))
        return terms[0], sums[0], sums[2]

    def ln_group_scores(self, times, ln_times, events):
        """The log-likelihood terms of rows drawn from this distribution,
        and sums of their scores: the one place a family states ln f.

        ``ln_times`` holds ln t of each of ``times``.  Returns
        ``(terms, sums)``.  A term is ln f(t) for an event, which ``ln_pdf``
        reads off, and ln S(t), with the bits of ``ln_survival``, when
        censored.  ``sums`` is the six sums over the rows of s, ln t * s,
        the shape score, c, ln t * c and (ln t)**2 * c, each taken in row
        order.  The location score s is a term's partial with respect to
        ln s, where the family is a law of t/s: s is scale, exp(mu),
        exp(meanlog) or 1/rate.  That is -(1 + d ln f/d ln t) for an
        event and, censored, t h(t) = exp(ln f + ln t - ln S), the slope of
        the cumulative hazard in ln t (Kalbfleisch & Prentice 2002, ch. 3).
        Its curvature c is ds/d ln s; a censored row's is s (s_e - s), s_e
        being the event score at the same t.  The shape score is the
        gamma-power core's partial along k plus psi(k) (see
        ``_GammaPower``), and 0 for the other families.
        """
        raise NotImplementedError

    # -- quantiles -------------------------------------------------------

    def quantile(self, p):
        """Inverse CDF; p=0 gives 0 and p=1 gives +inf."""
        if not 0.0 <= p <= 1.0 or p != p:
            raise ValueError("p must lie in [0, 1]")
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return _INF
        return self._isf_from_ln(math.log1p(-p))

    def isf(self, s):
        """Inverse survival function: the t with survival(t) = s."""
        if not 0.0 <= s <= 1.0 or s != s:
            raise ValueError("s must lie in [0, 1]")
        if s == 1.0:
            return 0.0
        if s == 0.0:
            return _INF
        return self._isf_from_ln(math.log(s))

    def _pivot(self):
        """Positive scale guess used to bracket quantile root-finds."""
        return 1.0

    def _isf_from_ln(self, ln_target):
        # Bracketing bisection on ln(t): ln_survival is monotone decreasing.
        # A bracket end in a NaN band is flagged, and NaN midpoints move it
        # until a finite one on its side of the target clears the flag.  An
        # end still flagged at the close, or a NaN midpoint while neither
        # is, gives NaN, not a root made up from the pivot.  So does a
        # pivot of 0 or inf, which no bracket can grow from.
        lo = hi = self._pivot()
        if not 0.0 < hi < _INF:
            return _NAN
        while (ln_s := self.ln_survival(hi)) > ln_target:
            hi *= 8.0
            if hi > 1e300:
                return _INF
        nan_hi = ln_s != ln_s
        while (ln_s := self.ln_survival(lo)) <= ln_target:
            lo /= 8.0
            if lo < 1e-300:
                return 0.0
        nan_lo = ln_s != ln_s
        ln_lo, ln_hi = math.log(lo), math.log(hi)
        for _ in range(200):
            ln_mid = 0.5 * (ln_lo + ln_hi)
            ln_s = self.ln_survival(math.exp(ln_mid))
            if ln_s > ln_target or (nan_lo and ln_s != ln_s):
                ln_lo, nan_lo = ln_mid, ln_s != ln_s
            elif ln_s <= ln_target or nan_hi:
                ln_hi, nan_hi = ln_mid, ln_s != ln_s
            else:
                return _NAN
            if ln_hi - ln_lo < 4e-16 * max(1.0, abs(ln_hi)):
                break
        if nan_lo or nan_hi:
            return _NAN
        return math.exp(0.5 * (ln_lo + ln_hi))

    # -- moments and residual life ----------------------------------------

    def mean(self):
        """E[T], the mean residual life at 0; NaN where T has no mean."""
        return self._mrl(0.0, 0.0)

    def mrl(self, x):
        """Mean residual life at x >= 0; mean() at 0, NaN once survival(x) underflows."""
        if x < 0.0 or x != x:
            raise ValueError("x must be nonnegative")
        if x == 0.0:
            return self.mean()
        ln_sx = self.ln_survival(x)
        if _exp(ln_sx) <= 0.0:
            return _NAN
        return self._mrl(x, ln_sx)

    def _mrl(self, x, ln_sx):
        """E[T; T > x]/S(x) - x, given ln S(x) as ``ln_sx``."""
        raise NotImplementedError


class _GammaPower(Distribution):
    """T = scale * G**(1/b) with G ~ Gamma(k); z = (t/scale)**b is G at T = t.

    For b > 0, T > t is G > z, so S(t) = Gamma(z, k)/Gamma(k) and
    E[T; T > x] = scale * Gamma(z, k + 1/b)/Gamma(k).  For b < 0 it is
    G < z and the lower incomplete gamma replaces the upper one; T has no
    mean once k + 1/b <= 0.  z is written out in each method: a helper call
    costs more than the density itself.
    """

    _closed_survival = False  # S(t) = exp(-z) at k = 1 (the weibull)

    def __init__(self, ln_scale, k, b):
        self._ln_scale = ln_scale
        self._k = k
        self._b = b
        self._ln_gamma_k = sf.ln_gamma(k)
        self._ln_pdf_lead = math.log(abs(b)) - self._ln_gamma_k

    def ln_group_scores(self, times, ln_times, events):
        # one ln z and at most one kernel call per row.  With
        # ln f = ln|b| - ln Gamma(k) - ln t + k ln z - z, the shape score
        # (the partial along k plus psi(k)) is ln z for an event and the
        # kernel's partial along its shape when censored; the location
        # score is -b (k - z), with curvature -b**2 z, or t h(t) when
        # censored
        b, k, ln_scale, lead = self._b, self._k, self._ln_scale, self._ln_pdf_lead
        ln_gamma_k, closed = self._ln_gamma_k, self._closed_survival
        terms = []
        s_sum = s_ln_t = k_sum = c_sum = c_ln_t = c_ln_t2 = 0.0
        for t, ln_t, event in zip(times, ln_times, events):
            ln_z = b * (ln_t - ln_scale)
            z = _exp(ln_z)
            s_e = -b * (k - z)
            if event:
                term = lead - ln_t + k * ln_z - z
                if term != term:
                    # pdf ~ t**(kb - 1) at 0 for b > 0; exp(-z) wins for b < 0
                    term = _ln_pdf_limit(t, k * b - 1.0 if b > 0.0 else _INF,
                                         lead - k * b * ln_scale)
                s, k_score, c = s_e, ln_z, -b * b * z
            elif closed:  # t h(t) = b z, and s (s_e - s) = -b**2 z
                term, s, k_score, c = -z, b * z, 0.0, -b * b * z
            else:
                if b > 0.0:
                    ln_inc, k_score = sf.ln_upper_inc_gamma_da(z, k)
                else:
                    ln_inc, k_score = sf.ln_lower_inc_gamma_da(z, k)
                term = ln_inc - ln_gamma_k
                s = _exp(lead + k * ln_z - z - term)
                c = s * (s_e - s)
            terms.append(term)
            s_sum += s
            s_ln_t += ln_t * s
            k_sum += k_score
            c_sum += c
            c_ln_t += ln_t * c
            c_ln_t2 += ln_t * ln_t * c
        return terms, (s_sum, s_ln_t, k_sum, c_sum, c_ln_t, c_ln_t2)

    def ln_survival(self, t):
        z = _exp(self._b * (_log(t) - self._ln_scale))
        if self._b > 0.0:
            return sf.ln_upper_inc_gamma(z, self._k) - self._ln_gamma_k
        return sf.ln_lower_inc_gamma(z, self._k) - self._ln_gamma_k

    def _pivot(self):
        # T at G = k: shape/rate for the gamma, exp(mu) for the gengamma
        return _exp(self._ln_scale + math.log(self._k) / self._b)

    def _mrl(self, x, ln_sx):
        z = _exp(self._b * (_log(x) - self._ln_scale))
        g = self._k + 1.0 / self._b
        if self._b > 0.0:
            ln_tail = sf.ln_upper_inc_gamma(z, g)
        elif g > 0.0:
            ln_tail = sf.ln_lower_inc_gamma(z, g)
        else:
            return _NAN
        return _exp(self._ln_scale + ln_tail - (ln_sx + self._ln_gamma_k)) - x


class _BetaPrimePower(Distribution):
    """T = exp(mu) * (s2/s1 * u)**sigma with u ~ beta-prime(s1, s2).

    This is genf.orig's parameterization.  1/(1 + u) ~ Beta(s2, s1), so
    S(t) = I_v(s2, s1) with v = 1/(1 + u(t)), and
    E[T; T > x] = mean * I_v(s2 - sigma, s1 + sigma); T has no mean once
    s2 <= sigma.  u is written out in each method, as z is above.
    """

    def __init__(self, mu, sigma, s1, s2):
        self._mu = mu
        self._sigma = sigma
        self._s1 = s1
        self._s2 = s2
        self._ln_u0 = -mu / sigma + _log(s1 / s2)
        self._ln_beta = sf.ln_beta(s1, s2)
        self._ln_pdf_lead = -math.log(sigma) - self._ln_beta

    def ln_group_scores(self, times, ln_times, events):
        # one ln u gives ln f, d ln f/d ln t and the event score's curvature
        # -(s1 + s2) share (1 - share)/sigma**2; a censored row takes
        # ln_survival, so llogis keeps its closed form
        ln_u0, sigma, s1, lead = self._ln_u0, self._sigma, self._s1, self._ln_pdf_lead
        s12 = s1 + self._s2
        c_lead = -s12 / (sigma * sigma)
        ln_survival = self.ln_survival
        terms = []
        s_sum = s_ln_t = c_sum = c_ln_t = c_ln_t2 = 0.0
        for t, ln_t, event in zip(times, ln_times, events):
            ln_u = ln_u0 + ln_t / sigma
            ln_f = lead - ln_t + s1 * ln_u - s12 * _softplus(ln_u)
            if ln_f != ln_f:
                # pdf ~ t**(s1/sigma - 1) at 0
                ln_f = _ln_pdf_limit(t, s1 / sigma - 1.0, lead + s1 * ln_u0)
            u_inv = _exp(-ln_u)
            share = 1.0 / (1.0 + u_inv)  # u/(1+u); 1 - share is u_inv share
            s_e = -1.0 - (-1.0 + (s1 - s12 * share) / sigma)
            if event:
                term, s = ln_f, s_e
                c = c_lead * share * (1.0 - share if share < 0.5 else u_inv * share)
            else:
                term = ln_survival(t)
                s = _exp(ln_f + ln_t - term)
                c = s * (s_e - s)
            terms.append(term)
            s_sum += s
            s_ln_t += ln_t * s
            c_sum += c
            c_ln_t += ln_t * c
            c_ln_t2 += ln_t * ln_t * c
        return terms, (s_sum, s_ln_t, 0.0, c_sum, c_ln_t, c_ln_t2)

    def ln_survival(self, t):
        u = _exp(self._ln_u0 + _log(t) / self._sigma)
        return sf.ln_reg_inc_beta(1.0 / (1.0 + u), self._s2, self._s1)

    def _pivot(self):
        return _exp(self._mu)

    def _mrl(self, x, ln_sx):
        s1, s2, sigma = self._s1, self._s2, self._sigma
        if s2 <= sigma:
            return _NAN
        v = 1.0 / (1.0 + _exp(self._ln_u0 + _log(x) / sigma))
        # mean = exp(mu) * (s2/s1)^sigma * B(s1+sigma, s2-sigma) / B(s1, s2)
        ln_mean = (self._mu + sigma * math.log(s2 / s1)
                   + sf.ln_beta(s1 + sigma, s2 - sigma) - self._ln_beta)
        return _exp(ln_mean + sf.ln_reg_inc_beta(v, s2 - sigma, s1 + sigma)
                    - ln_sx) - x


class Weibull(_GammaPower):
    """Weibull lifetime with shape alpha and scale lambda: k = 1, b = shape."""

    tag = "weibull"
    param_names = ("shape", "scale")

    def __init__(self, shape, scale):
        self.shape = shape
        self.scale = scale
        super().__init__(math.log(scale), 1.0, shape)

    _closed_survival = True  # k is fixed at 1: S(t) = exp(-z) needs no kernel

    def ln_survival(self, t):
        # the z of the row term and _mrl, so mrl's tail over S(x) shares its rounding
        return -_exp(self._b * (_log(t) - self._ln_scale))

    def _isf_from_ln(self, ln_s):
        return self.scale * (-ln_s) ** (1.0 / self.shape)


class Gamma(_GammaPower):
    """Gamma lifetime with shape alpha and rate lambda (scale = 1/rate)."""

    tag = "gamma"
    param_names = ("shape", "rate")

    def __init__(self, shape, rate):
        self.shape = shape
        self.rate = rate
        super().__init__(-math.log(rate), shape, 1.0)


class Gompertz(Distribution):
    """Gompertz lifetime, hazard rate * exp(shape * t); shape may be any real."""

    tag = "gompertz"
    param_names = ("shape", "rate")

    def __init__(self, shape, rate):
        self.shape = shape
        self.rate = rate
        self._ln_rate = math.log(rate)

    def ln_group_scores(self, times, ln_times, events):
        # proportional hazards in rate: d ln S/d ln rate = ln S and
        # d ln f/d ln rate = 1 + ln S; s = 1/rate turns the sign, and ln S
        # is the curvature of both.  One ln S serves all, and
        # ln f = ln rate + shape t + ln S
        ln_survival, ln_rate, shape = self.ln_survival, self._ln_rate, self.shape
        terms = []
        s_sum = s_ln_t = c_sum = c_ln_t = c_ln_t2 = 0.0
        for t, ln_t, event in zip(times, ln_times, events):
            c = ln_survival(t)
            if event:
                term = ln_rate + shape * t + c
                if term != term:
                    term = _ln_pdf_limit(t, 0.0, ln_rate)
                s = -1.0 - c
            else:
                term, s = c, -c
            terms.append(term)
            s_sum += s
            s_ln_t += ln_t * s
            c_sum += c
            c_ln_t += ln_t * c
            c_ln_t2 += ln_t * ln_t * c
        return terms, (s_sum, s_ln_t, 0.0, c_sum, c_ln_t, c_ln_t2)

    def ln_survival(self, t):
        if self.shape == 0.0:
            return -self.rate * t
        arg = self.shape * t
        growth = math.expm1(arg) if arg < 709.0 else _INF
        return -(self.rate / self.shape) * growth

    def _isf_from_ln(self, ln_s):
        if self.shape == 0.0:
            return -ln_s / self.rate
        y = -(self.shape / self.rate) * ln_s
        if y <= -1.0:
            # shape < 0 leaves a survival plateau the target never crosses
            return _INF
        return math.log1p(y) / self.shape

    def _mrl(self, x, ln_sx):
        # exp(z) * E1(z) / shape with z = (rate/shape) * exp(shape*x)
        if self.shape < 0.0:
            return _NAN  # P(T = inf) > 0: no finite mean
        if self.shape == 0.0:
            return 1.0 / self.rate
        z = (self.rate / self.shape) * _exp(self.shape * x)
        return sf.exp_integral_e1_scaled(z) / self.shape


class Exponential(Gompertz):
    """Constant-hazard lifetime: the Gompertz at shape 0."""

    tag = "exponential"
    param_names = ("rate",)

    def __init__(self, rate):
        super().__init__(0.0, rate)


class LogNormal(Distribution):
    """Log-normal lifetime parameterized by meanlog and sdlog."""

    tag = "lnorm"
    param_names = ("meanlog", "sdlog")

    def __init__(self, meanlog, sdlog):
        self.meanlog = meanlog
        self.sdlog = sdlog
        self._ln_sdlog = math.log(sdlog)

    def ln_group_scores(self, times, ln_times, events):
        # one w = (ln t - meanlog)/sdlog gives the term and, for an event,
        # the location score w/sdlog, formed as -(1 + d ln f/d ln t), with
        # curvature -1/sdlog**2
        meanlog, sdlog, ln_sdlog = self.meanlog, self.sdlog, self._ln_sdlog
        c_event = -1.0 / (sdlog * sdlog)
        ln_survival = self.ln_survival
        terms = []
        s_sum = s_ln_t = c_sum = c_ln_t = c_ln_t2 = 0.0
        for t, ln_t, event in zip(times, ln_times, events):
            w = (ln_t - meanlog) / sdlog
            ln_f = (-_INF if w == -_INF
                    else -ln_t - ln_sdlog - 0.5 * _LN_2PI - 0.5 * w * w)
            s_e = -1.0 - (-1.0 - w / sdlog)
            if event:
                term, s, c = ln_f, s_e, c_event
            else:
                term = ln_survival(t)
                s = _exp(ln_f + ln_t - term)
                c = s * (s_e - s)
            terms.append(term)
            s_sum += s
            s_ln_t += ln_t * s
            c_sum += c
            c_ln_t += ln_t * c
            c_ln_t2 += ln_t * ln_t * c
        return terms, (s_sum, s_ln_t, 0.0, c_sum, c_ln_t, c_ln_t2)

    def ln_survival(self, t):
        if t <= 0.0:
            return 0.0
        return sf.ln_std_normal_sf((_log(t) - self.meanlog) / self.sdlog)

    def _isf_from_ln(self, ln_s):
        # Phi^-1 of whichever of S and 1 - S is below 1/2
        if ln_s < -_LN_2:
            w = -sf.std_normal_quantile(math.exp(ln_s))
        else:
            w = sf.std_normal_quantile(-math.expm1(ln_s))
        return _exp(self.meanlog + self.sdlog * w)

    def _mrl(self, x, ln_sx):
        shifted = (_log(x) - (self.meanlog + self.sdlog * self.sdlog)) / self.sdlog
        return _exp(self.meanlog + 0.5 * self.sdlog * self.sdlog
                    + sf.ln_std_normal_sf(shifted) - ln_sx) - x


class LogLogistic(_BetaPrimePower):
    """Log-logistic lifetime; the mean exists only for shape > 1.

    (t/scale)**shape ~ beta-prime(1, 1): s1 = s2 = 1 and sigma = 1/shape.
    """

    tag = "llogis"
    param_names = ("shape", "scale")

    def __init__(self, shape, scale):
        self.shape = shape
        self.scale = scale
        super().__init__(math.log(scale), 1.0 / shape, 1.0, 1.0)

    def ln_survival(self, t):
        return -_softplus(self.shape * _log(t / self.scale))

    def _isf_from_ln(self, ln_s):
        # the odds (t/scale)**shape are (1 - S)/S
        return _exp(math.log(self.scale)
                    + (_log(-math.expm1(ln_s)) - ln_s) / self.shape)


class GenGammaOrig(_GammaPower):
    """Three-parameter generalized gamma (shape b, scale a, k)."""

    tag = "gengamma.orig"
    param_names = ("shape", "scale", "k")

    def __init__(self, shape, scale, k):
        self.shape = shape
        self.scale = scale
        self.k = k
        super().__init__(math.log(scale), k, shape)


class GenGamma(_GammaPower):
    """Log-location generalized gamma (mu, sigma, Q), Q != 0.

    T = scale * G**(Q/sigma) with G ~ Gamma(k), k = Q^-2 and
    scale = exp(mu) * (Q^2)^(sigma/Q) (Cox et al. 2007; flexsurv).  For
    Q > 0 this is ``gengamma.orig`` with shape=Q/sigma; for Q < 0 the power
    is negative, so survival and the residual-life partial moment take the
    lower incomplete gamma.  The scale is kept as its logarithm, so no
    intermediate underflows for small |Q|.
    """

    tag = "gengamma"
    param_names = ("mu", "sigma", "Q")

    def __init__(self, mu, sigma, q):
        self.mu = mu
        self.sigma = sigma
        self.q = q
        super().__init__(mu + 2.0 * (sigma / q) * math.log(abs(q)), q ** -2, q / sigma)


class GenFOrig(_BetaPrimePower):
    """Four-parameter generalized F (mu, sigma, s1, s2).

    T = exp(mu) * (s2/s1 * u)**sigma with u ~ beta-prime(s1, s2), so the
    residual life is an incomplete-beta ratio; it is undefined (NaN)
    whenever s2 <= sigma, where the distribution has no mean.
    """

    tag = "genf.orig"
    param_names = ("mu", "sigma", "s1", "s2")

    def __init__(self, mu, sigma, s1, s2):
        self.mu = mu
        self.sigma = sigma
        self.s1 = s1
        self.s2 = s2
        super().__init__(mu, sigma, s1, s2)


class GenF(_BetaPrimePower):
    """Generalized F in the (mu, sigma, Q, P) parameterization, P > 0."""

    tag = "genf"
    param_names = ("mu", "sigma", "Q", "P")

    def __init__(self, mu, sigma, q, p):
        self.mu = mu
        self.sigma = sigma
        self.q = q
        self.p = p
        super().__init__(*convert_genf_to_orig(mu, sigma, q, p))


class GenGammaOrigParams(NamedTuple):
    shape: float
    scale: float
    k: float


class GenGammaParams(NamedTuple):
    mu: float
    sigma: float
    q: float


class GenFOrigParams(NamedTuple):
    mu: float
    sigma: float
    s1: float
    s2: float


def convert_gengamma_to_orig(mu, sigma, q):
    """Map (mu, sigma, Q) with Q > 0 to the (shape, scale, k) family."""
    if not q > 0.0:
        raise ParameterError(
            "unsupported conversion: Q must be > 0 to map gengamma onto "
            "gengamma.orig", code="unsupported_conversion")
    if not sigma > 0.0:
        raise ParameterError("sigma must be > 0")
    shape = q / sigma
    scale = math.exp(mu - math.log(q ** -2) * sigma / q)
    k = q ** -2
    return GenGammaOrigParams(shape, scale, k)


def convert_gengamma_from_orig(shape, scale, k):
    """Map (shape, scale, k) back to (mu, sigma, Q); inverse of the above."""
    if not (shape > 0.0 and scale > 0.0 and k > 0.0):
        raise ParameterError("shape, scale and k must all be > 0")
    mu = math.log(scale) + math.log(k) / shape
    sigma = 1.0 / (shape * math.sqrt(k))
    q = 1.0 / math.sqrt(k)
    return GenGammaParams(mu, sigma, q)


def convert_genf_to_orig(mu, sigma, q, p):
    """Map (mu, sigma, Q, P) with P > 0 to the (mu, sigma, s1, s2) family."""
    if not p > 0.0:
        raise ParameterError("P must be > 0", code="bad_parameters")
    if not sigma > 0.0:
        raise ParameterError("sigma must be > 0")
    tmp = q * q + 2.0 * p
    delta = math.sqrt(tmp)
    s1 = 2.0 / (tmp + q * delta)
    s2 = 2.0 / (tmp - q * delta)
    return GenFOrigParams(mu, sigma / delta, s1, s2)


# every class that defines distribution methods, the two untagged cores included
_CLASSES = (_GammaPower, _BetaPrimePower, Exponential, Weibull, Gamma, Gompertz,
            LogNormal, LogLogistic, GenGammaOrig, GenGamma, GenFOrig, GenF)
_BY_TAG = {cls.tag: cls for cls in _CLASSES if cls.tag}
DISTRIBUTION_TAGS = tuple(_BY_TAG)
PARAM_NAMES = {tag: cls.param_names for tag, cls in _BY_TAG.items()}

# parameters that must be strictly positive at construction; gompertz shape
# is a signed aging rate and deliberately absent
POSITIVE_PARAMS = {
    "exponential": ("rate",),
    "weibull": ("shape", "scale"),
    "gamma": ("shape", "rate"),
    "gompertz": ("rate",),
    "lnorm": ("sdlog",),
    "llogis": ("shape", "scale"),
    "gengamma.orig": ("shape", "scale", "k"),
    "gengamma": ("sigma",),
    "genf.orig": ("sigma", "s1", "s2"),
    "genf": ("sigma", "P"),
}


def _expected_names_message(tag):
    names = list(_BY_TAG[tag].param_names)
    if tag == "gamma":
        listed = "shape and rate (or shape and scale)"
    elif len(names) == 1:
        listed = names[0]
    else:
        listed = ", ".join(names[:-1]) + " and " + names[-1]
    return f"incorrect parameters entered. Parameters for {tag} are {listed}"


def make_distribution(tag, params):
    """Build a distribution from its tag and a name -> value mapping.

    Parameter names must match the canonical set for the tag (gamma also
    accepts shape/scale, normalized internally to shape/rate), otherwise
    a ParameterError with an "incorrect parameters entered..." message is
    raised.  Value constraints (positivity, Q != 0, ...) are checked here
    as well so instances are always valid; values whose construction
    overflows or divides by zero also raise a ParameterError.
    """
    if tag not in _BY_TAG:
        known = ", ".join(DISTRIBUTION_TAGS)
        raise ParameterError(f"unknown distribution '{tag}'; choose one of {known}",
                             code="unknown_distribution")
    cls = _BY_TAG[tag]
    given = dict(params)
    names = set(given)
    if tag == "gamma" and names == {"shape", "scale"}:
        given = {"shape": given["shape"], "rate": 1.0 / given["scale"]}
        names = {"shape", "rate"}
    if names != set(cls.param_names):
        raise ParameterError(_expected_names_message(tag), code="bad_parameter_names")
    for name in cls.param_names:
        value = given[name]
        if not math.isfinite(value):
            raise ParameterError(f"parameter {name} must be finite")
        if name in POSITIVE_PARAMS[tag] and not value > 0.0:
            raise ParameterError(f"parameter {name} must be > 0 for {tag}")
    if tag == "gengamma" and given["Q"] == 0.0:
        raise ParameterError(
            "Q = 0 is not supported for gengamma (the family degenerates to "
            "a log-normal; use lnorm instead)", code="bad_parameters")
    ordered = [given[name] for name in cls.param_names]
    try:
        return cls(*ordered)
    except ArithmeticError as exc:  # e.g. gengamma Q**-2 overflowing
        raise ParameterError(
            f"parameters out of numerical range for {tag}: {exc}") from exc
