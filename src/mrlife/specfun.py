"""Special-function kernel front end.

Selects the compiled extension (``mrlife._ckernels``, hand-written C)
when it is available and falls back to the pure-Python twin
(``mrlife._pykernels``) otherwise.  Set ``MRLIFE_PURE_PYTHON=1`` in the
environment to force the fallback (the benchmark and the backend
cross-check tests use this).  Every exported name is an alias of the
selected module's function: no wrapper sits in front of a kernel, so a
kernel fix goes into both twins.

Exported functions (identical in both backends):

``ln_gamma(a)``, ``digamma(a)``
    ln Gamma(a) and psi(a) = d ln Gamma(a)/da, a > 0; psi by the
    recurrence up to a >= 10, then the asymptotic series.
``upper_inc_gamma(x, a)`` / ``ln_upper_inc_gamma(x, a)``
    Unnormalized upper incomplete gamma with the integral limit first:
    Gamma(x, a) = int_x^inf t^(a-1) e^-t dt.  Series for x < a+1,
    Lentz continued fraction for x >= a+1, asymptotic series from
    x = 2**51 on when a <= x/1024.
``ln_lower_inc_gamma(x, a)``
    ln gamma(x, a), the lower counterpart.
``ln_upper_inc_gamma_da(x, a)`` / ``ln_lower_inc_gamma_da(x, a)``
    The pair (ln value, its partial along a), the value with the bits of
    the kernel above; the partial is the series, the fraction, the
    complement or the large-x series differentiated forward, each summed
    until its own step is below 1e-16 (Moore 1982, Appl. Stat. AS 187).
    Below a = 0.2 the upper partial takes the fraction from x = 0.3 on,
    where the complement's would lose digits to 1/a.
``exp_integral_e1(z)`` / ``exp_integral_e1_scaled(z)``
    E1(z) and exp(z)*E1(z); series below z=1, from z=1 on the incomplete
    gamma's continued fraction at a = 0 (E1(z) = Gamma(z, 0)), asymptotic
    series from z = 2**51 on.
``reg_inc_beta(x, a, b)`` / ``ln_reg_inc_beta(x, a, b)``, ``ln_beta(a, b)``
    Regularized incomplete beta I_x(a, b) and helpers.
``gauss_2f1(a, b, c, z)``
    Gauss hypergeometric for c > b > 0, z <= 0 (power series plus a
    Pfaff transformation for z <= -0.5).
``ln_std_normal_sf(z)``, ``std_normal_quantile(p)``
    Standard normal log survival (via erfc) and quantile.

The package calls the ``ln_*`` kernels, ``digamma``,
``exp_integral_e1_scaled`` and ``std_normal_quantile``; fitting takes the
``_da`` pairs and ``digamma`` for the gamma shape's analytic partial.  ``upper_inc_gamma``, ``exp_integral_e1``,
``reg_inc_beta`` and ``gauss_2f1`` have no caller in the package; they
stay because ``perfbench`` times them.

Every function is a pure function of its arguments and returns NaN on
domain violations rather than raising, so the kernels are safe to call
from any thread.
"""
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
ln_upper_inc_gamma = _impl.ln_upper_inc_gamma
ln_lower_inc_gamma = _impl.ln_lower_inc_gamma
ln_upper_inc_gamma_da = _impl.ln_upper_inc_gamma_da
ln_lower_inc_gamma_da = _impl.ln_lower_inc_gamma_da
digamma = _impl.digamma
upper_inc_gamma = _impl.upper_inc_gamma
exp_integral_e1 = _impl.exp_integral_e1
exp_integral_e1_scaled = _impl.exp_integral_e1_scaled
reg_inc_beta = _impl.reg_inc_beta
ln_reg_inc_beta = _impl.ln_reg_inc_beta
gauss_2f1 = _impl.gauss_2f1
ln_std_normal_sf = _impl.ln_std_normal_sf
std_normal_quantile = _impl.std_normal_quantile
