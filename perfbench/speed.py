"""Machine-speed reference: converts wall time into reference seconds.

On a shared machine the same pure-Python work can run up to twice as fast
or slow from one quarter hour to the next.  The reference here is a fixed piece of
work of the same kind as mrlife's hot path (bisection on a log survival
function evaluated through a Lentz continued fraction and a power series)
but written out in this file, so no change to the package can change it.
``SpeedMeter`` samples it between the workload's operations, and each
stretch of busy wall time is scaled by the reference sample taken right
after it, weighted by the busy time it follows: reference seconds are
busy_s * NOMINAL_S / (busy-weighted mean sample_s).  A run on a momentarily
slow machine then reports fewer of them than its wall seconds, while a
slower program still reports more.
"""
import math
import time

NOMINAL_S = 0.01      # one sample of the reference takes this long by definition
INTERVAL_S = 0.5      # busy time between two samples


def _ln_upper_gamma_ratio(x, a):
    """ln Q(a, x), the regularized upper incomplete gamma function."""
    ln_front = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return math.log1p(-min(total * math.exp(ln_front), 1.0 - 1e-16))
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1e-300 if abs(d) < 1e-300 else d
        c = b + an / c
        c = 1e-300 if abs(c) < 1e-300 else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return ln_front + math.log(h)


def _isf(a, s):
    ln_target = math.log(s)
    lo, hi = 1e-3, 1e3
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _ln_upper_gamma_ratio(mid, a) > ln_target:
            lo = mid
        else:
            hi = mid
    return mid


def reference_sample():
    """Wall seconds taken by one fixed unit of reference work."""
    started = time.perf_counter()
    for _ in range(3):
        for a in (0.5, 1.5, 3.0, 7.0):
            for s in (0.9, 0.5, 0.1):
                _isf(a, s)
    return time.perf_counter() - started


class SpeedMeter:
    """Collects (busy wall seconds, reference sample seconds) pairs."""

    def __init__(self):
        self.pairs = []
        self._pending = 0.0

    def add(self, busy_s):
        """Account busy time; sample the reference once enough has built up."""
        self._pending += busy_s
        if self._pending >= INTERVAL_S:
            self.sample()

    def sample(self):
        """One reference sample per INTERVAL_S of pending busy time, averaged,
        so that a long operation is weighed against as much reference work."""
        units = max(1, int(self._pending / INTERVAL_S))
        mean = sum(reference_sample() for _ in range(units)) / units
        self.pairs.append((self._pending, mean))
        self._pending = 0.0

    def finish(self):
        if self._pending > 0.0 or not self.pairs:
            self.sample()

    def busy_s(self):
        return sum(busy for busy, _ in self.pairs)

    def sample_s(self):
        """Busy-weighted mean duration of a reference sample."""
        return sum(busy * ref for busy, ref in self.pairs) / self.busy_s()

