"""Benchmark: compiled kernel extension vs the pure-Python fallback.

Times the scalar special-function kernels and an end-to-end residual-life
table evaluation under each backend.  Run from the repository root:

    python benchmarks/bench_kernels.py [--points 20000] [--table-rows 5000]
"""
import argparse
import time
from contextlib import contextmanager

import numpy as np

from mrlife import ResidualLifeQuery, make_distribution, residual_life_table
from mrlife import specfun
from mrlife import _pykernels

try:
    from mrlife import _ckernels
except ImportError:
    _ckernels = None

_KERNEL_NAMES = [
    "ln_gamma", "ln_beta", "ln_upper_inc_gamma", "ln_lower_inc_gamma",
    "upper_inc_gamma", "exp_integral_e1", "exp_integral_e1_scaled",
    "reg_inc_beta", "ln_reg_inc_beta", "gauss_2f1", "ln_std_normal_sf",
    "std_normal_quantile",
]


@contextmanager
def active_backend(impl):
    """Temporarily rebind the specfun front end onto one kernel module.

    Every kernel name in specfun is an alias of the selected module's
    function, so every one is rebound onto ``impl``.
    """
    saved = {name: getattr(specfun, name) for name in _KERNEL_NAMES}
    saved["BACKEND"] = specfun.BACKEND
    saved["_impl"] = specfun._impl
    try:
        for name in _KERNEL_NAMES:
            if getattr(specfun, name) is getattr(specfun._impl, name):
                setattr(specfun, name, getattr(impl, name))
        specfun._impl = impl
        specfun.BACKEND = impl.BACKEND
        yield
    finally:
        for name, fn in saved.items():
            setattr(specfun, name, fn)


def bench_scalar_kernels(impl, n_points, seed=12345):
    rng = np.random.default_rng(seed)
    x_gamma = rng.uniform(0.01, 30.0, size=n_points)
    a_gamma = np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=n_points))
    x_beta = rng.uniform(0.001, 0.999, size=n_points)
    ab_beta = np.exp(rng.uniform(np.log(0.2), np.log(10.0), size=(2, n_points)))
    z_e1 = np.exp(rng.uniform(np.log(0.01), np.log(40.0), size=n_points))
    z_2f1 = -rng.uniform(0.0, 20.0, size=n_points)
    b_2f1 = rng.uniform(0.2, 4.0, size=n_points)

    cases = {
        "upper_inc_gamma": (impl.upper_inc_gamma, zip(x_gamma, a_gamma)),
        "reg_inc_beta": (impl.reg_inc_beta,
                         zip(x_beta, ab_beta[0], ab_beta[1])),
        "exp_integral_e1": (impl.exp_integral_e1, ((z,) for z in z_e1)),
        "gauss_2f1": (impl.gauss_2f1,
                      ((4.0, b, b + 1.0, z) for b, z in zip(b_2f1, z_2f1))),
        "std_normal_quantile": (impl.std_normal_quantile,
                                ((p,) for p in x_beta)),
    }
    timings = {}
    for name, (fn, args_iter) in cases.items():
        args = list(args_iter)
        started = time.perf_counter()
        for tup in args:
            fn(*tup)
        timings[name] = (time.perf_counter() - started) / len(args)
    return timings


def bench_mrl_tables(impl, n_rows, seed=999):
    rng = np.random.default_rng(seed)
    dists = {
        "weibull": make_distribution("weibull", {"shape": 1.272, "scale": 6.191}),
        "gengamma.orig": make_distribution(
            "gengamma.orig", {"shape": 1.5, "scale": 2.0, "k": 1.2}),
        "genf.orig": make_distribution(
            "genf.orig", {"mu": 0.2, "sigma": 1.1, "s1": 2.0, "s2": 3.0}),
    }
    timings = {}
    with active_backend(impl):
        for tag, dist in dists.items():
            values = np.sort(rng.uniform(dist.quantile(0.02),
                                         dist.quantile(0.95), size=n_rows))
            query = ResidualLifeQuery(values=list(values), p=0.7, type="all")
            started = time.perf_counter()
            residual_life_table(dist, query)
            timings[tag] = (time.perf_counter() - started) / n_rows
    return timings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20000,
                        help="scalar kernel evaluations per function")
    parser.add_argument("--table-rows", type=int, default=5000,
                        help="rows in the end-to-end residual-life table")
    args = parser.parse_args()

    backends = [("python", _pykernels)]
    if _ckernels is not None:
        backends.insert(0, ("compiled", _ckernels))
    else:
        print("note: compiled extension not available; timing the pure "
              "backend only\n")

    print(f"scalar kernels ({args.points} evaluations each)")
    scalar = {name: bench_scalar_kernels(impl, args.points)
              for name, impl in backends}
    kernel_names = list(next(iter(scalar.values())))
    header = f"{'kernel':<22}" + "".join(f"{name:>14}" for name, _ in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for kernel in kernel_names:
        row = f"{kernel:<22}"
        per_ns = [scalar[name][kernel] * 1e9 for name, _ in backends]
        row += "".join(f"{v:>11.0f} ns" for v in per_ns)
        if len(per_ns) == 2:
            row += f"{per_ns[1] / per_ns[0]:>9.1f}x"
        print(row)

    print(f"\nresidual-life tables, type=all "
          f"({args.table_rows} rows; per-row time)")
    tables = {name: bench_mrl_tables(impl, args.table_rows)
              for name, impl in backends}
    print(f"{'distribution':<22}" + "".join(f"{name:>14}"
                                            for name, _ in backends)
          + (f"{'speedup':>10}" if len(backends) == 2 else ""))
    for tag in next(iter(tables.values())):
        per_us = [tables[name][tag] * 1e6 for name, _ in backends]
        row = f"{tag:<22}" + "".join(f"{v:>11.1f} us" for v in per_us)
        if len(per_us) == 2:
            row += f"{per_us[1] / per_us[0]:>9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
