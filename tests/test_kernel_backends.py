"""The pure-Python kernels must mirror the compiled extension.

Both backends share algorithms and constants, so their outputs agree to
within a few ulp; the suite also pins the pure-Python backend against a
few frozen values so the fallback stays correct even when the extension
is the active import.  The compiled side is the importable extension, or
a gcc build of ``src/mrlife/_ckernels.c`` (``compiled_kernels`` fixture).
The kernel set is the public functions of ``_pykernels``; every other
list of kernel names must match it, and each kernel needs a caller.
"""
import ast
import importlib.util
import math
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from mrlife import _pykernels as pk
from mrlife import specfun as sf

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mrlife"


def _public_functions(module):
    """Names of the public callables a module defines or aliases."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, type)}


def _load_bench_kernels():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scalar_kernels():
    """``SCALAR_KERNELS`` of perfbench/run.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SCALAR_KERNELS"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no SCALAR_KERNELS")


def _specfun_calls(path):
    """Names called as attributes of specfun in one source file, under any
    alias (``from . import specfun as sf``)."""
    tree = ast.parse(path.read_text())
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name == "specfun"}
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases}


KERNELS = _public_functions(pk)


def test_one_kernel_name_set(compiled_kernels):
    # the tracer wraps every name in _KERNEL_NAMES, so a stale entry there
    # breaks every traced perfbench run
    aliases = _public_functions(sf)
    assert aliases == KERNELS
    for name in aliases:
        assert getattr(sf, name) is getattr(sf._impl, name), name
    assert set(_load_bench_kernels()._KERNEL_NAMES) == KERNELS
    if compiled_kernels is not None:
        assert _public_functions(compiled_kernels) == KERNELS


def test_every_kernel_has_a_caller():
    called = set()
    for path in SRC.glob("*.py"):
        if path.name not in ("specfun.py", "_pykernels.py"):
            called |= _specfun_calls(path)
    assert KERNELS - called - _scalar_kernels() == set()


def test_c_twin_compiles_warning_free():
    # -Wall catches a static kernel body whose WRAP line is gone; gcc emits
    # that unused-function warning only when it compiles, not under
    # -fsyntax-only, so the object file is made and thrown away
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    done = subprocess.run(
        [gcc, "-c", "-Wall", "-Werror", "-I", sysconfig.get_paths()["include"],
         str(SRC / "_ckernels.c"), "-o", os.devnull],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _argument_grid(rng, n=2000):
    for _ in range(n):
        x = float(rng.uniform(0.0, 40.0))
        a = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
        yield "ln_upper_inc_gamma", (x, a)
        yield "ln_lower_inc_gamma", (max(x, 1e-12), a)
        yield "ln_upper_inc_gamma_da", (x, a)
        yield "ln_lower_inc_gamma_da", (max(x, 1e-12), a)
        yield "digamma", (a,)
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
        yield "ln_std_normal_sf", (float(rng.uniform(-40.0, 40.0)),)
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
        for name in ("ln_upper_inc_gamma", "ln_lower_inc_gamma", "upper_inc_gamma",
                     "ln_upper_inc_gamma_da", "ln_lower_inc_gamma_da"):
            yield name, (x, a)
        yield "exp_integral_e1", (x,)
        yield "exp_integral_e1_scaled", (x,)


def test_twins_agree(rng, compiled_kernels):
    if compiled_kernels is None:
        pytest.skip("gcc not found; compiled kernels cannot be built")
    for name, args in _argument_grid(rng):
        out_py = getattr(pk, name)(*args)
        out_c = getattr(compiled_kernels, name)(*args)
        if not isinstance(out_py, tuple):  # every element of a pair too
            out_py, out_c = (out_py,), (out_c,)
        assert len(out_py) == len(out_c), (name, args)
        for v_py, v_c in zip(out_py, out_c):
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
