"""Build the committed ``src/mrlife/_ckernels.c`` with gcc, outside ``src/``.

The extension goes to ``perfbench/out/build/`` and is loaded under its
package name without being registered in ``sys.modules``, so the package
itself still imports the pure-Python kernels; ``active_backend`` from
``benchmarks/bench_kernels.py`` then rebinds ``mrlife.specfun`` onto it.
"""
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "mrlife" / "_ckernels.c"
BUILD_DIR = HERE / "out" / "build"


class Unavailable(RuntimeError):
    """The compiled backend cannot be built here."""


def build():
    """Path of the compiled extension, compiling it when missing or stale."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise Unavailable("gcc not found; compiled backend skipped")
    target = BUILD_DIR / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists() and target.stat().st_mtime >= SOURCE.stat().st_mtime:
        return target
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    partial = target.with_suffix(".partial")
    cmd = [gcc, "-shared", "-fPIC", "-O2", "-I", sysconfig.get_paths()["include"],
           str(SOURCE), "-o", str(partial), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise Unavailable(f"gcc failed: {done.stderr.strip()[-500:]}")
    os.replace(partial, target)
    return target


def load():
    """The compiled kernel module, built on first use."""
    path = build()
    loader = importlib.machinery.ExtensionFileLoader("mrlife._ckernels", str(path))
    spec = importlib.util.spec_from_file_location("mrlife._ckernels", path,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    if getattr(module, "BACKEND", None) != "compiled":
        raise Unavailable(f"{path} does not report the compiled backend")
    return module
