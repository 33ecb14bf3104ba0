"""Build script: compiles the optional C kernel extension.

``src/mrlife/_ckernels.c`` is hand-written C against the CPython API, so
a C compiler is all the build needs.  The package is fully functional
without the extension (a pure-Python twin of the kernels is selected at
import time), so any failure to build it, a missing compiler included,
degrades to a pure-Python install instead of aborting.
"""
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible, otherwise install pure-Python only."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            print(f"warning: C kernel extension not built ({exc}); "
                  f"falling back to pure-Python kernels")


ext_modules = [Extension("mrlife._ckernels", ["src/mrlife/_ckernels.c"],
                         libraries=["m"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
