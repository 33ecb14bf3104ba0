"""Build script: compiles the optional C kernel extension.

``src/mrlife/_ckernels.c`` is hand-written C against the CPython API, so
a C compiler is all the build needs.  The package is fully functional
without the extension (a pure-Python twin of the kernels is selected at
import time), so any failure to build it degrades to a pure-Python install
instead of aborting.  Set ``MRLIFE_NO_EXTENSION=1`` to skip it.
"""
import os

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

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: failed to compile {ext.name} ({exc}); "
                  f"falling back to pure-Python kernels")


ext_modules = []
if os.environ.get("MRLIFE_NO_EXTENSION", "") not in ("1", "true", "yes"):
    ext_modules = [Extension("mrlife._ckernels", ["src/mrlife/_ckernels.c"],
                             libraries=["m"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
