"""Build hook for the optional compiled kernels.

The extension is a speedup only: ``optional=True`` lets the build go on
without it when no C compiler is found, and the package then falls back
to the numpy implementation at import time. ``-ffp-contract=off`` keeps
the compiler from fusing the mean update's multiply and add, which would
round differently from numpy.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cricseg.kernels._native",
            ["src/cricseg/kernels/_native.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
