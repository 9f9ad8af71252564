"""Build hook for the optional compiled kernels.

The extension is a speedup only: ``optional=True`` lets the build go on
without it when no C compiler is found, and the package then falls back
to the numpy implementation at import time. ``-ffp-contract=off`` keeps
the compiler from fusing the mean update's multiply and add, which would
round differently from numpy; it covers the AVX2 clone of the update as
well as the baseline one.

There is no ``-march=native``: the build targets the platform's baseline,
so what is built on one machine runs on any CPU of that platform. On
x86-64 with glibc, ``_native.c`` itself asks for an AVX2 clone of the
update loop, and the loader picks it at import on CPUs that have AVX2.

``-pthread`` is for the thread that reads frame files ahead; where
``<pthread.h>`` is missing, ``_native.c`` leaves that reader out.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cricseg.kernels._native",
            ["src/cricseg/kernels/_native.c"],
            extra_compile_args=["-O3", "-ffp-contract=off", "-pthread"],
            extra_link_args=["-pthread"],
            optional=True,
        )
    ]
)
