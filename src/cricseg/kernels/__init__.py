"""Hot per-pixel kernels with a compiled core and a numpy fallback.

The compiled extension (``cricseg.kernels._native``, built from
``_native.c`` by ``setup.py`` whenever a C compiler is found) is used when
it was built; otherwise the numpy twin takes over transparently. The
choice is made once at import and bound to ``ACTIVE`` (named by
``ACTIVE_IMPL``); no config key or flag overrides it, and every stage
looks ``ACTIVE`` up each time it calls a kernel. Both implementations expose the same two functions:

- ``bg_update(mean, luma, learning_rate, diff_threshold) -> int`` blends a
  uint8 luma plane into the float32 running mean in place and returns the
  number of pixels whose absolute deviation from the pre-update mean
  exceeds ``diff_threshold``.
- ``band_abs_diff_mean(first, last) -> float`` is the mean absolute
  difference of two uint8 planes.

Both implementations give bit-identical means and equal counts, which the
test suite enforces. The compiled one takes 2-D C-contiguous arrays only
and raises ``ValueError`` on any other shape, dtype or layout. On x86-64
with glibc its ``bg_update`` loop is built twice, for AVX2 and for the
baseline, and the dynamic loader picks the AVX2 body once, when the
extension loads, on a CPU that has it; elsewhere the baseline body is the
only one. Both bodies round like numpy, so the choice never changes a
result.
"""

from __future__ import annotations

from cricseg.kernels import _fallback

try:
    from cricseg.kernels import _native

    NATIVE_AVAILABLE = True
except ImportError:
    _native = None
    NATIVE_AVAILABLE = False

ACTIVE_IMPL = "native" if NATIVE_AVAILABLE else "fallback"


class _Impl:
    """One named kernel implementation."""

    def __init__(self, name: str, module) -> None:
        self.name = name
        self._mod = module

    def bg_update(self, mean, luma, learning_rate, diff_threshold) -> int:
        return self._mod.bg_update(mean, luma, learning_rate, diff_threshold)

    def band_abs_diff_mean(self, first, last) -> float:
        return float(self._mod.band_abs_diff_mean(first, last))


ACTIVE = _Impl(ACTIVE_IMPL, _native if NATIVE_AVAILABLE else _fallback)
