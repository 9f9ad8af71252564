"""Hot kernels with a compiled core and a Python fallback.

The compiled extension (``cricseg.kernels._native``, built from
``_native.c`` by ``setup.py`` whenever a C compiler is found) is used when
it was built; otherwise the Python twin takes over transparently. The
choice is made once at import and bound to ``ACTIVE`` (named by
``ACTIVE_IMPL``); no config key or flag overrides it, and every caller
looks ``ACTIVE`` up each time it calls a kernel. Both implementations
expose the same three functions:

- ``bg_update(mean, luma, learning_rate, diff_threshold) -> int`` blends a
  uint8 luma plane into the float32 running mean in place and returns the
  number of pixels whose absolute deviation from the pre-update mean
  exceeds ``diff_threshold``.
- ``band_abs_diff_mean(first, last) -> float`` is the mean absolute
  difference of two uint8 planes.
- ``scan_annotations(block, pos, records, frame_w, frame_h, detection,
  annotations) -> (pos, lines)`` loads annotation JSON Lines from
  ``block[pos:]`` into ``records`` for as long as it can prove that it
  loads each line as ``backend.load_precomputed``'s Python code would, and
  returns where it stopped and how many lines it consumed; that code then
  loads the line, or words its error, and scanning resumes after it. The
  fallback declines every line.

Both implementations give bit-identical means, equal counts and equal
records, which the test suite enforces. The compiled ``bg_update`` and
``band_abs_diff_mean`` take 2-D C-contiguous arrays only and raise
``ValueError`` on any other shape, dtype or layout. On x86-64 with glibc
the ``bg_update`` loop is built twice, for AVX2 and for the baseline, and
the dynamic loader picks the AVX2 body once, when the extension loads, on
a CPU that has it; elsewhere the baseline body is the only one. Both
bodies round like numpy, so the choice never changes a result.
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

    def scan_annotations(self, block, pos, records, frame_w, frame_h, detection, annotations):
        return self._mod.scan_annotations(
            block, pos, records, frame_w, frame_h, detection, annotations
        )


ACTIVE = _Impl(ACTIVE_IMPL, _native if NATIVE_AVAILABLE else _fallback)
