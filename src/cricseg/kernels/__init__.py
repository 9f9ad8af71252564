"""Hot kernels with a compiled core and a Python fallback.

The compiled extension (``cricseg.kernels._native``, built from
``_native.c`` by ``setup.py`` whenever a C compiler is found) is used when
it was built; otherwise the Python twin takes over transparently. The
choice is made once at import and bound to ``ACTIVE`` (named by
``ACTIVE_IMPL``); no config key or flag overrides it, and every caller
looks ``ACTIVE`` up each time it calls a kernel. Both implementations
expose the same four functions:

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
- ``read_files(paths) -> iterator of bytes`` yields each file's bytes in
  order. The first file's size is asked of the file system, and each
  later file is expected to be as large as the one before. The fallback
  reads each file when it is pulled. The compiled reader reads the first
  file on the pulling thread, then, if more files follow, starts one
  thread, which reads files ahead without the GIL: two, or as many more
  as fit in 512 KiB, up to 64. A pull whose file the thread has not
  started on reads it itself. It raises the same ``OSError`` at the same
  file, and stops and joins its thread when it is exhausted, raises, is
  closed or is freed. An extension built without ``<pthread.h>`` has no
  reader of its own and uses the Python one, ``_pure.read_files``.

Both implementations give bit-identical means, equal counts and equal
records, which the test suite enforces. The two per-pixel kernels take
2-D buffers: numpy arrays, or memoryviews such as the frame readers' uint8
planes (format ``"B"``) and the segmenter's float32 mean (format ``"f"``).
The compiled ones take C-contiguous buffers of those formats only and
raise ``ValueError`` on any other shape, format or layout; the fallback
views what it is given as numpy arrays. On x86-64 with glibc
the ``bg_update`` loop is built twice, for AVX2 and for the baseline, and
the dynamic loader picks the AVX2 body once, when the extension loads, on
a CPU that has it; elsewhere the baseline body is the only one. Both
bodies round like numpy, so the choice never changes a result.

Only the fallback imports numpy, and ``_fallback`` is loaded only when it
is the active implementation or is asked for by name. The scan that
declines every line and the Python file reader live in the numpy-free
``_pure``, so a compiled build, with or without its own reader, runs every
file-backed path without numpy.
"""

from __future__ import annotations

import importlib

from cricseg.kernels import _pure

try:
    from cricseg.kernels import _native

    NATIVE_AVAILABLE = True
except ImportError:
    _native = None
    NATIVE_AVAILABLE = False

ACTIVE_IMPL = "native" if NATIVE_AVAILABLE else "fallback"


def __getattr__(name: str):
    # Loads the numpy fallback on first use of ``kernels._fallback``.
    if name == "_fallback":
        return importlib.import_module("cricseg.kernels._fallback")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    def read_files(self, paths):
        return getattr(self._mod, "read_files", _pure.read_files)(paths)


ACTIVE = _Impl(
    ACTIVE_IMPL,
    _native if NATIVE_AVAILABLE else importlib.import_module("cricseg.kernels._fallback"),
)
