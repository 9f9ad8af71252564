"""Python implementations of the kernels.

Drop-in twin of the compiled module; selected automatically when the
extension is not built. The two per-pixel kernels take any 2-D buffers
(numpy arrays, memoryviews) and view them as arrays; the numpy-free rest
comes from ``_pure``.
"""

from __future__ import annotations

import numpy as np

from cricseg.kernels._pure import read_file, read_files, scan_annotations  # noqa: F401


def bg_update(mean, luma, learning_rate: float, diff_threshold: float) -> int:
    """Blend one frame into the running background; count deviating pixels.

    ``mean`` (float32) is updated in place toward ``luma``. Returns how
    many pixels deviate from the pre-update mean by more than
    ``diff_threshold``.
    """
    mean = np.asarray(mean)
    diff = np.asarray(luma).astype(np.float32)
    diff -= mean
    count = int(np.count_nonzero(np.abs(diff) > diff_threshold))
    diff *= learning_rate
    mean += diff
    return count


def band_abs_diff_mean(first, last) -> float:
    """Mean absolute difference between two uint8 rasters of equal shape."""
    a = np.asarray(first).astype(np.int16)
    a -= np.asarray(last)
    return float(np.mean(np.abs(a, out=a)))
