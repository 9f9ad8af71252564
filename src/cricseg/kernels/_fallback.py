"""Python implementations of the kernels.

Drop-in twin of the compiled module; selected automatically when the
extension is not built.
"""

from __future__ import annotations

import numpy as np


def bg_update(
    mean: np.ndarray,
    luma: np.ndarray,
    learning_rate: float,
    diff_threshold: float,
) -> int:
    """Blend one frame into the running background; count deviating pixels.

    ``mean`` (float32) is updated in place toward ``luma``. Returns how
    many pixels deviate from the pre-update mean by more than
    ``diff_threshold``.
    """
    diff = luma.astype(np.float32)
    diff -= mean
    count = int(np.count_nonzero(np.abs(diff) > diff_threshold))
    diff *= learning_rate
    mean += diff
    return count


def band_abs_diff_mean(first: np.ndarray, last: np.ndarray) -> float:
    """Mean absolute difference between two uint8 rasters of equal shape."""
    a = first.astype(np.int16)
    a -= last
    return float(np.mean(np.abs(a, out=a)))


def scan_annotations(block, pos, records, frame_w, frame_h, detection, annotations):
    """Decline every annotation line: the loader's Python code reads them all."""
    return pos, 0
