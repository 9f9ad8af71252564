"""Live/replay classification via the bottom scorecard band.

Live broadcast footage keeps a stationary scorecard at the bottom of the
frame; replays drop it. A clip whose bottom band is unchanged between its
first and last frame is live, otherwise it is a replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from cricseg import kernels
from cricseg.frames import BandSpec, Frame

LIVE = "live"
REPLAY = "replay"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ReplayConfig:
    band: BandSpec = field(default_factory=BandSpec)
    mean_abs_diff_threshold: float = 8.0

    def __post_init__(self) -> None:
        if not self.mean_abs_diff_threshold >= 0:
            raise ValueError("mean_abs_diff_threshold must be >= 0")


def band_difference(first: Frame, last: Frame, band: BandSpec) -> float:
    """Mean absolute luma difference over the bottom band, in [0, 255].

    Symmetric in its two arguments.
    """
    if first.luma.shape != last.luma.shape:
        raise ValueError("frames differ in dimensions")
    r0, r1 = band.rows(first.height)
    return kernels.ACTIVE.band_abs_diff_mean(_rows(first.luma, r0, r1), _rows(last.luma, r0, r1))


def _rows(luma, start: int, stop: int) -> memoryview:
    """Rows [start, stop) of a C-contiguous 2-D uint8 plane, viewed: a
    memoryview has no 2-D slicing, so they are cut from its flat bytes."""
    width = luma.shape[1]
    flat = memoryview(luma).cast("B")
    return flat[start * width : stop * width].cast("B", (stop - start, width))


def classify_liveness(frames: Sequence[Frame], cfg: ReplayConfig) -> str:
    """Label a clip from its frames; needs at least two to decide.

    Only the endpoints are compared.
    """
    if len(frames) < 2:
        return UNDETERMINED
    diff = band_difference(frames[0], frames[-1], cfg.band)
    static = diff <= cfg.mean_abs_diff_threshold
    return LIVE if static else REPLAY
