from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from cricseg import kernels
from cricseg.frames import BandSpec, Frame
from cricseg.replay import (
    LIVE,
    REPLAY,
    UNDETERMINED,
    ReplayConfig,
    band_difference,
    classify_liveness,
)
from cricseg.scenario import (
    FRONT_VIEW,
    OTHER_VIEW,
    frame_stream,
    script_from_lengths,
)

from _support import KERNEL_IMPLS

BAND = BandSpec(0.15)


def frame(arr, index=0):
    return Frame(index, np.asarray(arr, dtype=np.uint8))


class TestBandDifference:
    def test_identical_frames(self):
        a = frame(np.full((40, 30), 90))
        assert band_difference(a, a, BAND) == 0.0

    def test_uniform_offset(self):
        a = frame(np.full((40, 30), 100))
        b = frame(np.full((40, 30), 140))
        assert band_difference(a, b, BAND) == 40.0

    def test_extremes(self):
        a = frame(np.zeros((40, 30)))
        b = frame(np.full((40, 30), 255))
        assert band_difference(a, b, BAND) == 255.0

    def test_only_band_rows_counted(self):
        base = np.full((100, 10), 50, dtype=np.uint8)
        changed = base.copy()
        changed[:85, :] = 250  # above the band: must not affect the result
        assert band_difference(frame(base), frame(changed), BAND) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            band_difference(frame(np.zeros((10, 10))), frame(np.zeros((10, 12))), BAND)

    @given(
        a=arrays(np.uint8, (12, 9)),
        b=arrays(np.uint8, (12, 9)),
    )
    def test_symmetric(self, a, b):
        fa, fb = frame(a), frame(b)
        assert band_difference(fa, fb, BAND) == band_difference(fb, fa, BAND)


    @pytest.mark.parametrize("impl", KERNEL_IMPLS)
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 30), (90, 160)])
    @pytest.mark.parametrize("fraction", [0.01, 0.15, 0.5, 1.0])
    def test_memoryview_frames_equal_numpy_slices(self, monkeypatch, impl, shape, fraction):
        # Reader frames hold memoryviews, whose band rows are cut from
        # their flat bytes; the value is the one numpy row slices give.
        monkeypatch.setattr(kernels, "ACTIVE", impl)
        band = BandSpec(fraction)
        rng = np.random.default_rng(shape[0])
        a, b = (rng.integers(0, 256, shape, dtype=np.uint8) for _ in range(2))
        views = [Frame(0, memoryview(x.tobytes()).cast("B", shape)) for x in (a, b)]
        assert isinstance(views[0].luma, memoryview)
        r0, r1 = band.rows(shape[0])
        want = impl.band_abs_diff_mean(a[r0:r1], b[r0:r1])
        assert band_difference(*views, band) == want
        assert band_difference(frame(a), frame(b), band) == want
        assert want == pytest.approx(np.abs(a[r0:r1].astype(int) - b[r0:r1]).mean())


class TestClassifyLiveness:
    def test_scripted_live_clip(self):
        script = script_from_lengths([(FRONT_VIEW, 40)], width=160, height=90)
        frames = list(frame_stream(script))
        assert classify_liveness([frames[0], frames[-1]], ReplayConfig()) == LIVE

    def test_scripted_replay_clip(self):
        script = script_from_lengths(
            [(FRONT_VIEW, 40, {"scorecard": False})], width=160, height=90
        )
        frames = list(frame_stream(script))
        assert classify_liveness([frames[0], frames[-1]], ReplayConfig()) == REPLAY

    def test_one_frame_clip_undetermined(self):
        f = frame(np.zeros((20, 20)))
        assert classify_liveness([f], ReplayConfig()) == UNDETERMINED

    def test_threshold_is_inclusive(self):
        a = frame(np.full((40, 30), 100))
        b = frame(np.full((40, 30), 108))
        cfg = ReplayConfig(mean_abs_diff_threshold=8.0)
        assert classify_liveness([a, b], cfg) == LIVE

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ReplayConfig(mean_abs_diff_threshold=-1.0)
