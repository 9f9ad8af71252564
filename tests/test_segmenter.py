from __future__ import annotations

import _thread
import errno
import random
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cricseg import kernels, segmenter
from cricseg.backend import AnnotationError, Detection, FrameAnnotations, MappingBackend
from cricseg.frames import Frame, _read_pgm
from cricseg.gate import DUAL_MODES, STRATEGIES, GateConfig, apply_gate
from cricseg.replay import ReplayConfig
from cricseg.segmenter import (
    BackgroundModel,
    BoundaryConfig,
    Clip,
    ClipExport,
    Foreground,
    SegmentationError,
    detect_boundary,
    foreground_fraction,
    segment,
)
from cricseg.scenario import (
    FRONT_VIEW,
    OTHER_VIEW,
    cut_positions,
    expected_clips,
    frame_stream,
    script_from_lengths,
    synthetic_backend,
)

from _support import (
    KERNEL_IMPLS,
    boundary_flags,
    failing_write,
    random_cut_script,
    reference_segment,
)

CFG = BoundaryConfig()
SMALL = dict(width=160, height=90)


def run_script(script, **kwargs):
    backend = synthetic_backend(script)
    return list(segment(frame_stream(script), backend, script.fps, **kwargs))


class TestBackgroundModel:
    def test_warm_up_masks_all_false(self):
        model = BackgroundModel(CFG)
        rng = np.random.default_rng(0)
        for i in range(CFG.init_frames):
            luma = rng.integers(0, 256, size=(20, 30), dtype=np.uint8)
            assert model.update(luma) == Foreground(0, 600)

    def test_stationary_background_fraction_decays(self):
        model = BackgroundModel(CFG)
        luma = np.full((20, 30), 90, dtype=np.uint8)
        fraction = None
        for _ in range(CFG.init_frames + 5):
            fraction = foreground_fraction(model.update(luma))
        assert fraction == 0.0

    def test_hard_cut_lights_whole_mask(self):
        model = BackgroundModel(CFG)
        a = np.full((20, 30), 20, dtype=np.uint8)
        for _ in range(CFG.init_frames + 1):
            model.update(a)
        fg = model.update(np.full((20, 30), 220, dtype=np.uint8))
        assert fg == Foreground(600, 600)
        assert foreground_fraction(fg) == 1.0

    def test_dimension_mismatch(self):
        model = BackgroundModel(CFG)
        model.update(np.zeros((20, 30), dtype=np.uint8))
        with pytest.raises(ValueError):
            model.update(np.zeros((20, 31), dtype=np.uint8))

    def test_update_background_wrapper(self):
        model = BackgroundModel(CFG)
        frame = Frame(0, np.zeros((8, 8), dtype=np.uint8))
        assert model.update(frame.luma) == Foreground(0, 64)

    @pytest.mark.parametrize("impl", KERNEL_IMPLS)
    @pytest.mark.parametrize("plane", ["array", "memoryview"])
    def test_first_mean_is_the_frame_bit_for_bit(self, monkeypatch, impl, plane):
        monkeypatch.setattr(kernels, "ACTIVE", impl)
        luma = np.random.default_rng(4).integers(0, 256, (9, 13), dtype=np.uint8)
        luma[0, :2] = (0, 255)
        model = BackgroundModel(CFG)
        if plane == "memoryview":
            model.update(memoryview(luma.tobytes()).cast("B", luma.shape))
        else:
            model.update(luma)
        mean = model._mean
        assert isinstance(mean, memoryview)
        assert mean.format == "f" and mean.shape == luma.shape and not mean.readonly
        assert mean.tobytes() == luma.astype(np.float32).tobytes()

    @pytest.mark.parametrize("impl", KERNEL_IMPLS)
    def test_memoryview_planes_count_as_arrays(self, monkeypatch, impl):
        # Frames from the readers hold memoryviews; the model counts them
        # as it counts the same pixels in numpy arrays.
        monkeypatch.setattr(kernels, "ACTIVE", impl)
        rng = np.random.default_rng(6)
        planes = [rng.integers(0, 256, (12, 10), dtype=np.uint8) for _ in range(CFG.init_frames + 6)]
        by_array, by_view = BackgroundModel(CFG), BackgroundModel(CFG)
        for luma in planes:
            view = memoryview(luma.tobytes()).cast("B", luma.shape)
            assert by_view.update(view) == by_array.update(luma)
            assert by_view._mean.tobytes() == by_array._mean.tobytes()

    def test_reset_forgets_scene(self):
        model = BackgroundModel(CFG)
        for _ in range(CFG.init_frames + 1):
            model.update(np.full((8, 8), 10, dtype=np.uint8))
        assert model.warm
        model.reset()
        assert not model.warm


class TestForegroundFraction:
    def test_all_false(self):
        assert foreground_fraction(Foreground(0, 16)) == 0.0

    def test_all_true(self):
        assert foreground_fraction(Foreground(16, 16)) == 1.0

    def test_checkerboard(self):
        model = BackgroundModel(CFG)
        for _ in range(CFG.init_frames + 1):
            model.update(np.zeros((4, 4), dtype=np.uint8))
        checkerboard = (np.indices((4, 4)).sum(axis=0) % 2 * 255).astype(np.uint8)
        assert foreground_fraction(model.update(checkerboard)) == 0.5


class TestDetectBoundary:
    def test_above_threshold(self):
        assert detect_boundary(0.9, CFG, warm=True)

    def test_exactly_threshold_is_not_a_boundary(self):
        assert not detect_boundary(0.6, CFG, warm=True)

    def test_cold_model_never_boundaries(self):
        assert not detect_boundary(0.99, CFG, warm=False)


class TestSegment:
    def test_single_delivery_clip(self):
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 100), (OTHER_VIEW, 50)], **SMALL
        )
        clips = run_script(script)
        assert [(c.start, c.end, c.liveness) for c in clips] == [(50, 149, "live")]

    def test_no_front_view_no_clips(self):
        script = script_from_lengths([(OTHER_VIEW, 80), (OTHER_VIEW, 80)], **SMALL)
        assert run_script(script) == []

    def test_replay_directly_after_delivery(self):
        script = script_from_lengths(
            [
                (OTHER_VIEW, 50),
                (FRONT_VIEW, 80),
                (FRONT_VIEW, 60, {"scorecard": False}),
                (OTHER_VIEW, 50),
            ],
            **SMALL,
        )
        clips = run_script(script)
        assert [(c.start, c.end, c.liveness) for c in clips] == [
            (50, 129, "live"),
            (130, 189, "replay"),
        ]

    def test_deterministic_across_runs(self):
        script = random_cut_script(random.Random(3), n_segments=6)
        assert run_script(script) == run_script(script)

    def test_clips_disjoint_and_ordered(self):
        rng = random.Random(9)
        for _ in range(5):
            script = random_cut_script(rng, n_segments=7)
            clips = run_script(script)
            for before, after in zip(clips, clips[1:]):
                assert before.end < after.start

    def test_min_clip_frames_filters_flicker(self):
        script = script_from_lengths(
            [(OTHER_VIEW, 60), (FRONT_VIEW, 10), (OTHER_VIEW, 60)], **SMALL
        )
        assert run_script(script) == []

    def test_duration_follows_fps(self):
        script = script_from_lengths(
            [(OTHER_VIEW, 40), (FRONT_VIEW, 50), (OTHER_VIEW, 40)], fps=50.0, **SMALL
        )
        (clip,) = run_script(script)
        assert clip.duration_ms == pytest.approx(50 * 1000.0 / 50.0)

    @pytest.mark.parametrize("fps", [0, -1, float("inf"), float("nan")])
    def test_bad_fps_rejected_before_any_pull(self, fps):
        script = script_from_lengths([(OTHER_VIEW, 5)], **SMALL)
        pulled = []

        def frames():
            for frame in frame_stream(script):
                pulled.append(frame.index)
                yield frame

        with pytest.raises(ValueError, match="fps must be positive and finite"):
            next(segment(frames(), synthetic_backend(script), fps))
        assert pulled == []

    def test_gate_close_ends_clip_without_a_cut(self):
        # Same base level on both sides of the junction: no visual cut, so
        # only the sustained gate close can end the clip.
        script = script_from_lengths(
            [
                (OTHER_VIEW, 50, {"base_level": 60}),
                (FRONT_VIEW, 80, {"base_level": 170}),
                (OTHER_VIEW, 60, {"base_level": 170}),
            ],
            **SMALL,
        )
        clips = run_script(script)
        assert [(c.start, c.end) for c in clips] == [(50, 129)]

    def test_evidence_summarizes_signals(self):
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 60), (OTHER_VIEW, 50)], **SMALL
        )
        (clip,) = run_script(script)
        assert clip.evidence["frames"] == 60
        assert clip.evidence["signals"]["classifier"] == 60
        assert clip.evidence["signals"]["pitch"] == 60

    def test_backend_error_aborts_clip_with_frame_index(self):
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 100), (OTHER_VIEW, 50)], **SMALL
        )
        backend = synthetic_backend(script)
        broken = {i: backend.by_index(i) for i in range(script.n_frames) if i != 90}
        clips = []
        with pytest.raises(SegmentationError) as err:
            for clip in segment(frame_stream(script), MappingBackend(broken), script.fps):
                clips.append(clip)
        assert err.value.frame_index == 90
        assert err.value.stage == "backend"
        assert clips == []

    def test_boundaries_match_scripted_cuts(self):
        rng = random.Random(21)
        for _ in range(5):
            script = random_cut_script(rng, n_segments=6)
            clips = run_script(script, gate_cfg=GateConfig(debounce_k=1))
            cuts = set(cut_positions(script))
            for clip in clips:
                if clip.start != 0:
                    assert clip.start in cuts or (clip.start - 1) in cuts or (clip.start + 1) in cuts
                assert (clip.end + 1) in cuts or clip.end == script.n_frames - 1

    def test_emitted_clips_match_script_truth(self):
        rng = random.Random(33)
        for _ in range(5):
            script = random_cut_script(rng, n_segments=8)
            clips = run_script(script)
            want = expected_clips(script, min_frames=CFG.min_clip_frames)
            assert [(c.start, c.end, c.liveness) for c in clips] == want


class RecordingExport:
    """Stands in for ClipExport, keeping the indices written per clip."""

    def __init__(self):
        self.clips = {}
        self.clip = 1

    def write(self, frame):
        written = self.clips.setdefault(self.clip, [])
        assert not written or frame.index > written[-1]
        written.append(frame.index)

    def commit(self):
        self.clip += 1

    def discard(self):
        self.clips.pop(self.clip, None)


def watched_export(tmp_path):
    """A ClipExport that also notes every frame index it was handed."""
    export = ClipExport(tmp_path / "export")
    export.handed = []
    write = export.write

    def noting(frame):
        export.handed.append(frame.index)
        write(frame)

    export.write = noting
    return export


def exported(root):
    return {
        d.name: [int(p.stem) for p in sorted(d.iterdir())] for d in sorted(root.iterdir())
    }


class TestExport:
    def test_dropped_front_run_leaves_no_file_and_no_directory(self, tmp_path):
        script = script_from_lengths(
            [(OTHER_VIEW, 60), (FRONT_VIEW, 10), (OTHER_VIEW, 60), (FRONT_VIEW, 40), (OTHER_VIEW, 30)],
            **SMALL,
        )
        export = watched_export(tmp_path)
        clips = run_script(script, export=export)
        assert [(c.start, c.end) for c in clips] == [(130, 169)]
        # The short run was written while open, then removed when dropped.
        assert set(range(60, 65)) <= set(export.handed)
        assert exported(export.directory) == {"clip_0001": list(range(130, 170))}
        frames = list(frame_stream(script))
        for idx in range(130, 170):
            path = export.directory / "clip_0001" / f"{idx:06d}.pgm"
            np.testing.assert_array_equal(_read_pgm(path), frames[idx].luma)

    def test_gate_close_end_exports_nothing_past_it(self, tmp_path):
        script = script_from_lengths(
            [
                (OTHER_VIEW, 50, {"base_level": 60}),
                (FRONT_VIEW, 80, {"base_level": 170}),
                (OTHER_VIEW, 60, {"base_level": 170}),
            ],
            **SMALL,
        )
        export = watched_export(tmp_path)
        assert [(c.start, c.end) for c in run_script(script, export=export)] == [(50, 129)]
        assert max(export.handed) == 129
        assert exported(export.directory) == {"clip_0001": list(range(50, 130))}

    def test_aborted_clip_is_removed(self, tmp_path):
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 100), (OTHER_VIEW, 50)], **SMALL
        )
        backend = synthetic_backend(script)
        broken = {i: backend.by_index(i) for i in range(script.n_frames) if i != 90}
        export = watched_export(tmp_path)
        with pytest.raises(SegmentationError):
            list(segment(frame_stream(script), MappingBackend(broken), script.fps, export=export))
        assert export.handed
        assert exported(export.directory) == {}

    def test_write_failing_at_close_removes_the_clip(self, tmp_path, monkeypatch):
        # Clip frames 50-149 leave the four-frame lookback window one by
        # one, up to frame 146; the 98th write is frame 147, the first at
        # the close.
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 100), (OTHER_VIEW, 50)], **SMALL
        )
        paths = failing_write(monkeypatch, 98)
        export = ClipExport(tmp_path / "export")
        with pytest.raises(OSError) as err:
            run_script(script, export=export)
        assert err.value.errno == errno.ENOSPC
        assert paths[97].name == "000147.pgm"
        assert exported(export.directory) == {}

    def test_failed_write_keeps_its_error_and_loses_its_partial_file(
        self, tmp_path, monkeypatch
    ):
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 100), (OTHER_VIEW, 50)], **SMALL
        )
        paths = failing_write(monkeypatch, 10, partial=True)
        export = ClipExport(tmp_path / "export")
        with pytest.raises(OSError) as err:
            run_script(script, export=export)
        assert (err.value.errno, err.value.filename) == (errno.ENOSPC, str(paths[9]))
        assert exported(export.directory) == {}

    @pytest.mark.parametrize("end", ["returns", "raises", "closed"])
    def test_no_writer_thread_outlives_segment(self, tmp_path, monkeypatch, end):
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 60), (OTHER_VIEW, 50), (FRONT_VIEW, 60)],
            **SMALL,
        )
        backend = synthetic_backend(script)
        # Frame 90, in the first clip, has no record when the run is to raise.
        records = {
            i: backend.by_index(i) for i in range(script.n_frames) if end != "raises" or i != 90
        }
        before = threading.active_count()
        during, writers = [], set()
        write_pgm = segmenter.write_pgm

        def counting(luma, path):
            during.append(threading.active_count())
            writers.add(threading.get_ident())
            write_pgm(luma, path)

        monkeypatch.setattr(segmenter, "write_pgm", counting)
        export = ClipExport(tmp_path / "export")
        clips = segment(frame_stream(script), MappingBackend(records), script.fps, export=export)
        if end == "returns":
            assert len(list(clips)) == 2
        elif end == "raises":
            with pytest.raises(SegmentationError):
                list(clips)
        else:
            # A clip is yielded only once its files are written, so this
            # checks that a yield leaves no writer running.
            next(clips)
            clips.close()
        # Every write runs on the one extra thread.
        assert during
        assert max(during) == before + 1
        assert threading.get_ident() not in writers
        assert threading.active_count() == before

    @pytest.mark.parametrize("nth", [10, 98], ids=["mid_clip", "at_close"])
    def test_interrupt_while_waiting_for_the_writer_does_not_hang(
        self, tmp_path, monkeypatch, nth
    ):
        # The nth write lets the pipeline thread start waiting for it, then
        # interrupts that thread, which sees the interrupt once the wait ends.
        script = script_from_lengths(
            [(OTHER_VIEW, 50), (FRONT_VIEW, 100), (OTHER_VIEW, 50)], **SMALL
        )
        before = threading.active_count()
        calls = []
        write_pgm = segmenter.write_pgm

        def interrupting(luma, path):
            calls.append(path)
            if len(calls) == nth:
                time.sleep(0.05)
                _thread.interrupt_main()
            write_pgm(luma, path)

        class Hung(BaseException):
            pass  # not an Exception, so no cleanup swallows it

        def hung(signum, frame):
            raise Hung("segment() still waits 30 s after the interrupt")

        monkeypatch.setattr(segmenter, "write_pgm", interrupting)
        export = ClipExport(tmp_path / "export")
        # A real signal ends a wait that would otherwise last forever.
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_script(script, export=export)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert threading.active_count() == before
        assert exported(export.directory) == {}

    def test_writer_threads_under_fast_switching_keep_every_frame(self, tmp_path):
        rng = random.Random(11)
        scripts = [random_cut_script(rng, n_segments=6, width=64, height=36) for _ in range(3)]
        results = [None] * len(scripts)

        def run(n):
            export = ClipExport(tmp_path / f"export_{n}")
            results[n] = (export, run_script(scripts[n], export=export))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(n,)) for n in range(len(scripts))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for script, (export, clips) in zip(scripts, results):
            assert exported(export.directory) == {
                f"clip_{n:04d}": list(range(c.start, c.end + 1))
                for n, c in enumerate(clips, start=1)
            }
            frames = list(frame_stream(script))
            for n, c in enumerate(clips, start=1):
                for idx in range(c.start, c.end + 1):
                    path = export.directory / f"clip_{n:04d}" / f"{idx:06d}.pgm"
                    np.testing.assert_array_equal(_read_pgm(path), frames[idx].luma)

    def test_writes_match_emitted_clips_under_gate_flicker(self):
        rng = random.Random(5)
        for _ in range(20):
            script = random_cut_script(rng, n_segments=6, width=64, height=36)
            front, records = False, {}
            while len(records) < script.n_frames:
                for _ in range(rng.randint(1, 30)):
                    i = len(records)
                    records[i] = FrameAnnotations(i, 0.9 if front else 0.1)
                front = not front
            export = RecordingExport()
            clips = list(
                segment(
                    frame_stream(script),
                    MappingBackend(records),
                    script.fps,
                    gate_cfg=GateConfig(debounce_k=rng.randint(1, 4)),
                    boundary_cfg=BoundaryConfig(min_clip_frames=rng.randint(1, 30)),
                    strategy="classifier",
                    export=export,
                )
            )
            assert export.clips == {
                n: list(range(c.start, c.end + 1)) for n, c in enumerate(clips, start=1)
            }


def _annotations(index, mask):
    """Bit 0 of ``mask`` sets the classifier score, bits 1 and 2 add an
    umpire and a pitch detection."""
    detections = tuple(
        Detection(label, (1.0, 1.0, 2.0, 2.0), 0.9)
        for bit, label in ((2, "umpire"), (4, "pitch"))
        if mask & bit
    )
    return FrameAnnotations(index, 0.9 if mask & 1 else 0.1, detections)


@st.composite
def gated_streams(draw):
    """Frames and their annotations: runs of one signal mask each, some a
    frame or two long so that the gate flickers, over scenes cut at
    random frames. Bit 3 of a run's mask changes the scorecard band."""
    runs = draw(
        st.lists(st.tuples(st.integers(1, 40), st.integers(0, 15)), min_size=1, max_size=12)
    )
    masks = [mask for length, mask in runs for _ in range(length)]
    cuts = draw(st.sets(st.integers(1, len(masks)), max_size=8))
    frames, records, scene = [], {}, 0
    for i, mask in enumerate(masks):
        scene += i in cuts
        level = (40, 200, 120)[scene % 3]
        luma = np.full((20, 16), level, dtype=np.uint8)
        if mask & 8:
            luma[-3:] = 255 - level
        frames.append(Frame(i, luma))
        records[i] = _annotations(i, mask)
    return frames, records


class TestWholeStreamReference:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=gated_streams(),
        strategy=st.sampled_from(STRATEGIES),
        dual_mode=st.sampled_from(DUAL_MODES),
        k=st.integers(1, 5),
        min_frames=st.integers(1, 40),
        init_frames=st.integers(1, 30),
    )
    def test_segment_matches_the_whole_stream_rules(
        self, stream, strategy, dual_mode, k, min_frames, init_frames
    ):
        frames, records = stream
        gate_cfg = GateConfig(dual_mode=dual_mode, debounce_k=k)
        boundary_cfg = BoundaryConfig(init_frames=init_frames, min_clip_frames=min_frames)
        export = RecordingExport()
        clips = list(
            segment(
                iter(frames),
                MappingBackend(records),
                50.0,
                gate_cfg=gate_cfg,
                boundary_cfg=boundary_cfg,
                strategy=strategy,
                export=export,
            )
        )
        verdicts = [apply_gate(strategy, records[i], gate_cfg) for i in range(len(frames))]
        cuts = boundary_flags(frames, boundary_cfg)
        want = reference_segment(frames, verdicts, cuts, 50.0, k, min_frames, ReplayConfig())
        assert clips == want
        assert export.clips == {
            n: list(range(c.start, c.end + 1)) for n, c in enumerate(want, start=1)
        }


class TestClipInvariants:
    def test_start_must_not_exceed_end(self):
        with pytest.raises(ValueError):
            Clip(start=5, end=4, duration_ms=0.0, liveness="live", evidence={})

    def test_length(self):
        clip = Clip(start=10, end=19, duration_ms=400.0, liveness="live", evidence={})
        assert clip.length == 10
