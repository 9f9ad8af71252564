"""Shot-boundary detection and the clip state machine.

A per-pixel running-average background model counts deviating pixels; a
frame whose foreground fraction exceeds the boundary threshold is a shot
change. Debounced gate events open clips, and the first boundary (or a
sustained gate close, whichever comes first) ends them. Each emitted clip
carries a live/replay verdict from the scorecard band check. Only the
frames of a short lookback window are held; an optional export sink gets
each clip frame as soon as its clip membership is final.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from cricseg import kernels
from cricseg.backend import AnnotationError, Backend
from cricseg.frames import Frame, write_pgm
from cricseg.gate import Debouncer, GateConfig, GateVerdict, apply_gate
from cricseg.replay import ReplayConfig, UNDETERMINED, classify_liveness

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor


class SegmentationError(Exception):
    """Pipeline failure; names the stage and the frame where it happened."""

    def __init__(self, stage: str, frame_index: int, message: str) -> None:
        super().__init__(f"{stage} at frame {frame_index}: {message}")
        self.stage = stage
        self.frame_index = frame_index


@dataclass(frozen=True)
class BoundaryConfig:
    foreground_threshold: float = 0.6
    pixel_diff_threshold: float = 25.0
    learning_rate: float = 0.05
    init_frames: int = 30
    min_clip_frames: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.foreground_threshold <= 1.0:
            raise ValueError("foreground_threshold must be in (0, 1]")
        if not self.pixel_diff_threshold >= 0:
            raise ValueError("pixel_diff_threshold must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.init_frames < 1:
            raise ValueError("init_frames must be >= 1")
        if self.min_clip_frames < 1:
            raise ValueError("min_clip_frames must be >= 1")


class Foreground(NamedTuple):
    """How many of a frame's pixels the background model flagged."""

    count: int
    pixels: int


class BackgroundModel:
    """Per-pixel running average over the luma plane.

    The model is warm once it has seen ``init_frames`` frames; the
    foreground count is 0 until then.
    """

    def __init__(self, cfg: BoundaryConfig) -> None:
        self.cfg = cfg
        self._mean: np.ndarray | None = None
        self.seen = 0

    @property
    def warm(self) -> bool:
        return self.seen >= self.cfg.init_frames

    def reset(self) -> None:
        self._mean = None
        self.seen = 0

    def update(self, luma: np.ndarray) -> Foreground:
        """Fold one frame in; returns its foreground count.

        The count compares against the pre-update mean, so a hard cut
        flags every pixel before the model starts adapting to the new
        scene.
        """
        if self._mean is None:
            self._mean = luma.astype(np.float32)
            self.seen = 1
            return Foreground(0, luma.size)
        if luma.shape != self._mean.shape:
            raise ValueError(
                f"frame dimensions {luma.shape} do not match model {self._mean.shape}"
            )
        count = kernels.ACTIVE.bg_update(
            self._mean, luma, self.cfg.learning_rate, self.cfg.pixel_diff_threshold
        )
        if not self.warm:
            count = 0
        self.seen += 1
        return Foreground(count, luma.size)


def foreground_fraction(fg: Foreground) -> float:
    """Share of pixels flagged as foreground."""
    return fg.count / fg.pixels


def detect_boundary(fraction: float, cfg: BoundaryConfig, warm: bool) -> bool:
    """Shot change iff the model is warm and the fraction strictly exceeds
    the threshold."""
    return warm and fraction > cfg.foreground_threshold


@dataclass(frozen=True)
class Clip:
    """A contiguous frame interval with gate evidence and a liveness verdict."""

    start: int
    end: int
    duration_ms: float
    liveness: str
    evidence: dict

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("clip start must not exceed its end")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class ClipExport:
    """Writes clip frames as ``clip_NNNN/NNNNNN.pgm`` under a directory.

    ``segment()`` calls ``write`` with the frames of clip ``clip``
    (numbered from 1 in emission order) in index order, each once, then
    ``flush`` before it emits the clip, or ``discard`` for the clip in
    progress when it will not be emitted; the next clip then reuses its
    number. Discarding removes the clip's files, a partly written one
    included, and its directory, unless that directory was there before.

    The first ``write`` after a flush starts a writer thread, and each
    later ``write`` waits for the thread to finish the frame before it, so
    that one frame at most is in flight. ``flush`` and ``discard`` wait
    for that frame, stop the thread, and raise the error of a write that
    failed; so does the next ``write``.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._clip = 0
        self._written: list[Path] = []
        self._made_dir: Path | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._pending: Future | None = None

    def write(self, clip: int, frame: Frame) -> None:
        clip_dir = self.directory / f"clip_{clip:04d}"
        if clip != self._clip:
            self._clip, self._written, self._made_dir = clip, [], None
            if not clip_dir.is_dir():
                clip_dir.mkdir()
                self._made_dir = clip_dir
        path = clip_dir / f"{frame.index:06d}.pgm"
        # Recorded before the write, so that a discard removes a partial file.
        self._written.append(path)
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()  # the frame before is written
        if self._pool is None:
            # Imported here, as runs that export nothing never need it.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(1, thread_name_prefix="cricseg-export")
        self._pending = self._pool.submit(_write_taken, [(frame.luma, path)])

    def flush(self) -> None:
        """Wait until every frame handed to ``write`` is written, and stop
        the writer thread; raises the error of a write that failed."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    def discard(self, clip: int) -> None:
        try:
            self.flush()
        finally:
            if clip == self._clip:
                for path in self._written:
                    path.unlink(missing_ok=True)
                if self._made_dir is not None:
                    self._made_dir.rmdir()
                self._clip, self._written, self._made_dir = 0, [], None


def _write_taken(job: list) -> None:
    # Takes the pixels out of the job, so that they are freed before the
    # write is reported done and the next frame is handed over.
    luma, path = job.pop()
    write_pgm(luma, path)


@dataclass
class _OpenClip:
    start: int
    first_frame: Frame
    signal_counts: dict = field(default_factory=dict)
    counted_up_to: int = -1

    def count(self, index: int, verdict: GateVerdict, sign: int = 1) -> None:
        for signal in verdict.evidence:
            self.signal_counts[signal] = self.signal_counts.get(signal, 0) + sign
        if sign > 0:
            self.counted_up_to = index


def segment(
    frames: Iterable[Frame],
    backend: Backend,
    fps: float,
    gate_cfg: GateConfig | None = None,
    boundary_cfg: BoundaryConfig | None = None,
    replay_cfg: ReplayConfig | None = None,
    strategy: str = "dual",
    on_frame: Callable[[int], None] | None = None,
    export: ClipExport | None = None,
) -> Iterator[Clip]:
    """Run the full gate + boundary state machine over a frame stream.

    Clips open at the start of a debounced front run (or right at a
    boundary when the gate is already open, covering front-to-front cuts)
    and close at the first boundary or sustained gate close. The
    background model resets at every boundary. Emitted clips are disjoint,
    ordered, and at least min_clip_frames long. Backend errors abort the
    clip in progress and surface with the frame index.

    With ``export``, a clip frame is written once it leaves the lookback
    window of an open clip, and the rest when the clip closes; every file
    of a clip is written before it is yielded. A clip that is dropped or
    aborted is discarded from the export, and no writer thread outlives
    the generator.
    """
    gate_cfg = gate_cfg or GateConfig()
    boundary_cfg = boundary_cfg or BoundaryConfig()
    replay_cfg = replay_cfg or ReplayConfig()

    model = BackgroundModel(boundary_cfg)
    debouncer = Debouncer(gate_cfg.debounce_k)
    open_clip: _OpenClip | None = None
    # Lookback buffer for retroactive opens and closes: the debounce lag
    # plus the boundary's one-frame step back.
    recent: OrderedDict[int, tuple[Frame, GateVerdict]] = OrderedDict()
    lookback = gate_cfg.debounce_k + 2
    current = -1
    emitted = 0

    def close(end_index: int) -> Clip | None:
        """Close the open clip at end_index; None when nothing to emit."""
        nonlocal open_clip, emitted
        state, open_clip = open_clip, None
        if state is None:
            return None
        length = end_index - state.start + 1
        if length < boundary_cfg.min_clip_frames:
            if export is not None:
                export.discard(emitted + 1)
            return None
        for idx in range(end_index + 1, state.counted_up_to + 1):
            state.count(idx, recent[idx][1], sign=-1)
        if export is not None:
            # Frames that already left the lookback window were written then.
            for idx in range(max(state.start, next(iter(recent))), end_index + 1):
                export.write(emitted + 1, recent[idx][0])
            export.flush()
        emitted += 1
        last_frame = recent[end_index][0]
        liveness = (
            classify_liveness([state.first_frame, last_frame], replay_cfg)
            if length >= 2
            else UNDETERMINED
        )
        evidence = {
            "frames": length,
            "signals": {k: v for k, v in sorted(state.signal_counts.items()) if v > 0},
        }
        return Clip(state.start, end_index, length * 1000.0 / fps, liveness, evidence)

    def open_at(start_index: int) -> None:
        nonlocal open_clip
        open_clip = _OpenClip(start_index, recent[start_index][0])
        for idx in range(start_index, current + 1):
            open_clip.count(idx, recent[idx][1])

    try:
        for frame in frames:
            try:
                annotations = backend.annotate(frame)
            except AnnotationError as exc:
                raise SegmentationError("backend", exc.frame_index, str(exc)) from exc

            current = frame.index
            verdict = apply_gate(strategy, annotations, gate_cfg)
            recent[current] = (frame, verdict)
            while len(recent) > lookback:
                # An open clip's end never falls before a frame leaving the
                # window, so a frame from its start on is final here.
                oldest = next(iter(recent))
                if export is not None and open_clip is not None and oldest >= open_clip.start:
                    export.write(emitted + 1, recent[oldest][0])
                del recent[oldest]

            was_warm = model.warm
            fg = model.update(frame.luma)
            boundary = detect_boundary(foreground_fraction(fg), boundary_cfg, was_warm)
            event = debouncer.push(current, verdict.is_front)

            if event is not None and event.kind == "close" and open_clip is not None:
                clip = close(event.run_start - 1)
                if clip is not None:
                    yield clip
            if boundary:
                if open_clip is not None:
                    clip = close(current - 1)
                    if clip is not None:
                        yield clip
                model.reset()
                model.update(frame.luma)
                if debouncer.gate_open:
                    open_at(current)
            if event is not None and event.kind == "open" and open_clip is None:
                open_at(event.run_start)

            if open_clip is not None and open_clip.counted_up_to < current:
                open_clip.count(current, verdict)
            if on_frame is not None:
                on_frame(current)

        if open_clip is not None and current >= 0:
            clip = close(current)
            if clip is not None:
                yield clip
    except BaseException:
        # An aborted clip is never emitted, so nothing of it stays exported;
        # this also stops the writer thread. Clip emitted + 1 is the one in
        # progress, closing or not, and has no files when none was open.
        # The error in flight is the one to report, not a cleanup failure.
        if export is not None:
            with suppress(Exception):
                export.discard(emitted + 1)
        raise


@dataclass(frozen=True)
class SegmentRun:
    clips: list
    frames_processed: int
    wall_ms: float


def run_segmentation(
    frames: Iterable[Frame], backend: Backend, fps: float, **kwargs
) -> SegmentRun:
    """Drive segment() to completion, timing the run."""
    count = 0

    def tick(_: int) -> None:
        nonlocal count
        count += 1

    start = time.perf_counter()
    clips = list(segment(frames, backend, fps, on_frame=tick, **kwargs))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SegmentRun(clips=clips, frames_processed=count, wall_ms=wall_ms)
