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
from math import inf
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

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

    The mean is a 2-D float32 memoryview (format ``"f"``) of the frame's
    shape. The model is warm once it has seen ``init_frames`` frames; the
    foreground count is 0 until then.
    """

    def __init__(self, cfg: BoundaryConfig) -> None:
        self.cfg = cfg
        self._mean: memoryview | None = None
        self.seen = 0

    @property
    def warm(self) -> bool:
        return self.seen >= self.cfg.init_frames

    def reset(self) -> None:
        self._mean = None
        self.seen = 0

    def update(self, luma) -> Foreground:
        """Fold one 2-D uint8 luma plane in; returns its foreground count.

        The count compares against the pre-update mean, so a hard cut
        flags every pixel before the model starts adapting to the new
        scene.
        """
        shape = luma.shape
        pixels = shape[0] * shape[1]
        if self._mean is None:
            # The first frame is blended at rate 1 into a zeroed mean:
            # 0 + 1 * (l - 0) is l exactly in float32, so the mean starts
            # as the frame itself.
            self._mean = memoryview(bytearray(4 * pixels)).cast("f", shape)
            kernels.ACTIVE.bg_update(self._mean, luma, 1.0, self.cfg.pixel_diff_threshold)
            self.seen = 1
            return Foreground(0, pixels)
        if shape != self._mean.shape:
            raise ValueError(f"frame dimensions {shape} do not match model {self._mean.shape}")
        count = kernels.ACTIVE.bg_update(
            self._mean, luma, self.cfg.learning_rate, self.cfg.pixel_diff_threshold
        )
        if not self.warm:
            count = 0
        self.seen += 1
        return Foreground(count, pixels)


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

    Clips are numbered from 1. ``write`` adds a frame to the clip in
    progress; ``segment()`` hands it each frame of a clip once, in index
    order. ``commit`` ends the clip once its files are written, and the
    next ``write`` starts the next number. ``discard`` removes the clip in
    progress, every file of it (a partly written one included) and its
    directory, unless that directory was there before; the next clip then
    reuses its number.

    The first ``write`` of a clip starts a writer thread, and each later
    ``write`` waits for the thread to finish the frame before it, so that
    one frame at most is in flight. ``commit`` and ``discard`` wait for
    that frame, stop the thread, and raise the error of a write that
    failed; so does the next ``write``.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._clip = 1
        self._written: list[Path] = []
        self._made_dir: Path | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._pending: Future | None = None

    def write(self, frame: Frame) -> None:
        clip_dir = self.directory / f"clip_{self._clip:04d}"
        if not self._written and not clip_dir.is_dir():
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

    def commit(self) -> None:
        """Wait until every frame of the clip is written, stop the writer
        thread and move on to the next clip; raises the error of a write
        that failed, and the clip stays in progress."""
        self._finish_writes()
        self._clip += 1
        self._written, self._made_dir = [], None

    def discard(self) -> None:
        try:
            self._finish_writes()
        finally:
            for path in self._written:
                path.unlink(missing_ok=True)
            if self._made_dir is not None:
                self._made_dir.rmdir()
            self._written, self._made_dir = [], None

    def _finish_writes(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()


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


def segment(
    frames: Iterable[Frame],
    backend: Backend,
    fps: float,
    gate_cfg: GateConfig | None = None,
    boundary_cfg: BoundaryConfig | None = None,
    replay_cfg: ReplayConfig | None = None,
    strategy: str = "dual",
    export: ClipExport | None = None,
) -> Iterator[Clip]:
    """Run the full gate + boundary state machine over a frame stream.

    Clips open at the start of a debounced front run (or right at a
    boundary when the gate is already open, covering front-to-front cuts)
    and close at the first boundary or sustained gate close. The
    background model resets at every boundary. Emitted clips are disjoint,
    ordered, and at least min_clip_frames long. Backend errors abort the
    clip in progress and surface with the frame index.

    A frame of an open clip is settled once its clip membership is final:
    when it leaves the lookback window, or when its clip closes. Settling
    counts its gate evidence into the clip's signals and, with
    ``export``, writes it; every file of a clip is committed before the
    clip is yielded. A clip that is dropped or aborted is discarded from
    the export, and no writer thread outlives the generator. ``fps``
    gives each clip's ``duration_ms``, and is checked before any pull.
    """
    if not 0.0 < fps < inf:
        raise ValueError("fps must be positive and finite")
    gate_cfg = gate_cfg or GateConfig()
    boundary_cfg = boundary_cfg or BoundaryConfig()
    replay_cfg = replay_cfg or ReplayConfig()

    model = BackgroundModel(boundary_cfg)
    debouncer = Debouncer(gate_cfg.debounce_k)
    open_clip: _OpenClip | None = None
    # Lookback buffer for retroactive opens and closes. A debounced run
    # starts k - 1 frames back and a gate close ends the clip on the frame
    # before it, so the window holds the current frame and k before it.
    recent: OrderedDict[int, tuple[Frame, GateVerdict]] = OrderedDict()
    lookback = gate_cfg.debounce_k + 1
    current = -1

    def settle(index: int) -> None:
        frame, verdict = recent[index]
        counts = open_clip.signal_counts
        for signal in verdict.evidence:
            counts[signal] = counts.get(signal, 0) + 1
        if export is not None:
            export.write(frame)

    def close(end_index: int) -> Clip | None:
        """Close the open clip at end_index; None when it is too short."""
        nonlocal open_clip
        state = open_clip
        length = end_index - state.start + 1
        if length < boundary_cfg.min_clip_frames:
            open_clip = None
            if export is not None:
                export.discard()
            return None
        # Frames that already left the lookback window were settled then.
        for idx in range(max(state.start, next(iter(recent))), end_index + 1):
            settle(idx)
        open_clip = None
        if export is not None:
            export.commit()
        last_frame = recent[end_index][0]
        liveness = (
            classify_liveness([state.first_frame, last_frame], replay_cfg)
            if length >= 2
            else UNDETERMINED
        )
        evidence = {"frames": length, "signals": dict(sorted(state.signal_counts.items()))}
        return Clip(state.start, end_index, length * 1000.0 / fps, liveness, evidence)

    try:
        for frame in frames:
            try:
                annotations = backend.annotate(frame)
            except AnnotationError as exc:
                raise SegmentationError("backend", exc.frame_index, str(exc)) from exc

            current = frame.index
            verdict = apply_gate(strategy, annotations, gate_cfg)
            recent[current] = (frame, verdict)
            if len(recent) > lookback:
                # An open clip's end never falls before a frame leaving the
                # window, so a frame from its start on is final here.
                oldest = next(iter(recent))
                if open_clip is not None and oldest >= open_clip.start:
                    settle(oldest)
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
                    open_clip = _OpenClip(current, frame)
            if event is not None and event.kind == "open" and open_clip is None:
                open_clip = _OpenClip(event.run_start, recent[event.run_start][0])

        if open_clip is not None:
            clip = close(current)
            if clip is not None:
                yield clip
    except BaseException:
        # An aborted clip is never emitted, so nothing of it stays exported;
        # this also stops the writer thread. The clip in progress, closing or
        # not, has no files when none was open. The error in flight is the
        # one to report, not a cleanup failure.
        if export is not None:
            with suppress(Exception):
                export.discard()
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

    def counted(frames: Iterable[Frame]) -> Iterator[Frame]:
        nonlocal count
        for frame in frames:
            count += 1
            yield frame

    start = time.perf_counter()
    clips = list(segment(counted(frames), backend, fps, **kwargs))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SegmentRun(clips=clips, frames_processed=count, wall_ms=wall_ms)
