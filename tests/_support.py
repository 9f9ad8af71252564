"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
brute-force enumeration for the tracker, a rasterize-project-lookup table
for the pitch geometry, and hand-rolled counting for gate set algebra.
"""

from __future__ import annotations

import errno
import math
import os
import random
from collections import Counter
from itertools import groupby

import pytest

from cricseg import kernels, segmenter
from cricseg.backend import Detection, FrameAnnotations
from cricseg.geometry import PitchSpec, RowCalibration
from cricseg.replay import UNDETERMINED, classify_liveness
from cricseg.scenario import (
    FRONT_VIEW,
    OTHER_VIEW,
    ScenarioScript,
    script_from_lengths,
)
from cricseg.tracker import BallCandidate

# Both kernel implementations, as parameters for a test that binds
# ``kernels.ACTIVE`` to each; the compiled one is skipped when not built.
KERNEL_IMPLS = [
    pytest.param(kernels._Impl("fallback", kernels._fallback), id="fallback"),
    pytest.param(
        kernels._Impl("native", kernels._native),
        id="native",
        marks=pytest.mark.skipif(not kernels.NATIVE_AVAILABLE, reason="the compiled kernel is not built"),
    ),
]


def make_annotations(
    index: int = 0,
    front_prob: float = 0.0,
    umpire: float | None = None,
    pitch: float | None = None,
    extra: tuple[Detection, ...] = (),
) -> FrameAnnotations:
    dets = list(extra)
    if umpire is not None:
        dets.append(Detection("umpire", (10.0, 10.0, 20.0, 50.0), umpire))
    if pitch is not None:
        dets.append(Detection("pitch", (40.0, 5.0, 100.0, 200.0), pitch))
    return FrameAnnotations(index, front_prob, tuple(dets))


def random_labeled_stream(rng: random.Random, length: int) -> list[tuple[bool, FrameAnnotations]]:
    """(label, annotations) pairs with all evidence combinations exercised."""
    stream = []
    for i in range(length):
        label = rng.random() < 0.5
        # Signals correlate with the label but each can misfire.
        front_prob = rng.uniform(0.55, 1.0) if (label ^ (rng.random() < 0.2)) else rng.uniform(0.0, 0.45)
        umpire = rng.uniform(0.3, 1.0) if (label ^ (rng.random() < 0.25)) else None
        pitch = rng.uniform(0.3, 1.0) if (label ^ (rng.random() < 0.25)) else None
        stream.append((label, make_annotations(i, front_prob, umpire, pitch)))
    return stream


def brute_force_min_path(
    per_frame: list[tuple[int, list[BallCandidate]]],
) -> list[BallCandidate]:
    """Exhaustive minimum-total-path assignment, one candidate per frame.

    Only usable on tiny instances; the independent check for greedy
    association.
    """
    frames = [cands for _, cands in per_frame if cands]
    best_path: list[BallCandidate] | None = None
    best_cost = math.inf

    def recurse(i: int, path: list[BallCandidate], cost: float) -> None:
        nonlocal best_path, best_cost
        if cost >= best_cost:
            return
        if i == len(frames):
            best_path, best_cost = list(path), cost
            return
        for cand in frames[i]:
            step = math.dist(path[-1].center, cand.center) if path else 0.0
            path.append(cand)
            recurse(i + 1, path, cost + step)
            path.pop()

    recurse(0, [], 0.0)
    assert best_path is not None
    return best_path


def well_separated_instance(
    rng: random.Random, n_frames: int, max_step: float
) -> tuple[list[tuple[int, list[BallCandidate]]], list[BallCandidate]]:
    """A true path with steps <= max_step plus decoys > 2*max_step away.

    Returns (per-frame candidate lists, true candidates in order).
    """
    x, y = rng.uniform(200, 800), rng.uniform(200, 600)
    per_frame: list[tuple[int, list[BallCandidate]]] = []
    truth: list[BallCandidate] = []
    for f in range(n_frames):
        true_cand = BallCandidate(f, (x, y), confidence=0.9)
        cands = [true_cand]
        for _ in range(rng.randint(0, 2)):
            angle = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(2.2 * max_step, 6.0 * max_step)
            decoy = (x + dist * math.cos(angle), y + dist * math.sin(angle))
            cands.append(BallCandidate(f, decoy, confidence=0.3))
        rng.shuffle(cands)
        per_frame.append((f, cands))
        truth.append(true_cand)
        angle = rng.uniform(0, 2 * math.pi)
        step = rng.uniform(0.2 * max_step, 0.95 * max_step)
        x += step * math.cos(angle)
        y += step * math.sin(angle)
    return per_frame, truth


def geometry_oracle_distance(
    row: float,
    calib: RowCalibration,
    pitch: PitchSpec,
    samples: int = 40001,
) -> float:
    """Row to distance by rasterizing a tilted strip and projecting it.

    The strip of physical length L is placed in 3-D with its far (bowler)
    end nearer the camera by L*sin(tilt) at viewing distance
    D = L*sin(tilt)/(1 - cos(tilt)); each raster point is projected
    through a pinhole, the projections are affinely mapped onto the
    calibrated crease rows, and the queried row is answered by table
    lookup with linear interpolation. No closed-form screen-to-pitch map
    is used anywhere.
    """
    theta = math.radians(calib.tilt_deg)
    length = pitch.crease_span_m
    us = [j / (samples - 1) for j in range(samples)]
    if theta == 0.0:
        projections = [-u * length for u in us]
    else:
        depth = length * math.sin(theta) / (1.0 - math.cos(theta))
        y0 = 5.0  # arbitrary camera-frame placement; the affine map removes it
        projections = []
        for u in us:
            y = y0 - u * length * math.cos(theta)
            z = depth - u * length * math.sin(theta)
            projections.append(y / z)
    p0, p1 = projections[0], projections[-1]
    span = calib.batsman_crease_row - calib.bowler_crease_row
    rows = [
        calib.batsman_crease_row - (p0 - p) / (p0 - p1) * span for p in projections
    ]
    # rows decrease monotonically from batsman crease to bowler crease
    lo, hi = 0, samples - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rows[mid] >= row:
            lo = mid
        else:
            hi = mid
    r_lo, r_hi = rows[lo], rows[hi]
    if r_lo == r_hi:
        u = us[lo]
    else:
        frac = (r_lo - row) / (r_lo - r_hi)
        u = us[lo] + frac * (us[hi] - us[lo])
    return pitch.crease_offset_m + u * length


def scaled_delivery_fixture(scale: float = 1.0, zoom: float = 1.25, bounce_row_frac: float = 0.5):
    """Release/bounce annotations plus a trajectory, scalable in pixels.

    Returns (trajectory, release annotations, bounce annotations); every
    pixel quantity is multiplied by ``scale``.
    """
    from cricseg.tracker import TrackPoint, Trajectory

    h1 = 160.0 * scale
    p1 = 400.0 * scale
    batsman_bottom = 620.0 * scale

    def batsman(h):
        return Detection("batsman", (490.0 * scale, batsman_bottom - h, 60.0 * scale, h), 0.9)

    def bowler():
        bottom = batsman_bottom - p1
        return Detection("bowler", (600.0 * scale, bottom - 70.0 * scale, 50.0 * scale, 70.0 * scale), 0.8)

    release = FrameAnnotations(10, 0.9, (batsman(h1), bowler()))
    bounce_ann = FrameAnnotations(12, 0.9, (batsman(h1 * zoom), bowler()))
    bounce_row = batsman_bottom - bounce_row_frac * zoom * p1
    rows = [bounce_row - 120.0 * scale, bounce_row - 40.0 * scale, bounce_row, bounce_row - 30.0 * scale]
    points = tuple(TrackPoint(10 + i, 400.0 * scale, r) for i, r in enumerate(rows))
    return Trajectory(points), release, bounce_ann


def random_cut_script(
    rng: random.Random,
    n_segments: int = 5,
    min_len: int = 42,
    max_len: int = 90,
    width: int = 320,
    height: int = 180,
) -> ScenarioScript:
    """Alternating scenes with hard cuts, sized so the model warms up."""
    spec = []
    kind = OTHER_VIEW
    for _ in range(n_segments):
        spec.append((kind, rng.randint(min_len, max_len)))
        kind = FRONT_VIEW if kind == OTHER_VIEW else OTHER_VIEW
    return script_from_lengths(spec, width=width, height=height)


def failing_write(monkeypatch, nth, partial=False):
    """Makes the ``nth`` PGM write of the export fail with ENOSPC, after
    writing a few bytes of its file when ``partial``; returns the list of
    paths handed to the writes."""
    paths = []
    write_pgm = segmenter.write_pgm

    def write(luma, path):
        paths.append(path)
        if len(paths) == nth:
            if partial:
                path.write_bytes(b"P5\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        write_pgm(luma, path)

    monkeypatch.setattr(segmenter, "write_pgm", write)
    return paths


def boundary_flags(frames, cfg):
    """Whether each frame is a shot boundary. The background model sees
    every frame, and starts again from the frame of each boundary."""
    model = segmenter.BackgroundModel(cfg)
    flags = []
    for frame in frames:
        warm = model.warm
        fg = model.update(frame.luma)
        cut = segmenter.detect_boundary(segmenter.foreground_fraction(fg), cfg, warm)
        if cut:
            model.reset()
            model.update(frame.luma)
        flags.append(cut)
    return flags


def reference_segment(frames, verdicts, cuts, fps, k, min_frames, replay_cfg):
    """The clips of a whole stream, from its gate verdicts and boundary
    flags, with no lookback window.

    The gate opens (closes) at the k-th frame of a run of k front (not
    front) verdicts while it is closed (open); the event's run starts at
    the run's first frame. At each frame, in this order: a gate close
    ends the open clip on the frame before its run; a boundary ends the
    open clip on the frame before the boundary and, if the gate is open,
    starts one at the boundary; a gate open starts a clip at its run's
    start unless one is open. The last frame ends the clip still open.
    A clip is kept when it has at least ``min_frames`` frames; it counts
    each signal over its frames, and its endpoints decide its liveness.
    """
    events, gate, pos = {}, False, 0
    for front, run in groupby(v.is_front for v in verdicts):
        length = len(list(run))
        if front != gate and length >= k:
            gate = front
            events[pos + k - 1] = (front, pos)
        pos += length
    spans, start, gate = [], None, False
    for i, cut in enumerate(cuts):
        event = events.get(i)
        if event is not None:
            gate, run_start = event
            if not gate and start is not None:
                spans.append((start, run_start - 1))
                start = None
        if cut:
            if start is not None:
                spans.append((start, i - 1))
            start = i if gate else None
        if event is not None and gate and start is None:
            start = run_start
    if start is not None:
        spans.append((start, len(cuts) - 1))
    clips = []
    for start, end in spans:
        length = end - start + 1
        if length < min_frames:
            continue
        signals = Counter(s for v in verdicts[start : end + 1] for s in v.evidence)
        liveness = (
            classify_liveness([frames[start], frames[end]], replay_cfg)
            if length >= 2
            else UNDETERMINED
        )
        evidence = {"frames": length, "signals": dict(sorted(signals.items()))}
        clips.append(segmenter.Clip(start, end, length * 1000.0 / fps, liveness, evidence))
    return clips
