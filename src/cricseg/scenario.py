"""Synthetic broadcast scenarios: scripted frames, annotations, and
ground truth.

A script is a gapless timeline of scene segments. Front-view segments
look like the delivery camera (high classifier score, pitch and umpire
boxes, optionally a ball arc with a zoom ramp); other-view segments look
like everything else. Rendering is deterministic, so a script doubles as
its own oracle: cut positions, per-frame front/not labels, live/replay
labels, and bounce ground truth all come straight from the script.

Rendered scenes are built so the downstream arithmetic is exercised, not
approximated: scene changes at segment boundaries move every pixel well
past the background model's pixel threshold, while in-segment motion (a
drifting block plus a slow luminance ramp) stays far below the boundary
fraction. Live segments carry a static scorecard band; replay segments
let the band follow the scene.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterator

import numpy as np

from cricseg.backend import Detection, FrameAnnotations, MappingBackend
from cricseg.frames import BandSpec, Frame, stream_from_arrays
from cricseg.geometry import PitchSpec, RowCalibration, classify_delivery, distance_to_row

FRONT_VIEW = "front_view"
OTHER_VIEW = "other_view"

# Scene palette: consecutive base levels differ by >= 60 luma levels, so a
# cut still clears a 25-level pixel threshold after the +30 in-segment ramp.
_BASE_PALETTE = (50, 150, 90, 200)
_RAMP_CAP = 30
_BLOCK = 24  # side of the drifting block, px

_FRONT_PROB = 0.97
_OTHER_PROB = 0.02


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class DeliverySpec:
    """One bowled ball inside a front-view segment.

    The ball arc descends from the release row to the bounce row computed
    from ``bounce_distance_m`` and rises again; the batsman's apparent
    height ramps from its base to ``zoom`` times that over the descent.
    """

    bounce_distance_m: float
    release_offset: int = 12
    descent_frames: int = 10
    ascent_frames: int = 6
    zoom: float = 1.2

    def __post_init__(self) -> None:
        if self.release_offset < 0:
            raise ScenarioError("release_offset must be >= 0")
        if self.descent_frames < 2 or self.ascent_frames < 1:
            raise ScenarioError("ball arc needs >= 2 descent and >= 1 ascent frames")
        if self.zoom <= 0:
            raise ScenarioError("zoom must be positive")


@dataclass(frozen=True)
class SceneSegment:
    kind: str
    start: int
    end: int  # inclusive
    scorecard: bool = True
    delivery: DeliverySpec | None = None
    base_level: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (FRONT_VIEW, OTHER_VIEW):
            raise ScenarioError(f"unknown scene kind: {self.kind!r}")
        if self.start < 0 or self.end < self.start:
            raise ScenarioError("segment must have start >= 0 and end >= start")
        if self.delivery is not None and self.kind != FRONT_VIEW:
            raise ScenarioError("only front-view segments carry a delivery")
        if self.base_level is not None and not 0 <= self.base_level <= 255:
            raise ScenarioError("base_level must be in [0, 255]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class ScenarioScript:
    segments: tuple[SceneSegment, ...]
    width: int = 640
    height: int = 360
    fps: float = 50.0
    pitch: PitchSpec = field(default_factory=PitchSpec)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ScenarioError("script has no segments")
        if self.width < 64 or self.height < 36:
            raise ScenarioError("frame size too small for scenario geometry")
        if self.segments[0].start != 0:
            raise ScenarioError("timeline must start at frame 0")
        prev = self.segments[0]
        for seg in self.segments[1:]:
            if seg.start <= prev.end:
                raise ScenarioError(
                    f"timeline segments overlap at frame {seg.start}"
                )
            if seg.start != prev.end + 1:
                raise ScenarioError(
                    f"timeline has a gap between frames {prev.end} and {seg.start}"
                )
            prev = seg
        for seg in self.segments:
            d = seg.delivery
            if d is None:
                continue
            arc_end = seg.start + d.release_offset + d.descent_frames + d.ascent_frames
            if arc_end > seg.end:
                raise ScenarioError("ball arc runs past its segment")

    @property
    def n_frames(self) -> int:
        return self.segments[-1].end + 1

    def segment_at(self, index: int) -> SceneSegment:
        for seg in self.segments:
            if seg.start <= index <= seg.end:
                return seg
        raise ScenarioError(f"frame {index} outside the scripted timeline")


def script_from_lengths(
    spec: list[tuple],
    width: int = 640,
    height: int = 360,
    fps: float = 50.0,
    pitch: PitchSpec | None = None,
) -> ScenarioScript:
    """Build a gapless script from (kind, length, ...) tuples.

    Each entry is (kind, length), optionally followed by a dict of extra
    SceneSegment fields (scorecard, delivery, base_level).
    """
    segments = []
    start = 0
    for entry in spec:
        kind, length = entry[0], entry[1]
        extra = entry[2] if len(entry) > 2 else {}
        segments.append(SceneSegment(kind, start, start + length - 1, **extra))
        start += length
    kwargs = {"pitch": pitch} if pitch is not None else {}
    return ScenarioScript(tuple(segments), width=width, height=height, fps=fps, **kwargs)


# --- ground truth accessors -------------------------------------------------

def cut_positions(script: ScenarioScript) -> list[int]:
    """First frame of every segment after the first: the scripted cuts."""
    return [seg.start for seg in script.segments[1:]]


def front_view_labels(script: ScenarioScript) -> list[bool]:
    labels = []
    for seg in script.segments:
        labels.extend([seg.kind == FRONT_VIEW] * seg.length)
    return labels


def expected_clips(script: ScenarioScript, min_frames: int = 1) -> list[tuple[int, int, str]]:
    """(start, end, liveness) for every front-view segment long enough."""
    out = []
    for seg in script.segments:
        if seg.kind == FRONT_VIEW and seg.length >= min_frames:
            out.append((seg.start, seg.end, "live" if seg.scorecard else "replay"))
    return out


@dataclass(frozen=True)
class DeliveryTruth:
    segment_start: int
    release_frame: int
    bounce_frame: int
    distance_m: float
    delivery_type: str
    calibration: RowCalibration
    arc: tuple[tuple[int, float, float], ...]  # (frame, col, row)


def _geometry(script: ScenarioScript) -> dict[str, float]:
    h, w = script.height, script.width
    return {
        "batsman_bottom": 0.88 * h,
        "batsman_h1": 0.20 * h,
        "batsman_col": 0.47 * w,
        "batsman_w": 0.06 * w,
        "bowler_bottom": 0.28 * h,  # batsman_bottom - p1
        "bowler_h": 0.16 * h,
        "bowler_col": 0.50 * w,
        "bowler_w": 0.05 * w,
        "p1": 0.60 * h,
        "release_row": 0.10 * h,
        "ascent_px_per_frame": 0.028 * h,
        "ball_col": 0.50 * w,
    }


def _delivery_truth(script: ScenarioScript, seg: SceneSegment) -> DeliveryTruth:
    d = seg.delivery
    assert d is not None
    g = _geometry(script)
    p2 = d.zoom * g["p1"]
    calib = RowCalibration(
        batsman_crease_row=g["batsman_bottom"],
        bowler_crease_row=g["batsman_bottom"] - p2,
        tilt_deg=script.pitch.tilt_deg,
    )
    bounce_row = distance_to_row(d.bounce_distance_m, calib, script.pitch)
    release = seg.start + d.release_offset
    bounce = release + d.descent_frames
    r0 = g["release_row"]
    if bounce_row <= r0:
        raise ScenarioError(
            "bounce row above the release row; bounce_distance_m too close to the bowler"
        )
    arc = []
    n = d.descent_frames
    # Mildly accelerating descent profile: fastest just after release,
    # slowest into the bounce. The 0.35 blend keeps the worst per-frame
    # step under the default width-scaled association bound while leaving
    # the vertex steep enough to survive a couple of pixels of row noise.
    for k in range(n + 1):
        x = (n - k) / n
        row = bounce_row - (bounce_row - r0) * x * (0.65 + 0.35 * x)
        arc.append((release + k, g["ball_col"] + 0.5 * k, row))
    for j in range(1, d.ascent_frames + 1):
        row = bounce_row - g["ascent_px_per_frame"] * j
        arc.append((bounce + j, g["ball_col"] + 0.5 * (n + j), row))
    return DeliveryTruth(
        segment_start=seg.start,
        release_frame=release,
        bounce_frame=bounce,
        distance_m=d.bounce_distance_m,
        delivery_type=classify_delivery(d.bounce_distance_m, script.pitch),
        calibration=calib,
        arc=tuple(arc),
    )


def delivery_truths(script: ScenarioScript) -> list[DeliveryTruth]:
    return [
        _delivery_truth(script, seg)
        for seg in script.segments
        if seg.delivery is not None
    ]


# --- annotations -------------------------------------------------------------

def _segment_base(script: ScenarioScript, seg_pos: int) -> int:
    seg = script.segments[seg_pos]
    if seg.base_level is not None:
        return seg.base_level
    return _BASE_PALETTE[seg_pos % len(_BASE_PALETTE)]


def _batsman_height_at(script: ScenarioScript, seg: SceneSegment, index: int) -> float:
    g = _geometry(script)
    h1 = g["batsman_h1"]
    d = seg.delivery
    if d is None:
        return h1
    release = seg.start + d.release_offset
    bounce = release + d.descent_frames
    if index <= release:
        return h1
    if index >= bounce:
        return h1 * d.zoom
    frac = (index - release) / (bounce - release)
    return h1 * (1.0 + (d.zoom - 1.0) * frac)


def _annotations_for(script: ScenarioScript, index: int) -> FrameAnnotations:
    seg = script.segment_at(index)
    if seg.kind == OTHER_VIEW:
        return FrameAnnotations(index, _OTHER_PROB, ())
    g = _geometry(script)
    h, w = script.height, script.width
    dets = [
        Detection("pitch", (0.30 * w, 0.20 * h, 0.40 * w, 0.65 * h), 0.90),
        Detection("umpire", (0.48 * w, 0.22 * h, 0.05 * w, 0.12 * h), 0.80),
    ]
    bh = _batsman_height_at(script, seg, index)
    dets.append(
        Detection(
            "batsman",
            (g["batsman_col"], g["batsman_bottom"] - bh, g["batsman_w"], bh),
            0.85,
        )
    )
    dets.append(
        Detection(
            "bowler",
            (g["bowler_col"], g["bowler_bottom"] - g["bowler_h"], g["bowler_w"], g["bowler_h"]),
            0.82,
        )
    )
    if seg.delivery is not None:
        truth = _delivery_truth(script, seg)
        for frame, col, row in truth.arc:
            if frame == index:
                r = 4.0
                dets.append(Detection("ball", (col - r, row - r, 2 * r, 2 * r), 0.95))
                break
    return FrameAnnotations(index, _FRONT_PROB, tuple(dets))


def synthetic_backend(script: ScenarioScript) -> MappingBackend:
    """Deterministic annotations for every scripted frame."""
    return MappingBackend(
        {i: _annotations_for(script, i) for i in range(script.n_frames)}
    )


# --- pixels ------------------------------------------------------------------

_SCORECARD_STRIPE = 8


def _scorecard_pattern(width: int, rows: int) -> np.ndarray:
    cols = np.arange(width)
    line = np.where((cols // _SCORECARD_STRIPE) % 2 == 0, 230, 20).astype(np.uint8)
    return np.broadcast_to(line, (rows, width))


def render_frame(script: ScenarioScript, index: int, band: BandSpec | None = None) -> np.ndarray:
    """Synthesize the luma plane for one scripted frame."""
    seg = script.segment_at(index)
    seg_pos = script.segments.index(seg)
    base = _segment_base(script, seg_pos)
    t = index - seg.start
    level = min(base + min(t, _RAMP_CAP), 255)
    h, w = script.height, script.width
    luma = np.full((h, w), level, dtype=np.uint8)

    block_level = 255 if level < 128 else 0
    bx = (seg.start * 7 + 13 * t) % max(1, w - _BLOCK)
    by = int(0.30 * h)
    luma[by : by + _BLOCK, bx : bx + _BLOCK] = block_level

    if seg.scorecard:
        r0, r1 = (band or BandSpec()).rows(h)
        luma[r0:r1, :] = _scorecard_pattern(w, r1 - r0)
    return luma


def frame_stream(script: ScenarioScript, band: BandSpec | None = None) -> Iterator[Frame]:
    return stream_from_arrays(
        (render_frame(script, i, band) for i in range(script.n_frames)), script.fps
    )


# --- script loading -----------------------------------------------------------

# What a script value must be, as worded in errors, and the check for it:
# nothing is coerced, a bool is no number, and a JSON integer is finite.
_INT, _NUMBER, _BOOL = "an integer", "a finite number", "true or false"
_CHECKS = {
    _INT: lambda v: type(v) is int,
    _NUMBER: lambda v: type(v) is int or (type(v) is float and isfinite(v)),
    _BOOL: lambda v: type(v) is bool,
}
_DELIVERY_FIELDS = {
    "bounce_distance_m": _NUMBER,
    "release_offset": _INT,
    "descent_frames": _INT,
    "ascent_frames": _INT,
    "zoom": _NUMBER,
}


def _value(obj: dict, key: str, where: str, kind: str, default=None):
    """``obj[key]``, or ``default`` when given and the key is absent;
    ScenarioError naming the field unless it is ``kind``."""
    value = obj[key] if default is None else obj.get(key, default)
    if not _CHECKS[kind](value):
        raise ScenarioError(f"field '{where}{key}' must be {kind}")
    return value


def script_from_obj(obj: dict) -> ScenarioScript:
    """Build a script from its JSON object; values are checked, not coerced."""
    try:
        segments = []
        for i, s in enumerate(obj["segments"]):
            at = f"segments[{i}]."
            delivery = None
            if s.get("delivery"):
                for key, kind in _DELIVERY_FIELDS.items():
                    if key in s["delivery"]:
                        _value(s["delivery"], key, at + "delivery.", kind)
                delivery = DeliverySpec(**s["delivery"])
            base_level = s.get("base_level")
            segments.append(
                SceneSegment(
                    kind=s["kind"],
                    start=_value(s, "start", at, _INT),
                    end=_value(s, "end", at, _INT),
                    scorecard=_value(s, "scorecard", at, _BOOL, True),
                    delivery=delivery,
                    base_level=None if base_level is None else _value(s, "base_level", at, _INT),
                )
            )
        fps = _value(obj, "fps", "", _NUMBER, 50.0)
        if fps <= 0:
            raise ScenarioError("field 'fps' must be positive")
        return ScenarioScript(
            tuple(segments),
            width=_value(obj, "width", "", _INT, 640),
            height=_value(obj, "height", "", _INT, 360),
            fps=float(fps),
        )
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario script: {exc}") from exc


def load_script(path: str | Path) -> ScenarioScript:
    """Load a script file; any error it raises names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return script_from_obj(json.load(fh))
        except UnicodeDecodeError:
            raise ScenarioError(f"{path}: not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc


def bundled_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scripts() -> dict[str, Path]:
    return {p.stem: p for p in sorted(bundled_dir().glob("*.json"))}


def resolve_script(name_or_path: str | Path) -> ScenarioScript:
    """Accept either a bundled scenario name or a path to a script file."""
    bundled = bundled_scripts()
    name = str(name_or_path)
    if name in bundled:
        return load_script(bundled[name])
    path = Path(name_or_path)
    if path.exists():
        return load_script(path)
    raise ScenarioError(
        f"unknown scenario {name!r}; bundled: {', '.join(sorted(bundled)) or 'none'}"
    )
