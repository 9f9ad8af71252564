"""Annotation backends: a uniform source of per-frame classifier scores
and object detections.

The pipeline never runs neural inference itself; it consumes annotations
from a precomputed file, from a synthetic scenario, or from any adapter
implementing the ``Backend`` contract: ``annotate`` for each streamed frame
during segmentation, ``by_index`` for the frames that tracking and
classification look up after the stream is gone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf, isfinite
from pathlib import Path
from typing import Iterator, Protocol

from cricseg import kernels
from cricseg.frames import CropSpec, Frame, crop_offsets
from cricseg.kernels import _fallback

OBJECT_LABELS = frozenset({"pitch", "umpire", "batsman", "bowler", "ball"})

# The types json.loads gives a JSON number; bool, a subclass of int, is not one.
_NUMBER = (int, float)


def _float(value: int | float) -> float:
    """A JSON number as a float. An integer too large for one becomes an
    infinity, so the finite and range checks word it as they word inf."""
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


class AnnotationError(Exception):
    """Backend failure for one frame; carries the frame index."""

    def __init__(self, frame_index: int, message: str) -> None:
        super().__init__(f"frame {frame_index}: {message}")
        self.frame_index = frame_index


class AnnotationLoadError(Exception):
    """Malformed annotation file; message names the offending line."""


@dataclass(frozen=True, slots=True)
class Detection:
    """One detected object box in full-frame pixel coordinates.

    ``box`` is (x, y, w, h) with y measured from the top of the frame;
    every value must be finite.
    """

    label: str
    box: tuple[float, float, float, float]
    confidence: float

    def __post_init__(self) -> None:
        if self.label not in OBJECT_LABELS:
            raise ValueError(f"unknown object label: {self.label!r}")
        x, y, w, h = self.box
        if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
            raise ValueError("detection box values must be finite")
        if w <= 0 or h <= 0:
            raise ValueError("detection box must have positive width and height")
        if x < 0 or y < 0:
            raise ValueError("detection box must lie inside the frame")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")

    @property
    def bottom_row(self) -> float:
        return self.box[1] + self.box[3]

    @property
    def height(self) -> float:
        return self.box[3]

    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return x + w / 2.0, y + h / 2.0


@dataclass(frozen=True, slots=True)
class FrameAnnotations:
    """Classifier score plus detections for one frame."""

    frame_index: int
    front_prob: float
    detections: tuple[Detection, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.front_prob <= 1.0:
            raise ValueError("front_prob must be in [0, 1]")

    def best(self, label: str) -> Detection | None:
        """Highest-confidence detection with the given label, if any."""
        picked = None
        for det in self.detections:
            if det.label == label and (picked is None or det.confidence > picked.confidence):
                picked = det
        return picked

    def with_label(self, label: str) -> tuple[Detection, ...]:
        return tuple(d for d in self.detections if d.label == label)


# The loader builds most records from values it has already checked as
# __post_init__ would; it sets their slots directly, skipping the frozen
# __init__ and the checks it repeats.
_new = object.__new__
_set_label = Detection.label.__set__
_set_box = Detection.box.__set__
_set_confidence = Detection.confidence.__set__
_set_frame_index = FrameAnnotations.frame_index.__set__
_set_front_prob = FrameAnnotations.front_prob.__set__
_set_detections = FrameAnnotations.detections.__set__


class Backend(Protocol):
    """Anything that can annotate frames, streamed or by index."""

    def annotate(self, frame: Frame) -> FrameAnnotations: ...

    def by_index(self, index: int) -> FrameAnnotations: ...


class MappingBackend:
    """Backend serving a fixed mapping of frame index to annotations.

    Pure function of (state, frame index): repeated calls return the same
    object.
    """

    def __init__(self, records: dict[int, FrameAnnotations]) -> None:
        self._records = records

    def annotate(self, frame: Frame) -> FrameAnnotations:
        return self.by_index(frame.index)

    def by_index(self, index: int) -> FrameAnnotations:
        try:
            return self._records[index]
        except KeyError:
            raise AnnotationError(index, "no annotation record for frame") from None


def _parse_detection(
    obj: dict,
    lineno: int,
    crop: CropSpec | None,
    frame_size: tuple[int, int] | None,
) -> Detection:
    try:
        label = obj["label"]
        box = obj["box"]
        conf = obj["conf"]
    except (KeyError, TypeError) as exc:
        raise AnnotationLoadError(f"line {lineno}: malformed detection: {exc}") from exc
    if type(label) is not str:
        raise AnnotationLoadError(f"line {lineno}: field 'label' must be a string")
    # Anything but a 4-array unpacks to Nones, which fail the number check.
    x, y, w, h = box if type(box) is list and len(box) == 4 else (None,) * 4
    if not (type(x) in _NUMBER and type(y) in _NUMBER and type(w) in _NUMBER
            and type(h) in _NUMBER):
        raise AnnotationLoadError(f"line {lineno}: field 'box' must be an array of 4 numbers")
    if type(conf) not in _NUMBER:
        raise AnnotationLoadError(f"line {lineno}: field 'conf' must be a number")
    x, y, w, h = _float(x), _float(y), _float(w), _float(h)
    space = obj.get("space", "full")
    if space == "cropped":
        if crop is None or frame_size is None:
            raise AnnotationLoadError(
                f"line {lineno}: cropped-space detection but no crop spec / frame size given"
            )
        dx, dy = crop_offsets(crop, *frame_size)
        x, y = x + dx, y + dy
    elif space != "full":
        raise AnnotationLoadError(f"line {lineno}: unknown coordinate space {space!r}")
    try:
        det = Detection(label, (x, y, w, h), _float(conf))
    except ValueError as exc:
        raise AnnotationLoadError(f"line {lineno}: {exc}") from exc
    if frame_size is not None:
        fw, fh = frame_size
        if x + w > fw or y + h > fh:
            raise AnnotationLoadError(f"line {lineno}: detection box exceeds frame bounds")
    return det


def _checked_detection(obj: object, fw: float, fh: float) -> Detection | None:
    """The Detection of a full-frame detection object whose box and
    confidence are floats that pass every check of ``_parse_detection``,
    with (fw, fh) as the frame size; None for any other object, which
    ``_parse_detection`` then loads or words the error for."""
    if type(obj) is not dict or "space" in obj:
        return None
    label = obj.get("label")
    box = obj.get("box")
    conf = obj.get("conf")
    if not (
        type(label) is str
        and label in OBJECT_LABELS
        and type(box) is list
        and len(box) == 4
        and type(conf) is float
        and 0.0 <= conf <= 1.0
    ):
        return None
    x, y, w, h = box
    # NaN fails every comparison; the upper bounds keep out infinities.
    if not (
        type(x) is float
        and type(y) is float
        and type(w) is float
        and type(h) is float
        and 0.0 <= x < inf
        and 0.0 <= y < inf
        and 0.0 < w < inf
        and 0.0 < h < inf
        and x + w <= fw
        and y + h <= fh
    ):
        return None
    det = _new(Detection)
    _set_label(det, label)
    _set_box(det, (x, y, w, h))
    _set_confidence(det, conf)
    return det


# The C scanner under json.loads, minus its per-call wrapping. It reads one
# value from a line stripped as json.loads strips it; json.loads itself runs
# only to word a failure, so the message is its own.
_scan_json = json.JSONDecoder().scan_once

# The loader reads the file in blocks of about this many bytes, each
# extended to the end of its last line, so that memory does not grow with
# the file's size.
_BLOCK = 1 << 16


def _load_line(
    raw: bytes,
    lineno: int,
    records: dict[int, FrameAnnotations],
    crop: CropSpec | None,
    frame_size: tuple[int, int] | None,
    frame_w: float,
    frame_h: float,
) -> None:
    """Load one line into records, or raise the AnnotationLoadError that
    names it."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise AnnotationLoadError(f"line {lineno}: not valid UTF-8") from None
    if line.isspace():
        return
    text = line.strip(" \t\n\r")
    try:
        obj, end = _scan_json(text, 0)
        if end != len(text):
            raise ValueError
    except (StopIteration, ValueError):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AnnotationLoadError(f"line {lineno}: invalid JSON: {exc}") from exc
    try:
        index = obj["frame"]
        front_prob = obj["front_prob"]
    except (KeyError, TypeError) as exc:
        raise AnnotationLoadError(f"line {lineno}: malformed record: {exc}") from exc
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise AnnotationLoadError(
            f"line {lineno}: field 'frame' must be a non-negative integer"
        )
    if type(front_prob) not in _NUMBER:
        raise AnnotationLoadError(f"line {lineno}: field 'front_prob' must be a number")
    if index in records:
        raise AnnotationLoadError(f"line {lineno}: duplicate frame {index}")
    detections = obj.get("detections", [])
    if not isinstance(detections, list):
        raise AnnotationLoadError(
            f"line {lineno}: field 'detections' must be a JSON array"
        )
    dets = tuple([
        _checked_detection(d, frame_w, frame_h)
        or _parse_detection(d, lineno, crop, frame_size)
        for d in detections
    ])
    if type(front_prob) is float and 0.0 <= front_prob <= 1.0:
        ann = _new(FrameAnnotations)
        _set_frame_index(ann, index)
        _set_front_prob(ann, front_prob)
        _set_detections(ann, dets)
    else:
        try:
            ann = FrameAnnotations(index, _float(front_prob), dets)
        except ValueError as exc:
            raise AnnotationLoadError(f"line {lineno}: {exc}") from exc
    records[index] = ann


def load_precomputed(
    path: str | Path,
    crop: CropSpec | None = None,
    frame_size: tuple[int, int] | None = None,
) -> MappingBackend:
    """Load a JSON Lines annotation file into a backend.

    One object per frame: {"frame": int >= 0, "front_prob": number,
    "detections": [{"label": str, "box": [x,y,w,h], "conf": number}]},
    where "detections" may be left out. Numbers must be JSON numbers, not
    strings or booleans, and "box" exactly four of them; nothing is
    coerced. Detections carrying "space": "cropped"
    are shifted back to full-frame coordinates, which requires ``crop``
    and ``frame_size``. Lines must be UTF-8.

    The active kernel's ``scan_annotations`` loads the lines it can prove
    it loads as ``_load_line`` would; ``_load_line`` loads each line it
    declines, or raises the error, and the scan resumes after that line.
    """
    records: dict[int, FrameAnnotations] = {}
    frame_w, frame_h = frame_size if frame_size is not None else (inf, inf)
    # The scanner compares box edges with the frame size as doubles; a size
    # that no double equals is left to the Python code, which compares
    # exactly.
    try:
        exact = float(frame_w) == frame_w and float(frame_h) == frame_h
    except OverflowError:
        exact = False
    scan = kernels.ACTIVE.scan_annotations if exact else _fallback.scan_annotations
    lineno = 0
    # Only LF ends a record: a CR alone is JSON whitespace inside one.
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            if block[-1] != 0x0A:
                block += fh.readline()
            pos = 0
            while True:
                pos, lines = scan(block, pos, records, frame_w, frame_h,
                                  Detection, FrameAnnotations)
                lineno += lines
                if pos == len(block):
                    break
                end = block.find(b"\n", pos) + 1 or len(block)
                lineno += 1
                _load_line(block[pos:end], lineno, records, crop, frame_size, frame_w, frame_h)
                pos = end
    return MappingBackend(records)


def dump_annotations(annotations: Iterator[FrameAnnotations] | list[FrameAnnotations], path: str | Path) -> None:
    """Write annotations in the JSON Lines wire format."""
    with open(path, "w", encoding="utf-8") as fh:
        for ann in annotations:
            obj = {
                "frame": ann.frame_index,
                "front_prob": ann.front_prob,
                "detections": [
                    {"label": d.label, "box": list(d.box), "conf": d.confidence}
                    for d in ann.detections
                ],
            }
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
