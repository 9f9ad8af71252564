"""Ball trajectory assembly and bounce-point detection.

Greedy single-hypothesis tracking: per frame, the candidate nearest the
previous ball position is taken, provided the jump stays within bounds.
The bounce is the trajectory's lowest on-screen point (maximum row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


@dataclass(frozen=True)
class BallCandidate:
    frame_index: int
    center: tuple[float, float]  # (col, row), row increasing downward
    confidence: float = 1.0


class TrackPoint(NamedTuple):
    frame: int
    col: float
    row: float


@dataclass(frozen=True)
class TrackerConfig:
    max_jump_px: float = 120.0
    max_gap_frames: int = 3

    def __post_init__(self) -> None:
        if not self.max_jump_px > 0:
            raise ValueError("max_jump_px must be positive")
        if self.max_gap_frames <= 0:
            raise ValueError("max_gap_frames must be positive")

    @classmethod
    def for_frame_width(cls, width: int, max_gap_frames: int = 3) -> "TrackerConfig":
        """Default jump bound of 120 px at 1280-wide frames, scaled by width."""
        return cls(max_jump_px=120.0 * width / 1280.0, max_gap_frames=max_gap_frames)


@dataclass(frozen=True)
class Trajectory:
    points: tuple[TrackPoint, ...]

    @property
    def bounce_index(self) -> int | None:
        return find_bounce(self)


def associate(
    prev: tuple[float, float],
    candidates: Sequence[BallCandidate],
    cfg: TrackerConfig,
) -> BallCandidate | None:
    """Pick the candidate least distant from the previous position.

    The jump bound is inclusive; ties break to the earliest candidate in
    list order. Returns None when every candidate is out of reach.
    """
    best = None
    best_dist = math.inf
    for cand in candidates:
        dist = math.dist(prev, cand.center)
        if dist <= cfg.max_jump_px and dist < best_dist:
            best = cand
            best_dist = dist
    return best


def build_trajectory(
    candidates_by_frame: Iterable[tuple[int, Sequence[BallCandidate]]],
    cfg: TrackerConfig,
) -> Trajectory:
    """Assemble a track from ordered per-frame candidate lists.

    Seeds on the earliest frame that has any candidate, taking the
    highest-confidence one (ties to list order), then extends greedily.
    The track ends once more than max_gap_frames consecutive frames pass
    without an accepted candidate; gaps are never interpolated.
    """
    points: list[TrackPoint] = []
    misses = 0
    last_frame = None
    for frame_index, candidates in candidates_by_frame:
        if last_frame is not None and frame_index <= last_frame:
            raise ValueError("candidate lists must be ordered by frame")
        last_frame = frame_index
        if not points:
            seed = None
            for cand in candidates:
                if seed is None or cand.confidence > seed.confidence:
                    seed = cand
            if seed is not None:
                points.append(TrackPoint(frame_index, *seed.center))
            continue
        chosen = associate((points[-1].col, points[-1].row), candidates, cfg)
        if chosen is None:
            misses += 1
            if misses > cfg.max_gap_frames:
                break
        else:
            misses = 0
            points.append(TrackPoint(frame_index, *chosen.center))
    return Trajectory(tuple(points))


def find_bounce(trajectory: Trajectory) -> int | None:
    """Index of the lowest on-screen point, or None.

    None when the trajectory is too short or never both descended and
    ascended (full toss, or the ball reached the batsman on the way
    down); ties break to the earliest point.
    """
    rows = [p.row for p in trajectory.points]
    if len(rows) < 3:
        return None
    descended = any(b > a for a, b in zip(rows, rows[1:]))
    ascended = any(b < a for a, b in zip(rows, rows[1:]))
    if not (descended and ascended):
        return None
    return rows.index(max(rows))


def trajectory_to_obj(trajectory: Trajectory) -> dict:
    """Wire form: {"points": [[frame, col, row], ...], "bounce": int|null}."""
    return {
        "points": [[p.frame, p.col, p.row] for p in trajectory.points],
        "bounce": find_bounce(trajectory),
    }


def _finite(value: int | float) -> bool:
    """Whether a number converts to a finite float; an integer too large
    for a float does not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def trajectory_from_obj(obj: dict) -> Trajectory:
    """Inverse of trajectory_to_obj; ValueError names the first bad field."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if "points" not in obj:
        raise ValueError("missing field 'points'")
    if not isinstance(obj["points"], list):
        raise ValueError("field 'points' must be a list")
    points = []
    for i, p in enumerate(obj["points"]):
        if not (
            isinstance(p, list)
            and len(p) == 3
            and isinstance(p[0], int)
            and p[0] >= 0
            and all(isinstance(v, (int, float)) and _finite(v) for v in p[1:])
            and not any(isinstance(v, bool) for v in p)
        ):
            raise ValueError(
                f"points[{i}] must be [frame, col, row]: a non-negative integer "
                "and two finite numbers"
            )
        points.append(TrackPoint(p[0], float(p[1]), float(p[2])))
    return Trajectory(tuple(points))
