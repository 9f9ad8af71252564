"""Seeded on-disk inputs for the benchmark workloads.

Each workload is a ``cricseg.scenario`` script drawn from the seed. Its
frames (a PGM directory or one headerless raw-luma file), its annotation
JSON Lines file and its ground truth are written once per (workload,
seed), before any timing, and reused while that seed stays current. The
program under test only ever sees these files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cricseg
from cricseg.backend import dump_annotations
from cricseg.frames import write_pgm
from cricseg.scenario import (
    FRONT_VIEW,
    OTHER_VIEW,
    DeliverySpec,
    ScenarioScript,
    delivery_truths,
    expected_clips,
    render_frame,
    script_from_lengths,
    synthetic_backend,
)
from cricseg.segmenter import BoundaryConfig

FPS = 50.0

# Bounce distances (m) per length category, kept clear of the 6 m / 8 m
# category edges and inside the span every frame size can draw. The
# expected category is the band a distance was drawn from, so the truth
# does not depend on the classifier under test.
_LENGTH_BANDS = {"full": (2.0, 5.6), "good": (6.3, 7.7), "short": (8.4, 12.0)}


def _band_of(distance_m: float) -> str:
    return next(name for name, (lo, hi) in _LENGTH_BANDS.items() if lo <= distance_m <= hi)


# A segment must outlast the background model's warm-up (init_frames) or
# the cut that ends it is not detected; 32 leaves a two-frame margin.
_MIN_SEGMENT = BoundaryConfig().init_frames + 2


def _delivery(rng: random.Random) -> DeliverySpec:
    lo, hi = _LENGTH_BANDS[rng.choice(sorted(_LENGTH_BANDS))]
    return DeliverySpec(
        bounce_distance_m=round(rng.uniform(lo, hi), 3),
        zoom=round(rng.uniform(1.1, 1.3), 3),
    )


def _other(rng: random.Random, lo: int, hi: int) -> tuple:
    return (OTHER_VIEW, rng.randint(lo, hi))


def _live(rng: random.Random, lo: int, hi: int, delivery: DeliverySpec) -> tuple:
    return (FRONT_VIEW, rng.randint(lo, hi), {"delivery": delivery})


def _replay(rng: random.Random, lo: int, hi: int, delivery: DeliverySpec) -> tuple:
    # A replay shows the same ball again, without the live scorecard.
    return (FRONT_VIEW, rng.randint(lo, hi), {"delivery": delivery, "scorecard": False})


def _fill(rng: random.Random, frames: int, cycle) -> list[tuple]:
    """Repeat ``cycle(rng)`` while it fits, then pad with other-view frames
    to exactly ``frames``, so every seed does the same amount of pixel work."""
    spec: list[tuple] = []
    total = 0
    while True:
        segments = cycle(rng)
        length = sum(seg[1] for seg in segments)
        if total + length + _MIN_SEGMENT > frames:
            break
        spec += segments
        total += length
    spec.append((OTHER_VIEW, frames - total))
    return spec


def _broadcast_cycle(rng: random.Random) -> list[tuple]:
    # Match-like: a long other-view stretch, then one front-view clip, so
    # clips are near 5-8% of the stream.
    return [_other(rng, 500, 620), _live(rng, 40, 56, _delivery(rng))]


def _dense_cycle(rng: random.Random) -> list[tuple]:
    # Back-to-back deliveries, about one per 65 frames; one live clip in
    # three is followed by its replay (a front-to-front cut).
    delivery = _delivery(rng)
    cycle = [_other(rng, _MIN_SEGMENT, 40), _live(rng, 36, 50, delivery)]
    if rng.random() < 1 / 3:
        cycle.append(_replay(rng, 34, 44, delivery))
    return cycle


def _hd_cycle(rng: random.Random) -> list[tuple]:
    # Replay-heavy: every live clip is followed by its replay.
    delivery = _delivery(rng)
    return [
        _other(rng, _MIN_SEGMENT, 35),
        _live(rng, _MIN_SEGMENT, 35, delivery),
        _replay(rng, _MIN_SEGMENT, 35, delivery),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    storage: str  # "pgm" (one file per frame) or "raw" (one headerless file)
    export_frames: bool
    frames: int  # stream length of a full-size run
    cycle: Callable[[random.Random], list[tuple]]

    def script(self, seed: int, frames: int | None = None) -> ScenarioScript:
        rng = random.Random(f"{self.name}:{seed}")
        spec = _fill(rng, frames or self.frames, self.cycle)
        return script_from_lengths(spec, width=self.width, height=self.height, fps=FPS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("broadcast_pgm", 640, 360, "pgm", False, 1200, _broadcast_cycle),
        Workload("dense_deliveries", 160, 90, "pgm", False, 6400, _dense_cycle),
        Workload("hd_raw_export", 1280, 720, "raw", True, 245, _hd_cycle),
    )
}


def truth_of(script: ScenarioScript, workload: Workload) -> dict:
    """What a correct run must produce, straight from the script."""
    min_frames = BoundaryConfig().min_clip_frames
    return {
        "frames": script.n_frames,
        "export_frames": workload.export_frames,
        "clips": [list(c) for c in expected_clips(script, min_frames)],
        "deliveries": [
            {
                "bounce_frame": t.bounce_frame,
                "distance_m": t.distance_m,
                "type": _band_of(t.distance_m),
            }
            for t in delivery_truths(script)
        ],
    }


def write_inputs(workload: Workload, seed: int, out: Path, frames: int | None = None) -> None:
    """Write frames, annotations and truth.json for one seed into ``out``."""
    script = workload.script(seed, frames)
    out.mkdir(parents=True, exist_ok=True)
    if workload.storage == "pgm":
        frames = out / "frames"
        frames.mkdir()
        for i in range(script.n_frames):
            write_pgm(render_frame(script, i), frames / f"{i:06d}.pgm")
    else:
        with open(out / "frames.raw", "wb") as fh:
            for i in range(script.n_frames):
                fh.write(render_frame(script, i).tobytes())
    backend = synthetic_backend(script)
    dump_annotations(
        [backend.by_index(i) for i in range(script.n_frames)], out / "annotations.jsonl"
    )
    (out / "truth.json").write_text(
        json.dumps(truth_of(script, workload), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _generator_digest() -> str:
    """Hash of this file and the cricseg sources that write the inputs."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(Path(cricseg.__file__).parent.rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def cached_inputs(workload: Workload, seed: int, cache: Path, frames: int | None = None) -> Path:
    """Inputs for (workload, seed, frames), generated on first use and
    again whenever the code that generates them changes.

    Only the most recent seed of each workload is kept, so that a sweep
    over many seeds does not fill the disk with full-HD raw files.
    """
    size = f"-f{frames}" if frames else ""
    root = cache / workload.name
    target = root / f"seed-{seed}{size}"
    done = target / ".complete"
    digest = _generator_digest()
    if done.is_file() and done.read_text(encoding="utf-8") == digest:
        return target
    if root.exists():
        shutil.rmtree(root)
    write_inputs(workload, seed, target, frames)
    # Flush now, so that writing the inputs back does not overlap the runs.
    os.sync()
    done.write_text(digest, encoding="utf-8")
    return target


def cli_args(workload: Workload, inputs: Path) -> list[str]:
    """Flags shared by segment, track and classify."""
    source = inputs / ("frames" if workload.storage == "pgm" else "frames.raw")
    return [
        "--source", str(source),
        "--backend", f"file:{inputs / 'annotations.jsonl'}",
        "--fps", f"{FPS:g}",
        "--width", str(workload.width),
        "--height", str(workload.height),
    ]
