"""Checks one pipeline run's outputs against the scenario's ground truth.

Every expected clip and every expected delivery is one item. A clip is
right when a manifest clip starts and ends within one frame of it and has
its liveness. A delivery is right when the report row of the manifest clip
holding its bounce has no error, the right type, a bounce frame within
one frame and a distance within ``DISTANCE_TOL_M``. Surplus manifest
clips and report rows for clips without a delivery also fail, and so does
an export directory whose frame count differs from the summed clip
lengths (one more item when the workload exports frames).
"""

from __future__ import annotations

import json
from pathlib import Path

FRAME_TOL = 1
DISTANCE_TOL_M = 0.05


def _jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_outputs(truth: dict, manifest: list[dict], report: list[dict],
                  exported: int | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one run's parsed outputs."""
    problems: list[str] = []
    failed = 0
    matched: set[int] = set()
    for start, end, liveness in truth["clips"]:
        hit = next(
            (
                n
                for n, c in enumerate(manifest)
                if n not in matched
                and abs(c["start"] - start) <= FRAME_TOL
                and abs(c["end"] - end) <= FRAME_TOL
                and c["liveness"] == liveness
            ),
            None,
        )
        if hit is None:
            failed += 1
            problems.append(f"clip [{start}, {end}] {liveness}: missing or wrong")
        else:
            matched.add(hit)
    # A wrong clip already failed its expected item; only surplus clips add.
    surplus = len(manifest) - len(truth["clips"])
    if surplus > 0:
        failed += surplus
        problems.append(f"{surplus} more manifest clips than expected")

    rows = {row["clip"]: row for row in report}
    claimed: set[str] = set()
    for d in truth["deliveries"]:
        clip_id = next(
            (
                f"clip_{n:04d}"
                for n, c in enumerate(manifest, start=1)
                if c["start"] <= d["bounce_frame"] <= c["end"]
            ),
            None,
        )
        claimed.add(clip_id)
        row = rows.get(clip_id)
        ok = (
            row is not None
            and "error" not in row
            and row["type"] == d["type"]
            and abs(row["bounce_frame"] - d["bounce_frame"]) <= FRAME_TOL
            and abs(row["distance_m"] - d["distance_m"]) <= DISTANCE_TOL_M
        )
        if not ok:
            failed += 1
            problems.append(f"delivery bouncing at {d['bounce_frame']}: got {row}")
    for clip_id in sorted(set(rows) - claimed):
        failed += 1
        problems.append(f"report row {rows[clip_id]}: no delivery in that clip")

    attempted = len(truth["clips"]) + len(truth["deliveries"])
    if truth["export_frames"]:
        attempted += 1
        want = sum(c["end"] - c["start"] + 1 for c in manifest)
        if exported != want:
            failed += 1
            problems.append(f"exported {exported} frames, clips hold {want}")
    return attempted, min(failed, attempted), problems


def count_exported(export_dir: Path) -> int:
    return sum(1 for _ in export_dir.glob("clip_*/*.pgm")) if export_dir.is_dir() else 0


def verify_run(truth: dict, out: Path) -> tuple[int, int, list[str]]:
    """Verify the files one run left in ``out``; unreadable outputs fail all."""
    attempted = len(truth["clips"]) + len(truth["deliveries"]) + int(truth["export_frames"])
    try:
        manifest = _jsonl(out / "manifest.jsonl")
        report = _jsonl(out / "report.jsonl")
        return check_outputs(truth, manifest, report, count_exported(out / "export"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"unreadable output: {exc!r}"]
