"""Command-line front door.

Subcommands: segment, track, classify, eval, scenarios. Exit codes:
0 success, 1 configuration error, 2 runtime error. The benchmark lives
outside the package, in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from cricseg.backend import (
    AnnotationError,
    AnnotationLoadError,
    MappingBackend,
    load_precomputed,
)
from cricseg.config import (
    ConfigError,
    PipelineConfig,
    build_pipeline_config,
    load_config_file,
)
from cricseg.frames import FrameSourceError, open_source
from cricseg.geometry import DELIVERY_WIRE, GeometryError, classify_clip_delivery
from cricseg.metrics import (
    ConfusionMatrix,
    metrics_report,
    report_to_csv,
    report_to_json,
)
from cricseg.scenario import (
    OTHER_VIEW,
    FRONT_VIEW,
    DeliverySpec,
    ScenarioError,
    ScenarioScript,
    bundled_scripts,
    frame_stream,
    load_script,
    resolve_script,
    script_from_lengths,
    synthetic_backend,
)
from cricseg.segmenter import ClipExport, SegmentationError, run_segmentation
from cricseg.tracker import (
    BallCandidate,
    TrackerConfig,
    build_trajectory,
    trajectory_from_obj,
    trajectory_to_obj,
)

_JSON = {"sort_keys": True, "separators": (",", ":")}


class _Parser(argparse.ArgumentParser):
    # Flag misuse is a configuration error: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key-value config file; flags override it")
    p.add_argument("--source", help="frame directory or raw-luma file")
    p.add_argument("--scenario", help="bundled scenario name or script path")
    p.add_argument("--backend", help="'synthetic' or 'file:<annotations.jsonl>'")
    p.add_argument("--gate", dest="gate_strategy", help="classifier|umpire|pitch|either|dual")
    p.add_argument("--fps", type=float)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cricseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment a stream into delivery clips")
    _add_common(p)
    p.add_argument("--out", required=True, help="clip manifest (JSON Lines)")
    p.add_argument("--export-frames", help="directory for per-clip frame dumps")

    p = sub.add_parser("track", help="build ball trajectories for manifest clips")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="directory for trajectory JSON files")

    p = sub.add_parser("classify", help="classify tracked deliveries by length")
    _add_common(p)
    p.add_argument("--trajectories", required=True, help="directory of trajectory files")
    p.add_argument("--out", required=True, help="delivery report (JSON Lines)")

    p = sub.add_parser("eval", help="recall/precision from predictions or counts")
    p.add_argument("--counts", help="JSON file with tp/fp/fn/tn")
    p.add_argument("--predictions", help="one 0/1 per line")
    p.add_argument("--labels", help="one 0/1 per line")
    p.add_argument("--out", help="report path stem (.json and .csv written)")

    sub.add_parser("scenarios", help="list bundled synthetic scenarios")
    return parser


def _pipeline_config(args: argparse.Namespace) -> tuple[PipelineConfig, dict[str, str]]:
    """The validated config, and the raw values it was built from."""
    values = load_config_file(args.config) if args.config else {}
    override = {
        "source.path": args.source,
        "source.scenario": args.scenario,
        "backend.kind": args.backend,
        "gate.strategy": args.gate_strategy,
        "source.fps": args.fps,
        "source.width": args.width,
        "source.height": args.height,
    }
    for key, value in override.items():
        if value is not None:
            values[key] = str(value)
    cfg = build_pipeline_config(values)
    cfg.validate()
    # The synthetic backend takes frames, fps and size from its scenario
    # script; a file backend has no script.
    if cfg.backend == "synthetic":
        unread = ("source.path", "source.fps", "source.width", "source.height")
    else:
        unread = ("source.scenario",)
    ignored = [key for key in unread if key in values]
    if ignored:
        kind = cfg.backend.partition(":")[0]
        raise ConfigError(f"the {kind} backend does not read {', '.join(ignored)}")
    return cfg, values


def _load_backend(cfg: PipelineConfig) -> tuple[MappingBackend, ScenarioScript | None]:
    """The annotation backend, and the scenario script behind a synthetic one."""
    if cfg.backend == "synthetic":
        script = resolve_script(cfg.scenario)
        return synthetic_backend(script), script
    backend = load_precomputed(
        cfg.backend[len("file:") :],
        crop=cfg.crop,
        frame_size=(cfg.width, cfg.height) if cfg.width and cfg.height else None,
    )
    return backend, None


def cmd_segment(args: argparse.Namespace) -> int:
    cfg, _ = _pipeline_config(args)
    if cfg.backend != "synthetic" and cfg.source is None:
        raise ConfigError("a file backend needs --source for the frames")
    backend, script = _load_backend(cfg)
    export = ClipExport(args.export_frames) if args.export_frames else None
    if script is not None:
        stream, fps = frame_stream(script), script.fps
    else:
        stream, fps = open_source(cfg.source, cfg.width, cfg.height), cfg.fps
    run = run_segmentation(
        stream,
        backend,
        fps,
        gate_cfg=cfg.gate,
        boundary_cfg=cfg.boundary,
        replay_cfg=cfg.replay,
        strategy=cfg.strategy,
        export=export,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for clip in run.clips:
            fh.write(
                json.dumps(
                    {
                        "start": clip.start,
                        "end": clip.end,
                        "liveness": clip.liveness,
                        "evidence": clip.evidence,
                    },
                    **_JSON,
                )
                + "\n"
            )
    print(
        f"segment: {run.frames_processed} frames -> {len(run.clips)} clips "
        f"({run.wall_ms / max(run.frames_processed, 1):.2f} ms/frame)"
    )
    return 0


def _read_manifest(path: str | Path) -> list[tuple[int, int]]:
    """(start, end) of every manifest row; ValueError names path:line."""
    clips = []
    # Only LF ends a row: a CR alone is JSON whitespace inside one.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{where}: not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{where}: expected a JSON object")
            for key in ("start", "end"):
                if key not in row:
                    raise ValueError(f"{where}: missing field '{key}'")
                value = row[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ValueError(f"{where}: field '{key}' must be a non-negative integer")
            if row["start"] > row["end"]:
                raise ValueError(f"{where}: start {row['start']} is after end {row['end']}")
            clips.append((row["start"], row["end"]))
    return clips


def _tracker_config(cfg: PipelineConfig, width: int, raw_max_jump_set: bool) -> TrackerConfig:
    if raw_max_jump_set:
        return cfg.tracker
    return TrackerConfig.for_frame_width(width, cfg.tracker.max_gap_frames)


def _ball_candidates(backend: MappingBackend, start: int, end: int):
    """(frame index, ball candidates) for frames start..end, looked up one
    at a time, so that lookups stop where the tracker stops reading. A
    frame past the backend's last record has no candidates, so none is
    looked up."""
    for idx in range(start, min(end, backend.last_index) + 1):
        try:
            ann = backend.by_index(idx)
        except AnnotationError:
            yield idx, []
            continue
        yield idx, [
            BallCandidate(idx, det.center(), det.confidence) for det in ann.with_label("ball")
        ]


def cmd_track(args: argparse.Namespace) -> int:
    cfg, values = _pipeline_config(args)
    backend, script = _load_backend(cfg)
    width = script.width if script is not None else cfg.width or 1280
    tracker_cfg = _tracker_config(cfg, width, "tracker.max_jump_px" in values)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = _read_manifest(args.manifest)
    for n, (start, end) in enumerate(clips, start=1):
        trajectory = build_trajectory(_ball_candidates(backend, start, end), tracker_cfg)
        obj = trajectory_to_obj(trajectory)
        obj["clip"] = f"clip_{n:04d}"
        with open(out_dir / f"clip_{n:04d}.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, **_JSON) + "\n")
    print(f"track: {len(clips)} clips -> {out_dir}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cfg, _ = _pipeline_config(args)
    backend, _ = _load_backend(cfg)
    traj_dir = Path(args.trajectories)
    paths = sorted(traj_dir.glob("clip_*.json"))
    if not paths:
        raise FrameSourceError(f"no trajectory files in {traj_dir}")
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            trajectory = trajectory_from_obj(obj)
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not valid UTF-8") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        clip_id = obj.get("clip", path.stem)
        if not trajectory.points or trajectory.bounce_index is None:
            rows.append({"clip": clip_id, "error": "no trajectory"})
            continue
        release_frame = trajectory.points[0].frame
        bounce_frame = trajectory.points[trajectory.bounce_index].frame
        try:
            result = classify_clip_delivery(
                trajectory,
                backend.by_index(release_frame),
                backend.by_index(bounce_frame),
                cfg.pitch,
            )
        except (GeometryError, AnnotationError) as exc:
            rows.append({"clip": clip_id, "error": str(exc)})
            continue
        rows.append(
            {
                "clip": clip_id,
                "bounce_frame": result.bounce_frame,
                "distance_m": round(result.distance_m, 4),
                "type": DELIVERY_WIRE[result.delivery_type],
                "zoom": round(result.zoom, 4),
            }
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, **_JSON) + "\n")
    print(f"classify: {len(rows)} rows -> {args.out}")
    return 0


def _read_bool_lines(path: str) -> list[bool]:
    out = []
    # An undecodable byte reads as a lone surrogate, which does not encode.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            token = line.strip().lower()
            if not token:
                continue
            if token in ("1", "true", "t", "front"):
                out.append(True)
            elif token in ("0", "false", "f", "not_front"):
                out.append(False)
            else:
                raise ValueError(f"{path}:{lineno}: not a boolean: {token!r}")
    if not out:
        raise ValueError(f"{path}: no prediction values")
    return out


def _read_counts(path: str) -> ConfusionMatrix:
    """The tp/fp/fn/tn object of a JSON file; ValueError names path and key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            counts = json.load(fh)
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(counts, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in ("tp", "fp", "fn", "tn"):
        value = counts.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{path}: field '{key}' must be a non-negative integer")
    return ConfusionMatrix(counts["tp"], counts["fp"], counts["fn"], counts["tn"])


def cmd_eval(args: argparse.Namespace) -> int:
    if args.counts:
        cm = _read_counts(args.counts)
    elif args.predictions and args.labels:
        from cricseg.metrics import confusion

        cm = confusion(_read_bool_lines(args.predictions), _read_bool_lines(args.labels))
    else:
        raise ConfigError("eval needs --counts or both --predictions and --labels")
    report = metrics_report(cm)
    if args.out:
        Path(args.out + ".json").write_text(report_to_json(report), encoding="utf-8")
        Path(args.out + ".csv").write_text(report_to_csv(report), encoding="utf-8")
    fmt = lambda v: "undefined" if v is None else f"{v:.2f}%"
    print(
        f"eval: recall={fmt(report['recall_pct'])} precision={fmt(report['precision_pct'])} "
        f"(n={report['n']})"
    )
    return 0


def bench_script(n_frames: int, width: int, height: int) -> ScenarioScript:
    """A repeating match-like timeline with the requested frame count."""
    spec: list[tuple] = []
    total = 0
    while total < n_frames:
        for kind, length, extra in (
            (OTHER_VIEW, 90, {}),
            (FRONT_VIEW, 60, {"delivery": DeliverySpec(bounce_distance_m=7.0)}),
            (FRONT_VIEW, 50, {"scorecard": False}),
        ):
            length = min(length, n_frames - total)
            if length <= 0:
                break
            delivery = extra.get("delivery")
            if delivery is not None:
                arc_len = delivery.release_offset + delivery.descent_frames + delivery.ascent_frames + 1
                if length < arc_len:
                    extra = {k: v for k, v in extra.items() if k != "delivery"}
            spec.append((kind, length, extra))
            total += length
    return script_from_lengths(spec, width=width, height=height)


def cmd_scenarios(_: argparse.Namespace) -> int:
    for name, path in bundled_scripts().items():
        script = load_script(path)
        deliveries = sum(1 for s in script.segments if s.delivery is not None)
        print(
            f"{name}: {script.n_frames} frames, {script.width}x{script.height} "
            f"@{script.fps:g}fps, {len(script.segments)} segments, {deliveries} deliveries"
        )
    return 0


_COMMANDS = {
    "segment": cmd_segment,
    "track": cmd_track,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "scenarios": cmd_scenarios,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        SegmentationError,
        AnnotationError,
        AnnotationLoadError,
        FrameSourceError,
        ScenarioError,
        GeometryError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
