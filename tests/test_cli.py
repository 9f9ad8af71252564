from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cricseg import cli, kernels
from cricseg.backend import MappingBackend, dump_annotations
from cricseg.cli import main
from cricseg.config import ConfigError, PipelineConfig, build_pipeline_config
from cricseg.frames import write_pgm
from cricseg.replay import ReplayConfig
from cricseg.scenario import (
    FRONT_VIEW,
    OTHER_VIEW,
    DeliverySpec,
    bundled_scripts,
    frame_stream,
    resolve_script,
    script_from_lengths,
    synthetic_backend,
)
from cricseg.segmenter import BoundaryConfig
from cricseg.tracker import TrackerConfig

from _support import failing_write


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@pytest.fixture()
def segmented(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    code = main(
        ["segment", "--scenario", "one_delivery", "--backend", "synthetic", "--out", str(manifest)]
    )
    assert code == 0
    return manifest


class RawRun:
    """A raw-luma file plus a JSONL annotation file, already segmented."""

    def __init__(self, tmp):
        script = script_from_lengths(
            [
                (OTHER_VIEW, 40),
                (FRONT_VIEW, 60, {"delivery": DeliverySpec(bounce_distance_m=7.0)}),
                (OTHER_VIEW, 40),
            ],
            width=160,
            height=90,
        )
        self.tmp = tmp
        self.raw = tmp / "frames.raw"
        with open(self.raw, "wb") as fh:
            for frame in frame_stream(script):
                fh.write(frame.luma.tobytes())
        backend = synthetic_backend(script)
        ann_path = tmp / "ann.jsonl"
        dump_annotations([backend.by_index(i) for i in range(script.n_frames)], ann_path)
        self.common = [
            "--source", str(self.raw),
            "--backend", f"file:{ann_path}",
            "--fps", "50",
            "--width", "160",
            "--height", "90",
        ]
        self.manifest = tmp / "m.jsonl"
        assert main(["segment", *self.common, "--out", str(self.manifest)]) == 0

    def track_and_classify(self, name, common):
        """Bytes of the trajectory files and of the report."""
        traj_dir = self.tmp / name
        assert main(["track", *common, "--manifest", str(self.manifest), "--out", str(traj_dir)]) == 0
        report = self.tmp / f"{name}.jsonl"
        assert main(["classify", *common, "--trajectories", str(traj_dir), "--out", str(report)]) == 0
        return [p.read_bytes() for p in sorted(traj_dir.iterdir())], report.read_bytes()


@pytest.fixture()
def raw_run(tmp_path):
    return RawRun(tmp_path)


class TestSegment:
    def test_one_delivery_manifest(self, segmented):
        rows = read_jsonl(segmented)
        assert len(rows) == 1
        assert rows[0]["start"] == 50
        assert rows[0]["end"] == 149
        assert rows[0]["liveness"] == "live"

    def test_delivery_plus_replay(self, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["segment", "--scenario", "delivery_plus_replay", "--backend", "synthetic", "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert [r["liveness"] for r in rows] == ["live", "replay"]

    def test_manifest_round_trip_byte_identical(self, segmented):
        rows = read_jsonl(segmented)
        rewritten = (
            "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows) + "\n"
        )
        assert rewritten == segmented.read_text(encoding="utf-8")

    def test_missing_annotations_file_is_config_error(self, tmp_path, capsys):
        code = main(
            [
                "segment",
                "--source", str(tmp_path),
                "--backend", "file:/nonexistent/ann.jsonl",
                "--out", str(tmp_path / "m.jsonl"),
            ]
        )
        assert code == 1
        assert "annotation file" in capsys.readouterr().err

    def test_bad_gate_strategy_is_config_error(self, tmp_path):
        assert (
            main(
                [
                    "segment",
                    "--scenario", "one_delivery",
                    "--backend", "synthetic",
                    "--gate", "histogram",
                    "--out", str(tmp_path / "m.jsonl"),
                ]
            )
            == 1
        )

    def test_export_frames(self, tmp_path):
        out = tmp_path / "m.jsonl"
        export = tmp_path / "clips"
        assert (
            main(
                [
                    "segment",
                    "--scenario", "one_delivery",
                    "--backend", "synthetic",
                    "--out", str(out),
                    "--export-frames", str(export),
                ]
            )
            == 0
        )
        dumped = sorted((export / "clip_0001").glob("*.pgm"))
        assert len(dumped) == 100
        assert dumped[0].name == "000050.pgm"

    def test_export_holds_only_the_lookback_window(self, tmp_path, monkeypatch):
        refs, alive = [], []
        render = cli.frame_stream

        def watched(script):
            frames = render(script)
            while True:
                refs[:] = [r for r in refs if r() is not None]
                alive.append(len(refs))
                try:
                    frame = next(frames)
                except StopIteration:
                    return
                # The pixels, which the export's writer holds without the frame.
                refs.append(weakref.ref(frame.luma))
                yield frame

        monkeypatch.setattr(cli, "frame_stream", watched)
        export = tmp_path / "clips"
        code = main(
            [
                "segment",
                "--scenario", "delivery_plus_replay",
                "--backend", "synthetic",
                "--out", str(tmp_path / "m.jsonl"),
                "--export-frames", str(export),
            ]
        )
        assert code == 0
        assert len(alive) == 261
        # The lookback window (debounce_k + 1, default k = 3), an open
        # clip's first frame, and the frame that last left the window,
        # which the export's writer thread holds while it writes it.
        assert max(alive) <= 4 + 1 + 1
        rows = read_jsonl(tmp_path / "m.jsonl")
        assert len(rows) == 2
        for n, row in enumerate(rows, start=1):
            names = sorted(p.name for p in (export / f"clip_{n:04d}").iterdir())
            assert names == [f"{i:06d}.pgm" for i in range(row["start"], row["end"] + 1)]

    def test_failed_export_write_exits_2_with_its_error(self, tmp_path, monkeypatch, capsys):
        paths = failing_write(monkeypatch, 10, partial=True)
        out, export = tmp_path / "m.jsonl", tmp_path / "clips"
        argv = ["segment", "--scenario", "one_delivery", "--backend", "synthetic",
                "--out", str(out), "--export-frames", str(export)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error [OSError]: [Errno {errno.ENOSPC}]" in err
        assert repr(str(paths[9])) in err
        assert not out.exists()
        assert list(export.iterdir()) == []

    def test_non_finite_box_is_located_runtime_error(self, raw_run, capsys):
        ann = raw_run.tmp / "nan.jsonl"
        ann.write_text(
            '{"frame": 0, "front_prob": 0.5, "detections": '
            '[{"label": "ball", "box": [NaN, 2, Infinity, 4], "conf": 0.5}]}\n',
            encoding="utf-8",
        )
        common = [a if not a.startswith("file:") else f"file:{ann}" for a in raw_run.common]
        assert main(["segment", *common, "--out", str(raw_run.tmp / "nan_m.jsonl")]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("detections", ["5", "null"])
    def test_detections_not_an_array_is_located_runtime_error(self, raw_run, capsys, detections):
        ann = raw_run.tmp / "bad.jsonl"
        ann.write_text(f'{{"frame": 0, "front_prob": 0.5, "detections": {detections}}}\n',
                       encoding="utf-8")
        common = [a if not a.startswith("file:") else f"file:{ann}" for a in raw_run.common]
        assert main(["segment", *common, "--out", str(raw_run.tmp / "bad_m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "'detections'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims", [b"99999999999 99999999999", b"-1 -1", b"0 4", b"4 4"])
    def test_malformed_pgm_header_is_located_runtime_error(self, raw_run, capsys, dims):
        frames = raw_run.tmp / "pgm"
        frames.mkdir()
        (frames / "000000.pgm").write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(12))
        common = ["--source", str(frames), *raw_run.common[2:]]
        assert main(["segment", *common, "--out", str(raw_run.tmp / "pgm_m.jsonl")]) == 2
        assert f"{frames / '000000.pgm'}: malformed PGM header" in capsys.readouterr().err

    def test_truncated_raw_file_is_located_runtime_error(self, raw_run, capsys):
        # Two whole 160x90 frames, then 7 bytes of a third.
        trunc = raw_run.tmp / "trunc.raw"
        trunc.write_bytes(raw_run.raw.read_bytes()[: 2 * 160 * 90 + 7])
        out = raw_run.tmp / "trunc_m.jsonl"
        assert main(["segment", "--source", str(trunc), *raw_run.common[2:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error [FrameSourceError]: {trunc}: frame 2 truncated: got 7 of 14400 bytes\n"
        )
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_source_exits_at_once(self, raw_run, capsys):
        # Opening the FIFO would block for good, so a real signal ends a
        # run that hangs.
        fifo = raw_run.tmp / "ff"
        os.mkfifo(fifo)

        class Hung(BaseException):
            pass  # not an Exception, so no handler in main() catches it

        def hung(signum, frame):
            raise Hung("segment still runs 30 s after it started")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            code = main(["segment", "--source", str(fifo), *raw_run.common[2:],
                         "--out", str(raw_run.tmp / "ff_m.jsonl")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error [FrameSourceError]: {fifo}: not a frame directory or regular file\n"
        )

    def test_gap_in_frame_numbers_is_located_runtime_error(self, raw_run, capsys):
        frames = raw_run.tmp / "pgm"
        frames.mkdir()
        for i in (0, 1, 3):
            write_pgm(np.zeros((90, 160), dtype=np.uint8), frames / f"{i:06d}.pgm")
        common = ["--source", str(frames), *raw_run.common[2:]]
        assert main(["segment", *common, "--out", str(raw_run.tmp / "gap_m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{frames / '000001.pgm'} and {frames / '000003.pgm'}" in err
        assert "Traceback" not in err

    def test_frames_of_another_size_than_declared_is_located_runtime_error(self, raw_run, capsys):
        # The annotations are checked against the declared size, and crops
        # and the tracker scale by it, so frames must have that size.
        frames = raw_run.tmp / "pgm"
        frames.mkdir()
        for i in range(3):
            write_pgm(np.zeros((90, 160), dtype=np.uint8), frames / f"{i:06d}.pgm")
        common = ["--source", str(frames), *raw_run.common[2:6], "--width", "1600",
                  "--height", "900"]
        out = raw_run.tmp / "size_m.jsonl"
        assert main(["segment", *common, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            f"{frames / '000000.pgm'}: frame 0 dimensions (90, 160) differ from (900, 1600)"
        ) in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "box, conf, error",
        [
            ("[1, 2, 3, 1" + "0" * 400 + "]", "0.5", "detection box values must be finite"),
            ("[1, 2, 3, 4]", "-1" + "0" * 400, "confidence must be in [0, 1]"),
        ],
        ids=["box", "conf"],
    )
    def test_integer_too_large_for_a_float_is_located_runtime_error(
        self, raw_run, capsys, box, conf, error
    ):
        ann = raw_run.tmp / "big.jsonl"
        ann.write_text(
            f'{{"frame": 0, "front_prob": 0.5, "detections": '
            f'[{{"label": "ball", "box": {box}, "conf": {conf}}}]}}\n',
            encoding="utf-8",
        )
        common = [a if not a.startswith("file:") else f"file:{ann}" for a in raw_run.common]
        assert main(["segment", *common, "--out", str(raw_run.tmp / "big_m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"line 1: {error}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("size", [["--width", "-160"], ["--height", "0"]])
    def test_non_positive_frame_size_is_config_error(self, raw_run, capsys, size):
        out = raw_run.tmp / "size_m.jsonl"
        assert main(["segment", *raw_run.common, *size, "--out", str(out)]) == 1
        assert f"source.{size[0][2:]} must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [[], ["--width", "160"], ["--height", "90"]])
    def test_raw_source_without_size_is_config_error(self, raw_run, capsys, monkeypatch, size):
        loads = []
        monkeypatch.setattr(cli, "load_precomputed", lambda *a, **k: loads.append(a))
        out = raw_run.tmp / "size_m.jsonl"
        common = raw_run.common[: raw_run.common.index("--width")]
        assert main(["segment", *common, *size, "--out", str(out)]) == 1
        assert loads == []  # told before the backend loads
        assert capsys.readouterr().err == (
            f"config error: {raw_run.raw}: raw luma input needs source.width and "
            "source.height (--width, --height)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("end", 149.9), ("end", "abc"), ("scorecard", "false")],
    )
    def test_scenario_script_value_is_located_runtime_error(self, tmp_path, capsys, field, value):
        obj = json.loads(bundled_scripts()["one_delivery"].read_text(encoding="utf-8"))
        obj["segments"][1][field] = value
        script = tmp_path / "script.json"
        script.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "m.jsonl"
        assert main(["segment", "--scenario", str(script), "--out", str(out)]) == 2
        assert f"{script}: field 'segments[1].{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_backend_failure_mid_stream_is_runtime_error(self, tmp_path, capsys):
        # Annotations stop at frame 59 but the source has 80 frames.
        script = resolve_script("one_delivery")
        backend = synthetic_backend(script)
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for frame in frame_stream(script):
            if frame.index >= 80:
                break
            write_pgm(frame.luma, frames_dir / f"{frame.index:06d}.pgm")
        ann_path = tmp_path / "ann.jsonl"
        dump_annotations([backend.by_index(i) for i in range(60)], ann_path)
        code = main(
            [
                "segment",
                "--source", str(frames_dir),
                "--backend", f"file:{ann_path}",
                "--fps", "50",
                "--out", str(tmp_path / "m.jsonl"),
            ]
        )
        assert code == 2
        assert "frame 60" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_named_like_a_frame_is_located_error(self, tmp_path):
        # A read from the FIFO would block for good, so the run goes in a
        # child process with a timeout: a hang fails the test.
        script = resolve_script("one_delivery")
        backend = synthetic_backend(script)
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        write_pgm(next(frame_stream(script)).luma, frames_dir / "000000.pgm")
        os.mkfifo(frames_dir / "000001.pgm")
        ann_path = tmp_path / "ann.jsonl"
        dump_annotations([backend.by_index(i) for i in range(2)], ann_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "cricseg.cli", "segment", "--source", str(frames_dir),
             "--backend", f"file:{ann_path}", "--fps", "50", "--out", str(tmp_path / "m.jsonl")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error [FrameSourceError]: {frames_dir / '000001.pgm'}: not a regular file\n"
        )

    def test_file_backend_matches_synthetic(self, tmp_path):
        # Export the scenario as a PGM directory plus a JSONL annotation
        # file, then run the file-backed pipeline over them.
        script = resolve_script("one_delivery")
        backend = synthetic_backend(script)
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for frame in frame_stream(script):
            write_pgm(frame.luma, frames_dir / f"{frame.index:06d}.pgm")
        ann_path = tmp_path / "ann.jsonl"
        dump_annotations(
            [backend.by_index(i) for i in range(script.n_frames)], ann_path
        )
        out = tmp_path / "m.jsonl"
        code = main(
            [
                "segment",
                "--source", str(frames_dir),
                "--backend", f"file:{ann_path}",
                "--fps", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_jsonl(out)
        assert [(r["start"], r["end"], r["liveness"]) for r in rows] == [(50, 149, "live")]


# Runs the commands of argv[2] (a JSON list) through cli.main, the last
# reading the annotations again, and prints which numpy modules, and
# whether the numpy fallback kernel, got imported. argv[1] "no-reader"
# first takes read_files out of the compiled module, as a build without
# <pthread.h> has none.
_NUMPY_FREE_RUN = """
import json, sys
from cricseg import cli, kernels
if sys.argv[1] == "no-reader":
    del kernels._native.read_files
for argv in json.loads(sys.argv[2]):
    if cli.main(argv) != 0:
        sys.exit(argv[0] + " failed")
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] == "numpy" or m == "cricseg.kernels._fallback"
)))
"""


@pytest.mark.skipif(not kernels.NATIVE_AVAILABLE, reason="the compiled kernel is not built")
class TestNumpyFree:
    @pytest.mark.parametrize("reader", ["native", "no-reader"])
    @pytest.mark.parametrize("source", ["pgm", "raw"])
    def test_file_backed_pipeline_never_imports_numpy(self, raw_run, reader, source):
        tmp = raw_run.tmp
        common = list(raw_run.common)
        if source == "pgm":
            frames_dir = tmp / "frames"
            frames_dir.mkdir()
            data = raw_run.raw.read_bytes()
            for i in range(len(data) // (160 * 90)):
                plane = np.frombuffer(data, np.uint8, 160 * 90, i * 160 * 90).reshape(90, 160)
                write_pgm(plane, frames_dir / f"{i:06d}.pgm")
            common[common.index("--source") + 1] = str(frames_dir)
        out = tmp / "out"
        commands = [
            ["segment", *common, "--out", str(out / "m.jsonl"), "--export-frames", str(out / "x")],
            ["track", *common, "--manifest", str(out / "m.jsonl"), "--out", str(out / "traj")],
            ["classify", *common, "--trajectories", str(out / "traj"),
             "--out", str(out / "report.jsonl")],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_RUN, reader, json.dumps(commands)],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        # The outputs are those of the same run with numpy loaded.
        assert (out / "m.jsonl").read_bytes() == raw_run.manifest.read_bytes()
        trajectories, report = raw_run.track_and_classify("in_process", raw_run.common)
        assert [p.read_bytes() for p in sorted((out / "traj").iterdir())] == trajectories
        assert (out / "report.jsonl").read_bytes() == report
        assert b'"type"' in report
        assert sorted((out / "x").rglob("*.pgm"))


class TestTrackClassify:
    def test_track_then_classify(self, tmp_path, segmented):
        traj_dir = tmp_path / "traj"
        assert (
            main(
                [
                    "track",
                    "--scenario", "one_delivery",
                    "--backend", "synthetic",
                    "--manifest", str(segmented),
                    "--out", str(traj_dir),
                ]
            )
            == 0
        )
        traj = json.loads((traj_dir / "clip_0001.json").read_text(encoding="utf-8"))
        assert traj["bounce"] is not None
        report = tmp_path / "report.jsonl"
        assert (
            main(
                [
                    "classify",
                    "--scenario", "one_delivery",
                    "--backend", "synthetic",
                    "--trajectories", str(traj_dir),
                    "--out", str(report),
                ]
            )
            == 0
        )
        (row,) = read_jsonl(report)
        assert row["type"] == "good"
        assert row["distance_m"] == pytest.approx(7.0, abs=0.01)
        assert row["zoom"] == pytest.approx(1.2, abs=0.001)

    def test_clip_without_ball_reports_no_trajectory(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        # three_lengths clip 2 exists; write a manifest slice pointing at a
        # clip range with no ball detections instead.
        manifest.write_text(
            json.dumps({"start": 0, "end": 30, "liveness": "live", "evidence": {}}) + "\n",
            encoding="utf-8",
        )
        traj_dir = tmp_path / "traj"
        assert (
            main(
                [
                    "track",
                    "--scenario", "one_delivery",
                    "--backend", "synthetic",
                    "--manifest", str(manifest),
                    "--out", str(traj_dir),
                ]
            )
            == 0
        )
        report = tmp_path / "report.jsonl"
        assert (
            main(
                [
                    "classify",
                    "--scenario", "one_delivery",
                    "--backend", "synthetic",
                    "--trajectories", str(traj_dir),
                    "--out", str(report),
                ]
            )
            == 0
        )
        (row,) = read_jsonl(report)
        assert row == {"clip": "clip_0001", "error": "no trajectory"}

    def test_raw_source_not_read_after_segment(self, raw_run):
        # track and classify need only the manifest, the trajectories and
        # the annotations, so the frames may be gone once segment has run.
        with_frames = raw_run.track_and_classify("with_frames", raw_run.common)
        assert [row["type"] for row in read_jsonl(raw_run.tmp / "with_frames.jsonl")] == ["good"]
        raw_run.raw.unlink()
        assert raw_run.track_and_classify("without_frames", raw_run.common) == with_frames

    def test_track_and_classify_need_no_source(self, raw_run):
        with_source = raw_run.track_and_classify("with_source", raw_run.common)
        without = [a for a in raw_run.common if a not in ("--source", str(raw_run.raw))]
        assert raw_run.track_and_classify("without_source", without) == with_source

    def test_segment_file_backend_needs_source(self, raw_run, capsys):
        without = [a for a in raw_run.common if a not in ("--source", str(raw_run.raw))]
        out = raw_run.tmp / "again.jsonl"
        assert main(["segment", *without, "--out", str(out)]) == 1
        assert "--source" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row,field",
        [
            ('{"begin":0}', "'start'"),
            ('{"start":0}', "'end'"),
            ('{"start":0,"end":"9"}', "'end'"),
            ('{"start":true,"end":9}', "'start'"),
            ('{"start":9,"end":3}', "after end"),
            ("[0, 9]", "JSON object"),
            ('{"start":0,', "invalid JSON"),
        ],
    )
    def test_malformed_manifest_is_located_runtime_error(self, raw_run, capsys, row, field):
        manifest = raw_run.tmp / "bad.jsonl"
        manifest.write_text('{"start":50,"end":60}\n\n' + row + "\n", encoding="utf-8")
        code = main(["track", *raw_run.common, "--manifest", str(manifest),
                     "--out", str(raw_run.tmp / "traj")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{manifest}:3:" in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "obj,field",
        [
            ('{"pts":[]}', "'points'"),
            ('{"points":{}}', "'points'"),
            ('{"points":[[0,1.0,2.0],[1,2.0]]}', "points[1]"),
            ('{"points":[[0,1.0,2.0],[1.5,2.0,3.0]]}', "points[1]"),
            ('{"points":[[0,NaN,2.0]]}', "points[0]"),
            pytest.param('{"points":[[0,1.0,2.0],[1,1' + "0" * 400 + ',2.0]]}',
                         "points[1] must be", id="col-too-large-for-a-float"),
            pytest.param('{"points":[[0,1.0,-1' + "0" * 400 + ']]}',
                         "points[0] must be", id="row-too-large-for-a-float"),
            ("[]", "JSON object"),
            ('{"points":', "line 2 column 1"),
        ],
    )
    def test_malformed_trajectory_is_located_runtime_error(self, raw_run, capsys, obj, field):
        traj_dir = raw_run.tmp / "traj"
        traj_dir.mkdir()
        path = traj_dir / "clip_0001.json"
        path.write_text(obj + "\n", encoding="utf-8")
        code = main(["classify", *raw_run.common, "--trajectories", str(traj_dir),
                     "--out", str(raw_run.tmp / "report.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err and field in err
        assert "Traceback" not in err

    def test_manifest_not_utf8_is_located_runtime_error(self, raw_run, capsys):
        manifest = raw_run.tmp / "bad.jsonl"
        manifest.write_bytes(b'{"start":50,"end":60}\n{"start":0,"end":9,"x":"\xff"}\n')
        code = main(["track", *raw_run.common, "--manifest", str(manifest),
                     "--out", str(raw_run.tmp / "traj")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{manifest}:2: not valid UTF-8" in err
        assert "Traceback" not in err

    def test_track_stops_lookups_where_the_track_ends(self, tmp_path, monkeypatch):
        # A row spanning 400,001 frames over the 200-frame scenario: the
        # frames are looked up one at a time, and only until the track has
        # missed more than max_gap_frames in a row.
        calls = []
        by_index = MappingBackend.by_index

        def spy(self, index):
            calls.append(index)
            return by_index(self, index)

        monkeypatch.setattr(MappingBackend, "by_index", spy)
        trajectories = []
        for end in (400000, 199):
            manifest = tmp_path / f"m{end}.jsonl"
            manifest.write_text(json.dumps({"start": 0, "end": end}) + "\n", encoding="utf-8")
            calls.clear()
            out = tmp_path / f"traj{end}"
            assert main(["track", "--scenario", "one_delivery", "--backend", "synthetic",
                         "--manifest", str(manifest), "--out", str(out)]) == 0
            trajectories.append((out / "clip_0001.json").read_bytes())
        last = json.loads(trajectories[0])["points"][-1][0]
        assert calls == list(range(last + TrackerConfig().max_gap_frames + 2))
        assert trajectories[0] == trajectories[1]

    def test_track_stops_lookups_at_the_last_annotated_frame(self, tmp_path, monkeypatch):
        # A row from frame 190 of the 200-frame scenario to 10**9 never
        # seeds a track; lookups stop after frame 199, the last record.
        calls = []
        by_index = MappingBackend.by_index

        def spy(self, index):
            calls.append(index)
            # Fails at once, rather than after 10**9 lookups.
            assert len(calls) <= 1000, "looked up frames past the last record"
            return by_index(self, index)

        monkeypatch.setattr(MappingBackend, "by_index", spy)
        trajectories = []
        for end in (10**9, 199):
            manifest = tmp_path / f"m{end}.jsonl"
            manifest.write_text(json.dumps({"start": 190, "end": end}) + "\n", encoding="utf-8")
            calls.clear()
            out = tmp_path / f"traj{end}"
            started = time.perf_counter()
            assert main(["track", "--scenario", "one_delivery", "--backend", "synthetic",
                         "--manifest", str(manifest), "--out", str(out)]) == 0
            assert time.perf_counter() - started < 0.5
            assert calls == list(range(190, 200))
            trajectories.append((out / "clip_0001.json").read_bytes())
        assert json.loads(trajectories[0])["points"] == []
        assert trajectories[0] == trajectories[1]

    def test_bare_cr_is_whitespace_inside_a_manifest_row(self, raw_run):
        rows = raw_run.manifest.read_bytes().split(b"\n")
        crlf = raw_run.tmp / "crlf.jsonl"
        crlf.write_bytes(b"\r\n".join(row.replace(b",", b",\r", 1) for row in rows))
        assert cli._read_manifest(crlf) == cli._read_manifest(raw_run.manifest)
        assert cli._read_manifest(crlf)

    def test_trajectory_round_trip_byte_identical(self, tmp_path, segmented):
        traj_dir = tmp_path / "traj"
        main(
            [
                "track",
                "--scenario", "one_delivery",
                "--backend", "synthetic",
                "--manifest", str(segmented),
                "--out", str(traj_dir),
            ]
        )
        path = traj_dir / "clip_0001.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        rewritten = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert rewritten == path.read_text(encoding="utf-8")


class TestEval:
    def test_counts_file(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        counts.write_text(
            json.dumps({"tp": 233358, "fp": 4845, "fn": 15162, "tn": 243675}),
            encoding="utf-8",
        )
        assert main(["eval", "--counts", str(counts), "--out", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        # the report carries half-up two-decimal roundings of 93.8995 / 97.9660
        assert report["recall_pct"] == 93.9
        assert report["precision_pct"] == 97.97
        assert (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"tp": 1}', "'fp'"),
            ("[1, 2]", "JSON object"),
            ('{"tp": 1.9, "fp": 1, "fn": 1, "tn": 1}', "'tp'"),
            ('{"tp": 1, "fp": true, "fn": 1, "tn": 1}', "'fp'"),
        ],
        ids=["missing-key", "not-an-object", "float", "bool"],
    )
    def test_malformed_counts_is_located_runtime_error(self, tmp_path, capsys, text, field):
        counts = tmp_path / "counts.json"
        counts.write_text(text, encoding="utf-8")
        assert main(["eval", "--counts", str(counts)]) == 2
        err = capsys.readouterr().err
        assert str(counts) in err and field in err

    def test_prediction_streams(self, tmp_path):
        preds = tmp_path / "p.txt"
        labels = tmp_path / "l.txt"
        preds.write_text("1\n1\n0\n1\n", encoding="utf-8")
        labels.write_text("1\n0\n0\n1\n", encoding="utf-8")
        assert main(["eval", "--predictions", str(preds), "--labels", str(labels)]) == 0

    def test_empty_predictions_error(self, tmp_path):
        preds = tmp_path / "p.txt"
        labels = tmp_path / "l.txt"
        preds.write_text("", encoding="utf-8")
        labels.write_text("1\n", encoding="utf-8")
        assert main(["eval", "--predictions", str(preds), "--labels", str(labels)]) == 2

    def test_missing_inputs_is_config_error(self):
        assert main(["eval"]) == 1


class TestBenchAndScenarios:
    def test_bench_frame_budget_truncates_deliveries_safely(self, tmp_path):
        from cricseg.cli import bench_script

        # 300 lands mid-delivery-segment: the truncated segment must drop
        # its ball arc rather than script an arc that cannot fit.
        for frames in (40, 299, 300, 301, 1000):
            script = bench_script(frames, 160, 90)
            assert script.n_frames == frames

    def test_bench_is_unknown_command(self, capsys):
        assert main(["bench"]) == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_scenarios_lists_bundles(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "one_delivery" in out
        assert "match_5pct" in out


class TestConfigFile:
    def test_config_file_applies_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# pipeline settings",
                    "backend.kind = synthetic",
                    "source.scenario = delivery_plus_replay",
                    "gate.strategy = classifier",
                    "boundary.min_clip_frames = 25",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "m.jsonl"
        # flag overrides the scenario from the file
        assert (
            main(
                ["segment", "--config", str(cfg), "--scenario", "one_delivery", "--out", str(out)]
            )
            == 0
        )
        rows = read_jsonl(out)
        assert [(r["start"], r["end"]) for r in rows] == [(50, 149)]

    def test_key_given_twice_in_a_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "backend.kind = synthetic\ngate.debounce_k = 2\n# again\n gate.debounce_k = 5\n",
            encoding="utf-8",
        )
        out = tmp_path / "m.jsonl"
        argv = ["segment", "--config", str(cfg), "--scenario", "one_delivery", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: {cfg}:4: duplicate key gate.debounce_k (first on line 2)\n"
        )
        assert not out.exists()

    def test_readme_keys_are_accepted_with_their_defaults(self):
        # Each key of README's Configuration block, set to the default
        # given there in parentheses, leaves build_pipeline_config({})'s
        # value as it is; a key without one is accepted with a value.
        # "crop.top/.bottom" names two keys.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Configuration", 1)[1].split("```\n")[1]
        defaults = {}
        for line in block.splitlines():
            found = list(re.finditer(r"([a-z]+)\.[a-z_.]+((?:/\.[a-z_]+)*)", line))
            for m, after in zip(found, found[1:] + [None]):
                between = line[m.end() : after.start() if after else len(line)]
                default = re.search(r"\(([^ )]+)", between)
                for key in [m.group(0).split("/")[0]] + [
                    m.group(1) + more for more in m.group(2).split("/")[1:]
                ]:
                    defaults[key] = default.group(1) if default else None
        assert len(defaults) == 28
        base = build_pipeline_config({})
        for key, default in defaults.items():
            if default is None:
                build_pipeline_config({key: "1"})
            else:
                assert build_pipeline_config({key: default}) == base, key

    @pytest.mark.parametrize(
        "flags,ignored",
        [
            (["--scenario", "three_lengths", "--source", "/nonexistent"], ["source.path"]),
            (["--scenario", "three_lengths", "--fps", "25"], ["source.fps"]),
            (
                ["--scenario", "three_lengths", "--width", "1600", "--height", "900"],
                ["source.width", "source.height"],
            ),
            (["--backend", "file:{ann}", "--source", "{ann}", "--scenario", "three_lengths"],
             ["source.scenario"]),
        ],
        ids=["synthetic_path", "synthetic_fps", "synthetic_size", "file_scenario"],
    )
    def test_source_key_the_backend_does_not_read_is_config_error(
        self, tmp_path, capsys, flags, ignored
    ):
        ann = tmp_path / "annotations.jsonl"
        ann.write_text("", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        argv = ["segment", *[f.format(ann=ann) for f in flags], "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"does not read {', '.join(ignored)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["gate.stratgy", "run.threads"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 4\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        code = main(["segment", "--config", str(cfg), "--scenario", "one_delivery", "--out", str(out)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gate.strategy dual\n", encoding="utf-8")
        assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "m.jsonl")]) == 1

    def test_unparsable_flag_is_config_error(self, capsys):
        assert main(["segment"]) == 1

    @pytest.mark.parametrize(
        "key,value",
        [
            ("replay.threshold", "nan"),
            ("boundary.pixel_diff_threshold", "nan"),
            ("tracker.max_jump_px", "nan"),
            ("source.fps", "inf"),
            ("source.fps", "nan"),
            ("pitch.tilt_deg", "-inf"),
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        code = main(["segment", "--config", str(cfg), "--scenario", "one_delivery", "--out", str(out)])
        assert code == 1
        assert f"config key {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("gate.thresholds.classifier", "1.5"),
            ("gate.thresholds.umpire", "-0.1"),
            ("gate.thresholds.pitch", "2"),
            ("gate.dual_mode", "both"),
            ("gate.debounce_k", "0"),
            ("boundary.foreground_threshold", "0"),
            ("boundary.pixel_diff_threshold", "-1"),
            ("boundary.learning_rate", "2"),
            ("boundary.init_frames", "0"),
            ("boundary.min_clip_frames", "0"),
            ("replay.band_fraction", "0"),
            ("replay.threshold", "-1"),
            ("tracker.max_jump_px", "0"),
            ("tracker.max_gap_frames", "0"),
            ("pitch.full_max_m", "0"),
            ("pitch.good_max_m", "3"),
            ("pitch.tilt_deg", "90"),
            ("crop.top", "1"),
            ("crop.bottom", "-0.5"),
            ("crop.left", "1.5"),
            ("crop.right", "1"),
            ("source.fps", "0"),
        ],
    )
    def test_range_error_names_config_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        code = main(["segment", "--config", str(cfg), "--scenario", "one_delivery", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fps_flag_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "m.jsonl"
        code = main(["segment", "--scenario", "one_delivery", "--fps", value, "--out", str(out)])
        assert code == 1
        assert "config key source.fps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BoundaryConfig(pixel_diff_threshold=math.nan),
            lambda: ReplayConfig(mean_abs_diff_threshold=math.nan),
            lambda: TrackerConfig(max_jump_px=math.nan),
            lambda: PipelineConfig(scenario="one_delivery", fps=math.nan).validate(),
            lambda: PipelineConfig(scenario="one_delivery", fps=math.inf).validate(),
        ],
        ids=["boundary", "replay", "tracker", "fps-nan", "fps-inf"],
    )
    def test_library_range_checks_reject_nan(self, make):
        with pytest.raises((ValueError, ConfigError)):
            make()

    @given(
        key=st.sampled_from([
            "source.fps", "source.width", "gate.thresholds.classifier", "gate.debounce_k",
            "boundary.pixel_diff_threshold", "boundary.init_frames", "replay.band_fraction",
            "replay.threshold", "tracker.max_jump_px", "tracker.max_gap_frames",
            "pitch.good_max_m", "pitch.tilt_deg", "crop.top",
        ]),
        value=st.one_of(
            st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "-0", "1e-400"]),
            st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
        ),
    )
    def test_config_value_fuzz(self, tmp_path_factory, key, value):
        # track with an empty manifest parses the whole config, then does no work.
        tmp = tmp_path_factory.mktemp("cfg")
        (tmp / "run.cfg").write_text(f"{key} = {value}\n", encoding="utf-8")
        (tmp / "m.jsonl").write_text("", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["track", "--config", str(tmp / "run.cfg"), "--scenario", "one_delivery",
                         "--manifest", str(tmp / "m.jsonl"), "--out", str(tmp / "traj")])
        assert code in (0, 1)
        try:
            finite = math.isfinite(float(value))
        except ValueError:
            finite = True
        if not finite:
            assert code == 1 and f"config key {key}" in err.getvalue()


@pytest.mark.parametrize(
    "reader, argv, code, where",
    [
        ("config", ["segment", "--config", "{bad}", "--scenario", "one_delivery",
                    "--out", "{tmp}/m.jsonl"], 1, "config error: {bad}: "),
        ("scenario", ["segment", "--scenario", "{bad}", "--backend", "synthetic",
                      "--out", "{tmp}/m.jsonl"], 2, "{bad}: "),
        ("counts", ["eval", "--counts", "{bad}"], 2, "{bad}: "),
        ("predictions", ["eval", "--predictions", "{bad}", "--labels", "{good}"], 2, "{bad}:2: "),
        ("labels", ["eval", "--predictions", "{good}", "--labels", "{bad}"], 2, "{bad}:2: "),
        ("trajectory", ["classify", "--scenario", "one_delivery", "--trajectories", "{tmp}",
                        "--out", "{tmp}/r.jsonl"], 2, "{bad}: "),
    ],
    ids=["config", "scenario", "counts", "predictions", "labels", "trajectory"],
)
def test_file_not_utf8_is_located_error(tmp_path, capsys, reader, argv, code, where):
    # Line 1 is valid in every reader's format; line 2 holds a byte that
    # no UTF-8 text has.
    first = {"config": b"gate.strategy = dual", "scenario": b'{"segments": [',
             "counts": b'{"tp": 1,', "trajectory": b'{"points": ['}.get(reader, b"1")
    # classify reads the clip_*.json files of the directory it is given.
    bad = tmp_path / ("clip_0001.json" if reader == "trajectory" else "bad.txt")
    bad.write_bytes(first + b"\n\xff\n")
    (tmp_path / "good.txt").write_bytes(b"1\n0\n")
    names = {"bad": bad, "good": tmp_path / "good.txt", "tmp": tmp_path}
    assert main([arg.format(**names) for arg in argv]) == code
    err = capsys.readouterr().err
    assert where.format(**names) + "not valid UTF-8" in err
    assert "UnicodeDecodeError" not in err and "Traceback" not in err
