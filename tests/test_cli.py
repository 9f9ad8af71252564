from __future__ import annotations

import contextlib
import io
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cricseg import cli
from cricseg.backend import MappingBackend, dump_annotations
from cricseg.cli import main
from cricseg.config import ConfigError, PipelineConfig
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
                refs.append(weakref.ref(frame))
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
        # The lookback window (debounce_k + 2, default k = 3) and an open
        # clip's first frame.
        assert max(alive) <= 3 + 3
        rows = read_jsonl(tmp_path / "m.jsonl")
        assert len(rows) == 2
        for n, row in enumerate(rows, start=1):
            names = sorted(p.name for p in (export / f"clip_{n:04d}").iterdir())
            assert names == [f"{i:06d}.pgm" for i in range(row["start"], row["end"] + 1)]

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
