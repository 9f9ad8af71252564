"""Tests of the benchmark itself: generator, verifier, tracing and contract.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
from verify import check_outputs  # noqa: E402


# Stream lengths that keep at least one delivery per workload.
TINY = {"broadcast_pgm": 700, "dense_deliveries": 300, "hd_raw_export": 140}


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_tiny_run_of_each_workload_is_correct_and_traced(name, tmp_path):
    res = run.measure(inputs.WORKLOADS[name], seed=3, seconds=0, trace=True,
                      src=ROOT / "src", state=tmp_path, frames=TINY[name])
    assert res["problems"] == []
    assert res["attempted"] > 0 and res["failed"] == 0
    assert res["runs"]["traced"] >= run.MIN_RUNS
    m = res["metrics"]
    assert set(m) == set(run.PER_LAYER)
    assert abs(m["trace.coverage"] - 1.0) <= run.COVERAGE_TOL
    assert m["backend.load_calls"] == 3
    assert m["segmenter.model_updates"] == res["frames"] + m["segmenter.boundaries"]
    assert m["segmenter.clips"] == m["tracker.calls"] == m["replay.calls"] > 0
    assert m["geometry.errors"] == 0 and m["tracker.bounce_ratio"] == 1.0


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(name, tmp_path):
    workload = inputs.WORKLOADS[name]
    inputs.write_inputs(workload, 7, tmp_path / "a", frames=TINY[name])
    inputs.write_inputs(workload, 7, tmp_path / "b", frames=TINY[name])
    inputs.write_inputs(workload, 8, tmp_path / "c", frames=TINY[name])
    a = _files(tmp_path / "a")
    assert a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")


def test_inputs_are_cached_per_workload_and_seed(tmp_path):
    workload = inputs.WORKLOADS["dense_deliveries"]
    first = inputs.cached_inputs(workload, 1, tmp_path, frames=TINY[workload.name])
    stamp = (first / "truth.json").stat().st_mtime_ns
    assert inputs.cached_inputs(workload, 1, tmp_path, frames=TINY[workload.name]) == first
    assert (first / "truth.json").stat().st_mtime_ns == stamp
    second = inputs.cached_inputs(workload, 2, tmp_path, frames=TINY[workload.name])
    assert second != first and not first.exists()


def _perfect_outputs(truth: dict) -> tuple[list[dict], list[dict], int]:
    manifest = [{"start": s, "end": e, "liveness": lv} for s, e, lv in truth["clips"]]
    report = []
    for d in truth["deliveries"]:
        n = next(i for i, c in enumerate(manifest, start=1)
                 if c["start"] <= d["bounce_frame"] <= c["end"])
        report.append({"clip": f"clip_{n:04d}", "bounce_frame": d["bounce_frame"],
                       "distance_m": round(d["distance_m"], 4), "type": d["type"]})
    exported = sum(e - s + 1 for s, e, _ in truth["clips"])
    return manifest, report, exported


@pytest.fixture
def truth():
    workload = inputs.WORKLOADS["hd_raw_export"]
    return inputs.truth_of(workload.script(5), workload)


def test_verifier_accepts_correct_outputs(truth):
    attempted, failed, problems = check_outputs(truth, *_perfect_outputs(truth))
    assert attempted == len(truth["clips"]) + len(truth["deliveries"]) + 1
    assert (failed, problems) == (0, [])


def test_verifier_flags_a_corrupted_manifest(truth):
    manifest, report, exported = _perfect_outputs(truth)
    manifest[0]["start"] -= 3
    manifest[1]["liveness"] = "live" if manifest[1]["liveness"] == "replay" else "replay"
    _, failed, problems = check_outputs(truth, manifest, report, exported)
    assert failed >= 2
    assert any("clip" in p for p in problems)


def test_verifier_flags_a_wrong_report_row(truth):
    manifest, report, exported = _perfect_outputs(truth)
    report[0]["type"] = "short" if report[0]["type"] != "short" else "full"
    report[1]["distance_m"] += 0.5
    _, failed, problems = check_outputs(truth, manifest, report, exported)
    assert failed == 2 and len(problems) == 2


def test_verifier_flags_missing_exported_frames(truth):
    manifest, report, exported = _perfect_outputs(truth)
    _, failed, _ = check_outputs(truth, manifest, report, exported - 1)
    assert failed == 1


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_the_result_object_last(tmp_path):
    for item in ("src", "perfbench"):
        shutil.copytree(ROOT / item, tmp_path / item,
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    shutil.copy(ROOT / "setup.py", tmp_path)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    proc = _run_cli(tmp_path, "--workload", "dense_deliveries", "--seed", "2",
                    "--seconds", "0", "--trace", "0", "--frames", "300")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_cli_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path, "--workload", "dense_deliveries", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
