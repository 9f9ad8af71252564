"""End-to-end and per-layer benchmark of the cricseg pipeline.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The inputs for (workload, seed)
are generated on disk first; then, for ``--seconds``, fresh processes each
run ``segment``, ``track`` and ``classify`` through ``cricseg.cli.main``
(see worker.py). Every run's outputs are verified against the scenario's
ground truth. With ``--trace 0`` the last line of output carries the
end-to-end metrics (medians over the runs); with ``--trace 1``, traced and
untraced runs alternate and it carries the per-layer metrics. The lines
before it give the machine and kernel descriptor and each metric by name
with its unit. Scratch files go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> unit; kept in step with BENCHMARK.json by the tests.
END_TO_END = {
    "throughput_fps": "fps",
    "frame_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "frames.ingest_ms_per_frame": "ms",
    "backend.load_ms": "ms",
    "backend.load_calls": "count",
    "backend.annotate_us_per_frame": "us",
    "backend.by_index_calls": "count",
    "gate.apply_us_per_frame": "us",
    "gate.front_share": "ratio",
    "gate.events": "count",
    "segmenter.bg_update_ms_per_frame": "ms",
    "segmenter.fg_fraction_us_per_frame": "us",
    "segmenter.self_ms_per_frame": "ms",
    "segmenter.model_updates": "count",
    "segmenter.boundaries": "count",
    "segmenter.clips": "count",
    "kernels.bg_update_ms_per_frame": "ms",
    "kernels.bg_update_bytes_per_frame": "B",
    "replay.liveness_ms_per_clip": "ms",
    "replay.calls": "count",
    "tracker.build_ms_per_clip": "ms",
    "tracker.calls": "count",
    "tracker.points_per_clip": "count",
    "tracker.bounce_ratio": "ratio",
    "geometry.classify_us_per_delivery": "us",
    "geometry.errors": "count",
    "cli.segment.self_ms": "ms",
    "cli.track.self_ms": "ms",
    "cli.classify.self_ms": "ms",
    "cli.bytes_written": "B",
    "cli.frames_exported": "count",
    "frames.self_ms": "ms",
    "backend.self_ms": "ms",
    "gate.self_ms": "ms",
    "segmenter.self_ms": "ms",
    "kernels.self_ms": "ms",
    "replay.self_ms": "ms",
    "tracker.self_ms": "ms",
    "geometry.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.overhead_fps": "fps",
}

# Layer self times must account for the traced wall time within this share.
COVERAGE_TOL = 0.03
MIN_RUNS = 3
# Runs stop being started once this many seconds have passed since the
# first, and a run still going this much later is killed, so that one
# invocation ends within 180 s after its inputs are made.
BUDGET_S = 150
GRACE_S = 20


class BenchError(Exception):
    pass


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(root: Path, state: Path) -> None:
    """Build the optional compiled kernels in place, once per source state.

    ``setup.py`` decides what can be built here; when it builds nothing
    the numpy fallback runs, and the descriptor says so.
    """
    kernels = root / "src" / "cricseg" / "kernels"
    sources = [root / "setup.py", root / "pyproject.toml",
               *sorted(kernels.glob("*.pyx")), *sorted(kernels.glob("*.c"))]
    stamp = state / "build.stamp"
    digest = _digest([p for p in sources if p.is_file()])
    if stamp.is_file() and stamp.read_text(encoding="utf-8") == digest:
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(state / "build-temp")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout}{proc.stderr}")
    stamp.write_text(digest, encoding="utf-8")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def descriptor(impl: str) -> dict:
    import numpy

    return {
        "kernel_impl": impl,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def run_once(job: dict, state: Path, timeout: float) -> tuple[dict, float]:
    """One worker process; returns its result and how long it took."""
    out = Path(job["out"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job_path, result_path = state / "job.json", state / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        cwd=out, capture_output=True, text=True, timeout=timeout,
    )
    took = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8")), took


def _job(workload, inputs: Path, out: Path, src: Path) -> dict:
    from inputs import cli_args

    common = cli_args(workload, inputs)
    segment = ["segment", *common, "--out", str(out / "manifest.jsonl")]
    if workload.export_frames:
        segment += ["--export-frames", str(out / "export")]
    return {
        "src": str(src),
        "out": str(out),
        "frame_pixels": workload.width * workload.height,
        "commands": [
            ["segment", segment],
            ["track", ["track", *common, "--manifest", str(out / "manifest.jsonl"),
                       "--out", str(out / "traj")]],
            ["classify", ["classify", *common, "--trajectories", str(out / "traj"),
                          "--out", str(out / "report.jsonl")]],
        ],
    }


def measure(workload, seed: int, seconds: float, trace: bool, src: Path, state: Path,
            frames: int | None = None) -> dict:
    """Generate inputs, run and verify for ``seconds``; metrics and details.

    ``src`` is the cricseg source tree; inputs, outputs and job files go
    under ``state``.
    """
    from inputs import cached_inputs
    from verify import verify_run

    inputs = cached_inputs(workload, seed, state / "inputs", frames)
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    job = _job(workload, inputs, state / "out" / workload.name, src)

    began = time.perf_counter()
    untraced, traced, problems = [], [], []
    attempted = failed = runs = 0
    impl = None
    while True:
        want_trace = trace and len(traced) < len(untraced)
        timeout = BUDGET_S + GRACE_S - (time.perf_counter() - began)
        result, took = run_once({**job, "trace": want_trace}, state, timeout)
        runs += 1
        impl = result["impl"]
        n, bad, why = verify_run(truth, Path(job["out"]))
        if any(code != 0 for code in result["codes"].values()):
            bad, why = n, [f"cli exit codes {result['codes']}"]
        else:
            (traced if want_trace else untraced).append(result)
        attempted += n
        failed += bad
        problems += why
        elapsed = time.perf_counter() - began
        enough = runs >= MIN_RUNS * (2 if trace else 1) and elapsed >= seconds
        if enough or elapsed + took > BUDGET_S:
            break
    if not untraced or (trace and not traced):
        raise BenchError("no run completed: " + "; ".join(problems[:5]))

    metrics: dict[str, float] = {}
    fps = [truth["frames"] / r["wall_s"] for r in untraced]
    if not trace:
        metrics = {
            "throughput_fps": statistics.median(fps),
            "frame_ms_p50": statistics.median(ms for r in untraced for ms in r["frame_ms"]),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    else:
        for name in PER_LAYER:
            if name != "trace.overhead_fps":
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
        traced_fps = [truth["frames"] / r["wall_s"] for r in traced]
        metrics["trace.overhead_fps"] = statistics.median(traced_fps) - statistics.median(fps)
        for r in traced:
            coverage = r["layers"]["trace.coverage"]
            if abs(coverage - 1.0) > COVERAGE_TOL:
                problems.append(f"layer self times cover {coverage:.3f} of the traced wall time")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "frames": truth["frames"],
        "descriptor": descriptor(impl),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int,
                        help="stream length, for quick checks (default: the workload's)")
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "cricseg" / "__init__.py").is_file() or not (root / "setup.py").is_file():
        print(f"perfbench: no cricseg source tree under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    state = root / ".bench_build" / "perfbench"
    try:
        state.mkdir(parents=True, exist_ok=True)
        build(root, state)
        import cricseg.cli  # noqa: F401  (compiles the bytecode cache before timing)
        from inputs import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
        res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                      src, state, args.frames)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    for problem in res["problems"][:20]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "frames": res["frames"],
        "runs": res["runs"], "descriptor": res["descriptor"],
        "failed_ratio": res["failed"] / max(res["attempted"], 1),
    }, sort_keys=True))
    for name, value in res["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
