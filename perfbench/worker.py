"""One measured pipeline run, in a fresh interpreter: segment, track and
classify through ``cricseg.cli.main``, as a user would run them.

Usage: python3 worker.py <job.json> <result.json>

The job names the source tree, the three commands' arguments, the output
directory and whether to trace. The result holds the timings the parent
turns into metrics. The clock starts before cricseg is imported, so set-up
time covers the import, and everything ``segment`` does before its first
frame pull.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _pull_timer(pulls: list[float], stream):
    """Yield from ``stream``, noting the clock as each frame is asked for."""
    clock = time.perf_counter
    it = iter(stream)
    while True:
        pulls.append(clock())
        try:
            frame = next(it)
        except StopIteration:
            return
        yield frame


def _output_stats(out: Path) -> dict:
    from verify import count_exported

    files = [p for p in out.rglob("*") if p.is_file()]
    trajectories = [
        json.loads(p.read_text(encoding="utf-8")) for p in sorted((out / "traj").glob("*.json"))
    ]
    n = max(len(trajectories), 1)
    return {
        "cli.bytes_written": sum(p.stat().st_size for p in files),
        "cli.frames_exported": count_exported(out / "export"),
        "tracker.points_per_clip": sum(len(t["points"]) for t in trajectories) / n,
        "tracker.bounce_ratio": sum(t["bounce"] is not None for t in trajectories) / n,
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import cricseg
    from cricseg import cli

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    pulls: list[float] = []
    open_source = cli.open_source
    command = None

    @functools.wraps(open_source)
    def timed_open_source(*args, **kwargs):
        stream = open_source(*args, **kwargs)
        # track and classify open the source too, but never pull from it.
        return _pull_timer(pulls, stream) if command == "segment" else stream

    cli.open_source = timed_open_source

    codes = {}
    start = time.perf_counter()
    for command, argv in job["commands"]:
        run = cli.main if tracer is None else tracer.wrap(f"cli.{command}", cli.main)
        codes[command] = run(argv)
    wall = time.perf_counter() - start

    result = {
        "impl": cricseg.ACTIVE_IMPL,
        "codes": codes,
        "wall_s": wall,
        "setup_s": (pulls[0] - T0) if pulls else None,
        "frame_ms": [(b - a) * 1e3 for a, b in zip(pulls, pulls[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        frames = max(len(pulls) - 1, 0)
        result["layers"] = spans.layer_metrics(tracer, wall, frames, job["frame_pixels"])
        result["layers"].update(_output_stats(Path(job["out"])))
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
