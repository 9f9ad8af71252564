"""Layer spans recorded from outside the program.

``install`` replaces the public entry points of each cricseg module with
thin wrappers that record a span (name, start, end, parent) per call. Spans
stay in memory until the run ends; ``layer_metrics`` then derives per-layer
self time, per-frame costs and counts from them. Nothing under ``src/`` is
changed: the wrappers are set on the module and class attributes that the
pipeline looks up at call time.

A span's layer is the part of its name before the first dot, and the
layers are cricseg's modules: frames, backend, gate, segmenter, kernels,
replay, tracker, geometry and cli.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = ("frames", "backend", "gate", "segmenter", "kernels", "replay",
          "tracker", "geometry", "cli")

# Bytes the background kernel touches per pixel: the uint8 luma read, the
# float32 mean read and written back, and the bool mask write.
BG_UPDATE_BYTES_PER_PIXEL = 1 + 4 + 4 + 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def _open(self) -> tuple[int, int, float]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(("", 0.0, 0.0, parent))
        self._stack.append(sid)
        return sid, parent, self._clock()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = self._clock()
        self._stack.pop()
        self.spans[sid] = (name, start, end, parent)

    def wrap(self, name: str, fn, hit=None):
        """``fn`` with every call recorded as a span called ``name``;
        results passing ``hit`` are counted under ``name + '.hits'``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
                if hit is not None and hit(result):
                    self.counts[name + ".hits"] += 1
                return result
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self._close(name, sid, parent, start)

        return traced

    def wrap_iter(self, name: str, iterable):
        """Yield from ``iterable``, recording each pull as a span."""
        it = iter(iterable)
        while True:
            sid, parent, start = self._open()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(name, sid, parent, start)
            yield item

    def wrap_gen(self, name: str, fn):
        """A generator function whose whole run, start to exhaustion, is one
        span; ``name + '.yielded'`` counts the items it produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                for item in fn(*args, **kwargs):
                    self.counts[name + ".yielded"] += 1
                    yield item
            finally:
                self._close(name, sid, parent, start)

        return traced

    def count(self, name: str, fn, hit=lambda result: True):
        """``fn`` counting its results that pass ``hit`` under ``name``;
        no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if hit(result):
                self.counts[name] += 1
            return result

        return counted


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every cricseg layer for this process."""
    from cricseg import cli, gate, kernels, segmenter
    from cricseg.backend import MappingBackend

    open_source = cli.open_source

    @functools.wraps(open_source)
    def traced_open_source(*args, **kwargs):
        return tracer.wrap_iter("frames.next", open_source(*args, **kwargs))

    cli.open_source = traced_open_source
    cli.load_precomputed = tracer.wrap("backend.load", cli.load_precomputed)
    cli.build_trajectory = tracer.wrap("tracker.build", cli.build_trajectory)
    cli.classify_clip_delivery = tracer.wrap("geometry.classify", cli.classify_clip_delivery)
    MappingBackend.annotate = tracer.wrap("backend.annotate", MappingBackend.annotate)
    MappingBackend.by_index = tracer.wrap("backend.by_index", MappingBackend.by_index)
    segmenter.segment = tracer.wrap_gen("segmenter.segment", segmenter.segment)
    segmenter.apply_gate = tracer.wrap(
        "gate.apply", segmenter.apply_gate, hit=lambda verdict: verdict.is_front
    )
    segmenter.foreground_fraction = tracer.wrap(
        "segmenter.fg_fraction", segmenter.foreground_fraction
    )
    segmenter.classify_liveness = tracer.wrap("replay.liveness", segmenter.classify_liveness)
    model = segmenter.BackgroundModel
    model.update = tracer.wrap("segmenter.bg_update", model.update)
    model.reset = tracer.count("segmenter.resets", model.reset)
    kernels._Impl.bg_update = tracer.wrap("kernels.bg_update", kernels._Impl.bg_update)
    gate.Debouncer.push = tracer.count(
        "gate.events", gate.Debouncer.push, hit=lambda event: event is not None
    )


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, wall_s: float, frames: int, frame_bytes: int) -> dict:
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    spans = tracer.spans
    own = self_times(spans)
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    layer_self: Counter[str] = Counter()
    for (name, start, end, _), self_s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_s
    counts = tracer.counts
    per_frame = 1.0 / max(frames, 1)

    def per_call(name: str) -> float:
        return total[name] / max(calls[name], 1)

    m = {
        "frames.ingest_ms_per_frame": total["frames.next"] * 1e3 * per_frame,
        "backend.load_ms": total["backend.load"] * 1e3,
        "backend.load_calls": calls["backend.load"],
        "backend.annotate_us_per_frame": total["backend.annotate"] * 1e6 * per_frame,
        "backend.by_index_calls": calls["backend.by_index"],
        "gate.apply_us_per_frame": total["gate.apply"] * 1e6 * per_frame,
        "gate.front_share": counts["gate.apply.hits"] / max(calls["gate.apply"], 1),
        "gate.events": counts["gate.events"],
        "segmenter.bg_update_ms_per_frame": total["segmenter.bg_update"] * 1e3 * per_frame,
        "segmenter.fg_fraction_us_per_frame": total["segmenter.fg_fraction"] * 1e6 * per_frame,
        "segmenter.self_ms_per_frame": sum(
            s for (name, *_), s in zip(spans, own) if name == "segmenter.segment"
        ) * 1e3 * per_frame,
        "segmenter.model_updates": calls["segmenter.bg_update"],
        "segmenter.boundaries": counts["segmenter.resets"],
        "segmenter.clips": counts["segmenter.segment.yielded"],
        "kernels.bg_update_ms_per_frame": total["kernels.bg_update"] * 1e3 * per_frame,
        "kernels.bg_update_bytes_per_frame": frame_bytes * BG_UPDATE_BYTES_PER_PIXEL,
        "replay.liveness_ms_per_clip": per_call("replay.liveness") * 1e3,
        "replay.calls": calls["replay.liveness"],
        "tracker.build_ms_per_clip": per_call("tracker.build") * 1e3,
        "tracker.calls": calls["tracker.build"],
        "geometry.classify_us_per_delivery": per_call("geometry.classify") * 1e6,
        "geometry.errors": counts["geometry.classify.raised"],
    }
    for cmd in ("segment", "track", "classify"):
        m[f"cli.{cmd}.self_ms"] = sum(
            s for (name, *_), s in zip(spans, own) if name == f"cli.{cmd}"
        ) * 1e3
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    m["trace.wall_ms"] = wall_s * 1e3
    m["trace.coverage"] = sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m
