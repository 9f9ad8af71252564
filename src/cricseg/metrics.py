"""Confusion-matrix arithmetic and throughput accounting."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable


class UndefinedMetricError(Exception):
    """Raised when a metric's denominator is zero.

    A distinct state on purpose: an undefined recall is not 0% and
    not 100%.
    """


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predictions: Iterable[bool], labels: Iterable[bool]) -> ConfusionMatrix:
    """Count the four-way partition of paired prediction/label streams."""
    tp = fp = fn = tn = 0
    try:
        for pred, label in zip(predictions, labels, strict=True):
            if pred and label:
                tp += 1
            elif pred:
                fp += 1
            elif label:
                fn += 1
            else:
                tn += 1
    except ValueError as exc:
        raise ValueError("prediction and label streams differ in length") from exc
    return ConfusionMatrix(tp, fp, fn, tn)


def recall(cm: ConfusionMatrix) -> float:
    """TP / (TP + FN) as a percentage."""
    denom = cm.tp + cm.fn
    if denom == 0:
        raise UndefinedMetricError("recall undefined: no positive labels")
    return 100.0 * cm.tp / denom


def precision(cm: ConfusionMatrix) -> float:
    """TP / (TP + FP) as a percentage."""
    denom = cm.tp + cm.fp
    if denom == 0:
        raise UndefinedMetricError("precision undefined: no positive predictions")
    return 100.0 * cm.tp / denom


def round2(percentage: float) -> float:
    """Round half-up to two decimals, the convention used in reports."""
    return float(Decimal(repr(percentage)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class PerfStats:
    frames_processed: int
    wall_ms: float
    ms_per_frame: float
    fps: float


def throughput(frames_processed: int, wall_ms: float) -> PerfStats:
    """Derive per-frame time and fps from a wall-clock run."""
    if frames_processed <= 0:
        raise ValueError("frames_processed must be positive")
    if wall_ms <= 0:
        raise ValueError("wall_ms must be positive")
    ms_per_frame = wall_ms / frames_processed
    return PerfStats(frames_processed, wall_ms, ms_per_frame, 1000.0 / ms_per_frame)


def metrics_report(cm: ConfusionMatrix) -> dict:
    report: dict[str, object] = {
        "tp": cm.tp,
        "fp": cm.fp,
        "fn": cm.fn,
        "tn": cm.tn,
        "n": cm.n,
    }
    try:
        report["recall_pct"] = round2(recall(cm))
    except UndefinedMetricError:
        report["recall_pct"] = None
    try:
        report["precision_pct"] = round2(precision(cm))
    except UndefinedMetricError:
        report["precision_pct"] = None
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    keys = sorted(report)
    writer.writerow(keys)
    writer.writerow([report[k] for k in keys])
    return buf.getvalue()
