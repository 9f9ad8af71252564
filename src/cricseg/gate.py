"""Per-frame front-pitch-view decisions.

Five strategies: the classifier score alone, umpire detection, pitch
detection, either object, and a dual combiner of classifier and objects.
The dual combiner defaults to union, which maximises recall at the cost
of precision; intersection is available for the opposite trade.
"""

from __future__ import annotations

from dataclasses import dataclass

from cricseg.backend import FrameAnnotations

STRATEGIES = ("classifier", "umpire", "pitch", "either", "dual")
DUAL_MODES = ("union", "intersection")


@dataclass(frozen=True)
class GateConfig:
    classifier_threshold: float = 0.5
    umpire_conf_min: float = 0.25
    pitch_conf_min: float = 0.25
    dual_mode: str = "union"
    debounce_k: int = 3

    def __post_init__(self) -> None:
        for name in ("classifier_threshold", "umpire_conf_min", "pitch_conf_min"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.dual_mode not in DUAL_MODES:
            raise ValueError(f"dual_mode must be one of {DUAL_MODES}")
        if self.debounce_k < 1:
            raise ValueError("debounce_k must be >= 1")


@dataclass(frozen=True)
class GateVerdict:
    strategy: str
    is_front: bool
    evidence: tuple[str, ...]


def _fired(annotations: FrameAnnotations, cfg: GateConfig) -> tuple[str, ...]:
    signals = []
    if annotations.front_prob >= cfg.classifier_threshold:
        signals.append("classifier")
    if any(
        d.label == "umpire" and d.confidence >= cfg.umpire_conf_min
        for d in annotations.detections
    ):
        signals.append("umpire")
    if any(
        d.label == "pitch" and d.confidence >= cfg.pitch_conf_min
        for d in annotations.detections
    ):
        signals.append("pitch")
    return tuple(signals)


def gate_classifier(front_prob: float, cfg: GateConfig) -> GateVerdict:
    """Front iff the classifier score reaches the threshold (inclusive)."""
    front = front_prob >= cfg.classifier_threshold
    return GateVerdict("classifier", front, ("classifier",) if front else ())


def gate_umpire(annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    front = "umpire" in _fired(annotations, cfg)
    return GateVerdict("umpire", front, ("umpire",) if front else ())


def gate_pitch(annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    front = "pitch" in _fired(annotations, cfg)
    return GateVerdict("pitch", front, ("pitch",) if front else ())


def gate_either(annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    fired = tuple(s for s in _fired(annotations, cfg) if s != "classifier")
    return GateVerdict("either", bool(fired), fired)


def gate_dual(annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    """Combine classifier and object evidence, by union or intersection."""
    fired = _fired(annotations, cfg)
    objects = any(s in fired for s in ("umpire", "pitch"))
    classifier = "classifier" in fired
    if cfg.dual_mode == "union":
        front = classifier or objects
    else:
        front = classifier and objects
    return GateVerdict("dual", front, fired)


def apply_gate(strategy: str, annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    if strategy == "classifier":
        return gate_classifier(annotations.front_prob, cfg)
    if strategy == "umpire":
        return gate_umpire(annotations, cfg)
    if strategy == "pitch":
        return gate_pitch(annotations, cfg)
    if strategy == "either":
        return gate_either(annotations, cfg)
    if strategy == "dual":
        return gate_dual(annotations, cfg)
    raise ValueError(f"unknown gate strategy: {strategy!r}")


@dataclass(frozen=True)
class GateEvent:
    """Debounced gate transition.

    ``frame`` is where the k-th consecutive agreeing verdict landed;
    ``run_start`` is where that run began, i.e. the first front frame for
    an open and the first non-front frame for a close.
    """

    kind: str  # "open" | "close"
    frame: int
    run_start: int


class Debouncer:
    """Suppresses single-frame flicker: k consecutive agreeing verdicts
    are needed to open or close the gate. Strictly ordered, single
    consumer."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("debounce window must be >= 1")
        self.k = k
        self.gate_open = False
        self._run_value: bool | None = None
        self._run_start = 0
        self._run_len = 0

    def push(self, frame_index: int, is_front: bool) -> GateEvent | None:
        if is_front != self._run_value:
            self._run_value = is_front
            self._run_start = frame_index
            self._run_len = 0
        self._run_len += 1
        if self._run_len >= self.k and is_front != self.gate_open:
            self.gate_open = is_front
            kind = "open" if is_front else "close"
            return GateEvent(kind, frame_index, self._run_start)
        return None
