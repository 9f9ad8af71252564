"""Per-frame front-pitch-view decisions.

Five strategies: the classifier score alone, umpire detection, pitch
detection, either object, and a dual combiner of classifier and objects.
The dual combiner defaults to union, which maximises recall at the cost
of precision; intersection is available for the opposite trade.

A frame's detections are scanned once, for the three signals (classifier,
umpire, pitch) that every strategy decides from. Verdicts are shared
immutable values: each strategy and dual mode maps the eight signal
combinations to verdicts built once, at import.
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


# Bit i of a signal mask is set when _SIGNALS[i] fired.
_SIGNALS = ("classifier", "umpire", "pitch")
_CLASSIFIER, _UMPIRE, _PITCH = 1, 2, 4


def _decide(strategy: str, dual_mode: str, mask: int) -> GateVerdict:
    fired = tuple(s for bit, s in enumerate(_SIGNALS) if mask >> bit & 1)
    objects = tuple(s for s in fired if s != "classifier")
    if strategy == "either":
        return GateVerdict(strategy, bool(objects), objects)
    if strategy == "dual":
        classifier = bool(mask & _CLASSIFIER)
        if dual_mode == "union":
            front = classifier or bool(objects)
        else:
            front = classifier and bool(objects)
        return GateVerdict(strategy, front, fired)
    front = strategy in fired
    return GateVerdict(strategy, front, (strategy,) if front else ())


def _verdict_tables() -> dict[tuple[str, str], tuple[GateVerdict, ...]]:
    """(strategy, dual mode) -> the verdict for each signal mask. Equal
    verdicts are one object."""
    shared: dict[GateVerdict, GateVerdict] = {}
    return {
        (strategy, mode): tuple(
            shared.setdefault(v, v) for v in (_decide(strategy, mode, m) for m in range(8))
        )
        for strategy in STRATEGIES
        for mode in DUAL_MODES
    }


_VERDICTS = _verdict_tables()


def gate_classifier(front_prob: float, cfg: GateConfig) -> GateVerdict:
    """Front iff the classifier score reaches the threshold (inclusive)."""
    mask = _CLASSIFIER if front_prob >= cfg.classifier_threshold else 0
    return _VERDICTS["classifier", cfg.dual_mode][mask]


def gate_either(annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    return apply_gate("either", annotations, cfg)


def gate_dual(annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    """Combine classifier and object evidence, by union or intersection."""
    return apply_gate("dual", annotations, cfg)


def apply_gate(strategy: str, annotations: FrameAnnotations, cfg: GateConfig) -> GateVerdict:
    verdicts = _VERDICTS.get((strategy, cfg.dual_mode))
    if verdicts is None:
        raise ValueError(f"unknown gate strategy: {strategy!r}")
    mask = _CLASSIFIER if annotations.front_prob >= cfg.classifier_threshold else 0
    for det in annotations.detections:
        label = det.label
        if label == "umpire":
            if det.confidence >= cfg.umpire_conf_min:
                mask |= _UMPIRE
        elif label == "pitch" and det.confidence >= cfg.pitch_conf_min:
            mask |= _PITCH
    return verdicts[mask]


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
