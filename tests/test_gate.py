from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from cricseg import segmenter
from cricseg.backend import OBJECT_LABELS, Detection, FrameAnnotations
from cricseg.gate import (
    DUAL_MODES,
    STRATEGIES,
    Debouncer,
    GateConfig,
    GateVerdict,
    apply_gate,
    gate_classifier,
    gate_dual,
    gate_either,
)
from cricseg.metrics import confusion
from cricseg.scenario import bundled_scripts, frame_stream, load_script, synthetic_backend

from _support import make_annotations, random_labeled_stream

CFG = GateConfig()


# The reference gate: one pass over the detections for each signal, and a
# new verdict for each frame.
def _ref_fired(annotations, cfg):
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


def _ref_gate_classifier(front_prob, cfg):
    front = front_prob >= cfg.classifier_threshold
    return GateVerdict("classifier", front, ("classifier",) if front else ())


def _ref_gate_umpire(annotations, cfg):
    front = "umpire" in _ref_fired(annotations, cfg)
    return GateVerdict("umpire", front, ("umpire",) if front else ())


def _ref_gate_pitch(annotations, cfg):
    front = "pitch" in _ref_fired(annotations, cfg)
    return GateVerdict("pitch", front, ("pitch",) if front else ())


def _ref_gate_either(annotations, cfg):
    fired = tuple(s for s in _ref_fired(annotations, cfg) if s != "classifier")
    return GateVerdict("either", bool(fired), fired)


def _ref_gate_dual(annotations, cfg):
    fired = _ref_fired(annotations, cfg)
    objects = any(s in fired for s in ("umpire", "pitch"))
    classifier = "classifier" in fired
    if cfg.dual_mode == "union":
        front = classifier or objects
    else:
        front = classifier and objects
    return GateVerdict("dual", front, fired)


_REF_GATES = {
    "classifier": lambda annotations, cfg: _ref_gate_classifier(annotations.front_prob, cfg),
    "umpire": _ref_gate_umpire,
    "pitch": _ref_gate_pitch,
    "either": _ref_gate_either,
    "dual": _ref_gate_dual,
}


def _ref_apply_gate(strategy, annotations, cfg):
    return _REF_GATES[strategy](annotations, cfg)


def _near(threshold):
    """A score exactly at a threshold, just below or just above it, or
    anywhere in [0, 1]."""
    return st.one_of(
        st.sampled_from(
            [threshold, math.nextafter(threshold, -math.inf), math.nextafter(threshold, math.inf)]
        ).filter(lambda v: 0.0 <= v <= 1.0),
        st.floats(0, 1),
    )


@st.composite
def _gate_cases(draw):
    threshold = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))
    cfg = GateConfig(
        classifier_threshold=draw(threshold),
        umpire_conf_min=draw(threshold),
        pitch_conf_min=draw(threshold),
        dual_mode=draw(st.sampled_from(DUAL_MODES)),
    )
    # Every label may score at either object threshold, so a ball or a
    # batsman at the umpire's threshold is drawn as often as an umpire.
    confidence = st.one_of(_near(cfg.umpire_conf_min), _near(cfg.pitch_conf_min))
    detections = draw(
        st.lists(
            st.builds(
                lambda label, conf: Detection(label, (1.0, 2.0, 3.0, 4.0), conf),
                st.sampled_from(sorted(OBJECT_LABELS)),
                confidence,
            ),
            max_size=6,
        )
    )
    front_prob = draw(_near(cfg.classifier_threshold))
    return FrameAnnotations(0, front_prob, tuple(detections)), cfg


class TestClassifierGate:
    def test_above_threshold(self):
        assert gate_classifier(0.9, CFG).is_front

    def test_boundary_inclusive(self):
        assert gate_classifier(0.5, CFG).is_front

    def test_below_threshold(self):
        assert not gate_classifier(0.2, CFG).is_front


class TestObjectGates:
    def test_umpire_present(self):
        ann = make_annotations(umpire=0.8)
        assert apply_gate("umpire", ann, CFG).is_front

    def test_umpire_absent_with_pitch_only(self):
        ann = make_annotations(pitch=0.9)
        assert not apply_gate("umpire", ann, CFG).is_front

    def test_umpire_below_confidence(self):
        ann = make_annotations(umpire=0.1)
        assert not apply_gate("umpire", ann, CFG).is_front

    def test_pitch_present(self):
        assert apply_gate("pitch", make_annotations(pitch=0.9), CFG).is_front

    def test_pitch_no_detections(self):
        assert not apply_gate("pitch", make_annotations(), CFG).is_front

    def test_pitch_existential_over_multiple(self):
        from cricseg.backend import Detection

        extra = (Detection("pitch", (0, 0, 5, 5), 0.1),)
        ann = make_annotations(pitch=0.6, extra=extra)
        assert apply_gate("pitch", ann, CFG).is_front


class TestEitherGate:
    def test_umpire_only(self):
        assert gate_either(make_annotations(umpire=0.8), CFG).is_front

    def test_pitch_only(self):
        assert gate_either(make_annotations(pitch=0.8), CFG).is_front

    def test_neither(self):
        assert not gate_either(make_annotations(front_prob=0.99), CFG).is_front

    @given(
        umpire=st.one_of(st.none(), st.floats(0, 1)),
        pitch=st.one_of(st.none(), st.floats(0, 1)),
        prob=st.floats(0, 1),
    )
    def test_equivalent_to_disjunction(self, umpire, pitch, prob):
        ann = make_annotations(0, prob, umpire, pitch)
        either = gate_either(ann, CFG).is_front
        assert either == (
            apply_gate("umpire", ann, CFG).is_front or apply_gate("pitch", ann, CFG).is_front
        )


class TestDualGate:
    def test_union_object_rescues_classifier_miss(self):
        # The published dual-stage counts (fewer misses than both
        # components, more false alarms than both) are only producible by
        # a union combiner, so an object hit must override a classifier
        # miss.
        ann = make_annotations(front_prob=0.1, pitch=0.9)
        assert gate_dual(ann, CFG).is_front

    def test_intersection_requires_both(self):
        cfg = GateConfig(dual_mode="intersection")
        ann = make_annotations(front_prob=0.9)
        assert not gate_dual(ann, cfg).is_front

    def test_both_fire_in_either_mode(self):
        ann = make_annotations(front_prob=0.9, umpire=0.9)
        assert gate_dual(ann, CFG).is_front
        assert gate_dual(ann, GateConfig(dual_mode="intersection")).is_front

    def test_union_set_algebra_on_labeled_streams(self):
        rng = random.Random(17)
        for _ in range(50):
            stream = random_labeled_stream(rng, 80)
            labels = [label for label, _ in stream]
            cls = [gate_classifier(a.front_prob, CFG).is_front for _, a in stream]
            either = [gate_either(a, CFG).is_front for _, a in stream]
            union = [gate_dual(a, CFG).is_front for _, a in stream]
            cm_c, cm_e, cm_u = (confusion(p, labels) for p in (cls, either, union))
            assert cm_u.fn <= min(cm_c.fn, cm_e.fn)
            assert cm_u.fp >= max(cm_c.fp, cm_e.fp)

    def test_intersection_set_algebra_reversed(self):
        rng = random.Random(18)
        cfg = GateConfig(dual_mode="intersection")
        for _ in range(50):
            stream = random_labeled_stream(rng, 80)
            labels = [label for label, _ in stream]
            cls = [gate_classifier(a.front_prob, CFG).is_front for _, a in stream]
            either = [gate_either(a, CFG).is_front for _, a in stream]
            inter = [gate_dual(a, cfg).is_front for _, a in stream]
            cm_c, cm_e, cm_i = (confusion(p, labels) for p in (cls, either, inter))
            assert cm_i.fn >= max(cm_c.fn, cm_e.fn)
            assert cm_i.fp <= min(cm_c.fp, cm_e.fp)


class TestMonotonicity:
    @given(
        prob=st.floats(0, 1),
        umpire=st.one_of(st.none(), st.floats(0, 1)),
        pitch=st.one_of(st.none(), st.floats(0, 1)),
        strategy=st.sampled_from(["classifier", "umpire", "pitch", "either", "dual"]),
        data=st.data(),
    )
    def test_lowering_thresholds_never_loses_front(self, prob, umpire, pitch, strategy, data):
        ann = make_annotations(0, prob, umpire, pitch)
        hi = GateConfig(
            classifier_threshold=data.draw(st.floats(0, 1)),
            umpire_conf_min=data.draw(st.floats(0, 1)),
            pitch_conf_min=data.draw(st.floats(0, 1)),
        )
        lo = GateConfig(
            classifier_threshold=data.draw(st.floats(0, hi.classifier_threshold)),
            umpire_conf_min=data.draw(st.floats(0, hi.umpire_conf_min)),
            pitch_conf_min=data.draw(st.floats(0, hi.pitch_conf_min)),
        )
        if apply_gate(strategy, ann, hi).is_front:
            assert apply_gate(strategy, ann, lo).is_front


class TestEvidence:
    def test_evidence_consistent_with_verdict(self):
        rng = random.Random(5)
        for _, ann in random_labeled_stream(rng, 200):
            assert gate_classifier(ann.front_prob, CFG).is_front == (
                "classifier" in gate_classifier(ann.front_prob, CFG).evidence
            )
            either = gate_either(ann, CFG)
            assert either.is_front == bool(either.evidence)
            dual = gate_dual(ann, CFG)
            assert dual.is_front == bool(dual.evidence)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            apply_gate("histogram", make_annotations(), CFG)


class TestAgainstReference:
    @given(case=_gate_cases(), strategy=st.sampled_from(STRATEGIES))
    def test_apply_gate_matches_the_multi_pass_reference(self, case, strategy):
        annotations, cfg = case
        got = apply_gate(strategy, annotations, cfg)
        want = _ref_apply_gate(strategy, annotations, cfg)
        assert (got.strategy, got.is_front, got.evidence) == (
            want.strategy, want.is_front, want.evidence,
        )

    @given(case=_gate_cases())
    def test_gate_functions_match_the_reference(self, case):
        annotations, cfg = case
        assert gate_classifier(annotations.front_prob, cfg) == _ref_gate_classifier(
            annotations.front_prob, cfg
        )
        assert apply_gate("umpire", annotations, cfg) == _ref_gate_umpire(annotations, cfg)
        assert apply_gate("pitch", annotations, cfg) == _ref_gate_pitch(annotations, cfg)
        assert gate_either(annotations, cfg) == _ref_gate_either(annotations, cfg)
        assert gate_dual(annotations, cfg) == _ref_gate_dual(annotations, cfg)

    def test_verdicts_are_shared(self):
        first = apply_gate("dual", make_annotations(0, 0.9, umpire=0.8), CFG)
        second = apply_gate("dual", make_annotations(1, 0.7, umpire=0.6), CFG)
        assert first is second
        assert gate_classifier(0.9, CFG) is apply_gate("classifier", make_annotations(0, 0.9), CFG)

    @pytest.mark.parametrize("name", sorted(bundled_scripts()))
    def test_segment_clips_match_the_reference_gate(self, name, monkeypatch):
        script = load_script(bundled_scripts()[name])
        backend = synthetic_backend(script)
        configs = [(s, CFG) for s in STRATEGIES if s != "dual"]
        configs += [("dual", GateConfig(dual_mode=mode)) for mode in DUAL_MODES]
        for strategy, cfg in configs:
            clips = list(
                segmenter.segment(frame_stream(script), backend, script.fps, cfg, strategy=strategy)
            )
            with monkeypatch.context() as patch:
                patch.setattr(segmenter, "apply_gate", _ref_apply_gate)
                want = list(
                    segmenter.segment(
                        frame_stream(script), backend, script.fps, cfg, strategy=strategy
                    )
                )
            assert clips == want, (strategy, cfg.dual_mode)


def debounce(flags, k):
    deb = Debouncer(k)
    events = (deb.push(index, front) for index, front in enumerate(flags))
    return [e for e in events if e is not None]


class TestDebounce:
    def test_k1_mirrors_raw_verdicts(self):
        flags = [True, False, True, True, False]
        events = debounce(flags, k=1)
        assert [(e.kind, e.frame) for e in events] == [
            ("open", 0),
            ("close", 1),
            ("open", 2),
            ("close", 4),
        ]

    def test_open_at_third_consecutive_front(self):
        flags = [True, True, False, True, True, True]
        events = debounce(flags, k=3)
        assert len(events) == 1
        assert events[0].kind == "open"
        assert events[0].frame == 5
        assert events[0].run_start == 3

    def test_all_not_front_no_events(self):
        assert debounce([False] * 10, k=2) == []

    def test_close_after_k_not_front(self):
        flags = [True, True, False, False, True, False, False]
        events = debounce(flags, k=2)
        assert [(e.kind, e.frame, e.run_start) for e in events] == [
            ("open", 1, 0),
            ("close", 3, 2),
        ]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            Debouncer(0)
