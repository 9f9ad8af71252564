from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from cricseg.gate import (
    Debouncer,
    GateConfig,
    apply_gate,
    gate_classifier,
    gate_dual,
    gate_either,
    gate_pitch,
    gate_umpire,
)
from cricseg.metrics import confusion

from _support import make_annotations, random_labeled_stream

CFG = GateConfig()


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
        assert gate_umpire(ann, CFG).is_front

    def test_umpire_absent_with_pitch_only(self):
        ann = make_annotations(pitch=0.9)
        assert not gate_umpire(ann, CFG).is_front

    def test_umpire_below_confidence(self):
        ann = make_annotations(umpire=0.1)
        assert not gate_umpire(ann, CFG).is_front

    def test_pitch_present(self):
        assert gate_pitch(make_annotations(pitch=0.9), CFG).is_front

    def test_pitch_no_detections(self):
        assert not gate_pitch(make_annotations(), CFG).is_front

    def test_pitch_existential_over_multiple(self):
        from cricseg.backend import Detection

        extra = (Detection("pitch", (0, 0, 5, 5), 0.1),)
        ann = make_annotations(pitch=0.6, extra=extra)
        assert gate_pitch(ann, CFG).is_front


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
        assert either == (gate_umpire(ann, CFG).is_front or gate_pitch(ann, CFG).is_front)


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
