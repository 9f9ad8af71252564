from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cricseg.metrics import (
    ConfusionMatrix,
    PerfStats,
    UndefinedMetricError,
    confusion,
    metrics_report,
    precision,
    recall,
    round2,
    throughput,
)

# Published confusion matrices for the five front-view strategies, with
# the percentages printed alongside them.
PUBLISHED = [
    ("transfer-classifier", ConfusionMatrix(tp=233358, fp=4845, fn=15162, tn=243675), 93.89, 97.96),
    ("umpire-detector", ConfusionMatrix(tp=209532, fp=14022, fn=38988, tn=234498), 84.31, 93.72),
    ("pitch-detector", ConfusionMatrix(tp=240084, fp=12255, fn=8436, tn=236265), 96.60, 95.14),
    ("either-object", ConfusionMatrix(tp=241452, fp=17841, fn=7068, tn=230679), 97.15, 93.11),
    ("dual-stage", ConfusionMatrix(tp=248349, fp=45942, fn=171, tn=202578), 99.93, 84.38),
]


class TestConfusion:
    def test_matching_streams(self):
        cm = confusion([True, True, False], [True, True, False])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_all_false_positives(self):
        cm = confusion([True] * 5, [False] * 5)
        assert cm.fp == 5
        assert cm.n == 5

    def test_empty_streams(self):
        cm = confusion([], [])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([True], [True, False])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1)

    def test_componentwise_merge(self):
        first = ([True, True, False, False], [True, False, True, False])
        second = ([True] * 3 + [False] * 5, [True, False, False, True, True, False, False, False])
        parts = [confusion(*first), confusion(*second)]
        whole = confusion(first[0] + second[0], first[1] + second[1])
        for name in ("tp", "fp", "fn", "tn"):
            assert getattr(whole, name) == sum(getattr(cm, name) for cm in parts)


class TestPublishedTables:
    @pytest.mark.parametrize("name,cm,want_recall,want_precision", PUBLISHED)
    def test_recall_precision_match(self, name, cm, want_recall, want_precision):
        assert recall(cm) == pytest.approx(want_recall, abs=0.01)
        assert precision(cm) == pytest.approx(want_precision, abs=0.01)

    def test_totals_are_consistent(self):
        for _, cm, _, _ in PUBLISHED:
            assert cm.n == 497040
            assert cm.tp + cm.fn == 248520
            assert cm.fp + cm.tn == 248520


class TestMetricProperties:
    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        fn=st.integers(0, 500),
        tn=st.integers(0, 500),
        k=st.integers(1, 7),
    )
    def test_invariant_under_duplication(self, tp, fp, fn, tn, k):
        cm = ConfusionMatrix(tp, fp, fn, tn)
        dup = ConfusionMatrix(tp * k, fp * k, fn * k, tn * k)
        if tp + fn > 0:
            assert recall(cm) == pytest.approx(recall(dup))
        if tp + fp > 0:
            assert precision(cm) == pytest.approx(precision(dup))

    def test_undefined_is_distinct(self):
        cm = ConfusionMatrix(tp=0, fp=0, fn=0, tn=10)
        with pytest.raises(UndefinedMetricError):
            recall(cm)
        with pytest.raises(UndefinedMetricError):
            precision(cm)
        report = metrics_report(cm)
        assert report["recall_pct"] is None
        assert report["precision_pct"] is None

    def test_round2_half_up(self):
        assert round2(93.895) == 93.9
        assert round2(84.385) == 84.39
        assert round2(97.964) == 97.96


class TestThroughput:
    def test_object_detector_budget(self):
        stats = throughput(1000, 3200.0)
        assert stats.ms_per_frame == pytest.approx(3.2)
        assert stats.fps == pytest.approx(312.5)

    def test_classifier_budget(self):
        stats = throughput(1000, 25560.0)
        assert stats.ms_per_frame == pytest.approx(25.56)
        assert stats.fps == pytest.approx(39.1236, abs=1e-3)

    def test_single_frame(self):
        assert throughput(1, 1000.0).fps == pytest.approx(1.0)

    def test_derived_fields_consistent(self):
        stats = throughput(480, 1234.5)
        assert stats.fps == pytest.approx(1000.0 / stats.ms_per_frame)
        assert stats.ms_per_frame == pytest.approx(stats.wall_ms / stats.frames_processed)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            throughput(0, 100.0)
