from __future__ import annotations

import json
import re

import numpy as np
import pytest

from cricseg.geometry import classify_delivery
from cricseg.scenario import (
    FRONT_VIEW,
    OTHER_VIEW,
    DeliverySpec,
    SceneSegment,
    ScenarioError,
    ScenarioScript,
    bundled_scripts,
    cut_positions,
    delivery_truths,
    expected_clips,
    front_view_labels,
    frame_stream,
    load_script,
    render_frame,
    resolve_script,
    script_from_lengths,
    synthetic_backend,
)


class TestScriptValidation:
    def test_overlapping_segments_rejected(self):
        with pytest.raises(ScenarioError, match="overlap"):
            ScenarioScript(
                (
                    SceneSegment(OTHER_VIEW, 0, 50),
                    SceneSegment(FRONT_VIEW, 40, 90),
                )
            )

    def test_gap_rejected(self):
        with pytest.raises(ScenarioError, match="gap"):
            ScenarioScript(
                (
                    SceneSegment(OTHER_VIEW, 0, 50),
                    SceneSegment(FRONT_VIEW, 60, 90),
                )
            )

    def test_must_start_at_zero(self):
        with pytest.raises(ScenarioError):
            ScenarioScript((SceneSegment(OTHER_VIEW, 5, 50),))

    def test_delivery_only_in_front_view(self):
        with pytest.raises(ScenarioError):
            SceneSegment(OTHER_VIEW, 0, 50, delivery=DeliverySpec(bounce_distance_m=7.0))

    def test_arc_must_fit_segment(self):
        with pytest.raises(ScenarioError, match="arc"):
            script_from_lengths(
                [(FRONT_VIEW, 20, {"delivery": DeliverySpec(bounce_distance_m=7.0)})]
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            SceneSegment("sideline", 0, 10)


class TestAnnotations:
    def test_front_view_frames_annotated_front(self):
        script = script_from_lengths([(OTHER_VIEW, 30), (FRONT_VIEW, 60), (OTHER_VIEW, 30)])
        backend = synthetic_backend(script)
        labels = front_view_labels(script)
        for i in (0, 29, 30, 89, 90, 119):
            ann = backend.by_index(i)
            assert (ann.front_prob >= 0.5) == labels[i]
            if labels[i]:
                assert ann.best("pitch") is not None
                assert ann.best("umpire") is not None

    def test_one_ball_detection_per_arc_frame(self):
        script = script_from_lengths(
            [(FRONT_VIEW, 60, {"delivery": DeliverySpec(bounce_distance_m=7.0)})]
        )
        (truth,) = delivery_truths(script)
        backend = synthetic_backend(script)
        arc_frames = {frame for frame, _, _ in truth.arc}
        for i in range(script.n_frames):
            balls = backend.by_index(i).with_label("ball")
            assert len(balls) == (1 if i in arc_frames else 0)

    def test_arc_descends_then_ascends(self):
        script = script_from_lengths(
            [(FRONT_VIEW, 60, {"delivery": DeliverySpec(bounce_distance_m=8.5)})]
        )
        (truth,) = delivery_truths(script)
        rows = [row for _, _, row in truth.arc]
        bounce_pos = truth.bounce_frame - truth.release_frame
        assert rows[bounce_pos] == max(rows)
        assert all(a < b for a, b in zip(rows[: bounce_pos + 1], rows[1 : bounce_pos + 1]))
        assert all(a > b for a, b in zip(rows[bounce_pos:], rows[bounce_pos + 1 :]))

    def test_truth_type_matches_distance(self):
        script = script_from_lengths(
            [(FRONT_VIEW, 60, {"delivery": DeliverySpec(bounce_distance_m=5.0)})]
        )
        (truth,) = delivery_truths(script)
        assert truth.delivery_type == classify_delivery(5.0, script.pitch)

    def test_zoom_ramp_batsman_height(self):
        spec = DeliverySpec(bounce_distance_m=7.0, zoom=1.3)
        script = script_from_lengths([(FRONT_VIEW, 60, {"delivery": spec})])
        (truth,) = delivery_truths(script)
        backend = synthetic_backend(script)
        h_release = backend.by_index(truth.release_frame).best("batsman").height
        h_bounce = backend.by_index(truth.bounce_frame).best("batsman").height
        assert h_bounce / h_release == pytest.approx(1.3)

    def test_backend_is_deterministic(self):
        script = script_from_lengths([(FRONT_VIEW, 40)])
        a = synthetic_backend(script)
        b = synthetic_backend(script)
        for i in range(script.n_frames):
            assert a.by_index(i) == b.by_index(i)


class TestRendering:
    def test_render_deterministic(self):
        script = script_from_lengths([(OTHER_VIEW, 30), (FRONT_VIEW, 30)], width=160, height=90)
        np.testing.assert_array_equal(render_frame(script, 17), render_frame(script, 17))

    def test_cut_changes_most_pixels(self):
        script = script_from_lengths([(OTHER_VIEW, 40), (FRONT_VIEW, 40)], width=160, height=90)
        before = render_frame(script, 39).astype(np.int16)
        after = render_frame(script, 40).astype(np.int16)
        changed = np.abs(after - before) > 25
        assert changed.mean() > 0.6

    def test_within_segment_change_is_small(self):
        script = script_from_lengths([(OTHER_VIEW, 40)], width=160, height=90)
        a = render_frame(script, 20).astype(np.int16)
        b = render_frame(script, 21).astype(np.int16)
        changed = np.abs(b - a) > 25
        # worst case: the drifting block wraps, changing twice its area
        assert changed.mean() < 0.15

    def test_live_band_static_replay_band_moves(self):
        live = script_from_lengths([(FRONT_VIEW, 40)], width=160, height=90)
        replay = script_from_lengths([(FRONT_VIEW, 40, {"scorecard": False})], width=160, height=90)
        band_rows = slice(90 - 13, 90)
        live_first = render_frame(live, 0)[band_rows]
        live_last = render_frame(live, 39)[band_rows]
        np.testing.assert_array_equal(live_first, live_last)
        replay_first = render_frame(replay, 0)[band_rows]
        replay_last = render_frame(replay, 39)[band_rows]
        assert np.abs(replay_last.astype(int) - replay_first.astype(int)).mean() > 8

    def test_stream_indices(self):
        script = script_from_lengths([(OTHER_VIEW, 10)], width=160, height=90)
        frames = list(frame_stream(script))
        assert [f.index for f in frames] == list(range(10))


class TestGroundTruth:
    def test_cut_positions(self):
        script = script_from_lengths([(OTHER_VIEW, 30), (FRONT_VIEW, 40), (OTHER_VIEW, 20)])
        assert cut_positions(script) == [30, 70]

    def test_expected_clips_filters_short(self):
        script = script_from_lengths(
            [(OTHER_VIEW, 30), (FRONT_VIEW, 10), (OTHER_VIEW, 30), (FRONT_VIEW, 50)]
        )
        assert expected_clips(script, min_frames=25) == [(70, 119, "live")]


class TestBundledScripts:
    def test_bundles_exist(self):
        names = set(bundled_scripts())
        assert {"one_delivery", "delivery_plus_replay", "match_5pct", "three_lengths"} <= names

    def test_resolve_unknown_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            resolve_script("does_not_exist")

    def test_load_from_path(self, tmp_path):
        src = bundled_scripts()["one_delivery"]
        copy = tmp_path / "copy.json"
        copy.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
        assert load_script(copy) == resolve_script("one_delivery")


def _edited_bundle(tmp_path, edit):
    """A copy of one_delivery's script file with ``edit`` applied to its object."""
    obj = json.loads(bundled_scripts()["one_delivery"].read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _set(path, value):
    """Set the value at a dotted path such as ``segments.1.end``."""
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]

    def edit(obj):
        for key in parents:
            obj = obj[key]
        obj[last] = value

    return edit


class TestScriptValues:
    @pytest.mark.parametrize(
        "path, value, kind",
        [
            ("segments.1.end", 149.9, "an integer"),
            ("segments.1.end", "abc", "an integer"),
            ("segments.0.start", True, "an integer"),
            ("segments.0.scorecard", "false", "true or false"),
            ("segments.2.scorecard", 0, "true or false"),
            ("width", 640.0, "an integer"),
            ("height", "360", "an integer"),
            ("fps", "50", "a finite number"),
            ("fps", float("nan"), "a finite number"),
            ("fps", True, "a finite number"),
            ("segments.0.base_level", "x", "an integer"),
            ("segments.1.delivery.descent_frames", 10.5, "an integer"),
            ("segments.1.delivery.zoom", "1.2", "a finite number"),
            ("segments.1.delivery.bounce_distance_m", float("inf"), "a finite number"),
        ],
    )
    def test_values_are_checked_not_coerced(self, tmp_path, path, value, kind):
        script = _edited_bundle(tmp_path, _set(path, value))
        field = re.sub(r"\.(\d+)", r"[\1]", path)
        with pytest.raises(ScenarioError) as err:
            load_script(script)
        assert str(err.value) == f"{script}: field '{field}' must be {kind}"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("fps", 0, "field 'fps' must be positive"),
            ("segments.0.base_level", -5, "base_level must be in [0, 255]"),
            ("segments.0", [1], "malformed scenario script"),
        ],
    )
    def test_bad_values_name_the_file(self, tmp_path, path, value, message):
        script = _edited_bundle(tmp_path, _set(path, value))
        with pytest.raises(ScenarioError) as err:
            load_script(script)
        assert str(err.value).startswith(f"{script}: ")
        assert message in str(err.value)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"segments": [', encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_script(path)
        assert str(err.value).startswith(f"{path}: invalid JSON: ")

    def test_integer_fps_and_absent_defaults_load(self, tmp_path):
        def edit(obj):
            obj["fps"] = 50
            del obj["width"], obj["height"], obj["segments"][0]["scorecard"]
        script = load_script(_edited_bundle(tmp_path, edit))
        assert script == resolve_script("one_delivery")
        assert type(script.fps) is float
