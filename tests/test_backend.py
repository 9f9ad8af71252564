from __future__ import annotations

import gc
import json
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from cricseg import backend as backend_module, kernels
from cricseg.backend import (
    OBJECT_LABELS,
    AnnotationError,
    AnnotationLoadError,
    Detection,
    FrameAnnotations,
    MappingBackend,
    _float,
    _parse_detection,
    dump_annotations,
    load_precomputed,
)
from cricseg.frames import CropSpec
from cricseg.scenario import bundled_scripts, load_script, synthetic_backend

NATIVE = kernels._Impl("native", kernels._native) if kernels.NATIVE_AVAILABLE else None
FALLBACK = kernels._Impl("fallback", kernels._fallback)
needs_native = pytest.mark.skipif(NATIVE is None, reason="the compiled extension is not built")


def write_lines(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


# JSON values a detection field may hold: floats in and around range,
# specials, integers (one too large for a float), bools, strings, null.
_ANY_VALUE = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -1.0, 1e-300, 1e308, float("nan"), float("inf"), float("-inf"),
        0, 1, -1, 10**400, -(10**400), True, False, "1", "", None,
    ]),
    st.floats(-2.0, 200.0),
    st.integers(-3, 200),
)


@st.composite
def _detection(draw):
    """A valid detection object, or one with a single field replaced,
    removed or added, so that most fail one check and one check only."""
    det = {
        "label": draw(st.sampled_from(["pitch", "umpire", "batsman", "bowler", "ball"])),
        "box": draw(st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4)),
        "conf": draw(st.floats(0.0, 1.0)),
    }
    change = draw(st.sampled_from([None, "label", "box", 0, 1, 2, 3, "conf", "space", "drop"]))
    if change == "label":
        det["label"] = draw(st.sampled_from(["keeper", "", "Ball", 3, None, ["ball"]]))
    elif change == "box":
        det["box"] = draw(st.one_of(
            st.lists(st.floats(0.0, 100.0), min_size=3, max_size=5),
            st.sampled_from(["1234", None, {"x": 1}]),
        ))
    elif change in (0, 1, 2, 3):
        det["box"][change] = draw(_ANY_VALUE)
    elif change == "conf":
        det["conf"] = draw(_ANY_VALUE)
    elif change == "space":
        det["space"] = draw(st.sampled_from(["full", "cropped", "other", None]))
    elif change == "drop":
        del det[draw(st.sampled_from(["label", "box", "conf"]))]
    return det


def _fields(ann):
    """Every field of a record, with each number's type and repr, so that
    1 and 1.0, or 0.0 and -0.0, differ."""
    def num(v):
        return type(v).__name__, repr(v)

    return (
        num(ann.frame_index),
        num(ann.front_prob),
        tuple(
            (type(d).__name__, d.label, tuple(num(v) for v in d.box), num(d.confidence))
            for d in ann.detections
        ),
    )


RECORD = {
    "frame": 0,
    "front_prob": 0.97,
    "detections": [{"label": "pitch", "box": [100, 200, 80, 300], "conf": 0.9}],
}


class TestDetection:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            Detection("keeper", (0, 0, 10, 10), 0.5)

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            Detection("ball", (0, 0, 10, 10), 1.3)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Detection("ball", (0, 0, 0, 10), 0.5)

    @pytest.mark.parametrize("box", [(float("nan"), 5, float("inf"), 4), (0, 0, float("inf"), 4)])
    def test_non_finite_box_rejected(self, box):
        with pytest.raises(ValueError, match="finite"):
            Detection("ball", box, 0.5)

    def test_derived_rows(self):
        det = Detection("batsman", (10, 20, 30, 40), 0.9)
        assert det.bottom_row == 60
        assert det.height == 40
        assert det.center() == (25, 40)


class TestLoader:
    def test_round_trip_record(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [RECORD])
        backend = load_precomputed(path)
        ann = backend.by_index(0)
        assert ann.front_prob == 0.97
        assert ann.detections[0].label == "pitch"
        assert ann.detections[0].box == (100, 200, 80, 300)

    def test_repeated_calls_identical(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [RECORD])
        backend = load_precomputed(path)
        assert backend.by_index(0) is backend.by_index(0)

    def test_out_of_range_confidence_names_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        bad = dict(RECORD, detections=[{"label": "pitch", "box": [1, 1, 2, 2], "conf": 1.3}])
        write_lines(path, [RECORD | {"frame": 0}, bad | {"frame": 1}])
        with pytest.raises(AnnotationLoadError, match="line 2"):
            load_precomputed(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        bad = dict(RECORD, detections=[{"label": "crowd", "box": [1, 1, 2, 2], "conf": 0.5}])
        write_lines(path, [bad])
        with pytest.raises(AnnotationLoadError, match="line 1"):
            load_precomputed(path)

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [RECORD, RECORD])
        with pytest.raises(AnnotationLoadError, match="duplicate"):
            load_precomputed(path)

    @pytest.mark.parametrize("frame", [0.7, True, "12", -1])
    def test_frame_must_be_non_negative_integer(self, tmp_path, frame):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [RECORD | {"frame": 1}, RECORD | {"frame": frame}])
        with pytest.raises(AnnotationLoadError, match="line 2: field 'frame'"):
            load_precomputed(path)

    @pytest.mark.parametrize(
        "record,field",
        [
            ({"front_prob": "0.5"}, "front_prob"),
            ({"front_prob": True}, "front_prob"),
            ({"detections": [{"label": "pitch", "box": "1234", "conf": 0.5}]}, "box"),
            ({"detections": [{"label": "pitch", "box": [1, 2, 3], "conf": 0.5}]}, "box"),
            ({"detections": [{"label": "pitch", "box": [1, 2, 3, 4, 5], "conf": 0.5}]}, "box"),
            ({"detections": [{"label": "pitch", "box": [1, "2", 3, 4], "conf": 0.5}]}, "box"),
            ({"detections": [{"label": "pitch", "box": [1, 2, 3, False], "conf": 0.5}]}, "box"),
            ({"detections": [{"label": "pitch", "box": [1, 2, 3, 4], "conf": True}]}, "conf"),
            ({"detections": [{"label": "pitch", "box": [1, 2, 3, 4], "conf": "0.5"}]}, "conf"),
            ({"detections": [{"label": ["pitch"], "box": [1, 2, 3, 4], "conf": 0.5}]}, "label"),
        ],
    )
    def test_values_are_type_checked_not_coerced(self, tmp_path, record, field):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [RECORD | {"frame": 1}, RECORD | record])
        with pytest.raises(AnnotationLoadError, match=f"line 2: field '{field}'"):
            load_precomputed(path)

    def test_integer_values_load_as_floats(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [{"frame": 0, "front_prob": 1, "detections": [
            {"label": "pitch", "box": [1, 2, 3, 4], "conf": 0}]}])
        ann = load_precomputed(path).by_index(0)
        det = ann.detections[0]
        assert [type(v) for v in (ann.front_prob, *det.box, det.confidence)] == [float] * 6

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"frame": 0, "front_prob": 0.5}\nnot json\n', encoding="utf-8")
        with pytest.raises(AnnotationLoadError, match="line 2"):
            load_precomputed(path)

    @pytest.mark.parametrize(
        "line",
        [
            '\x0c{"frame": 1, "front_prob": 0.5}',  # form feed: not JSON whitespace
            ' \t\x0b{"frame": 1, "front_prob": 0.5}',
            '\ufeff{"frame": 1, "front_prob": 0.5}',  # byte order mark
            '{"frame": 1, "front_prob": 0.5} x',  # trailing garbage
            '\t{"frame": 1, "front_prob": 0.5}{}',
            '{"frame": 1, "front_prob": 0.5}\x0c',
            '   {"frame": 1, "front_prob": 0.5',  # truncated after indentation
            '\t\t{"frame": 1, "front_prob": "\\x"}',  # bad escape, inside the scanner
            '  {"frame": 1, "front_prob": nan}',
            '{"frame": 1, "front_prob": Infinit}',
        ],
    )
    def test_invalid_json_worded_as_json_loads(self, tmp_path, line):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(RECORD) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line + "\n")
        with pytest.raises(AnnotationLoadError) as err:
            load_precomputed(path)
        assert str(err.value) == f"line 2: invalid JSON: {expected.value}"

    def test_blank_lines_skipped(self, tmp_path):
        # Any whitespace str.isspace knows makes a blank line, not only JSON's.
        path = tmp_path / "ann.jsonl"
        path.write_text(" \n\x0c\n\t\x0b\u2028\n" + json.dumps(RECORD) + "\n\n", encoding="utf-8")
        assert load_precomputed(path).by_index(0).front_prob == 0.97

    @pytest.mark.parametrize(
        "line, error",
        [
            ('  {"frame": 1, "front_prob": 0.5}  ', None),
            ('\t{"frame": 1, "front_prob": 0.5}\r', None),
            ('{"frame": 1, "front_prob": NaN}', "front_prob must be in [0, 1]"),
            ('{"frame": 1, "front_prob": -Infinity}', "front_prob must be in [0, 1]"),
            ('{"frame": 1, "front_prob": 0.5, "detections": [{"label": "ball", '
             '"box": [1, 2, Infinity, 4], "conf": 0.5}]}', "detection box values must be finite"),
            ('{"frame": 1, "front_prob": 0.5, "detections": [{"label": "\\ud800", '
             '"box": [1, 2, 3, 4], "conf": 0.5}]}', "unknown object label: '\\ud800'"),
            ('{"frame": 1, "front_prob": 0.5, "detections": [{"label": "ball", '
             '"box": [1, 2, 3, 4], "conf": 0.5, "space": "\\udfff"}]}',
             "unknown coordinate space '\\udfff'"),
        ],
    )
    def test_lines_json_loads_accepts_are_read_alike(self, tmp_path, line, error):
        # NaN, Infinity and lone surrogates parse, as json.loads parses
        # them, and then fail the value checks.
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(RECORD) + "\n" + line + "\n", encoding="utf-8", newline="")
        json.loads(line)
        if error is None:
            assert load_precomputed(path).by_index(1).front_prob == 0.5
        else:
            with pytest.raises(AnnotationLoadError) as err:
                load_precomputed(path)
            assert str(err.value) == f"line 2: {error}"

    def test_empty_file_errors_on_every_frame(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        backend = load_precomputed(path)
        for index in (0, 5):
            with pytest.raises(AnnotationError) as err:
                backend.by_index(index)
            assert err.value.frame_index == index

    def test_cropped_space_normalized(self, tmp_path):
        # Crop offsets for (0.20, 0.25, 0.30, 0.30) on 1280x720: dx=384, dy=144.
        path = tmp_path / "ann.jsonl"
        rec = {
            "frame": 0,
            "front_prob": 0.9,
            "detections": [
                {"label": "ball", "box": [100, 200, 8, 8], "conf": 0.9, "space": "cropped"}
            ],
        }
        write_lines(path, [rec])
        crop = CropSpec(top=0.20, bottom=0.25, left=0.30, right=0.30)
        backend = load_precomputed(path, crop=crop, frame_size=(1280, 720))
        det = backend.by_index(0).detections[0]
        assert det.box == (484, 344, 8, 8)

    def test_cropped_space_without_context_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rec = {
            "frame": 0,
            "front_prob": 0.9,
            "detections": [{"label": "ball", "box": [1, 1, 2, 2], "conf": 0.9, "space": "cropped"}],
        }
        write_lines(path, [rec])
        with pytest.raises(AnnotationLoadError, match="cropped"):
            load_precomputed(path)

    def test_box_outside_frame_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rec = dict(RECORD, detections=[{"label": "pitch", "box": [600, 10, 50, 20], "conf": 0.5}])
        write_lines(path, [rec])
        with pytest.raises(AnnotationLoadError, match="bounds"):
            load_precomputed(path, frame_size=(640, 360))

    def test_dump_load_round_trip(self, tmp_path):
        anns = [
            FrameAnnotations(0, 0.25, (Detection("umpire", (4, 5, 6, 7), 0.5),)),
            FrameAnnotations(1, 1.0, ()),
        ]
        path = tmp_path / "out.jsonl"
        dump_annotations(anns, path)
        backend = load_precomputed(path)
        assert backend.by_index(0) == anns[0]
        assert backend.by_index(1) == anns[1]

    @given(
        frame=st.integers(0, 1000),
        prob=st.floats(0, 1),
        conf=st.floats(0, 1),
        label=st.sampled_from(["pitch", "umpire", "batsman", "bowler", "ball"]),
        x=st.floats(0, 500),
        y=st.floats(0, 500),
        w=st.floats(0.1, 100),
        h=st.floats(0.1, 100),
    )
    def test_loader_fuzz_valid_records(self, tmp_path_factory, frame, prob, conf, label, x, y, w, h):
        path = tmp_path_factory.mktemp("fuzz") / "ann.jsonl"
        rec = {
            "frame": frame,
            "front_prob": prob,
            "detections": [{"label": label, "box": [x, y, w, h], "conf": conf}],
        }
        write_lines(path, [rec])
        det = load_precomputed(path).by_index(frame).detections[0]
        assert 0.0 <= det.confidence <= 1.0
        assert det.box[2] > 0 and det.box[3] > 0

    @given(conf=st.one_of(st.floats(max_value=-0.001), st.floats(min_value=1.001, max_value=10)))
    def test_loader_fuzz_bad_confidence(self, tmp_path_factory, conf):
        path = tmp_path_factory.mktemp("fuzz") / "ann.jsonl"
        rec = dict(RECORD, detections=[{"label": "ball", "box": [1, 1, 2, 2], "conf": conf}])
        write_lines(path, [rec])
        with pytest.raises(AnnotationLoadError):
            load_precomputed(path)

    @given(
        slot=st.sampled_from(["x", "y", "w", "h", "conf", "front_prob"]),
        token=st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]),
        frame_size=st.sampled_from([None, (1280, 720)]),
    )
    def test_loader_fuzz_non_finite_values(self, tmp_path_factory, slot, token, frame_size):
        # json.loads turns all four tokens into non-finite floats.
        values = {"x": "1", "y": "2", "w": "3", "h": "4", "conf": "0.5", "front_prob": "0.5"}
        values[slot] = token
        line = (
            '{{"frame": 0, "front_prob": {front_prob}, "detections": [{{"label": "ball", '
            '"box": [{x}, {y}, {w}, {h}], "conf": {conf}}}]}}'.format(**values)
        )
        path = tmp_path_factory.mktemp("fuzz") / "ann.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(AnnotationLoadError, match="line 1"):
            load_precomputed(path, frame_size=frame_size)


    @settings(max_examples=600)
    @example(dets=[{"label": "ball", "box": [150.0, 80.0, 10.0, 10.0], "conf": 0.5}],
             front_prob=0.5, crop=None, frame_size=(160, 90))
    @example(dets=[{"label": "ball", "box": [150.0, 1.0, 10.5, 2.0], "conf": 0.5}],
             front_prob=0.5, crop=None, frame_size=(160, 90))
    @example(dets=[{"label": "ball", "box": [1.0, 80.0, 2.0, 10.5], "conf": 0.5}],
             front_prob=0.5, crop=None, frame_size=(160, 90))
    @example(dets=[{"label": "ball", "box": [1.0, 2.0, 3.0, float("inf")], "conf": 0.5}],
             front_prob=0.5, crop=None, frame_size=None)
    @example(dets=[{"label": "ball", "box": [-0.0, -0.0, 3.0, 4.0], "conf": -0.0}],
             front_prob=-0.0, crop=None, frame_size=None)
    @example(dets=[{"label": "ball", "box": [-1e-300, 2.0, 3.0, 4.0], "conf": 0.5}],
             front_prob=0.5, crop=None, frame_size=None)
    @example(dets=[{"label": "ball", "box": [1.0, 2.0, 3.0, 4.0], "conf": -1e-300}],
             front_prob=0.5, crop=None, frame_size=None)
    @example(dets=[{"label": "ball", "box": [1.0, 2.0, 3.0, 4.0], "conf": True}],
             front_prob=0.5, crop=None, frame_size=None)
    @example(dets=[{"label": "ball", "box": [1.0, 2.0, 3.0, 4.0], "conf": 0.5, "space": "full"}],
             front_prob=0.5, crop=None, frame_size=None)
    @example(dets=[{"label": "ball", "box": [1.0, 2.0, 3.0, 4.0], "conf": 0.5, "space": "cropped"}],
             front_prob=0.5, crop=CropSpec(0.1, 0.1, 0.1, 0.1), frame_size=(160, 90))
    @example(dets=[{"label": "ball", "box": [1, 2, 3, 4], "conf": 1},
                   {"label": "pitch", "box": [1.0, 2.0, 3.0, 4.0], "conf": 1.0}],
             front_prob=1, crop=None, frame_size=None)
    @given(
        dets=st.lists(_detection(), max_size=2),
        front_prob=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), _ANY_VALUE),
        crop=st.sampled_from([None, CropSpec(0.1, 0.1, 0.1, 0.1)]),
        frame_size=st.sampled_from([None, (160, 90), (100, 100)]),
    )
    def test_loader_matches_parse_detection(
        self, tmp_path_factory, dets, front_prob, crop, frame_size
    ):
        # The loader builds what _parse_detection and FrameAnnotations
        # build from the same decoded line, field by field, or fails with
        # the same text.
        line = json.dumps({"frame": 7, "front_prob": front_prob, "detections": dets})
        path = tmp_path_factory.mktemp("fuzz") / "ann.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        obj = json.loads(line)
        try:
            if type(obj["front_prob"]) not in (int, float):
                raise AnnotationLoadError("line 1: field 'front_prob' must be a number")
            parsed = tuple(_parse_detection(d, 1, crop, frame_size) for d in obj["detections"])
            try:
                expected = _fields(FrameAnnotations(7, _float(obj["front_prob"]), parsed))
            except ValueError as exc:
                raise AnnotationLoadError(f"line 1: {exc}") from exc
        except AnnotationLoadError as exc:
            expected = str(exc)
        try:
            got = _fields(load_precomputed(path, crop, frame_size).by_index(7))
        except AnnotationLoadError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "slot, error",
        [
            ("x", "detection box values must be finite"),
            ("h", "detection box values must be finite"),
            ("conf", "confidence must be in [0, 1]"),
            ("front_prob", "front_prob must be in [0, 1]"),
        ],
    )
    @pytest.mark.parametrize("frame_size", [None, (1280, 720)])
    def test_integer_too_large_for_a_float_is_located(
        self, tmp_path, sign, slot, error, frame_size
    ):
        values = {"x": 1, "y": 2, "w": 3, "h": 4, "conf": 0.5, "front_prob": 0.5}
        values[slot] = sign * 10**400
        rec = {
            "frame": 1,
            "front_prob": values["front_prob"],
            "detections": [
                {"label": "ball", "box": [values[k] for k in "xywh"], "conf": values["conf"]}
            ],
        }
        path = tmp_path / "ann.jsonl"
        write_lines(path, [RECORD, rec])
        with pytest.raises(AnnotationLoadError) as err:
            load_precomputed(path, frame_size=frame_size)
        assert str(err.value) == f"line 2: {error}"

    def test_bare_cr_is_whitespace_inside_a_record(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_bytes(b'{"frame": 0,\r"front_prob": 0.5}\n{"frame": 1,\r\n"front_prob": 0.25}\n')
        with pytest.raises(AnnotationLoadError, match="^line 2: invalid JSON"):
            load_precomputed(path)
        path.write_bytes(
            b'{"frame": 0,\r"front_prob": 0.5}\r\n\r\n{"frame": 1, "front_prob": 2}\r\n'
        )
        with pytest.raises(AnnotationLoadError, match="^line 3: front_prob"):
            load_precomputed(path)
        path.write_bytes(b'{"frame": 0,\r"front_prob": 0.5}\r\n{"frame": 1, "front_prob": 0.25}\n')
        backend = load_precomputed(path)
        assert backend.by_index(0).front_prob == 0.5
        assert backend.by_index(1).front_prob == 0.25


# --- the native line scanner against the Python loader ---------------------

def _obj(members, sep=","):
    return "{" + sep.join(f"{key}:{value}" for key, value in members) + "}"


# Number texts the scanner hands back: json.loads reads each as an int or a
# non-finite float (1e400 overflows to an infinity).
_HANDED_BACK_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0", "0", "1"]
# Float reprs, many of 17 significant digits, and a few spelled otherwise.
_FLOAT_TEXT = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0.30000000000000004", "5e-324", "1E-5", "1.0e0", "-0.0", "0.5e+0"]),
)
_WHITESPACE = st.sampled_from(["", " ", "\t", "\r", " \t\r "])


@st.composite
def _detection_members(draw):
    """The members of a detection in a 160x90 frame, some with boxes on the
    right or bottom edge, and some changed to a shape the scanner hands
    back."""
    w, h = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))
    x = draw(st.one_of(st.floats(0.0, 160.0 - w), st.just(160.0 - w)))
    y = draw(st.one_of(st.floats(0.0, 90.0 - h), st.just(90.0 - h)))
    box = [repr(v) for v in (x, y, w, h)]
    conf = draw(_FLOAT_TEXT)
    label = draw(st.sampled_from(sorted(OBJECT_LABELS)))
    change = draw(st.sampled_from(
        [None] * 6 + ["box", "conf", "label", "space", "unknown", "repeat", "drop"]
    ))
    if change == "box":
        box[draw(st.integers(0, 3))] = draw(st.sampled_from(_HANDED_BACK_NUMBERS))
    elif change == "conf":
        conf = draw(st.sampled_from(_HANDED_BACK_NUMBERS))
    label = f'"{label}"'
    if change == "label":
        label = draw(st.sampled_from(['"\\u0062all"', '"keeper"', '"bäll"', '"ball\\""']))
    members = [('"label"', label), ('"box"', "[" + ",".join(box) + "]"), ('"conf"', conf)]
    if change == "space":
        members.append(('"space"', draw(st.sampled_from(['"full"', '"cropped"']))))
    elif change == "unknown":
        members.append(('"extra"', "[1]"))
    elif change == "repeat":
        members.append(draw(st.sampled_from([('"label"', '"pitch"'), ('"conf"', "0.125")])))
    elif change == "drop":
        del members[draw(st.integers(0, 2))]
    return draw(st.permutations(members))


@st.composite
def _record_line(draw):
    """A record line: canonical, spaced out, or changed to a shape the
    scanner hands back."""
    dets = draw(st.lists(_detection_members(), max_size=3))
    frame, front_prob = str(draw(st.integers(0, 12))), draw(_FLOAT_TEXT)
    change = draw(st.sampled_from(
        [None] * 6 + ["frame", "front_prob", "unknown", "repeat", "escaped", "non_ascii", "drop"]
    ))
    if change == "frame":
        frame = draw(st.sampled_from(["-0", "1.0", "1e2", "01", "-1", "99999999999999999999"]))
    elif change == "front_prob":
        front_prob = draw(st.sampled_from(_HANDED_BACK_NUMBERS))
    members = [('"frame"', frame), ('"front_prob"', front_prob)]
    if dets or draw(st.booleans()):
        sep = draw(st.sampled_from([",", ", ", ",\t", " ,\r"]))
        members.append(('"detections"', "[" + sep.join(_obj(d, sep) for d in dets) + "]"))
    if change == "unknown":
        members.append(('"extra"', '{"a": null}'))
    elif change == "repeat":
        members.append(draw(st.sampled_from([('"frame"', "13"), ('"front_prob"', "0.125")])))
    elif change == "drop":
        del members[draw(st.integers(0, 1))]
    elif change == "escaped":
        members[0] = ('"fr\\u0061me"', frame)
    elif change == "non_ascii":
        members.append(('"é"', "1"))
    members = draw(st.permutations(members))
    sep = draw(st.sampled_from([",", ", ", ",\t", "\r,\r"]))
    text = draw(_WHITESPACE) + _obj(members, sep) + draw(_WHITESPACE)
    return text.encode("utf-8")


_OTHER_LINE = st.sampled_from([
    b"", b" ", b"\t\r", b"\r",  # blank
    b"\x0b", b"\x0c", b"\x1c", b" \x0b ",  # other whitespace only
    b"not json", b'{"frame": 1}', b"[]", b'{"frame": 1, "front_prob": 0.5',  # errors
    b'{"frame": 1, "front_prob": 0.5} x', b'{"frame":1,"front_prob":0.5}{}',
    b'{"frame": 1, "front_prob": 0.5, "x": "\xff"}', b"\xef\xbb\xbf{}",
])


def _loaded(path, frame_size):
    """Every record the loader builds, field by field, or its error."""
    try:
        records = load_precomputed(path, frame_size=frame_size)._records
    except AnnotationLoadError as exc:
        return str(exc)
    return [(index, _fields(ann)) for index, ann in records.items()]


class TestNativeScanner:
    @needs_native
    @settings(max_examples=400, deadline=None)
    @example(lines=[b'{"frame":0,"front_prob":0.5}'] * 2, final_lf=True, block=1, frame_size=None)
    @given(
        lines=st.lists(st.one_of(_record_line(), _record_line(), _OTHER_LINE), min_size=1, max_size=8),
        final_lf=st.booleans(),
        block=st.sampled_from([1, 7, 64, 1 << 16]),
        frame_size=st.sampled_from([None, (160, 90)]),
    )
    def test_native_and_fallback_load_alike(self, tmp_path_factory, lines, final_lf, block, frame_size):
        # Equal records, field by field, or the same error text, whichever
        # kernel reads the file and wherever the blocks are cut.
        path = tmp_path_factory.mktemp("scan") / "ann.jsonl"
        path.write_bytes(b"\n".join(lines) + (b"\n" if final_lf else b""))
        got = {}
        for impl in (NATIVE, FALLBACK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "ACTIVE", impl)
                mp.setattr(backend_module, "_BLOCK", block)
                got[impl.name] = _loaded(path, frame_size)
        assert got["native"] == got["fallback"]

    @needs_native
    @pytest.mark.parametrize("name", sorted(bundled_scripts()))
    def test_native_scanner_consumes_every_dumped_line(self, tmp_path, name):
        script = load_script(bundled_scripts()[name])
        backend = synthetic_backend(script)
        path = tmp_path / "ann.jsonl"
        dump_annotations([backend.by_index(i) for i in range(script.n_frames)], path)
        data = path.read_bytes()
        records = {}
        assert NATIVE.scan_annotations(
            data, 0, records, script.width, script.height, Detection, FrameAnnotations
        ) == (len(data), script.n_frames)
        assert [(i, _fields(ann)) for i, ann in records.items()] == [
            (i, _fields(backend.by_index(i))) for i in range(script.n_frames)
        ]

    @needs_native
    def test_native_records_are_untracked(self, tmp_path, monkeypatch):
        # Frozen records of str, float, int and tuples of these hold no
        # cycle, so the scanner takes them out of the cyclic collector.
        script = load_script(bundled_scripts()["delivery_plus_replay"])
        backend = synthetic_backend(script)
        path = tmp_path / "ann.jsonl"
        dump_annotations([backend.by_index(i) for i in range(script.n_frames)], path)
        loaded = {}
        for impl in (NATIVE, FALLBACK):
            monkeypatch.setattr(kernels, "ACTIVE", impl)
            loaded[impl.name] = load_precomputed(path, frame_size=(script.width, script.height))
        records = [loaded["native"].by_index(i) for i in range(script.n_frames)]
        assert [_fields(ann) for ann in records] == [
            _fields(loaded["fallback"].by_index(i)) for i in range(script.n_frames)
        ]
        assert sum(len(ann.detections) for ann in records) > 0
        for ann in records:
            objects = [ann, ann.detections, *ann.detections, *(d.box for d in ann.detections)]
            assert not any(gc.is_tracked(obj) for obj in objects)

    @needs_native
    @pytest.mark.parametrize(
        "line",
        [
            b'{"frame":1,"front_prob":NaN}',
            b'{"frame":1,"front_prob":-Infinity}',
            b'{"frame":1,"front_prob":1e400}',
            b'{"frame":1,"front_prob":1}',
            b'{"frame":1}',
            b'{"frame":-0,"front_prob":0.5}',
            b'{"frame":1.0,"front_prob":0.5}',
            b'{"frame":1,"front_prob":0.5,"extra":1}',
            b'{"frame":1,"front_prob":0.5,"frame":2}',
            b'{"fr\\u0061me":1,"front_prob":0.5}',
            b'{"frame":1,"front_prob":0.5,"\xc3\xa9":1}',
            b'{"frame":1,"front_prob":0.5} x',
            b'{"frame":1,"front_prob":0.5}{}',
            b'{"frame":1,"front_prob":0.5,"detections":null}',
            b'{"frame":1,"front_prob":0.' + b"1" * 40 + b"}",
            b"\x0b", b"\x0c", b"\x1c",
        ] + [
            b'{"frame":1,"front_prob":0.5,"detections":[{%s}]}' % det
            for det in [
                b'"label":"ball","box":[1,2.0,3.0,4.0],"conf":0.5',
                b'"label":"ball","box":[1.0,2.0,3.0,4.0],"conf":1',
                b'"label":"ball","box":[1.0,2.0,3.0,4.0],"conf":0.5,"conf":0.25',
                b'"label":"ball","box":[1.0,2.0,3.0,4.0]',
                b'"label":"\\u0062all","box":[1.0,2.0,3.0,4.0],"conf":0.5',
                b'"label":"keeper","box":[1.0,2.0,3.0,4.0],"conf":0.5',
                b'"label":"ball","box":[1.0,2.0,3.0,4.0],"conf":0.5,"space":"full"',
                b'"label":"ball","box":[1e400,2.0,3.0,4.0],"conf":0.5',
                b'"label":"ball","box":[1.0,2.0,3.0,1e400],"conf":0.5',
                b'"label":"ball","box":[1.0,2.0,0.0,4.0],"conf":0.5',
                b'"label":"ball","box":[-1.0,2.0,3.0,4.0],"conf":0.5',
            ]
        ],
    )
    def test_scanner_hands_back_what_it_cannot_prove(self, line):
        records = {}
        for data in (line + b"\n", b"\n \r\n" + line + b"\n"):
            start = data.index(line)
            assert NATIVE.scan_annotations(
                data, 0, records, inf, inf, Detection, FrameAnnotations
            ) == (start, data.count(b"\n", 0, start))
        assert records == {}

    @needs_native
    def test_scanner_hands_back_a_box_past_the_frame_edge(self):
        line = b'{"frame":1,"front_prob":0.5,"detections":[{"label":"ball","box":[%s],"conf":0.5}]}\n'
        for box, frame_size, taken in [
            (b"150.0,2.0,10.0,4.0", (160, 90), True),
            (b"150.0,2.0,10.5,4.0", (160, 90), False),
            (b"1.0,80.0,3.0,10.5", (160, 90), False),
            (b"150.0,2.0,10.5,4.0", (inf, inf), True),
        ]:
            data = line % box
            assert NATIVE.scan_annotations(
                data, 0, {}, *frame_size, Detection, FrameAnnotations
            ) == ((len(data), 1) if taken else (0, 0))

    @needs_native
    def test_scanner_hands_back_a_duplicate_frame_and_a_line_without_lf(self):
        line = b'{"frame":1,"front_prob":0.5}'
        records = {}
        data = line + b"\n" + line + b"\n"
        assert NATIVE.scan_annotations(
            data, 0, records, 160, 90, Detection, FrameAnnotations
        ) == (len(line) + 1, 1)
        assert list(records) == [1]
        assert NATIVE.scan_annotations(
            b"\n" + line, 0, {}, 160, 90, Detection, FrameAnnotations
        ) == (1, 1)

    @needs_native
    @pytest.mark.parametrize("width", [2**53 + 3, 10**400], ids=["2**53+3", "10**400"])
    def test_frame_size_no_double_holds_is_compared_exactly(self, tmp_path, monkeypatch, width):
        # 2**53 + 4 exceeds a width of 2**53 + 3, though not the double
        # nearest to it, 2**53 + 4; the Python code compares exactly.
        path = tmp_path / "ann.jsonl"
        write_lines(path, [{"frame": 0, "front_prob": 0.5, "detections": [
            {"label": "ball", "box": [2.0**53, 1.0, 4.0, 1.0], "conf": 0.5}]}])
        got = []
        for impl in (NATIVE, FALLBACK):
            monkeypatch.setattr(kernels, "ACTIVE", impl)
            got.append(_loaded(path, (width, 90)))
        assert got[0] == got[1]
        assert got[0] == ("line 1: detection box exceeds frame bounds" if width < 10**400
                          else [(0, _fields(load_precomputed(path).by_index(0)))])

    @pytest.mark.parametrize("impl", ["native", "fallback"])
    def test_line_not_utf8_is_located(self, tmp_path, monkeypatch, impl):
        if impl == "native" and NATIVE is None:
            pytest.skip("the compiled extension is not built")
        monkeypatch.setattr(kernels, "ACTIVE", NATIVE if impl == "native" else FALLBACK)
        path = tmp_path / "ann.jsonl"
        path.write_bytes(
            json.dumps(RECORD).encode() + b'\n{"frame": 1, "front_prob": 0.5, "x": "\xff"}\n'
        )
        with pytest.raises(AnnotationLoadError) as err:
            load_precomputed(path)
        assert str(err.value) == "line 2: not valid UTF-8"


class TestAnnotations:
    def test_best_picks_highest_confidence(self):
        ann = FrameAnnotations(
            0,
            0.5,
            (
                Detection("batsman", (1, 1, 10, 180), 0.9),
                Detection("batsman", (1, 1, 10, 300), 0.4),
            ),
        )
        assert ann.best("batsman").height == 180
        assert ann.best("bowler") is None

    def test_front_prob_validated(self):
        with pytest.raises(ValueError):
            FrameAnnotations(0, 1.5, ())

    def test_mapping_backend_annotate_uses_index(self):
        import numpy as np

        from cricseg.frames import Frame

        ann = FrameAnnotations(2, 0.7, ())
        backend = MappingBackend({2: ann})
        frame = Frame(2, 0.0, np.zeros((4, 4), dtype=np.uint8))
        assert backend.annotate(frame) is ann
