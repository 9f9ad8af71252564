from __future__ import annotations

import copy
import dataclasses
import errno
import os
import pickle
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cricseg import kernels
from cricseg.frames import (
    BandSpec,
    CropSpec,
    Frame,
    FrameSourceError,
    _image_dir_frames,
    _raw_pipe_frames,
    _read_pgm,
    crop_offsets,
    open_source,
    stream_from_arrays,
    write_pgm,
)
from cricseg.kernels import _fallback

NATIVE_READ = getattr(kernels._native, "read_files", None)
READERS = [_fallback.read_files] + ([NATIVE_READ] if NATIVE_READ is not None else [])
needs_native_reader = pytest.mark.skipif(
    NATIVE_READ is None, reason="the compiled reader is not built"
)


def _token_loop_read_pgm(path):
    """A byte-at-a-time P5 header parser: the reference for what the
    header grammar accepts and for the error each header gets."""
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise FrameSourceError(f"{path}: only binary (P5) PGM is supported")
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FrameSourceError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise FrameSourceError(f"{path}: only 8-bit PGM is supported")
    if width <= 0 or height <= 0 or width * height > len(data) - pos:
        raise FrameSourceError(f"{path}: malformed PGM header")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width)


def _outcome(read, path):
    try:
        luma = read(path)
    except FrameSourceError as exc:
        return str(exc)
    return luma.shape, luma.tobytes()


# Header pieces: every ASCII whitespace byte, bytes that str (but not
# bytes) counts as whitespace, comments with and without their newline,
# and tokens that int() reads, misreads or rejects. Well-formed choices
# are drawn about half of the time, so that many headers parse.
_PGM_ASCII_SPACE = st.sampled_from([bytes([b]) for b in b" \t\n\r\x0b\x0c"])
_PGM_PIECE = st.one_of(
    _PGM_ASCII_SPACE,
    st.sampled_from([b"\x1c", b"\x1f", b"\x85", b"\xa0"]),
    st.builds(
        lambda text, end: b"#" + text + end,
        st.binary(max_size=6).filter(lambda b: b"\n" not in b),
        st.sampled_from([b"", b"\n", b"\r\n"]),
    ),
)
_PGM_SEPARATOR = st.one_of(
    st.lists(_PGM_ASCII_SPACE, min_size=1, max_size=2).map(b"".join),
    st.lists(_PGM_PIECE, max_size=3).map(b"".join),
)
_PGM_ODD_TOKEN = st.sampled_from(
    [b"+3", b"-2", b"0", b"0255", b"1_0", b"2#", b"25#5", b"254", b"x", b"\xff", b"\x00", b""]
)
_PGM_SIZE = st.one_of(st.integers(1, 4).map(b"%d".__mod__), _PGM_ODD_TOKEN)
_PGM_MAXVAL = st.one_of(st.just(b"255"), _PGM_ODD_TOKEN)


_PGM_HEADER_BYTES = st.builds(
    lambda seps, tokens: b"P5" + b"".join(s + t for s, t in zip(seps, tokens)) + seps[3],
    st.lists(_PGM_SEPARATOR, min_size=4, max_size=4),
    st.tuples(_PGM_SIZE, _PGM_SIZE, _PGM_MAXVAL),
)


def _dir_outcomes(directory):
    """Shape and bytes of each frame the directory reader yields, then the
    text of the error that stopped it, if any."""
    out = []
    try:
        for frame in _image_dir_frames(directory):
            out.append((frame.luma.shape, frame.luma.tobytes()))
    except FrameSourceError as exc:
        out.append(str(exc))
    return out


def make_frame(h=100, w=100, value=0, index=0):
    return Frame(index, np.full((h, w), value, dtype=np.uint8))


class TestFrame:
    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Frame(-1, np.zeros((4, 4), dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            Frame(0, np.zeros((4, 4), dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Frame(0, np.zeros((0, 4), dtype=np.uint8))

    def test_luma_is_read_only(self):
        frame = make_frame()
        with pytest.raises(ValueError):
            frame.luma[0, 0] = 1

    def test_caller_array_becomes_read_only_in_place(self):
        arr = np.zeros((4, 4), dtype=np.uint8)
        frame = Frame(0, arr)
        assert frame.luma is arr
        assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))]
    )
    def test_copies_and_pickles(self, clone):
        frame = Frame(3, np.arange(12, dtype=np.uint8).reshape(3, 4))
        out = clone(frame)
        assert out.index == 3
        np.testing.assert_array_equal(out.luma, frame.luma)
        assert not out.luma.flags.writeable

    def test_strided_luma_is_made_contiguous(self):
        # The compiled kernels take C-contiguous planes only.
        arr = np.arange(48, dtype=np.uint8).reshape(4, 12)
        frame = Frame(0, arr[:, ::-2])
        assert frame.luma.flags.c_contiguous
        np.testing.assert_array_equal(frame.luma, arr[:, ::-2])


class TestCrop:
    def test_table_percentages(self):
        # (0.20, 0.25, 0.30, 0.30) on 100x100: columns [30, 70), rows [20, 75)
        spec = CropSpec(top=0.20, bottom=0.25, left=0.30, right=0.30)
        assert crop_offsets(spec, 100, 100) == (30, 20)

    def test_zero_spec_is_identity(self):
        assert crop_offsets(CropSpec(), 640, 360) == (0, 0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            CropSpec(top=0.6, bottom=0.6)

    @given(
        h=st.integers(4, 120),
        w=st.integers(4, 120),
        top=st.floats(0, 0.45),
        bottom=st.floats(0, 0.45),
        left=st.floats(0, 0.45),
        right=st.floats(0, 0.45),
    )
    def test_dimensions_match_pixel_counting_oracle(self, h, w, top, bottom, left, right):
        spec = CropSpec(top=top, bottom=bottom, left=left, right=right)
        # Oracle: the first row/col kept by an explicit selection mask.
        rows = [r for r in range(h) if int(top * h) <= r < h - int(bottom * h)]
        cols = [c for c in range(w) if int(left * w) <= c < w - int(right * w)]
        assert crop_offsets(spec, w, h) == (cols[0], rows[0])


class TestBottomBand:
    def test_band_rows(self):
        assert BandSpec(0.15).rows(100) == (85, 100)

    def test_full_band_is_identity(self):
        assert BandSpec(1.0).rows(40) == (0, 40)

    def test_zero_band_rejected(self):
        with pytest.raises(ValueError):
            BandSpec(0.0)


class TestStreams:
    def test_directory_frames(self, tmp_path):
        for i in range(10):
            write_pgm(np.full((8, 12), i, dtype=np.uint8), tmp_path / f"{i:04d}.pgm")
        stream = open_source(tmp_path)
        frames = list(stream)
        assert [f.index for f in frames] == list(range(10))
        assert frames[3].luma[0, 0] == 3

    def test_empty_directory_rejected(self, tmp_path):
        stream = open_source(tmp_path)
        with pytest.raises(FrameSourceError):
            list(stream)

    def test_inconsistent_dimensions_rejected(self, tmp_path):
        write_pgm(np.zeros((8, 12), dtype=np.uint8), tmp_path / "0000.pgm")
        write_pgm(np.zeros((8, 13), dtype=np.uint8), tmp_path / "0001.pgm")
        with pytest.raises(FrameSourceError):
            list(open_source(tmp_path))

    @pytest.mark.parametrize(
        "width, height, rejected",
        [(12, 8, False), (8, 12, True), (13, 8, True), (None, 12, False), (13, None, False)],
    )
    def test_declared_size_checked_before_any_frame(self, tmp_path, width, height, rejected):
        # The frames are 12x8. Only a size given whole is checked.
        for i in range(2):
            write_pgm(np.zeros((8, 12), dtype=np.uint8), tmp_path / f"{i:04d}.pgm")
        stream = open_source(tmp_path, width=width, height=height)
        if not rejected:
            assert len(list(stream)) == 2
            return
        with pytest.raises(FrameSourceError) as err:
            next(stream)
        assert str(err.value) == (
            f"{tmp_path / '0000.pgm'}: frame 0 dimensions (8, 12) differ from ({height}, {width})"
        )

    @pytest.mark.parametrize("shape", [(9, 7), (1, 1), (90, 160)])
    def test_directory_frames_equal_checked_frames(self, tmp_path, shape):
        # The PGM reader sets its frames' slots itself; each frame equals
        # the one Frame() checks and builds from the same values.
        rng = np.random.default_rng(5)
        arrays = [rng.integers(0, 256, shape, dtype=np.uint8) for _ in range(4)]
        for i, arr in enumerate(arrays):
            write_pgm(arr, tmp_path / f"{i:04d}.pgm")
        frames = list(open_source(tmp_path))
        assert len(frames) == len(arrays)
        for i, (frame, arr) in enumerate(zip(frames, arrays)):
            checked = Frame(i, arr.copy())
            assert type(frame) is Frame
            assert frame.index == checked.index
            np.testing.assert_array_equal(frame.luma, checked.luma)
            assert frame.luma.dtype == np.uint8 and frame.luma.flags.c_contiguous
            assert not frame.luma.flags.writeable
            with pytest.raises(ValueError):
                frame.luma[0, 0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                frame.index = 0
            ref = weakref.ref(frame)
            assert ref() is frame

    def test_stream_from_arrays_still_checks_each_frame(self):
        arr = np.arange(48, dtype=np.uint8).reshape(4, 12)
        strided = arr[:, ::2]
        writeable = np.zeros((4, 6), dtype=np.uint8)
        first, second = stream_from_arrays([strided, writeable])
        assert first.luma.flags.c_contiguous and first.luma is not strided
        np.testing.assert_array_equal(first.luma, strided)
        assert not first.luma.flags.writeable
        assert second.luma is writeable and not writeable.flags.writeable

    def test_header_change_mid_directory_rejected(self, tmp_path):
        # Same pixel count, other shape: the header parse that a changed
        # header needs also checks the shape.
        for i in range(2):
            write_pgm(np.zeros((8, 12), dtype=np.uint8), tmp_path / f"{i:04d}.pgm")
        write_pgm(np.zeros((12, 8), dtype=np.uint8), tmp_path / "0002.pgm")
        stream = open_source(tmp_path)
        assert [next(stream).index for _ in range(2)] == [0, 1]
        with pytest.raises(FrameSourceError) as err:
            next(stream)
        assert str(err.value) == (
            f"{tmp_path / '0002.pgm'}: frame 2 dimensions (12, 8) differ from (8, 12)"
        )

    def test_raw_pipe(self, tmp_path):
        frames = [np.full((4, 6), i, dtype=np.uint8) for i in range(3)]
        (tmp_path / "f.raw").write_bytes(b"".join(f.tobytes() for f in frames))
        out = list(open_source(tmp_path / "f.raw", width=6, height=4))
        assert [f.index for f in out] == [0, 1, 2]
        assert out[2].luma[0, 0] == 2

    def test_raw_pipe_truncated(self, tmp_path):
        path = tmp_path / "f.raw"
        path.write_bytes(b"\x00" * 25)  # one full 4x6 frame plus one byte
        with pytest.raises(FrameSourceError) as err:
            list(open_source(path, width=6, height=4))
        assert str(err.value) == f"{path}: frame 1 truncated: got 1 of 24 bytes"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="files are counted in Linux's /proc")
    @pytest.mark.parametrize("end", ["exhausted", "closed", "freed", "truncated"])
    def test_raw_file_is_open_only_while_the_stream_runs(self, tmp_path, end):
        path = tmp_path / "f.raw"
        path.write_bytes(bytes(3 * 24 + (end == "truncated")))
        before = len(os.listdir("/proc/self/fd"))
        stream = open_source(path, width=6, height=4)
        assert len(os.listdir("/proc/self/fd")) == before
        assert next(stream).index == 0
        assert len(os.listdir("/proc/self/fd")) == before + 1
        if end == "exhausted":
            assert [frame.index for frame in stream] == [1, 2]
        elif end == "closed":
            stream.close()
        elif end == "freed":
            del stream
        else:
            with pytest.raises(FrameSourceError, match="frame 3 truncated"):
                list(stream)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_readers_return_read_only_arrays(self, tmp_path):
        arr = np.arange(24, dtype=np.uint8).reshape(4, 6)
        (tmp_path / "f.raw").write_bytes(arr.tobytes())
        (raw,) = (f.luma for f in _raw_pipe_frames(tmp_path / "f.raw", 6, 4))
        write_pgm(arr, tmp_path / "0.pgm")
        pgm = _read_pgm(tmp_path / "0.pgm")
        for out in (raw, pgm):
            assert not out.flags.writeable
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("width, height", [(6, None), (None, 4), (None, None)])
    def test_raw_pipe_needs_dimensions(self, tmp_path, width, height):
        path = tmp_path / "f.raw"
        path.write_bytes(b"")
        with pytest.raises(FrameSourceError) as err:
            open_source(path, width=width, height=height)
        assert str(err.value) == f"{path}: raw luma input needs explicit width and height"

    @pytest.mark.parametrize("kind", ["missing", "fifo"])
    def test_other_paths_refused_unopened(self, tmp_path, kind):
        # Opening a FIFO would block until a writer came; open_source
        # raises at the call instead, whatever size is given.
        path = tmp_path / "src"
        if kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            os.mkfifo(path)
        with pytest.raises(FrameSourceError) as err:
            open_source(path, width=6, height=4)
        assert str(err.value) == f"{path}: not a frame directory or regular file"

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[1, 2], [3, 4]], dtype=np.int64),
            np.arange(8, dtype=np.uint8).reshape(2, 4)[:, ::2],
        ],
    )
    def test_stream_from_arrays_converts_what_is_not_a_uint8_array(self, arr):
        (frame,) = stream_from_arrays([arr])
        assert frame.luma.dtype == np.uint8 and frame.luma.flags.c_contiguous
        np.testing.assert_array_equal(frame.luma, np.asarray(arr).astype(np.uint8))

    def test_stream_indices_gapless(self):
        arrays = [np.zeros((4, 4), dtype=np.uint8)] * 5
        indices = [f.index for f in stream_from_arrays(arrays)]
        assert indices == [0, 1, 2, 3, 4]

    def test_one_based_directory_streams_from_zero(self, tmp_path):
        for i in range(1, 4):
            write_pgm(np.full((2, 3), i, dtype=np.uint8), tmp_path / f"{i}.pgm")
        frames = list(open_source(tmp_path))
        assert [(f.index, int(f.luma[0, 0])) for f in frames] == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "names, first, second, words",
        [
            (["0000.pgm", "0001.pgm", "0003.pgm"], "0001.pgm", "0003.pgm",
             "frame numbers skip from 1 to 3"),
            (["1.pgm", "0001.pgm", "0002.pgm"], "0001.pgm", "1.pgm", "both are frame 1"),
        ],
    )
    def test_frame_numbers_must_count_up_by_one(self, tmp_path, names, first, second, words):
        for name in names:
            write_pgm(np.zeros((2, 3), dtype=np.uint8), tmp_path / name)
        with pytest.raises(FrameSourceError) as err:
            next(open_source(tmp_path))
        assert str(err.value) == f"{tmp_path / first} and {tmp_path / second}: {words}"

    @pytest.mark.parametrize("name", ["0000.pgm", "0001.pgm"])
    @pytest.mark.parametrize("kind", ["directory", "dangling symlink", "symlink to a file"])
    def test_entry_that_is_not_a_regular_file_rejected_at_listing(self, tmp_path, name, kind):
        # Whatever a symlink names decides; the FIFO case is in test_cli.py.
        arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
        for i in range(3):
            write_pgm(arr, tmp_path / f"{i:04d}.pgm")
        path = tmp_path / name
        path.unlink()
        if kind == "directory":
            path.mkdir()
        elif kind == "dangling symlink":
            path.symlink_to(tmp_path / "gone.pgm")
        else:
            write_pgm(arr, tmp_path / "elsewhere.pgm")
            path.symlink_to(tmp_path / "elsewhere.pgm")
        stream = open_source(tmp_path)
        if kind == "symlink to a file":
            assert len(list(stream)) == 3
            return
        with pytest.raises(FrameSourceError) as err:
            next(stream)
        assert str(err.value) == f"{path}: not a regular file"

    def test_later_file_larger_than_size_hint(self, tmp_path):
        # The second file carries a comment 40 times the first file's
        # size, so it takes several reads past the hint.
        arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
        write_pgm(arr, tmp_path / "0000.pgm")
        first = (tmp_path / "0000.pgm").read_bytes()
        (tmp_path / "0001.pgm").write_bytes(
            b"P5\n#" + b"c" * 40 * len(first) + b"\n3 2\n255\n" + arr[::-1].tobytes()
        )
        frames = list(open_source(tmp_path))
        np.testing.assert_array_equal(frames[0].luma, arr)
        np.testing.assert_array_equal(frames[1].luma, arr[::-1])

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 100])
    @pytest.mark.parametrize("hint", [None, 0, 1, 3, 7, 8, 9, 1000])
    def test_read_file_returns_every_byte_whatever_the_hint(self, tmp_path, size, hint):
        # Each file read alone with the hint, then both by each reader,
        # which reads the second with the size of the first.
        datas = [bytes(range(size)), bytes(range(size + 3))[::-1]]
        paths = []
        for i, data in enumerate(datas):
            paths.append(str(tmp_path / f"{i}"))
            (tmp_path / f"{i}").write_bytes(data)
            assert _fallback.read_file(paths[-1], hint) == data
        for read in READERS:
            assert list(read(paths)) == datas

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 256, size=(31, 17), dtype=np.uint8)
        write_pgm(arr, tmp_path / "0.pgm")
        out = list(open_source(tmp_path))[0]
        np.testing.assert_array_equal(out.luma, arr)

    def test_pgm_round_trip_of_strided_array(self, tmp_path):
        arr = np.arange(64, dtype=np.uint8).reshape(8, 8)[:, ::2]
        write_pgm(arr, tmp_path / "0.pgm")
        np.testing.assert_array_equal(_read_pgm(tmp_path / "0.pgm"), arr)

    @given(
        width=st.one_of(st.integers(-3, 6), st.integers(-(2**64), 2**64)),
        height=st.one_of(st.integers(-3, 6), st.integers(-(2**64), 2**64)),
        pixels=st.integers(0, 40),
    )
    def test_pgm_header_dimensions_fuzz(self, tmp_path_factory, width, height, pixels):
        path = tmp_path_factory.mktemp("pgm") / "0.pgm"
        path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + bytes(pixels))
        if width > 0 and height > 0 and width * height <= pixels:
            assert _read_pgm(path).shape == (height, width)
        else:
            with pytest.raises(FrameSourceError, match=re.escape(f"{path}: malformed PGM header")):
                _read_pgm(path)

    @settings(max_examples=400)
    @example(seps=[b"\x0b", b"\x0c", b"\r", b"\t"], tokens=(b"2", b"3", b"255"),
             pixels=bytes(6), cut=None)
    @example(seps=[b"# 9 9 255", b"\n#\n ", b"#x\n\n", b" "], tokens=(b"1", b"2", b"255"),
             pixels=bytes(2), cut=None)
    @example(seps=[b"#c", b" ", b"\t", b" "], tokens=(b"1", b"1", b"255"), pixels=b"x", cut=None)
    @given(
        seps=st.lists(_PGM_SEPARATOR, min_size=4, max_size=4),
        tokens=st.tuples(_PGM_SIZE, _PGM_SIZE, _PGM_MAXVAL),
        pixels=st.binary(max_size=30),
        cut=st.one_of(st.none(), st.integers(0, 50)),
    )
    def test_pgm_header_matches_token_loop(self, tmp_path_factory, seps, tokens, pixels, cut):
        # Same frame or same error text as the token loop, on headers built
        # from comments, whitespace and tokens, whole or truncated.
        path = tmp_path_factory.mktemp("pgm") / "0.pgm"
        header = b"".join(sep + token for sep, token in zip(seps, tokens)) + seps[3]
        data = b"P5" + header + pixels
        path.write_bytes(data if cut is None else data[:cut])
        assert _outcome(_read_pgm, path) == _outcome(_token_loop_read_pgm, path)

    @settings(max_examples=300)
    @example(first=b"P5\n2 2\n255\n", keep=100, rest=b"", pixels=(4, 4))
    @example(first=b"P5\n2 2\n255\n", keep=100, rest=b"", pixels=(4, 3))
    @example(first=b"P5\n2 2\n255\n", keep=10, rest=b"\t", pixels=(4, 4))
    @example(first=b"P5\n2 2\n255 ", keep=10, rest=b"5\n", pixels=(4, 4))
    @example(first=b"P5 #c\n1 2\t255\r", keep=5, rest=b"x\n1 2\t255\r", pixels=(2, 2))
    @example(first=b"P5 1 1 255\x0b", keep=6, rest=b"#1\n 1 255\x0c", pixels=(1, 1))
    @example(first=b"P5\n2 2\n255\n", keep=3, rest=b"1 4\n255\n", pixels=(4, 4))
    @given(
        first=_PGM_HEADER_BYTES,
        keep=st.integers(0, 40),
        rest=st.one_of(_PGM_HEADER_BYTES.map(lambda h: h[2:]), st.binary(max_size=12)),
        pixels=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_header_memo_matches_a_fresh_parse(self, tmp_path_factory, first, keep, rest, pixels):
        # The second file repeats the first one's header, or only a prefix
        # of it and then other bytes. Reading both from one directory, with
        # the first header remembered, gives what reading each alone gives,
        # except that a second frame of another shape ends the stream.
        directory = tmp_path_factory.mktemp("pgm")
        datas = [first + bytes(range(pixels[0])), first[:keep] + rest + bytes(range(pixels[1]))]
        for i, data in enumerate(datas):
            (directory / f"{i}.pgm").write_bytes(data)
        fresh = []
        for i in range(2):
            fresh.append(_outcome(_read_pgm, directory / f"{i}.pgm"))
            if isinstance(fresh[-1], str):
                break
        if len(fresh) == 2 and not isinstance(fresh[1], str) and fresh[1][0] != fresh[0][0]:
            fresh[1] = (
                f"{directory / '1.pgm'}: frame 1 dimensions {fresh[1][0]} differ from {fresh[0][0]}"
            )
        assert _dir_outcomes(directory) == fresh

    @given(header=st.binary(max_size=24), pixels=st.integers(0, 40))
    def test_pgm_header_bytes_fuzz(self, tmp_path_factory, header, pixels):
        # Whatever follows the magic, a frame comes back or the error names the file.
        path = tmp_path_factory.mktemp("pgm") / "0.pgm"
        path.write_bytes(b"P5" + header + bytes(pixels))
        try:
            luma = _read_pgm(path)
        except FrameSourceError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert luma.size > 0


def _read_outcome(read, paths):
    """The bytes of each file read, then the error that stopped the
    reader, if any, then what one more pull gives."""
    out = []
    files = read(paths)
    try:
        for data in files:
            out.append(data)
    except OSError as exc:
        out.append((type(exc), exc.errno, exc.strerror, exc.filename, str(exc)))
    out.append(next(files, "exhausted"))
    return out


class TestReadFiles:
    @needs_native_reader
    @settings(max_examples=200, deadline=None)
    @example(hint=4, kinds=["hint+1", "3*hint", "hint", "hint-1", "0"])
    @example(hint=4, kinds=["hint", "hint", "deleted", "hint"])
    @example(hint=4, kinds=["hint", "directory", "hint"])
    @given(
        hint=st.integers(1, 40),
        kinds=st.lists(
            st.sampled_from(["0", "hint-1", "hint", "hint+1", "3*hint", "deleted", "directory"]),
            max_size=7,
        ),
    )
    def test_native_reader_matches_fallback(self, tmp_path_factory, hint, kinds):
        # The same bytes, or the same OSError at the same file, when a
        # listed file is deleted or replaced by a directory, and whether
        # each file is smaller than, as large as or larger than the one
        # before it.
        directory = tmp_path_factory.mktemp("read")
        sizes = {"0": 0, "hint-1": hint - 1, "hint": hint, "hint+1": hint + 1, "3*hint": 3 * hint}
        paths = []
        for i, kind in enumerate(kinds):
            path = directory / f"{i:04d}.pgm"
            if kind == "directory":
                path.mkdir()
            elif kind != "deleted":
                path.write_bytes(bytes((i + k) % 256 for k in range(sizes[kind])))
            paths.append(str(path))
        want = _read_outcome(_fallback.read_files, paths)
        assert _read_outcome(NATIVE_READ, paths) == want

    @pytest.mark.parametrize("name", ["0000.pgm", "0001.pgm"])
    def test_directory_after_listing_keeps_the_open_error(self, tmp_path, name):
        # The text open() gives, naming the entry, though the read that
        # finds the directory names no file itself.
        paths = []
        for i in range(3):
            paths.append(str(tmp_path / f"{i:04d}.pgm"))
            write_pgm(np.zeros((2, 3), dtype=np.uint8), paths[-1])
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        path = str(tmp_path / name)
        for read in READERS:
            with pytest.raises(IsADirectoryError) as err:
                list(read(paths))
            assert str(err.value) == (
                f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}"
            )

    @needs_native_reader
    def test_readers_on_many_threads_keep_every_byte(self, tmp_path):
        # More readers than CPUs, pulled from Python threads that switch
        # as often as they can, over files whose sizes keep changing.
        paths, datas = [], []
        for i in range(60):
            datas.append(bytes((i + k) % 251 for k in range((i * 37) % 300)))
            paths.append(str(tmp_path / f"{i}"))
            (tmp_path / f"{i}").write_bytes(datas[-1])
        got = {}

        def pull(n):
            for _ in range(5):
                assert list(NATIVE_READ(paths[n:])) == datas[n:]
            got[n] = True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=pull, args=(n,)) for n in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(got) == list(range(6))


def _threads() -> int:
    return len(os.listdir("/proc/self/task"))


@needs_native_reader
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in Linux's /proc")
class TestReaderThread:
    @pytest.mark.parametrize("end", ["closed", "exhausted", "bad header", "file deleted"])
    def test_stream_leaves_no_thread(self, tmp_path, monkeypatch, end):
        monkeypatch.setattr(kernels, "ACTIVE", kernels._Impl("native", kernels._native))
        # 640x360 frames, of which the reader reads two ahead, so that its
        # thread is still running after the first pull.
        for i in range(8):
            write_pgm(np.full((360, 640), i, dtype=np.uint8), tmp_path / f"{i:04d}.pgm")
        if end == "bad header":
            (tmp_path / "0005.pgm").write_bytes(b"P6\n640 360\n255\n" + bytes(360 * 640))
        before = _threads()
        stream = open_source(tmp_path)
        assert next(stream).index == 0
        assert _threads() == before + 1
        if end == "closed":
            stream.close()
        elif end == "exhausted":
            assert [frame.luma[0, 0] for frame in stream] == list(range(1, 8))
        elif end == "bad header":
            with pytest.raises(FrameSourceError, match="only binary"):
                list(stream)
        else:
            # Not read yet: the reader is two files ahead of the pull.
            (tmp_path / "0005.pgm").unlink()
            with pytest.raises(FileNotFoundError):
                list(stream)
        assert _threads() == before

    def test_freed_reader_joins_its_thread(self, tmp_path):
        paths = []
        for i in range(6):
            paths.append(str(tmp_path / f"{i}"))
            (tmp_path / f"{i}").write_bytes(bytes([i]) * 300_000)
        before = _threads()
        files = NATIVE_READ(paths)
        assert next(files) == bytes(300_000)
        assert _threads() == before + 1
        del files
        assert _threads() == before
