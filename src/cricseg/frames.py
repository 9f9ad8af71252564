"""Frame ingestion and crop geometry.

Frames are 8-bit luma rasters with a strictly increasing, gapless index
and a timestamp derived from the declared fps. Sources are an image
directory (numbered PGM/PNG files) or a headerless raw-luma pipe; codec
decoding is left to external tooling. Readers do not copy pixels: a
frame's ``luma`` may be a read-only view of the bytes read from the source.
A directory's PGM files are read through ``kernels.ACTIVE.read_files``,
which the compiled build runs two files ahead on a thread of its own.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from cricseg import kernels


_UINT8 = np.dtype(np.uint8)


class FrameSourceError(Exception):
    """Unreadable source, inconsistent dimensions, or bad parameters."""


@dataclass(frozen=True)
class Frame:
    """One video frame: an 8-bit luma plane.

    Row 0 is the top of the image; row coordinates increase downward.
    Frames are immutable after creation and safe to share across threads.
    The luma plane is always C-contiguous, as the compiled kernels require;
    a strided array is copied. It is read-only, and may be a view of the
    source's bytes rather than an array of its own.
    """

    # Declared by hand so that frames keep weak references on every
    # supported Python (dataclass's weakref_slot needs 3.11).
    __slots__ = ("index", "timestamp_ms", "luma", "__weakref__")

    index: int
    timestamp_ms: float
    luma: np.ndarray

    def __post_init__(self) -> None:
        luma = self.luma
        if self.index < 0:
            raise ValueError("frame index must be >= 0")
        if luma.ndim != 2 or luma.dtype != _UINT8:
            raise ValueError("luma must be a 2-D uint8 array")
        if luma.shape[0] == 0 or luma.shape[1] == 0:
            raise ValueError("frame dimensions must be positive")
        flags = luma.flags
        if not flags.c_contiguous:
            luma = np.ascontiguousarray(luma)
            object.__setattr__(self, "luma", luma)
            flags = luma.flags
        if flags.writeable:
            flags.writeable = False

    def __reduce__(self):
        # Copies and pickles go through __init__: the default restore of
        # slots assigns to them, which a frozen dataclass refuses.
        return Frame, (self.index, self.timestamp_ms, self.luma)

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]


# The PGM reader builds its frames by setting their slots: its header
# parse proves a positive 2-D size, and an array over bytes is uint8,
# C-contiguous and read-only, which is all __post_init__ would check.
_new = object.__new__
_set_index = Frame.index.__set__
_set_timestamp_ms = Frame.timestamp_ms.__set__
_set_luma = Frame.luma.__set__


@dataclass(frozen=True)
class CropSpec:
    """Fractions of the frame removed from each edge."""

    top: float = 0.0
    bottom: float = 0.0
    left: float = 0.0
    right: float = 0.0

    def __post_init__(self) -> None:
        for name in ("top", "bottom", "left", "right"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"crop fraction {name}={v} outside [0, 1)")
        if self.top + self.bottom >= 1.0:
            raise ValueError("top + bottom crop must leave rows")
        if self.left + self.right >= 1.0:
            raise ValueError("left + right crop must leave columns")


@dataclass(frozen=True)
class BandSpec:
    """Fraction of frame height taken from the bottom edge."""

    band_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.band_fraction <= 1.0:
            raise ValueError("band_fraction must be in (0, 1]")

    def rows(self, height: int) -> tuple[int, int]:
        """Half-open row interval [start, height) covered by the band."""
        n = max(1, int(self.band_fraction * height))
        return height - n, height


def crop_offsets(spec: CropSpec, width: int, height: int) -> tuple[int, int]:
    """(col, row) offset of the cropped region within the full frame."""
    return int(spec.left * width), int(spec.top * height)


def _check_fps(fps: float) -> None:
    if not 0.0 < fps < inf:
        raise FrameSourceError("fps must be positive and finite")


def stream_from_arrays(arrays: Iterable[np.ndarray], fps: float) -> Iterator[Frame]:
    """Frames 0, 1, ... of an iterable of uint8 luma arrays."""
    _check_fps(fps)

    def gen() -> Iterator[Frame]:
        shape = None
        for i, arr in enumerate(arrays):
            shape = _same_shape(i, arr.shape, shape)
            if type(arr) is not np.ndarray or arr.dtype != _UINT8:
                arr = np.ascontiguousarray(arr, dtype=np.uint8)
            yield Frame(i, i * 1000.0 / fps, arr)

    return gen()


def _same_shape(i: int, shape: tuple, expected: tuple | None, path: str | None = None) -> tuple:
    """Frame ``i``'s ``shape``, which must equal ``expected``: the declared
    shape, or else the stream's first frame shape, None while frame ``i``
    is that first frame. ``path`` names frame ``i``'s file in the error."""
    if expected is not None and shape != expected:
        where = f"frame {i}" if path is None else f"{path}: frame {i}"
        raise FrameSourceError(f"{where} dimensions {shape} differ from {expected}")
    return shape


def write_pgm(luma: np.ndarray, path: str | Path) -> None:
    """Write a luma plane as binary (P5) PGM, straight from its buffer."""
    h, w = luma.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(luma, dtype=np.uint8))


_NUMBERED = re.compile(r"(\d+)\.(pgm|png)$", re.IGNORECASE)

# P5 header: magic, width, height, maxval, then one whitespace byte. A
# token is a run of non-whitespace bytes (bytes.isspace: space, \t, \n,
# \v, \f, \r). Before a token, whitespace and '#' comments to the end of
# their line may come in any order; a '#' inside a token is part of it.
# A comment must end in \n: one that runs to the end of the data leaves
# the header incomplete, and no match can backtrack into a comment.
_WS = rb" \t\n\r\x0b\x0c"
_SKIP = rb"(?:[%s]|#[^\n]*\n)*" % _WS
_TOKEN = rb"([^%s#][^%s]*)" % (_WS, _WS)
_PGM_HEADER = re.compile(
    rb"P5%s%s[%s]%s%s[%s]%s%s[%s]?"
    % (_SKIP, _TOKEN, _WS, _SKIP, _TOKEN, _WS, _SKIP, _TOKEN, _WS)
)


def _pgm_header(path: str | Path, data: bytes) -> tuple[int, int, int]:
    """Width, height and pixel offset of a P5 header. Whether the data
    holds that many pixels is left to ``_pgm_pixels``."""
    if not data.startswith(b"P5"):
        raise FrameSourceError(f"{path}: only binary (P5) PGM is supported")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FrameSourceError(f"{path}: malformed PGM header")
    try:
        width, height, maxval = (int(t) for t in header.groups())
    except ValueError as exc:
        raise FrameSourceError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise FrameSourceError(f"{path}: only 8-bit PGM is supported")
    if width <= 0 or height <= 0:
        raise FrameSourceError(f"{path}: malformed PGM header")
    return width, height, header.end()


def _pgm_pixels(path: str | Path, data: bytes, width: int, height: int, pos: int) -> np.ndarray:
    # Checked before numpy sees the count: a huge one overflows.
    if width * height > len(data) - pos:
        raise FrameSourceError(f"{path}: malformed PGM header")
    return np.ndarray((height, width), _UINT8, data, pos)


def _read_pgm(path: str | Path) -> np.ndarray:
    """The luma plane of one PGM file, read and parsed on its own."""
    data = next(kernels.ACTIVE.read_files([path]))
    return _pgm_pixels(path, data, *_pgm_header(path, data))


def _read_png(path: str) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise FrameSourceError(
            "PNG input requires pillow (pip install cricseg[png]); PGM needs no extras"
        ) from exc
    with Image.open(path) as img:
        return np.asarray(img.convert("L"), dtype=np.uint8)


def _image_dir_frames(directory: Path, fps: float, shape: tuple | None = None) -> Iterator[Frame]:
    # ``shape`` is the declared (height, width) that every frame must
    # have; None lets the first frame set it.
    # Paths stay str, spelt as ``directory / name`` would print ("." adds
    # no prefix), since they name the file in errors.
    prefix = "" if str(directory) == "." else os.path.join(directory, "")
    entries = []
    with os.scandir(directory) as it:
        for entry in it:
            m = _NUMBERED.search(entry.name)
            if m:
                # A FIFO would block its read, and the stream, for good.
                if not entry.is_file():
                    raise FrameSourceError(f"{prefix + entry.name}: not a regular file")
                entries.append((int(m.group(1)), prefix + entry.name, m.group(2).lower()))
    if not entries:
        raise FrameSourceError(f"{directory}: no numbered .pgm/.png files found")
    entries.sort()
    # The stream index counts files, so the numbers in their names must
    # count too, or frames would meet another frame's annotations.
    for (prev, prev_path, _), (num, path, _) in zip(entries, entries[1:]):
        if num == prev:
            raise FrameSourceError(f"{prev_path} and {path}: both are frame {num}")
        if num != prev + 1:
            raise FrameSourceError(
                f"{prev_path} and {path}: frame numbers skip from {prev} to {num}"
            )
    files = kernels.ACTIVE.read_files([path for _, path, ext in entries if ext == "pgm"])
    # A file that starts with the previous PGM header's exact bytes reuses
    # its parse, and so its shape: a token runs to the next whitespace
    # byte, and whitespace and comments match only one way, so the regex
    # would match those bytes alike and stop at the same place.
    head = None
    try:
        for i, (_, path, ext) in enumerate(entries):
            if ext == "png":
                luma = _read_png(path)
                shape = _same_shape(i, luma.shape, shape, path)
                yield Frame(i, i * 1000.0 / fps, luma)
                continue
            data = next(files)
            if head is not None and data.startswith(head):
                luma = _pgm_pixels(path, data, width, height, pos)
            else:
                width, height, pos = _pgm_header(path, data)
                head = data[:pos]
                luma = _pgm_pixels(path, data, width, height, pos)
                shape = _same_shape(i, luma.shape, shape, path)
            frame = _new(Frame)
            _set_index(frame, i)
            _set_timestamp_ms(frame, i * 1000.0 / fps)
            _set_luma(frame, luma)
            yield frame
    finally:
        files.close()


def _raw_pipe_frames(fh: BinaryIO, width: int, height: int) -> Iterator[np.ndarray]:
    nbytes = width * height
    while True:
        buf = fh.read(nbytes)
        if not buf:
            return
        if len(buf) != nbytes:
            raise FrameSourceError(
                f"raw stream truncated: got {len(buf)} of {nbytes} bytes"
            )
        yield np.frombuffer(buf, dtype=np.uint8).reshape(height, width)


def open_source(
    uri: str | Path | BinaryIO,
    fps: float,
    width: int | None = None,
    height: int | None = None,
) -> Iterator[Frame]:
    """Open an image-sequence directory or a raw-luma byte stream.

    Directories hold zero-padded numbered PGM/PNG files; when width and
    height are both given, their frames must have that size. A byte
    stream is headerless 8-bit luma, so width and height must be given.
    """
    if hasattr(uri, "read"):
        if not width or not height:
            raise FrameSourceError("raw stream input needs explicit width and height")
        return stream_from_arrays(_raw_pipe_frames(uri, width, height), fps)
    path = Path(uri)
    if path.is_dir():
        _check_fps(fps)
        return _image_dir_frames(path, fps, (height, width) if width and height else None)
    raise FrameSourceError(f"{path}: not a readable frame directory")
