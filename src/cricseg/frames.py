"""Frame ingestion and crop geometry.

Frames are 8-bit luma rasters with a strictly increasing, gapless index.
Sources are a directory of numbered PGM files or a file of headerless raw
luma; codec decoding is left to external tooling. Readers do not copy
pixels: a frame's ``luma`` is a read-only 2-D ``memoryview`` (format
``"B"``, C-contiguous) over the bytes read from the source, a PGM file's
sliced at its pixel offset. A memoryview has no 2-D slicing, so a band of
rows is cut from its flat bytes (see ``replay``). A directory's PGM files
are read through ``kernels.ACTIVE.read_files``, which the compiled build
runs up to 512 KiB (2-64 files) ahead on a thread of its own.

No reader needs numpy, and this module never imports it: a caller's numpy
array is recognised only once numpy is loaded, and ``stream_from_arrays``
and ``write_pgm`` of anything but a uint8 memoryview import it when called.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from cricseg import kernels

if TYPE_CHECKING:
    import numpy as np


class FrameSourceError(Exception):
    """Unreadable source, inconsistent dimensions, or bad parameters."""


@dataclass(frozen=True)
class Frame:
    """One video frame: an 8-bit luma plane.

    Row 0 is the top of the image; row coordinates increase downward.
    Frames are immutable after creation and safe to share across threads.
    ``luma`` is any C-contiguous 2-D uint8 buffer, as the compiled kernels
    require, and is read-only. A caller's numpy array is kept, made
    read-only in place, and copied only when strided. Any other buffer is
    held as a read-only 2-D memoryview of format ``"B"``: a read-only,
    C-contiguous one is viewed, a writable or strided one copied. The
    readers' frames hold such memoryviews over the bytes they read.
    """

    # Declared by hand so that frames keep weak references on every
    # supported Python (dataclass's weakref_slot needs 3.11).
    __slots__ = ("index", "luma", "__weakref__")

    index: int
    luma: memoryview

    def __post_init__(self) -> None:
        luma = self.luma
        if self.index < 0:
            raise ValueError("frame index must be >= 0")
        np = sys.modules.get("numpy")
        if np is not None and isinstance(luma, np.ndarray):
            if luma.ndim != 2 or luma.dtype != np.uint8:
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
            return
        try:
            view = memoryview(luma)
        except TypeError:
            raise ValueError("luma must be a 2-D uint8 array") from None
        if view.ndim != 2 or view.format != "B":
            raise ValueError("luma must be a 2-D uint8 array")
        if view.shape[0] == 0 or view.shape[1] == 0:
            raise ValueError("frame dimensions must be positive")
        if not view.readonly or not view.c_contiguous:
            view = _plane(view.tobytes(), view.shape)
        object.__setattr__(self, "luma", view)

    def __reduce__(self):
        # Copies and pickles go through __init__: the default restore of
        # slots assigns to them, which a frozen dataclass refuses. A
        # memoryview does not pickle, so its bytes and shape stand in.
        luma = self.luma
        if isinstance(luma, memoryview):
            return _frame_of_bytes, (self.index, luma.tobytes(), luma.shape)
        return Frame, (self.index, luma)

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]


def _plane(data: bytes, shape: tuple[int, int]) -> memoryview:
    """A read-only 2-D uint8 plane over ``data``, which holds exactly
    ``shape``'s pixels."""
    return memoryview(data).cast("B", shape)


def _frame_of_bytes(index: int, data: bytes, shape: tuple[int, int]) -> Frame:
    return Frame(index, _plane(data, shape))


# The readers build their frames by setting their slots: the PGM header
# parse and the raw frame size prove a positive 2-D size, and a plane cast
# from bytes is uint8, C-contiguous and read-only, which is all
# __post_init__ would check.
_new = object.__new__
_set_index = Frame.index.__set__
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


def stream_from_arrays(arrays: Iterable[np.ndarray]) -> Iterator[Frame]:
    """Frames 0, 1, ... of an iterable of uint8 luma arrays."""
    import numpy as np

    shape = None
    for i, arr in enumerate(arrays):
        shape = _same_shape(i, arr.shape, shape)
        if type(arr) is not np.ndarray or arr.dtype != np.uint8:
            arr = np.ascontiguousarray(arr, dtype=np.uint8)
        yield Frame(i, arr)


def _same_shape(i: int, shape: tuple, expected: tuple | None, path: str | None = None) -> tuple:
    """Frame ``i``'s ``shape``, which must equal ``expected``: the declared
    shape, or else the stream's first frame shape, None while frame ``i``
    is that first frame. ``path`` names frame ``i``'s file in the error."""
    if expected is not None and shape != expected:
        where = f"frame {i}" if path is None else f"{path}: frame {i}"
        raise FrameSourceError(f"{where} dimensions {shape} differ from {expected}")
    return shape


def write_pgm(luma: memoryview | np.ndarray, path: str | Path) -> None:
    """Write a luma plane as binary (P5) PGM, straight from its buffer.

    A uint8 memoryview is written as it is; anything else goes through
    ``numpy.ascontiguousarray(luma, dtype=numpy.uint8)``.
    """
    h, w = luma.shape
    if isinstance(luma, memoryview) and luma.format == "B":
        pixels = luma if luma.c_contiguous else luma.tobytes()
    else:
        import numpy as np

        pixels = np.ascontiguousarray(luma, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels)


_NUMBERED = re.compile(r"(\d+)\.pgm$", re.IGNORECASE)

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


def _pgm_pixels(path: str | Path, data: bytes, width: int, height: int, pos: int) -> memoryview:
    end = pos + width * height
    if end > len(data):
        raise FrameSourceError(f"{path}: malformed PGM header")
    return memoryview(data)[pos:end].cast("B", (height, width))


def _read_pgm(path: str | Path) -> memoryview:
    """The luma plane of one PGM file, read and parsed on its own."""
    data = next(kernels.ACTIVE.read_files([path]))
    return _pgm_pixels(path, data, *_pgm_header(path, data))


def _image_dir_frames(directory: Path, shape: tuple | None = None) -> Iterator[Frame]:
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
                entries.append((int(m.group(1)), prefix + entry.name))
    if not entries:
        raise FrameSourceError(f"{directory}: no numbered .pgm files found")
    entries.sort()
    # The stream index counts files, so the numbers in their names must
    # count too, or frames would meet another frame's annotations.
    for (prev, prev_path), (num, path) in zip(entries, entries[1:]):
        if num == prev:
            raise FrameSourceError(f"{prev_path} and {path}: both are frame {num}")
        if num != prev + 1:
            raise FrameSourceError(
                f"{prev_path} and {path}: frame numbers skip from {prev} to {num}"
            )
    files = kernels.ACTIVE.read_files([path for _, path in entries])
    # A file that starts with the previous PGM header's exact bytes reuses
    # its parse, and so its shape: a token runs to the next whitespace
    # byte, and whitespace and comments match only one way, so the regex
    # would match those bytes alike and stop at the same place.
    head = None
    try:
        for i, (_, path) in enumerate(entries):
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
            _set_luma(frame, luma)
            yield frame
    finally:
        files.close()


def _raw_pipe_frames(path: Path, width: int, height: int) -> Iterator[Frame]:
    # The file is opened at the first pull and closed when the stream is
    # exhausted, closed or freed.
    nbytes = width * height
    with open(path, "rb") as fh:
        for i, buf in enumerate(iter(lambda: fh.read(nbytes), b"")):
            if len(buf) != nbytes:
                raise FrameSourceError(
                    f"{path}: frame {i} truncated: got {len(buf)} of {nbytes} bytes"
                )
            frame = _new(Frame)
            _set_index(frame, i)
            _set_luma(frame, _plane(buf, (height, width)))
            yield frame


def open_source(
    path: str | Path, width: int | None = None, height: int | None = None
) -> Iterator[Frame]:
    """Open a frame directory or a raw-luma file by path.

    A directory holds zero-padded numbered PGM files; when width and
    height are both given, its frames must have that size. A regular
    file is headerless 8-bit luma, width * height bytes a frame, so both
    must be given. Any other path, a FIFO included, is refused unopened.
    Nothing is read until the first frame is pulled.
    """
    path = Path(path)
    if path.is_dir():
        return _image_dir_frames(path, (height, width) if width and height else None)
    if path.is_file():
        if not width or not height:
            raise FrameSourceError(f"{path}: raw luma input needs explicit width and height")
        return _raw_pipe_frames(path, width, height)
    raise FrameSourceError(f"{path}: not a frame directory or regular file")
