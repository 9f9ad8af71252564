"""The kernels' parts that need no numpy: file reading and the annotation
scan that declines every line.

The compiled extension may lack ``read_files`` (built without
``<pthread.h>``), and the annotation loader falls back to the declining
scan for frame sizes no double holds; both then come from here, so that
no file-backed path imports numpy while the extension is built.
``_fallback`` takes them from here too.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator


def scan_annotations(block, pos, records, frame_w, frame_h, detection, annotations):
    """Decline every annotation line: the loader's Python code reads them all."""
    return pos, 0


def read_file(path: str | Path, size_hint: int | None = None) -> bytes:
    """All bytes of a file, read without a file object.

    ``size_hint`` is the size the file is expected to have, or None to ask
    the file system. A file no larger than that takes one read, plus the
    one that finds its end.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        if size_hint is None:
            size_hint = os.fstat(fd).st_size
        chunks = []
        total = 0
        # Each read asks for what is left of room for hint + 1 bytes, so
        # the read that finds the end asks for one byte, not another
        # frame-sized buffer; once the room is full, it doubles.
        room = size_hint + 1
        while chunk := os.read(fd, room):
            chunks.append(chunk)
            total += len(chunk)
            room -= len(chunk)
            if not room:
                room = total
    except OSError as exc:
        # A directory opens; only its read fails, and that names no file.
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_files(paths: Iterable[str | Path]) -> Iterator[bytes]:
    """Each file's bytes, in order, each read when it is pulled: the first
    at the size the file system gives, each later one with the size of the
    file before it as its expected size."""
    size_hint = None
    for path in paths:
        data = read_file(path, size_hint)
        size_hint = len(data)
        yield data
