"""Flat binary tensor files and named-tensor archives.

Single tensor record: 8-byte magic ``ADASTNSR``, u32 rank, u32 dims, then the
row-major float64 payload, all little-endian.  An archive is a sequence of
(u32 name length, utf-8 name, tensor record) entries after an ``ADASARCH``
magic and u32 count, in one file: its names and shapes are read back with
:func:`read_archive`.

Archives are streamed entry by entry to ``<path>.tmp`` and moved over
``<path>`` with ``os.replace``, so an interrupted write leaves the previous
file, never a truncated one.  An entry that is not already float64, such as
an int64 label map, is converted one bounded block of rows at a time rather
than copied whole.  Readers likewise take each record from the
open file straight into its own array, after checking its bounds against
the file's size.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TENSOR_MAGIC = b"ADASTNSR"
ARCHIVE_MAGIC = b"ADASARCH"


class FormatError(ValueError):
    """Raised when a binary file does not match the expected layout."""


def _tensor_header(shape: tuple[int, ...]) -> bytes:
    return TENSOR_MAGIC + struct.pack(f"<I{len(shape)}I", len(shape), *shape)


def pack_tensor(a: np.ndarray) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return _tensor_header(a.shape) + a.astype("<f8").tobytes()


def _u32(fh, size: int, path: Path, what: str) -> int:
    offset = fh.tell()
    if offset + 4 > size:
        raise FormatError(f"{path}: truncated {what} at byte {offset}")
    return struct.unpack("<I", fh.read(4))[0]


def _read_record(fh, size: int, path: Path) -> np.ndarray:
    """The tensor record at fh's position in a file of `size` bytes; every
    bound is checked against that size before anything is allocated."""
    offset = fh.tell()
    if fh.read(8) != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad tensor magic at byte {offset}")
    rank = _u32(fh, size, path, "tensor rank")
    offset = fh.tell()
    if offset + 4 * rank > size:
        raise FormatError(f"{path}: truncated dims of rank-{rank} tensor at byte {offset}")
    dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    end = offset + 4 * rank + 8 * math.prod(dims)
    truncated = FormatError(f"{path}: truncated payload, need {end} bytes have {size}")
    if end > size:
        raise truncated
    a = np.empty(dims, dtype="<f8")
    # reshape(-1).view, unlike memoryview.cast, also takes zero-size arrays
    if fh.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:  # the file shrank
        raise truncated
    return a.astype(np.float64, copy=False)


def _read_file(path: str | Path, read, what: str):
    """read(fh, size, path) on the whole file at path, which it must consume."""
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        out = read(fh, size, path)
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} trailing bytes after {what}")
    return out


def write_tensor(path: str | Path, a: np.ndarray) -> None:
    Path(path).write_bytes(pack_tensor(a))


def read_tensor(path: str | Path) -> np.ndarray:
    return _read_file(path, _read_record, "tensor record")


@contextmanager
def _replacing(path: Path):
    """Binary handle on ``<path>.tmp``, moved over path on success, deleted on failure."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Bytes of float64 converted per write: an array of another dtype, such as
# int64 labels, is written block by block instead of as one float64 copy.
_WRITE_BLOCK_BYTES = 1 << 20


def write_archive(path: str | Path, named: dict[str, np.ndarray]) -> None:
    with _replacing(Path(path)) as fh:
        fh.write(ARCHIVE_MAGIC + struct.pack("<I", len(named)))
        for name, a in named.items():
            a = np.asarray(a)
            enc = name.encode("utf-8")
            fh.write(struct.pack("<I", len(enc)) + enc + _tensor_header(a.shape))
            rows = np.atleast_1d(a)
            step = max(1, _WRITE_BLOCK_BYTES // (8 * max(1, math.prod(rows.shape[1:]))))
            for i in range(0, len(rows), step):
                # a view when the rows already are contiguous little-endian float64
                fh.write(np.ascontiguousarray(rows[i : i + step], dtype="<f8").data)


def _read_entries(fh, size: int, path: Path) -> dict[str, np.ndarray]:
    if fh.read(8) != ARCHIVE_MAGIC:
        raise FormatError(f"{path}: bad archive magic")
    out: dict[str, np.ndarray] = {}
    for _ in range(_u32(fh, size, path, "entry count")):
        nlen = _u32(fh, size, path, "name length")
        offset = fh.tell()
        if offset + nlen > size:
            raise FormatError(f"{path}: truncated name at byte {offset}")
        try:
            name = fh.read(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: name at byte {offset} is not utf-8") from e
        if name in out:
            raise FormatError(f"{path}: repeated entry name {name!r} at byte {offset}")
        out[name] = _read_record(fh, size, path)
    return out


def read_archive(path: str | Path) -> dict[str, np.ndarray]:
    """Every entry of the archive at path, each read from the file straight
    into its own array."""
    return _read_file(path, _read_entries, "archive")
