"""Flat binary tensor files and named-tensor archives.

Single tensor record: 8-byte magic ``ADASTNSR``, u32 rank, u32 dims, then the
row-major float64 payload, all little-endian.  An archive is a sequence of
(u32 name length, utf-8 name, tensor record) entries after an ``ADASARCH``
magic and u32 count, with a sidecar ``<path>.manifest`` text file listing
names and shapes for inspection.

Archives are streamed entry by entry to ``<path>.tmp`` and moved over
``<path>`` with ``os.replace`` (the sidecar likewise), so an interrupted
write leaves the previous file, never a truncated one.
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


def _u32(buf: bytes, offset: int, path: str, what: str) -> int:
    if offset + 4 > len(buf):
        raise FormatError(f"{path}: truncated {what} at byte {offset}")
    return struct.unpack_from("<I", buf, offset)[0]


def unpack_tensor(buf: bytes, offset: int, path: str) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 8] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad tensor magic at byte {offset}")
    offset += 8
    rank = _u32(buf, offset, path, "tensor rank")
    offset += 4
    if offset + 4 * rank > len(buf):
        raise FormatError(f"{path}: truncated dims of rank-{rank} tensor at byte {offset}")
    dims = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    count = math.prod(dims)
    end = offset + 8 * count
    if end > len(buf):
        raise FormatError(f"{path}: truncated payload, need {end} bytes have {len(buf)}")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    return data.reshape(dims).astype(np.float64), end


def write_tensor(path: str | Path, a: np.ndarray) -> None:
    Path(path).write_bytes(pack_tensor(a))


def read_tensor(path: str | Path) -> np.ndarray:
    buf = Path(path).read_bytes()
    a, end = unpack_tensor(buf, 0, str(path))
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes after tensor record")
    return a


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


def write_archive(path: str | Path, named: dict[str, np.ndarray]) -> None:
    path = Path(path)
    manifest = []
    with _replacing(path) as fh:
        fh.write(ARCHIVE_MAGIC + struct.pack("<I", len(named)))
        for name, a in named.items():
            a = np.asarray(a, dtype="<f8")
            enc = name.encode("utf-8")
            fh.write(struct.pack("<I", len(enc)) + enc + _tensor_header(a.shape))
            fh.write(np.ascontiguousarray(a).data)
            manifest.append(f"{name}\t{'x'.join(map(str, a.shape)) or 'scalar'}\n")
    with _replacing(path.with_name(path.name + ".manifest")) as fh:
        fh.write("".join(manifest).encode("utf-8"))


def read_archive(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    buf = path.read_bytes()
    if buf[:8] != ARCHIVE_MAGIC:
        raise FormatError(f"{path}: bad archive magic")
    count = _u32(buf, 8, str(path), "entry count")
    offset = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        nlen = _u32(buf, offset, str(path), "name length")
        offset += 4
        if offset + nlen > len(buf):
            raise FormatError(f"{path}: truncated name at byte {offset}")
        try:
            name = buf[offset : offset + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: name at byte {offset} is not utf-8") from e
        offset += nlen
        out[name], offset = unpack_tensor(buf, offset, str(path))
    if offset != len(buf):
        raise FormatError(f"{path}: {len(buf) - offset} trailing bytes after archive")
    return out
