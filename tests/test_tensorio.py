"""Binary tensor and archive formats."""

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtda.rng import SplitMix64
from mtda.tensorio import (
    FormatError,
    pack_tensor,
    read_archive,
    read_tensor,
    write_archive,
    write_tensor,
)


def test_tensor_roundtrip_bitwise(tmp_path):
    rng = SplitMix64(1)
    a = rng.normal(24).reshape(2, 3, 4)
    path = tmp_path / "t.bin"
    write_tensor(path, a)
    back = read_tensor(path)
    assert back.shape == (2, 3, 4)
    assert (back == a).all()


def test_tensor_header_layout(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.array([[1.0, 2.0]]))
    blob = path.read_bytes()
    assert blob[:8] == b"ADASTNSR"
    assert struct.unpack_from("<I", blob, 8)[0] == 2          # rank
    assert struct.unpack_from("<II", blob, 12) == (1, 2)      # dims
    assert np.frombuffer(blob[20:], dtype="<f8").tolist() == [1.0, 2.0]


def test_bad_magic_names_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad.bin"):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros(4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros(2))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        read_tensor(path)


def test_archive_roundtrip_and_manifest(tmp_path):
    rng = SplitMix64(2)
    named = {"enc.w": rng.normal(12).reshape(3, 4), "enc.b": rng.normal(3)}
    path = tmp_path / "model.bin"
    write_archive(path, named)
    back = read_archive(path)
    assert set(back) == set(named)
    for k in named:
        assert (back[k] == named[k]).all()
    assert {k: v.shape for k, v in back.items()} == {"enc.w": (3, 4), "enc.b": (3,)}
    # the archive itself holds the names and shapes: no sidecar beside it
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_zero_d_array_keeps_its_shape(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.array(3.0))
    back = read_tensor(path)
    assert back.shape == () and back == 3.0
    write_archive(tmp_path / "a.bin", {"n": np.array(7.0), "v": np.ones(2)})
    back = read_archive(tmp_path / "a.bin")
    assert back["n"].shape == () and back["n"] == 7.0
    assert back["v"].shape == (2,)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "t.bin"]


def test_int64_entry_is_written_as_float64_without_a_whole_copy(tmp_path):
    labels = np.arange(4 * 256 * 256, dtype=np.int64).reshape(4, 256, 256) % 5
    path = tmp_path / "scenes.bin"
    tracemalloc.start()
    try:
        write_archive(path, {"labels": labels})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = (b"ADASARCH" + struct.pack("<II", 1, 6) + b"labels" + b"ADASTNSR"
            + struct.pack("<4I", 3, 4, 256, 256) + labels.astype("<f8").tobytes())
    assert path.read_bytes() == want
    # a float64 copy of the whole 2 MiB array would be this peak on its own
    assert peak < 0.75 * labels.nbytes


def test_failed_archive_write_keeps_the_earlier_archive(tmp_path):
    path = tmp_path / "a.bin"
    write_archive(path, {"w": np.arange(3.0)})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError):
        write_archive(path, {"w": np.zeros(5), "b": "not a number"})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["a.bin"]


def test_archive_bad_magic(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"WRONG!!!" + b"\x00" * 8)
    with pytest.raises(FormatError, match="archive magic"):
        read_archive(path)


_names = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
                 max_size=6)
_arrays = st.lists(st.integers(0, 3), max_size=3).map(
    lambda dims: np.arange(float(np.prod(dims, dtype=np.int64))).reshape(dims))


@settings(max_examples=25, deadline=None)
@given(named=st.dictionaries(_names, _arrays, max_size=3))
def test_archive_cut_at_every_offset_raises_format_error(named):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.bin"
        write_archive(path, named)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                read_archive(path)
        path.write_bytes(blob)
        back = read_archive(path)
    assert list(back) == list(named)


def test_tensor_cut_at_every_offset_raises_format_error(tmp_path):
    blob = pack_tensor(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "cut.bin"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_tensor(path)


def test_archive_name_not_utf8(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"ADASARCH" + struct.pack("<II", 1, 1) + b"\xff" + pack_tensor(np.zeros(1)))
    with pytest.raises(FormatError, match="utf-8"):
        read_archive(path)


def test_archive_repeated_name_is_format_error(tmp_path):
    # unchecked, the last "mu" wins and this loads as a valid three-entry
    # statistics checkpoint
    path = tmp_path / "stats_dusk.bin"
    entries = [("mu", np.zeros(32)), ("mu", np.ones(32)), ("sigma", np.ones(32)),
               ("n", np.array(8.0))]
    path.write_bytes(b"ADASARCH" + struct.pack("<I", len(entries)) + b"".join(
        struct.pack("<I", len(name)) + name.encode() + pack_tensor(a) for name, a in entries))
    with pytest.raises(FormatError, match=r"stats_dusk.bin: repeated entry name 'mu'"):
        read_archive(path)


def test_huge_rank_is_truncation_not_struct_error(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"ADASTNSR" + struct.pack("<I", 2**31))
    with pytest.raises(FormatError, match="truncated dims"):
        read_tensor(path)
