"""Named-array checkpoint files: round trips, ordering, and digests."""

import os
import tracemalloc

import numpy as np
import pytest

from tailadapt.checkpoint import (
    ByteReader,
    backbone_digest,
    digest_arrays,
    read_arrays,
    replacing,
    write_arrays,
)
from tailadapt.errors import CheckpointFormatError


def sample_arrays():
    rng = np.random.default_rng(0)
    return [
        ("visual/0/weight", rng.normal(size=(4, 6))),
        ("visual/0/bias", rng.normal(size=(6,))),
        ("text/class_embedding", rng.normal(size=(5, 3))),
        ("adapter/visual/weight", rng.normal(size=(3, 3))),
        ("adapter/lambda", np.array([0.2])),
    ]


def test_failed_write_leaves_previous_file_whole(tmp_path):
    path = tmp_path / "model.ltck"
    write_arrays(path, sample_arrays())
    before = path.read_bytes()
    # the second array is not numeric, so the writer raises after the header
    # and the first array are written
    with pytest.raises(ValueError):
        write_arrays(path, [("a", np.ones(3)), ("b", np.array(["not a number"]))])
    with pytest.raises(KeyboardInterrupt):
        with replacing(path) as f:
            f.write(b"partial")
            raise KeyboardInterrupt
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ltck"]


def test_round_trip_values_and_order(tmp_path):
    arrays = sample_arrays()
    path = tmp_path / "model.ltck"
    write_arrays(path, arrays)
    back = read_arrays(path)
    assert [n for n, _ in back] == [n for n, _ in arrays]
    for (_, a), (_, b) in zip(arrays, back):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_second_write_is_byte_identical(tmp_path):
    arrays = sample_arrays()
    first = tmp_path / "a.ltck"
    second = tmp_path / "b.ltck"
    write_arrays(first, arrays)
    write_arrays(second, read_arrays(first))
    assert first.read_bytes() == second.read_bytes()


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.ltck"
    write_arrays(path, [])
    assert read_arrays(path) == []


def test_zero_d_array_keeps_its_shape(tmp_path):
    path = tmp_path / "s.ltck"
    write_arrays(path, [("scalar", np.array(2.5))])
    [(name, arr)] = read_arrays(path)
    assert name == "scalar" and arr.shape == () and arr == 2.5


def test_load_holds_the_payload_once_in_aligned_writable_arrays(tmp_path):
    rng = np.random.default_rng(1)
    arrays = [(f"layer/{i}", rng.normal(size=(256, 512))) for i in range(4)]
    arrays += [("scalar", np.array(0.5)), ("empty", np.zeros((0, 3)))]
    path = tmp_path / "big.ltck"
    write_arrays(path, arrays)
    tracemalloc.start()
    try:
        back = read_arrays(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
    for (name, a), (back_name, b) in zip(arrays, back):
        assert back_name == name and b.shape == a.shape and np.array_equal(a, b)
        assert b.flags.writeable and b.flags.aligned and b.flags.c_contiguous


def test_rank_past_numpy_limit_reports_offset(tmp_path):
    import struct
    rank = 70
    path = tmp_path / "r.ltck"
    path.write_bytes(b"LTCK" + struct.pack("<IIH", 1, 1, 1) + b"a"
                     + struct.pack(f"<B{rank}Q", rank, *[1] * rank) + b"\x00" * 8)
    rank_at = 4 + 4 + 4 + 2 + 1  # magic, version, count, name length, name
    with pytest.raises(CheckpointFormatError, match=f"rank {rank} at byte {rank_at}"):
        read_arrays(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.ltck"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError, match="magic"):
        read_arrays(path)
    import struct
    path.write_bytes(b"LTCK" + struct.pack("<I", 99) + struct.pack("<I", 0))
    with pytest.raises(CheckpointFormatError, match="version 99"):
        read_arrays(path)


def test_truncation_reports_offset(tmp_path):
    path = tmp_path / "t.ltck"
    write_arrays(path, sample_arrays())
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointFormatError, match="truncated at byte"):
        read_arrays(path)


def test_a_file_cut_while_open_is_a_format_error(tmp_path):
    path = tmp_path / "cut.ltck"
    write_arrays(path, sample_arrays())
    with ByteReader(path, CheckpointFormatError) as r:
        os.truncate(path, 20)  # after the size was taken
        with pytest.raises(CheckpointFormatError, match="truncated at byte 0, needed 40 more"):
            r.take(40)


def test_non_utf8_name_reports_offset(tmp_path):
    path = tmp_path / "u.ltck"
    write_arrays(path, [("ab", np.zeros(2))])
    blob = bytearray(path.read_bytes())
    name_at = 4 + 4 + 4 + 2  # magic, version, count, name length
    assert blob[name_at:name_at + 2] == b"ab"
    blob[name_at:name_at + 2] = b"\xff\xfe"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match=f"byte {name_at}"):
        read_arrays(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "g.ltck"
    write_arrays(path, sample_arrays())
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        read_arrays(path)


def test_digest_sensitive_to_name_shape_value():
    arrays = sample_arrays()
    base = digest_arrays(arrays)
    renamed = [("other" if n == "visual/0/bias" else n, a) for n, a in arrays]
    assert digest_arrays(renamed) != base
    perturbed = [(n, a + 1e-12 if n == "visual/0/bias" else a) for n, a in arrays]
    assert digest_arrays(perturbed) != base
    reshaped = [(n, a.reshape(6, 4) if n == "visual/0/weight" else a) for n, a in arrays]
    assert digest_arrays(reshaped) != base
    assert digest_arrays(sample_arrays()) == base


def test_backbone_digest_excludes_adapter_arrays():
    arrays = sample_arrays()
    bare = [(n, a) for n, a in arrays if not n.startswith("adapter/")]
    assert backbone_digest(arrays) == digest_arrays(bare)
    # changing adapter content must not move the backbone digest
    tweaked = [(n, a * 2 if n.startswith("adapter/") else a) for n, a in arrays]
    assert backbone_digest(tweaked) == backbone_digest(arrays)
