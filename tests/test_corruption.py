"""Damaged files: every truncation and every flipped byte of a small dataset
and a small checkpoint either loads or raises a TailAdaptError, and a
checkpoint array of the wrong shape is a CheckpointFormatError."""

import tracemalloc

import numpy as np
import pytest

from tailadapt.adapter import AdapterParams
from tailadapt.checkpoint import read_arrays, write_arrays
from tailadapt.data import read_dataset, synth_exponential, write_dataset
from tailadapt.encoders import ModelConfig, ModelParams
from tailadapt.errors import CheckpointFormatError, TailAdaptError
from tailadapt.training import load_checkpoint, save_checkpoint


def _escapes(path, blob: bytes, load) -> list[str]:
    """Load every truncation and every byte XOR each mask; report the
    failures that are not TailAdaptErrors. 0x80 turns a rank byte of 2 into
    130, past numpy's limit, with zero-valued dims to follow."""
    cases = [(f"cut at {n}", blob[:n]) for n in range(len(blob))]
    for mask in (0xFF, 0x80):
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            cases.append((f"byte {i} ^ {mask:#x}", bytes(flipped)))
    escapes = []
    for label, data in cases:
        path.write_bytes(data)
        try:
            load(path)
        except TailAdaptError:
            pass
        except Exception as exc:  # collected so the assert lists every escape
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    return escapes


def _tiny_checkpoint(path):
    config = ModelConfig(hidden=(3,), visual_dim=3, embed_dim=3, text_dim=3,
                         shared_dim=3).bound(3, 3)
    rng = np.random.default_rng(0)
    params = ModelParams.init(config, rng)
    save_checkpoint(path, params, AdapterParams.init(3, 0.2, "both", rng))


def test_every_dataset_corruption_loads_or_raises(tmp_path):
    path = tmp_path / "d.ltds"
    write_dataset(synth_exponential(3, 4, 2.0, 2, seed=0, test_per_class=1), path)
    assert _escapes(path, path.read_bytes(), read_dataset) == []


def test_every_checkpoint_corruption_loads_or_raises(tmp_path):
    path = tmp_path / "c.ltck"
    _tiny_checkpoint(path)
    assert _escapes(path, path.read_bytes(), load_checkpoint) == []


@pytest.mark.parametrize("how", ["flat", "0-d", "extra axis", "empty"])
def test_every_array_reshaped_is_rejected(tmp_path, how):
    reshape = {"flat": np.ravel, "0-d": lambda a: a.reshape(-1)[0],
               "extra axis": lambda a: a[None], "empty": lambda a: a[:0]}[how]
    path = tmp_path / "c.ltck"
    _tiny_checkpoint(path)
    arrays = read_arrays(path)
    tried = 0
    for i, (name, arr) in enumerate(arrays):
        crafted = np.asarray(reshape(arr), dtype=np.float64)
        if crafted.shape == arr.shape:
            continue  # flattening a 1-d array changes nothing
        write_arrays(path, arrays[:i] + [(name, crafted)] + arrays[i + 1:])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)
        tried += 1
    assert tried >= len(arrays) // 2


@pytest.mark.parametrize("wide", [("visual/0/weight", "text/class_embedding"),
                                  ("proj/visual",)], ids=["text-stack", "adapter"])
def test_widths_past_the_file_size_are_rejected_before_allocating(tmp_path, wide):
    # 10^5-wide arrays of a few MB imply a 10^10-value (80 GB) layout; the
    # loader may hold the file and its arrays, nothing on the scale of that
    path = tmp_path / "c.ltck"
    _tiny_checkpoint(path)
    arrays = [(name, np.zeros((3, 10 ** 5)) if name in wide else arr)
              for name, arr in read_arrays(path)]
    write_arrays(path, arrays)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
