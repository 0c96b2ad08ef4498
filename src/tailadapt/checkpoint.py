"""Binary persistence for named parameter arrays, plus content digests.

File layout (all integers little-endian):

    magic   4 bytes  b"LTCK"
    version u32      currently 1
    count   u32      number of arrays
    then per array, in order:
        name_len u16
        name     utf-8 bytes
        rank     u8
        dims     rank x u64
        payload  prod(dims) x f64

Array order is preserved exactly, so write -> read -> write reproduces the
file byte for byte. Adapter parameters are stored under the "adapter/"
prefix; the backbone digest covers every array outside that prefix, which is
how the two-phase trainer proves the backbone never moved.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Sequence

import numpy as np

from .errors import CheckpointFormatError

MAGIC = b"LTCK"
VERSION = 1
ADAPTER_PREFIX = "adapter/"


def digest_arrays(named: Iterable[tuple[str, np.ndarray]]) -> str:
    """SHA-256 over name, shape, and raw little-endian float64 bytes."""
    h = hashlib.sha256()
    for name, arr in named:
        a = np.ascontiguousarray(arr, dtype="<f8")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(struct.pack("<B", a.ndim))
        for dim in a.shape:
            h.update(struct.pack("<Q", dim))
        h.update(a.tobytes())
    return h.hexdigest()


def backbone_digest(named: Iterable[tuple[str, np.ndarray]]) -> str:
    """Digest of everything that is not an adapter array."""
    return digest_arrays((n, a) for n, a in named if not n.startswith(ADAPTER_PREFIX))


def write_arrays(path, named: Sequence[tuple[str, np.ndarray]]) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(named)))
        for name, arr in named:
            a = np.ascontiguousarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", a.ndim))
            for dim in a.shape:
                f.write(struct.pack("<Q", dim))
            f.write(a.tobytes())


class _Reader:
    """Tracks the byte offset so format errors can point at it."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointFormatError(
                f"{self.path}: truncated at byte {self.pos}, needed {n} more")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_arrays(path) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic at byte 0")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    (count,) = r.unpack("<I")
    out: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        raw = r.take(name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(
                f"{path}: array name at byte {r.pos - name_len} is not utf-8 "
                f"({exc.reason})") from None
        (rank,) = r.unpack("<B")
        dims = tuple(int(r.unpack("<Q")[0]) for _ in range(rank))
        n_items = 1
        for d in dims:
            n_items *= d
        payload = r.take(8 * n_items)
        arr = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        out.append((name, arr))
    if r.pos != len(blob):
        raise CheckpointFormatError(
            f"{path}: {len(blob) - r.pos} trailing bytes after byte {r.pos}")
    return out
