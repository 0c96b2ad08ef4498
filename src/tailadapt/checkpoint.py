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
prefix; the backbone digest covers every array outside that prefix, so
checkpoints that differ only in their adapter share it. The trainer does not
use it: Phase B trains on features computed once from the frozen backbone,
and `FrozenView.verify()` proves the parameters never moved meanwhile, by
comparing their digest at freeze and after the phase.

Every file the package writes, in this format or another, goes through
`replacing`, so a reader never sees a half-written file.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import struct
from contextlib import contextmanager
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import CheckpointFormatError, TailAdaptError

MAGIC = b"LTCK"
VERSION = 1
ADAPTER_PREFIX = "adapter/"


def digest_arrays(named: Iterable[tuple[str, np.ndarray]]) -> str:
    """SHA-256 over name, shape, and raw little-endian float64 bytes."""
    h = hashlib.sha256()
    for name, arr in named:
        a = np.asarray(arr, dtype="<f8")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(struct.pack(f"<B{a.ndim}Q", a.ndim, *a.shape))
        h.update(a.tobytes())
    return h.hexdigest()


def backbone_digest(named: Iterable[tuple[str, np.ndarray]]) -> str:
    """Digest of everything that is not an adapter array."""
    return digest_arrays((n, a) for n, a in named if not n.startswith(ADAPTER_PREFIX))


@contextmanager
def replacing(path, mode: str = "wb") -> Iterator:
    """Open a fresh file beside `path` for writing; when the block ends
    cleanly it replaces `path` in one `os.replace`. A write that raises or is
    interrupted leaves `path` as it was and removes the partial file."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(6)}.tmp")
    # O_EXCL: a name clash fails instead of clobbering; 0o666 lets the umask
    # set the mode, as a plain open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_arrays(path, named: Sequence[tuple[str, np.ndarray]]) -> None:
    with replacing(path) as f:
        f.write(struct.pack("<4sII", MAGIC, VERSION, len(named)))
        for name, arr in named:
            a = np.asarray(arr, dtype="<f8")  # tobytes() is C order; keeps 0-d
            encoded = name.encode("utf-8")
            f.write(struct.pack(f"<H{len(encoded)}sB{a.ndim}Q", len(encoded), encoded,
                                a.ndim, *a.shape))
            f.write(a.tobytes())


class ByteReader:
    """A whole file's bytes and a read offset, so format errors can point at
    it. Every failure raises `error` with the path in the message."""

    def __init__(self, path, error: type[TailAdaptError]):
        with open(path, "rb") as f:
            self.blob = memoryview(f.read())  # slices share, never copy
        self.path = path
        self.error = error
        self.pos = 0

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.path}: {message}")

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            self.fail(f"truncated at byte {self.pos}, needed {n} more")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def header(self, magic: bytes, version: int) -> None:
        if self.take(len(magic)) != magic:
            self.fail("bad magic at byte 0")
        (found,) = self.unpack("<I")
        if found != version:
            self.fail(f"unsupported version {found}")

    def expect_remaining(self, n: int) -> None:
        left = len(self.blob) - self.pos
        if left < n:
            self.fail(f"truncated: {n} bytes needed after byte {self.pos}, {left} left")
        if left > n:
            self.fail(f"{left - n} trailing bytes after byte {self.pos + n}")


def read_arrays(path) -> list[tuple[str, np.ndarray]]:
    r = ByteReader(path, CheckpointFormatError)
    r.header(MAGIC, VERSION)
    (count,) = r.unpack("<I")
    out: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = bytes(r.take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            r.fail(f"array name at byte {r.pos - name_len} is not utf-8 ({exc.reason})")
        rank_at = r.pos
        (rank,) = r.unpack("<B")
        dims = r.unpack(f"<{rank}Q")
        flat = np.frombuffer(r.take(8 * math.prod(dims)), "<f8")
        try:
            arr = flat.reshape(dims).copy()
        except ValueError:  # rank or a zero-size dim past what numpy supports
            r.fail(f"shape of rank {rank} at byte {rank_at} is not supported")
        out.append((name, arr))
    r.expect_remaining(0)
    return out
