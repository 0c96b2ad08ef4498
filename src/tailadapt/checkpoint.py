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
`replacing`, so a reader never sees a half-written file. Every file it reads
goes through `ByteReader`, which reads from the open file and checks each
length the file declares against the file's size before it reads or
allocates anything. `read_arrays` reads each payload straight into its
array, so a load holds the data once, in aligned, writable arrays.
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
        h.update(np.ascontiguousarray(a))  # C order; 1-d for a 0-d array
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
            a = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack(f"<H{len(encoded)}sB{a.ndim}Q", len(encoded), encoded,
                                a.ndim, *a.shape))
            f.write(np.ascontiguousarray(a))  # C order; 1-d for a 0-d array


class ByteReader:
    """An open file and a read offset, so format errors can point at it.
    Every failure raises `error` with the path in the message.

    A context manager: the file closes however the read ends. Each length is
    checked against the file size before anything is read or allocated for
    it, and then exactly that many bytes are read.
    """

    def __init__(self, path, error: type[TailAdaptError]):
        self.path = path
        self.error = error
        self.file = open(path, "rb")
        self.size = os.fstat(self.file.fileno()).st_size
        self.pos = 0

    def __enter__(self) -> "ByteReader":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.path}: {message}")

    def check(self, n: int) -> None:
        """Fail unless n more bytes follow the offset."""
        if n > self.size - self.pos:
            self.fail(f"truncated at byte {self.pos}, needed {n} more")

    def take(self, n: int) -> bytearray:
        self.check(n)  # before the allocation: a corrupt length can claim TiBs
        chunk = bytearray(n)
        self.into(chunk)
        return chunk

    def into(self, buffer) -> None:
        """Fill a C-contiguous buffer, such as an array, with the next bytes."""
        view = memoryview(buffer)
        n = view.nbytes
        self.check(n)
        # a view with a zero in its shape cannot be cast, and needs no read
        if n and self.file.readinto(view.cast("B")) != n:  # the file shrank meanwhile
            self.fail(f"truncated at byte {self.pos}, needed {n} more")
        self.pos += n

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def header(self, magic: bytes, version: int) -> None:
        if self.take(len(magic)) != magic:
            self.fail("bad magic at byte 0")
        (found,) = self.unpack("<I")
        if found != version:
            self.fail(f"unsupported version {found}")

    def expect_remaining(self, n: int) -> None:
        left = self.size - self.pos
        if left < n:
            self.fail(f"truncated: {n} bytes needed after byte {self.pos}, {left} left")
        if left > n:
            self.fail(f"{left - n} trailing bytes after byte {self.pos + n}")


def read_arrays(path) -> list[tuple[str, np.ndarray]]:
    with ByteReader(path, CheckpointFormatError) as r:
        r.header(MAGIC, VERSION)
        (count,) = r.unpack("<I")
        out: list[tuple[str, np.ndarray]] = []
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            try:
                name = r.take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                r.fail(f"array name at byte {r.pos - name_len} is not utf-8 ({exc.reason})")
            rank_at = r.pos
            (rank,) = r.unpack("<B")
            dims = r.unpack(f"<{rank}Q")
            r.check(8 * math.prod(dims))
            try:
                arr = np.empty(dims, "<f8")
            except ValueError:  # rank or a zero-size dim past what numpy supports
                r.fail(f"shape of rank {rank} at byte {rank_at} is not supported")
            r.into(arr)
            out.append((name, arr))
        r.expect_remaining(0)
    return out
