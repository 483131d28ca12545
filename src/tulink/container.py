"""Checked files, the framing of the graph files and the checkpoint: a first
line naming the format and version, a line ``sha256 <hex>`` over the rest,
then the body. Each fault is a ValueError, for ``errors.reading`` to name
the file and the stage that writes it."""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

_SHA256 = b"sha256 "
_CHECKSUM_LINE = len(_SHA256) + 65  # the hex digest and its newline


class Format(NamedTuple):
    """A kind of checked file, ``name`` in messages, whose first line is
    ``magic``; that of another version starts with ``family``."""

    name: str
    magic: str
    family: str


def _hexdigest(fh) -> str:
    digest = hashlib.sha256()
    for block in iter(lambda: fh.read(1 << 16), b""):
        digest.update(block)
    return digest.hexdigest()


def digest(path: str | Path) -> str:
    """The hex sha256 of a file, read in blocks, so no copy of it is held."""
    with Path(path).open("rb") as fh:
        return _hexdigest(fh)


@contextmanager
def writing(path: str | Path, fmt: Format):
    """An open file to write a ``fmt`` body into; the checksum is filled in
    last, from the body read back in blocks, so no copy of it is held."""
    head = fmt.magic.encode() + b"\n"
    with Path(path).open("w+b") as fh:
        fh.write(head + bytes(_CHECKSUM_LINE))
        yield fh
        fh.seek(len(head) + _CHECKSUM_LINE)
        line = _SHA256 + _hexdigest(fh).encode() + b"\n"
        fh.seek(len(head))
        fh.write(line)


def read(path: str | Path, fmt: Format) -> Body:
    """The body of the ``fmt`` file at ``path``, read once; one of another
    version or kind, or with a cut or a changed byte, is refused."""
    data = Path(path).read_bytes()
    head = fmt.magic.encode() + b"\n"
    if not data.startswith(head) and not head.startswith(data):  # a cut is no other version
        raise ValueError(f"is a {fmt.name} of another version"
                         if data.startswith(fmt.family.encode()) else f"is not a {fmt.name}")
    at = len(head) + _CHECKSUM_LINE
    checksum = hashlib.sha256(memoryview(data)[at:]).hexdigest()
    if data[len(head) : at] != _SHA256 + checksum.encode() + b"\n":
        raise ValueError("does not match its checksum, so it is cut or corrupt")
    body = Body(data)
    body.seek(at)
    return body


class Body(io.BytesIO):
    """A checked file's bytes, read as a file is, from its body on."""

    @property
    def left(self) -> int:  # bytes not read yet
        return len(self.getvalue()) - self.tell()

    def record(self) -> np.ndarray:
        """The next ``.npy`` record (version 1.0), its declared size checked
        against the bytes left before anything is allocated."""
        version = np.lib.format.read_magic(self)
        if version != (1, 0):
            raise ValueError(f"holds a .npy record of format version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(self)
        if min(shape, default=0) < 0:
            raise ValueError(f"holds a record with a negative dimension {shape}")
        if dtype.hasobject or fortran_order or math.prod(shape) * dtype.itemsize > self.left:
            raise ValueError(f"holds a record of shape {shape} and type {dtype} in "
                             f"{self.left} bytes")
        out = np.empty(shape, dtype)
        self.readinto(out)
        return out
