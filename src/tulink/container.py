"""Checked files, the format of the sequence file, the graph files and the
checkpoint: a first line naming the format and version, a line ``sha256
<hex>`` over the rest, then a sorted-key JSON header line and one-dimensional
``.npy`` records, which ``write`` writes and ``read_records`` reads; ``csr``
checks a matrix stored as CSR records. Each fault is a ValueError, for
``errors.reading`` to name the file and the stage that writes it."""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

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


def write(path: str | Path, fmt: Format, header: dict, records, dtypes: dict) -> None:
    """A ``fmt`` file whose body is ``header`` as one sorted-key JSON line,
    then a ``.npy`` record per array of ``records``, in order, each of the
    type ``read_records`` takes for it from ``dtypes`` (its own where None)."""
    with writing(path, fmt) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for array, dtype in zip(records, dtypes.values(), strict=True):
            np.lib.format.write_array(fh, np.asarray(array, dtype), allow_pickle=False)


def read_records(path: str | Path, fmt: Format, dtypes) -> tuple[dict, list[np.ndarray]]:
    """The header and the records of the ``fmt`` file at ``path``, read once.
    A file of another version or kind, or with a cut or a changed byte, is
    refused, and so is one without a one-dimensional record per entry of
    ``dtypes``, of the type it gives (any where None), and one with bytes
    after the last. ``dtypes`` maps each record's name to its type, or is a
    function of the header that returns such a map."""
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
    header = json.loads(body.readline())
    records = []
    for name, dtype in (dtypes(header) if callable(dtypes) else dtypes).items():
        record = body.record()
        if record.ndim != 1 or dtype is not None and record.dtype != dtype:
            raise ValueError(f"holds {name} of shape {record.shape} and type {record.dtype} "
                             f"where {'one-dimensional' if dtype is None else np.dtype(dtype)} "
                             "entries belong")
        records.append(record)
    if body.left:
        raise ValueError(f"holds {body.left} bytes after its last record")
    return header, records


def csr(name: str, data, indices, indptr, shape: tuple[int, int]) -> sp.csr_matrix:
    """Matrix ``name`` of ``shape`` from its CSR records, in canonical form:
    signed integer indices and index pointer (scipy would cast others
    without a word), a row per pointer entry but the last, the pointer
    ascending from 0 to the entry count, and each row's columns ascending,
    distinct and below the column count."""
    if indices.dtype.kind != "i" or indptr.dtype.kind != "i":
        raise ValueError(f"{name} has indices of type {indices.dtype} and an index pointer of "
                         f"type {indptr.dtype}, where signed integers belong")
    if len(indptr) != shape[0] + 1:
        raise ValueError(f"{name} has {len(indptr) - 1} rows, but the roster has {shape[0]} nodes")
    m = sp.csr_matrix((data, indices, indptr), shape=shape)
    m.check_format(full_check=True)  # its indices and indptr, or a ValueError
    if indptr[-1] != len(indices):  # scipy drops the entries past the pointer's end
        raise ValueError(f"{name} holds {len(indices)} entries, but its index pointer ends at "
                         f"{indptr[-1]}")
    if not m.has_canonical_format:
        raise ValueError(f"{name} lists an entry out of order or twice")
    return m
