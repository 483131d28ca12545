"""The checked-file format that the sequence file, the graph files and the
checkpoint share: its framing, its body of a header and records, and the
check of a matrix stored as CSR records."""

import hashlib
import io

import numpy as np
import pytest
import scipy.sparse as sp

from tulink import container

DEMO = container.Format("demo file", "demo 2", "demo ")


def write_demo(path, array=np.arange(3.0)):
    container.write(path, DEMO, {"kind": "demo", "rows": 3}, [array], {"arena": None})


def read_all(path, fmt=DEMO):
    """The header and the record of a demo file."""
    return container.read_records(path, fmt, {"arena": None})


def test_round_trip(tmp_path):
    path = tmp_path / "demo.bin"
    arena = np.linspace(-1.0, 1.0, 7)
    write_demo(path, arena)
    data = path.read_bytes()
    first, checksum, body = data.split(b"\n", 2)
    assert first == b"demo 2"
    assert checksum == b"sha256 " + hashlib.sha256(body).hexdigest().encode()
    header, [record] = read_all(path)
    assert header == {"kind": "demo", "rows": 3}
    assert record.tobytes() == arena.tobytes() and record.dtype == arena.dtype
    assert record.flags.owndata and record.flags.aligned and record.flags.writeable


def test_every_flip_and_every_cut_is_refused(tmp_path):
    path = tmp_path / "demo.bin"
    write_demo(path)
    data = path.read_bytes()
    for at in range(len(data)):
        for mask in (0x01, 0x80):
            flipped = bytearray(data)
            flipped[at] ^= mask
            path.write_bytes(flipped)
            with pytest.raises(ValueError):
                read_all(path)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            read_all(path)


def test_record_larger_than_the_bytes_left_is_refused_before_allocation(tmp_path,
                                                                        monkeypatch):
    """A header declaring 2**40 float64 values over 24 bytes of data."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
    path = tmp_path / "demo.bin"
    with container.writing(path, DEMO) as fh:
        fh.write(b"{}\n" + head.getvalue() + np.arange(3.0).tobytes())

    def allocate(*args, **kwargs):
        raise AssertionError("a record was allocated")
    monkeypatch.setattr(np, "empty", allocate)
    with pytest.raises(ValueError, match=r"shape \(1099511627776,\) .* in 24 bytes"):
        read_all(path)


def test_another_version_is_named_as_such(tmp_path):
    path = tmp_path / "demo.bin"
    write_demo(path)
    later = container.Format("demo file", "demo 3", "demo ")
    with pytest.raises(ValueError, match="is a demo file of another version"):
        read_all(path, later)
    other = container.Format("tulink checkpoint", "TLNKCKP6", "TLNK")
    with pytest.raises(ValueError, match="is not a tulink checkpoint"):
        read_all(path, other)
    path.write_bytes(b"demo")  # cut inside the first line
    with pytest.raises(ValueError, match="cut or corrupt"):
        read_all(path)


def test_streamed_digest_is_the_sha256_of_the_bytes(tmp_path):
    """Over several read blocks and a short last one."""
    data = np.random.default_rng(0).bytes(3 * 65536 + 123)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert container.digest(path) == hashlib.sha256(data).hexdigest()


RECORDS = {"values": np.float64, "ids": np.int64, "any": None}


def write_records(path, records=None):
    records = records or [np.linspace(0.0, 1.0, 3), np.arange(4), np.arange(2, dtype=np.int32)]
    container.write(path, DEMO, {"kind": "demo", "ids": ["a"]}, records, RECORDS)


def test_records_round_trip(tmp_path):
    """A sorted-key JSON header line, then each record in order, cast to
    its type where one is given and kept as it is where None."""
    path = tmp_path / "demo.bin"
    write_records(path, [[0.5, 1.0], [1, 2, 3], np.arange(2, dtype=np.int32)])
    assert path.read_bytes().split(b"\n")[2] == b'{"ids": ["a"], "kind": "demo"}'
    header, records = container.read_records(path, DEMO, RECORDS)
    assert header == {"kind": "demo", "ids": ["a"]}
    assert [r.dtype for r in records] == [np.float64, np.int64, np.int32]
    assert [r.tolist() for r in records] == [[0.5, 1.0], [1, 2, 3], [0, 1]]
    assert container.read_records(path, DEMO, lambda header: RECORDS)[0] == header


def test_write_takes_a_record_per_type(tmp_path):
    with pytest.raises(ValueError):
        write_records(tmp_path / "demo.bin", [np.arange(3.0)])


@pytest.mark.parametrize("dtypes, words", [
    ({"values": np.float64, "ids": np.int32, "any": None},
     r"ids of shape \(4,\) and type int64 where int32 entries belong"),
    ({"values": np.float64, "ids": np.int64}, "holds 136 bytes after its last record"),
    ({**RECORDS, "more": None}, "EOF"),
], ids=["another-type", "bytes-after-the-last", "a-record-short"])
def test_records_of_another_type_or_count_are_refused(tmp_path, dtypes, words):
    path = tmp_path / "demo.bin"
    write_records(path)
    with pytest.raises(ValueError, match=words):
        container.read_records(path, DEMO, dtypes)


def test_a_record_of_two_dimensions_is_refused_where_any_type_will_do(tmp_path):
    path = tmp_path / "demo.bin"
    write_records(path, [np.arange(2.0), np.arange(3), np.zeros((2, 2))])
    with pytest.raises(ValueError, match=r"any of shape \(2, 2\) .*where one-dimensional"):
        container.read_records(path, DEMO, RECORDS)


# CSR records of [[0, 1, 2], [0, 0, 0], [3, 0, 0]] and edits that break them,
# with the ValueError's words.
DATA, INDICES, INDPTR = np.array([1.0, 2.0, 3.0]), np.array([1, 2, 0]), np.array([0, 2, 2, 3])
CSR_FAULTS = {
    "a-row-short": ((DATA, INDICES, INDPTR[:-1]), "has 2 rows, but the roster has 3 nodes"),
    "entry-past-the-pointer": ((np.r_[DATA, 4.0], np.r_[INDICES, 1], INDPTR),
                               "holds 4 entries, but its index pointer ends at 3"),
    "pointer-past-the-entries": ((DATA, INDICES, np.array([0, 2, 2, 4])), "index"),
    "pointer-descending": ((DATA, INDICES, np.array([0, 2, 1, 3])), "indptr"),
    "column-past-the-matrix": ((DATA, np.array([1, 3, 0]), INDPTR), "indices"),
    "negative-column": ((DATA, np.array([1, -1, 0]), INDPTR), "indices"),
    "float-indices": ((DATA, INDICES + 0.5, INDPTR), "where signed integers belong"),
    "unsigned-pointer": ((DATA, INDICES, INDPTR.astype(np.uint64)), "where signed integers"),
    "columns-swapped": ((DATA, np.array([2, 1, 0]), INDPTR), "out of order or twice"),
    "column-repeated": ((DATA, np.array([1, 1, 0]), INDPTR), "out of order or twice"),
}


def test_csr_records_give_their_matrix():
    m = container.csr("m", DATA, INDICES, INDPTR, (3, 3))
    assert isinstance(m, sp.csr_matrix) and m.has_canonical_format
    assert m.toarray().tolist() == [[0, 1, 2], [0, 0, 0], [3, 0, 0]]


@pytest.mark.parametrize("parts, words", CSR_FAULTS.values(), ids=CSR_FAULTS.keys())
def test_csr_records_that_are_not_canonical_are_refused(parts, words):
    with pytest.raises(ValueError, match=words):
        container.csr("m", *parts, (3, 3))
