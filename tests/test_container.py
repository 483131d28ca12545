"""The checked-file framing that the graph files and the checkpoint share."""

import hashlib
import io

import numpy as np
import pytest

from tulink import container

DEMO = container.Format("demo file", "demo 2", "demo ")


def write_demo(path, text=b"kind demo\nrows 3\n", arrays=(np.arange(3.0),)):
    with container.writing(path, DEMO) as fh:
        fh.write(text)
        for array in arrays:
            np.lib.format.write_array(fh, array, allow_pickle=False)


def read_all(path, fmt=DEMO):
    """Every line and record of a demo file, read as its loaders read."""
    body = container.read(path, fmt)
    lines = [body.readline(), body.readline()]
    return lines, body.record(), body.left


def test_round_trip(tmp_path):
    path = tmp_path / "demo.bin"
    arena = np.linspace(-1.0, 1.0, 7)
    write_demo(path, arrays=(arena,))
    data = path.read_bytes()
    first, checksum, body = data.split(b"\n", 2)
    assert first == b"demo 2"
    assert checksum == b"sha256 " + hashlib.sha256(body).hexdigest().encode()
    lines, record, left = read_all(path)
    assert lines == [b"kind demo\n", b"rows 3\n"] and left == 0
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
        fh.write(b"kind demo\nrows 3\n" + head.getvalue() + np.arange(3.0).tobytes())

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
        container.read(path, later)
    other = container.Format("tulink checkpoint", "TLNKCKP6", "TLNK")
    with pytest.raises(ValueError, match="is not a tulink checkpoint"):
        container.read(path, other)
    path.write_bytes(b"demo")  # cut inside the first line
    with pytest.raises(ValueError, match="cut or corrupt"):
        container.read(path, DEMO)


def test_streamed_digest_is_the_sha256_of_the_bytes(tmp_path):
    """Over several read blocks and a short last one."""
    data = np.random.default_rng(0).bytes(3 * 65536 + 123)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert container.digest(path) == hashlib.sha256(data).hexdigest()
