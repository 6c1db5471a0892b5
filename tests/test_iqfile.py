import struct

import numpy as np
import pytest

from icvmd.errors import ParameterError
from icvmd.iqfile import load_npz, read_iqf32, write_iqf32


def test_golden_byte_layout(tmp_path):
    # The format is pinned: little-endian float32, I then Q per sample.
    samples = np.array([1.0 + 2.0j, -3.5 + 0.25j])
    path = write_iqf32(tmp_path / "x.iqf32", samples)
    want = struct.pack("<4f", 1.0, 2.0, -3.5, 0.25)
    assert path.read_bytes() == want
    assert path.stat().st_size == 8 * samples.size


def test_roundtrip_within_float32(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.normal(size=257) + 1j * rng.normal(size=257)
    path = write_iqf32(tmp_path / "x.iqf32", z)
    back = read_iqf32(path)
    assert back.samples.dtype == np.complex128
    assert np.allclose(back.samples, z, atol=1e-6)
    # float32 values round-trip exactly once quantized.
    again = read_iqf32(write_iqf32(tmp_path / "y.iqf32", back.samples))
    assert np.array_equal(again.samples, back.samples)


@pytest.mark.parametrize("imag", [False, True], ids=["real", "imag"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "overflow"])
def test_write_refuses_samples_float32_cannot_hold(tmp_path, value, imag):
    # 1e39 is finite in float64 but casts to inf in float32; the reader would refuse the file.
    path = tmp_path / "sub" / "x.iqf32"
    bad = complex(0.5, value) if imag else complex(value, 0.5)
    with pytest.raises(ParameterError, match=r"x\.iqf32: samples must be finite in float32$"):
        write_iqf32(path, np.array([1.0 + 1.0j, bad]))
    assert not list(tmp_path.rglob("*"))


@pytest.mark.parametrize("payload", ["{not json", "[]", '{"sample_rate": "x"}'], ids=["malformed", "list", "rate"])
def test_a_json_file_beside_the_capture_is_not_read(tmp_path, payload):
    z = np.array([1.0 + 2.0j, -0.5j, 3.0])
    path = write_iqf32(tmp_path / "x.iqf32", z)
    (tmp_path / "x.json").write_text(payload)
    assert np.array_equal(read_iqf32(path).samples, z)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_iqf32(tmp_path / "ghost.iqf32")


def test_odd_float_count_rejected(tmp_path):
    path = tmp_path / "bad.iqf32"
    np.array([1.0, 2.0, 3.0], dtype="<f4").tofile(path)
    with pytest.raises(ParameterError):
        read_iqf32(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.iqf32"
    path.write_bytes(b"")
    with pytest.raises(ParameterError):
        read_iqf32(path)


def test_write_rejects_2d(tmp_path):
    with pytest.raises(ParameterError):
        write_iqf32(tmp_path / "x.iqf32", np.ones((2, 2), dtype=complex))


def test_write_creates_parent_dirs(tmp_path):
    path = write_iqf32(tmp_path / "a" / "b" / "x.iqf32", np.ones(2, dtype=complex))
    assert path.exists()


def test_load_npz_reads_every_array(tmp_path):
    np.savez(tmp_path / "a.npz", x=np.arange(3.0), y=np.ones((2, 2), dtype=np.float32))
    with load_npz(tmp_path / "a.npz") as (sizes, read):
        assert sizes == {"x": 128 + 3 * 8, "y": 128 + 4 * 4}  # each member's .npy header and values
        arrays = read(sizes)
    assert sorted(arrays) == ["x", "y"]
    assert np.array_equal(arrays["x"], np.arange(3.0)) and arrays["y"].dtype == np.float32
    with pytest.raises(FileNotFoundError), load_npz(tmp_path / "ghost.npz"):
        pass


@pytest.mark.parametrize("content", [b"", b"junk" * 16, "npy"], ids=["empty", "junk", "npy"])
def test_load_npz_rejects_what_is_not_an_npz_archive(tmp_path, content):
    path = tmp_path / "a.npz"
    if content == "npy":
        with path.open("wb") as f:
            np.save(f, np.arange(3.0))
    else:
        path.write_bytes(content)
    with pytest.raises(ParameterError, match=r"a\.npz is not a readable \.npz archive"), load_npz(path):
        pass
