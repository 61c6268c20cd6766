import numpy as np
import pytest

from eegmatch.errors import InvalidInputError
from eegmatch.tensors import (
    TimeSeriesTensor,
    read_tensor,
    read_timeseries,
    write_tensor,
    write_timeseries,
)


def test_roundtrip_f64(tmp_path):
    data = np.random.default_rng(0).standard_normal((3, 17))
    write_tensor(tmp_path / "x.ndmm", data, fs=64.0)
    back, fs = read_tensor(tmp_path / "x.ndmm")
    assert fs == 64.0
    np.testing.assert_array_equal(back, data)
    assert back.dtype == np.float64


def test_roundtrip_f32(tmp_path):
    data = np.random.default_rng(1).standard_normal((2, 5)).astype(np.float32)
    write_tensor(tmp_path / "x.ndmm", data, fs=8000.0)
    back, fs = read_tensor(tmp_path / "x.ndmm")
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, data)


def test_roundtrip_rank3(tmp_path):
    data = np.random.default_rng(2).standard_normal((4, 2, 6))
    write_tensor(tmp_path / "w.ndmm", data, fs=64.0)
    back, _ = read_tensor(tmp_path / "w.ndmm")
    assert back.shape == (4, 2, 6)
    np.testing.assert_array_equal(back, data)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ndmm"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
    with pytest.raises(InvalidInputError, match="magic"):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "x.ndmm"
    write_tensor(path, np.ones((2, 10)), fs=1.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(InvalidInputError, match="truncated"):
        read_tensor(path)


def test_timeseries_roundtrip(tmp_path):
    x = TimeSeriesTensor(np.arange(12.0).reshape(3, 4), fs=64.0)
    write_timeseries(tmp_path / "ts.ndmm", x)
    back = read_timeseries(tmp_path / "ts.ndmm")
    assert back.fs == 64.0
    np.testing.assert_array_equal(back.data, x.data)


def test_timeseries_validation():
    with pytest.raises(InvalidInputError):
        TimeSeriesTensor(np.ones(5), fs=64.0)  # not 2-D
    with pytest.raises(InvalidInputError):
        TimeSeriesTensor(np.ones((2, 3)), fs=0.0)
    with pytest.raises(InvalidInputError):
        TimeSeriesTensor(np.array([[np.nan, 1.0]]), fs=1.0)
