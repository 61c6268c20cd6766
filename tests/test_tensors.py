import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegmatch.errors import InvalidInputError
from eegmatch.tensors import (
    TimeSeriesFile,
    TimeSeriesTensor,
    frame_count,
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


@pytest.mark.parametrize("case", ["float32", "float64", "non-contiguous", "float16"])
def test_written_bytes(tmp_path, case):
    """Header then the row-major little-endian payload; other dtypes are widened to float64."""
    rng = np.random.default_rng(3)
    data = {
        "float32": rng.standard_normal((3, 5)).astype(np.float32),
        "float64": rng.standard_normal((2, 3, 4)),
        "non-contiguous": rng.standard_normal((6, 8))[::2, 1::3],
        "float16": rng.standard_normal((4, 2)).astype(np.float16),
    }[case]
    code, kind = (1, "<f4") if data.dtype == np.float32 else (2, "<f8")
    header = b"NDMM" + struct.pack(f"<III{data.ndim}Qd", 1, code, data.ndim, *data.shape, 8.5)
    write_tensor(tmp_path / "x.ndmm", data, fs=8.5)
    payload = np.ascontiguousarray(data).astype(kind).tobytes()
    assert (tmp_path / "x.ndmm").read_bytes() == header + payload


def test_contiguous_payload_is_written_without_a_copy(tmp_path):
    data = np.zeros((16, 65536))  # 8 MB
    tracemalloc.start()
    try:
        write_tensor(tmp_path / "x.ndmm", data, fs=64.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.nbytes / 8


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


@pytest.mark.parametrize("cut", [6, 18, 30, 38], ids=["version", "rank", "dims", "rate"])
def test_header_cut_short_is_refused_by_name(tmp_path, cut):
    """The header of a rank-2 tensor is 40 bytes; a file that ends inside it names itself."""
    path = tmp_path / "x.ndmm"
    write_tensor(path, np.ones((2, 10)), fs=1.0)
    path.write_bytes(path.read_bytes()[:cut])
    for read in (read_tensor, TimeSeriesFile.open):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: "):
            read(path)


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


# EEG, audio and feature rates met in practice, then any rate at all
RATES = st.sampled_from([64.0, 100.0, 128.0, 250.0, 256.0, 500.0, 512.0, 1000.0, 1024.0,
                         2048.0, 8000.0, 8192.0, 11025.0, 16000.0, 22050.0, 44100.0, 48000.0])


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**40), RATES | st.floats(0.5, 1e6))
def test_frame_count_is_the_rounded_rate_ratio(n_samples, fs):
    """Dividing first and scaling by 64 after rounds as scaling first does."""
    assert frame_count(n_samples, fs) == round(n_samples * 64 / fs)
