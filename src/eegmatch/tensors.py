"""Time-series container and the binary tensor file format used repo-wide.

File layout (little-endian): magic ``NDMM``, format version u32, dtype code
u32 (1 = float32, 2 = float64), rank u32, dims as u64 list, sampling rate as
f64, then the payload row-major. A :class:`TimeSeriesFile` reads a time
series' channels a block at a time.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, refused_as

# Hz: the rate of preprocessed EEG, of every speech feature and so of the model's frames
FRAME_RATE = 64.0


def frame_count(n_samples: int, fs: float) -> int:
    """Frames at :data:`FRAME_RATE` of ``n_samples`` at ``fs``: of the EEG and of every feature."""
    return int(round(n_samples / fs * FRAME_RATE))


MAGIC = b"NDMM"
FORMAT_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype("float32"): 1, np.dtype("float64"): 2}


@dataclass
class TimeSeriesTensor:
    """A channels x time matrix at a declared sampling rate."""

    data: np.ndarray
    fs: float

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        _check_timeseries(self.data.shape, self.fs)
        if not np.all(np.isfinite(self.data)):
            raise InvalidInputError("tensor contains non-finite values")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs

    def with_data(self, data: np.ndarray) -> "TimeSeriesTensor":
        """Copy of this tensor with new data at its rate."""
        return TimeSeriesTensor(data, self.fs)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Channels ``lo`` to ``hi - 1``, a view."""
        return self.data[lo:hi]


def _check_timeseries(shape: tuple[int, ...], fs: float) -> None:
    if len(shape) != 2:
        raise InvalidInputError(f"expected a 2-D channels x time array, got ndim={len(shape)}")
    if min(shape) < 1:
        raise InvalidInputError(f"empty tensor: shape {tuple(shape)}")
    if not fs > 0:
        raise InvalidInputError(f"sampling rate must be positive, got {fs}")


@contextmanager
def atomic_path(path: str | Path):
    """A temporary path to write ``path``'s content to, renamed onto ``path`` on success.

    The file appears at ``path`` whole or not at all: the temporary file sits
    in the same directory and is removed if the body raises. Its name ends in
    ``.tmp``, so lookups by a file's own suffix never see a partial file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensor(path: str | Path, data: np.ndarray, fs: float) -> None:
    """Write an n-d array plus its sampling rate in the repo tensor format, atomically."""
    data = np.asarray(data)
    if data.dtype not in _CODES_BY_KIND:
        data = data.astype(np.float64)
    code = _CODES_BY_KIND[data.dtype]
    # a no-op on a little-endian contiguous array: the payload is written from
    # the caller's memory, not from a copy of it
    payload = np.ascontiguousarray(data, dtype=_DTYPE_CODES[code])
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, code, data.ndim))
        fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
        fh.write(struct.pack("<d", float(fs)))
        fh.write(payload.data)


def _read_header(fh, path) -> tuple[np.dtype, tuple[int, ...], float]:
    with refused_as(path):
        magic = fh.read(4)
        if magic != MAGIC:
            raise InvalidInputError(f"bad magic {magic!r}")
        version, code, rank = struct.unpack("<III", fh.read(12))
        if version != FORMAT_VERSION:
            raise InvalidInputError(f"unsupported format version {version}")
        if code not in _DTYPE_CODES:
            raise InvalidInputError(f"unknown dtype code {code}")
        dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        (fs,) = struct.unpack("<d", fh.read(8))
    return _DTYPE_CODES[code], dims, fs


def read_tensor(path: str | Path) -> tuple[np.ndarray, float]:
    """Read an array written by :func:`write_tensor`. Returns (data, fs)."""
    with open(path, "rb") as fh:
        dtype, dims, fs = _read_header(fh, path)
        count = int(np.prod(dims)) if dims else 1
        payload = np.fromfile(fh, dtype=dtype, count=count)
        if payload.size != count:
            raise InvalidInputError(f"{path}: truncated payload")
    return payload.reshape(dims), fs


def write_timeseries(path: str | Path, x: TimeSeriesTensor) -> None:
    write_tensor(path, x.data, x.fs)


def read_timeseries(path: str | Path) -> TimeSeriesTensor:
    data, fs = read_tensor(path)
    with refused_as(path):
        return TimeSeriesTensor(data, fs)


@dataclass(frozen=True)
class TimeSeriesFile:
    """A channels x time tensor file, read a block of channels at a time.

    The payload is row-major, so a block of channels is one positioned read.
    Nothing is memory-mapped: only the rows asked for are ever resident.
    """

    path: Path
    dtype: np.dtype
    n_channels: int
    n_samples: int
    fs: float
    offset: int

    @classmethod
    def open(cls, path: str | Path) -> "TimeSeriesFile":
        """The time series in ``path``; its header is checked, its payload is not read."""
        with open(path, "rb") as fh:
            dtype, dims, fs = _read_header(fh, path)
            offset = fh.tell()
        with refused_as(path):
            _check_timeseries(dims, fs)
        return cls(Path(path), dtype, dims[0], dims[1], fs, offset)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Channels ``lo`` to ``hi - 1``, read from the file; non-finite values are refused."""
        count = (hi - lo) * self.n_samples
        with open(self.path, "rb") as fh:
            fh.seek(self.offset + lo * self.n_samples * self.dtype.itemsize)
            block = np.fromfile(fh, dtype=self.dtype, count=count)
        if block.size != count:
            raise InvalidInputError(f"{self.path}: truncated payload")
        if not np.all(np.isfinite(block)):
            raise InvalidInputError(f"{self.path}: channels {lo}-{hi - 1} hold non-finite values")
        return block.reshape(hi - lo, self.n_samples)
