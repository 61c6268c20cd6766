"""Time-series container and the binary tensor file format used repo-wide.

File layout (little-endian): magic ``NDMM``, format version u32, dtype code
u32 (1 = float32, 2 = float64), rank u32, dims as u64 list, sampling rate as
f64, then the payload row-major.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

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
        if self.data.ndim != 2:
            raise InvalidInputError(
                f"expected a 2-D channels x time array, got ndim={self.data.ndim}"
            )
        c, t = self.data.shape
        if c < 1 or t < 1:
            raise InvalidInputError(f"empty tensor: shape {self.data.shape}")
        if not self.fs > 0:
            raise InvalidInputError(f"sampling rate must be positive, got {self.fs}")
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

    def with_data(self, data: np.ndarray, fs: float | None = None) -> "TimeSeriesTensor":
        """Copy of this tensor with new data (and optionally a new rate)."""
        return TimeSeriesTensor(data, self.fs if fs is None else fs)


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
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, code, data.ndim))
        fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
        fh.write(struct.pack("<d", float(fs)))
        fh.write(np.ascontiguousarray(data).astype(f"<f{data.itemsize}").tobytes())


def read_tensor(path: str | Path) -> tuple[np.ndarray, float]:
    """Read an array written by :func:`write_tensor`. Returns (data, fs)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}")
        version, code, rank = struct.unpack("<III", fh.read(12))
        if version != FORMAT_VERSION:
            raise InvalidInputError(f"{path}: unsupported format version {version}")
        if code not in _DTYPE_CODES:
            raise InvalidInputError(f"{path}: unknown dtype code {code}")
        dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        (fs,) = struct.unpack("<d", fh.read(8))
        dtype = _DTYPE_CODES[code]
        count = int(np.prod(dims)) if rank else 1
        payload = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype)
        if payload.size != count:
            raise InvalidInputError(f"{path}: truncated payload")
    return payload.reshape(dims).copy(), fs


def write_timeseries(path: str | Path, x: TimeSeriesTensor) -> None:
    write_tensor(path, x.data, x.fs)


def read_timeseries(path: str | Path) -> TimeSeriesTensor:
    data, fs = read_tensor(path)
    if data.ndim != 2:
        raise InvalidInputError(f"{path}: expected rank 2, got {data.ndim}")
    return TimeSeriesTensor(data, fs)
