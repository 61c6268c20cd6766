"""The artifact manifest and its hash record: a reused hash never hides a change."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from conftest import settle
from hypothesis import strategies as st

from eegmatch import pipeline
from eegmatch.tensors import TimeSeriesTensor, atomic_path, write_timeseries

TENSOR = Path("cache", "preproc", "sub00_story00.ndmm")
FILES = [TENSOR, Path("cache", "features", "story00_vad.ndmm"), Path("results", "vad.csv"),
         Path("models", "vad", "cell.yaml")]


def write_files(out: Path) -> None:
    for k, rel in enumerate(FILES):
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        if rel.suffix == ".ndmm":
            data = np.random.default_rng(k).standard_normal((4, 256)).astype(np.float32)
            write_timeseries(out / rel, TimeSeriesTensor(data, 64.0))
        else:
            (out / rel).write_text(f"file {k}\n" * 20, encoding="utf-8")


def from_scratch(out: Path) -> dict[str, str]:
    """The SHA-256 of every file under ``out`` but the manifest, each read now."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file() and p.name != "artifacts.yaml"}


def manifest(out: Path) -> dict[str, str]:
    return yaml.safe_load(pipeline.write_artifact_manifest(out).read_text(encoding="utf-8"))


def count_hashes(monkeypatch, out: Path) -> list[str]:
    """The files under ``out`` that ``pipeline.file_sha256`` reads from now on."""
    hashed = []
    file_sha256 = pipeline.file_sha256
    monkeypatch.setattr(pipeline, "file_sha256", lambda path: hashed.append(
        str(Path(path).relative_to(out))) or file_sha256(path))
    return hashed


def flip_last_byte(path: Path) -> None:
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)[0]
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last ^ 0xFF]))


def keep_mtime(path: Path, change) -> None:
    """Apply ``change`` to ``path``, then set its mtime back to what it was."""
    before = path.stat()
    change(path)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def replace_atomically(path: Path) -> None:
    """Write the same number of different bytes to a new file renamed onto ``path``."""
    data = bytes(b ^ 0xFF for b in path.read_bytes())
    with atomic_path(path) as tmp:
        tmp.write_bytes(data)


def truncate(path: Path) -> None:
    os.truncate(path, path.stat().st_size // 2)


@pytest.fixture
def settled_out(tmp_path):
    """An ``out`` whose record holds a settled entry for each of its files."""
    out = tmp_path / "out"
    write_files(out)
    settle(out)
    assert manifest(out) == from_scratch(out)
    return out


class TestStaleProof:
    def test_unchanged_files_are_not_read_again(self, settled_out, monkeypatch):
        hashed = count_hashes(monkeypatch, settled_out)
        record = (settled_out / pipeline.HASH_RECORD).read_bytes()
        assert manifest(settled_out) == from_scratch(settled_out)
        assert hashed == []
        assert (settled_out / pipeline.HASH_RECORD).read_bytes() == record

    def test_in_place_edit_that_keeps_size_and_mtime(self, settled_out, monkeypatch):
        path = settled_out / TENSOR
        size, mtime = path.stat().st_size, path.stat().st_mtime_ns
        keep_mtime(path, flip_last_byte)
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (size, mtime)
        hashed = count_hashes(monkeypatch, settled_out)
        assert manifest(settled_out) == from_scratch(settled_out)
        assert hashed == [str(TENSOR)]

    def test_atomic_replacement(self, settled_out, monkeypatch):
        keep_mtime(settled_out / TENSOR, replace_atomically)
        hashed = count_hashes(monkeypatch, settled_out)
        assert manifest(settled_out) == from_scratch(settled_out)
        assert hashed == [str(TENSOR)]

    def test_truncation(self, settled_out, monkeypatch):
        keep_mtime(settled_out / TENSOR, truncate)
        hashed = count_hashes(monkeypatch, settled_out)
        assert manifest(settled_out) == from_scratch(settled_out)
        assert hashed == [str(TENSOR)]

    def test_deletion(self, settled_out, monkeypatch):
        (settled_out / TENSOR).unlink()
        hashed = count_hashes(monkeypatch, settled_out)
        listed = manifest(settled_out)
        assert listed == from_scratch(settled_out)
        assert str(TENSOR) not in listed and hashed == []
        record = json.loads((settled_out / pipeline.HASH_RECORD).read_bytes())
        assert str(TENSOR) not in record

    def test_new_file(self, settled_out, monkeypatch):
        new = Path("results", "mel.csv")
        (settled_out / new).write_text("subject,accuracy\n", encoding="utf-8")
        hashed = count_hashes(monkeypatch, settled_out)
        assert manifest(settled_out) == from_scratch(settled_out)
        assert hashed == [str(new)]

    def test_unsettled_file_is_read_again(self, tmp_path, monkeypatch):
        """A file hashed right after its last write is read on every later run."""
        out = tmp_path / "out"
        write_files(out)
        assert manifest(out) == from_scratch(out)
        hashed = count_hashes(monkeypatch, out)
        assert manifest(out) == from_scratch(out)
        assert sorted(hashed) == sorted(map(str, FILES))

    @pytest.mark.parametrize("text", [None, b"\x00\xffnot json", b"[]",
                                      b'{"results/vad.csv": {"sha256": 1}}'],
                             ids=["truncated", "not-json", "not-a-mapping", "bad-entry"])
    def test_unusable_record_is_ignored_and_rewritten(self, settled_out, monkeypatch, text):
        path = settled_out / pipeline.HASH_RECORD
        if text is None:
            text = path.read_bytes()[: path.stat().st_size // 2]
        path.write_bytes(text)
        hashed = count_hashes(monkeypatch, settled_out)
        assert manifest(settled_out) == from_scratch(settled_out)
        assert sorted(hashed) == sorted(map(str, FILES))
        assert set(json.loads(path.read_bytes())) == set(map(str, FILES))


CHANGES = {"edit": lambda p: keep_mtime(p, flip_last_byte),
           "replace": lambda p: keep_mtime(p, replace_atomically),
           "truncate": lambda p: keep_mtime(p, truncate),
           "delete": Path.unlink}


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([*CHANGES, "create", "settle"]),
                          st.integers(0, len(FILES) - 1)), max_size=6))
def test_every_sequence_of_changes_lists_fresh_hashes(steps):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        write_files(out)
        settle(out)
        assert manifest(out) == from_scratch(out)
        for n, (change, k) in enumerate(steps):
            files = sorted(p for p in out.rglob("*") if p.is_file()
                           and p.name != "artifacts.yaml" and p.suffix != ".json")
            if change == "settle":
                settle(out)
            elif change == "create":
                (out / "results" / f"new{n}.csv").parent.mkdir(parents=True, exist_ok=True)
                (out / "results" / f"new{n}.csv").write_text(f"new {n}\n", encoding="utf-8")
            elif files:
                CHANGES[change](files[k % len(files)])
            assert manifest(out) == from_scratch(out)
