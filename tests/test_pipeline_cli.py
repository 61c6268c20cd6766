import argparse
import csv
import dataclasses
import errno
import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import settle

from eegmatch import cli, errors, pipeline
from eegmatch.alignments import read_inventory
from eegmatch.checkpoint import load_checkpoint, save_checkpoint
from eegmatch.errors import InvalidInputError, InvalidSpecError
from eegmatch.features import (
    PARTS,
    StoryAssets,
    canonical_parts,
    extract_feature,
    feature_versions,
    speech_parts,
)
from eegmatch.model import ArchitectureConfig, SpeechPart, init_params
from eegmatch.preproc import PreprocConfig
from eegmatch.synth import default_inventory, default_lexicon, generate_story, synth_embeddings, write_synth_dataset
from eegmatch.tensors import (
    TimeSeriesTensor, frame_count, read_timeseries, write_tensor, write_timeseries,
)
from eegmatch.training import read_subject_results


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small but split-able synthetic dataset shared by pipeline/CLI tests."""
    root = tmp_path_factory.mktemp("ds")
    manifest = write_synth_dataset(
        root, n_subjects=2, n_stories=1, duration_s=120.0, snr_db=10.0,
        coupling="envelope", seed=5,
    )
    return manifest


@pytest.fixture(scope="module")
def story_assets():
    inv = default_inventory()
    lexicon = default_lexicon(inv)
    story = generate_story(20.0, seed=9, inv=inv, lexicon=lexicon)
    return StoryAssets(
        audio=story.audio,
        phonemes=story.phonemes,
        words=story.words,
        inventory=inv,
        embeddings=synth_embeddings(list(lexicon), seed=2),
    )


class TestFeatureRegistry:
    def test_canonical_names_and_aliases(self):
        assert canonical_parts("env+BPC") == ["envelope", "bpc"]
        assert canonical_parts("vowel/consonant") == ["vowel_consonant"]
        assert canonical_parts("mel") == ["mel"]
        with pytest.raises(InvalidSpecError):
            canonical_parts("spectrogram")

    def test_every_part_names_its_front(self):
        """One-channel parts take no conv, word embeddings a max-pool, every other part a conv."""
        assert {name: speech_parts(name) for name in PARTS} == {
            "envelope": (SpeechPart(1, "no-conv"),),
            "mel": (SpeechPart(28, "conv"),),
            "vad": (SpeechPart(1, "no-conv"),),
            "phoneme": (SpeechPart(40, "conv"),),
            "bpc": (SpeechPart(6, "conv"),),
            "vowel_consonant": (SpeechPart(3, "conv"),),
            "anyphoneme": (SpeechPart(2, "conv"),),
            "wordemb": (SpeechPart(300, "maxpool"),),
            "bpc_onset": (SpeechPart(6, "conv"),),
            "vowel_consonant_onset": (SpeechPart(3, "conv"),),
            "anyphoneme_onset": (SpeechPart(2, "conv"),),
        }

    def test_dims_follow_the_parts_in_order(self):
        assert speech_parts("env+bpc") == (SpeechPart(1, "no-conv"), SpeechPart(6, "conv"))
        assert speech_parts("env+phoneme+mel") == (
            SpeechPart(1, "no-conv"), SpeechPart(40, "conv"), SpeechPart(28, "conv"))

    @pytest.mark.parametrize("base", ["bpc", "vowel_consonant", "anyphoneme"])
    def test_onset_part_has_its_base_channels(self, story_assets, base):
        onset = extract_feature(f"{base}_onset", story_assets, PreprocConfig())
        assert PARTS[f"{base}_onset"].channels == PARTS[base].channels == onset.n_channels

    @pytest.mark.parametrize(
        "name,channels",
        [
            ("envelope", 1), ("mel", 28), ("vad", 1), ("phoneme", 40),
            ("bpc", 6), ("vowel_consonant", 3), ("anyphoneme", 2),
            ("bpc_onset", 6), ("vowel_consonant_onset", 3), ("anyphoneme_onset", 2),
            ("wordemb", 300), ("env+bpc", 7), ("env+phoneme", 41),
            ("env+phoneme+mel", 69),
        ],
    )
    def test_every_registered_feature_extracts(self, story_assets, name, channels):
        out = extract_feature(name, story_assets)
        assert out.n_channels == channels
        assert out.fs == 64.0
        assert abs(out.n_samples - round(story_assets.audio.duration_s * 64)) <= 1

    @pytest.mark.parametrize("seconds", [8.0, 13.337])
    def test_every_part_has_the_frames_of_its_audio(self, seconds):
        """Every part has ``frame_count`` frames, so parts stack without a cut."""
        inv = default_inventory()
        lexicon = default_lexicon(inv)
        story = generate_story(seconds, seed=3, inv=inv, lexicon=lexicon)
        assets = StoryAssets(story.audio, story.phonemes, story.words, inv,
                             synth_embeddings(list(lexicon), seed=2))
        n = frame_count(story.audio.n_samples, story.audio.fs)
        assert assets.n_frames == n
        assert len(PARTS) == 11
        for name, part in PARTS.items():
            out = extract_feature(name, assets, PreprocConfig())
            assert (out.n_channels, out.n_samples) == (part.channels, n), name

    def test_concat_parts_align(self, story_assets):
        combined = extract_feature("env+anyphoneme", story_assets)
        env = extract_feature("envelope", story_assets)
        n = combined.n_samples
        np.testing.assert_array_equal(combined.data[0, :n], env.data[0, :n])


class TestManifest:
    def test_loads_and_validates(self, dataset):
        manifest = pipeline.load_manifest(dataset)
        assert len(manifest.recordings) == 2
        assert {r.subject_id for r in manifest.recordings} == {"sub00", "sub01"}
        root = dataset.parent  # both recordings' story files, named once
        assert manifest.stories == {"story00": pipeline.StoryFiles(
            root / "audio" / "story00.wav", root / "alignments" / "story00.phonemes.tsv",
            root / "alignments" / "story00.words.tsv")}

    def test_missing_file_fails_fast_with_name(self, dataset, tmp_path):
        raw = yaml.safe_load(dataset.read_text())
        raw["subjects"]["sub00"][0]["eeg"] = "eeg/nonexistent.ndmm"
        bad = tmp_path / "manifest.yaml"
        bad.write_text(yaml.safe_dump(raw))
        (tmp_path / "eeg").mkdir()
        with pytest.raises(InvalidInputError, match="nonexistent"):
            pipeline.load_manifest(bad)

    @pytest.mark.parametrize("what", ["relative manifest", "absolute manifest", "inventory",
                                      "experiment", "checkpoint"])
    def test_parses_as_yaml_safe_load_does(self, dataset, tmp_path, monkeypatch, what):
        """The one YAML reader gives with libyaml what the pure-Python loader gives."""
        def read(path):
            if what == "checkpoint":
                params = load_checkpoint(path.parent)
                return params.config, {k: v.tobytes() for k, v in params.tensors.items()}
            return {"inventory": read_inventory, "experiment": pipeline.load_experiment}.get(
                what, pipeline.load_manifest)(path)

        path = dataset
        if what == "absolute manifest":
            path = tmp_path / "manifest.yaml"
            path.write_text(yaml.safe_dump(absolute_manifest(dataset)))
        elif what == "inventory":  # its symbols are IPA: unicode through both loaders
            path = dataset.parent / "inventory.yaml"
            assert "ɑ" in path.read_text(encoding="utf-8")
        elif what == "experiment":
            path = write_experiment(dataset, tmp_path)[0]
        elif what == "checkpoint":
            arch = ArchitectureConfig(parts=speech_parts("mel+vad"), dtype="float32")
            path = save_checkpoint(tmp_path / "model", init_params(arch, np.random.default_rng(0)))
        fast = read(path)
        monkeypatch.setattr(errors, "_SafeLoader", yaml.SafeLoader)
        assert fast == read(path)
        if what.endswith("manifest"):
            assert fast.inventory_path == dataset.parent / "inventory.yaml"


# ``arch`` fields a cell derives, each with a value that a run would otherwise use
DERIVED_ARCH_VALUES = [("frames", 100), ("eeg_channels", 32), ("dtype", "float64"),
                       ("parts", [{"dim": 1, "variant": "no-conv"}])]


# experiment settings whose type the cell does not use: (key, value, refusal)
SETTINGS_OF_A_WRONG_TYPE = {
    "train batch_size a float": ("train", {"batch_size": 4.5},
                                 "train: 'batch_size' must be an integer, got float 4.5"),
    "train max_epochs a float": ("train", {"max_epochs": 1.5},
                                 "train: 'max_epochs' must be an integer, got float 1.5"),
    "train batch_size a bool": ("train", {"batch_size": True},
                                "train: 'batch_size' must be an integer, got bool True"),
    # PyYAML reads 1e-3, which has no dot, as a string
    "train learning_rate a string": ("train", {"learning_rate": "1e-3"},
                                     "train: 'learning_rate' must be a number, got str '1e-3'"),
    "arch widths floats": ("arch", {"embed_dim": 4.0, "speech_conv_filters": 4.0},
                           "arch: 'embed_dim' must be an integer, got float 4.0"),
    "arch kernel a float": ("arch", {"eeg_conv_kernel": 2.5},
                            "arch: 'eeg_conv_kernel' must be an integer, got float 2.5"),
    "seed a float": ("seed", 1.7, "'seed' must be an integer, got float 1.7"),
    "seed a bool": ("seed", True, "'seed' must be an integer, got bool True"),
    "features a string": ("features", "mel", "features must be a list of names, got 'mel'"),
    "dtype float16": ("dtype", "float16", "dtype: dtype must be float64|float32, got 'float16'"),
}


RESULTS_HEADER = "subject,accuracy,n_windows,feature\n"
# results CSV rows that no scoring writes
BAD_RESULT_ROWS = {"accuracy nan": "s5,nan,10,y\n", "accuracy inf": "s6,inf,10,y\n",
                   "accuracy above 1": "s7,1.7,10,y\n", "n_windows below 1": "s8,0.6,-3,y\n"}


def experiment_yaml(dataset, out_dir, features=("vad",), max_epochs=2):
    return {
        "features": list(features),
        "manifest": str(dataset),
        "out": str(out_dir),
        "seed": 7,
        "dtype": "float32",
        "train": {"batch_size": 64, "max_epochs": max_epochs, "patience": 3},
        "arch": {"eeg_conv_filters": 8, "embed_dim": 8, "speech_conv_filters": 8},
    }


def write_experiment(dataset, tmp_path, **settings):
    """An ``experiment.yaml`` with ``out`` under ``tmp_path``; returns (config, out)."""
    cfg, out = tmp_path / "exp.yaml", tmp_path / "out"
    cfg.write_text(yaml.safe_dump({**experiment_yaml(dataset, out, max_epochs=1), **settings}))
    return cfg, out


def count_calls(monkeypatch, name) -> list:
    """The arguments of every call of ``pipeline.<name>`` from now on."""
    calls = []
    fn = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def cache_files(out) -> set:
    return {p for p in (out / "cache").rglob("*") if p.is_file()}


def absolute_manifest(dataset) -> dict:
    """``dataset``'s manifest with absolute paths, to be edited and written elsewhere."""
    raw = yaml.safe_load(dataset.read_text())
    root = dataset.parent
    raw["inventory"] = str(root / raw["inventory"])
    raw["embeddings"] = str(root / raw["embeddings"])
    for entries in raw["subjects"].values():
        for entry in entries:
            for key in ("eeg", "audio", "phonemes", "words"):
                entry[key] = str(root / entry[key])
    return raw


def tree_bytes(out) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def stat_of(what) -> tuple:
    """(size, mtime, ctime, inode) of a path, or of a hash record's entry."""
    if isinstance(what, dict):
        return what["size"], what["mtime_ns"], what["ctime_ns"], what["inode"]
    st = what.stat()
    return st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino


def recorded_as_settled(entry: dict) -> bool:
    """Whether the entry's file had last changed 0.1 s (2 s at whole seconds) before its hash."""
    whole = entry["mtime_ns"] % 10**9 == 0 and entry["ctime_ns"] % 10**9 == 0
    return max(entry["mtime_ns"], entry["ctime_ns"]) <= entry["hashed_at"] - (
        2 * 10**9 if whole else 10**8)


class TestRunPipeline:
    def test_full_run_emits_artifacts(self, dataset, tmp_path):
        cfg = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        cfg.write_text(yaml.safe_dump(experiment_yaml(dataset, out, features=("vad", "envelope"), max_epochs=1)))
        spec = pipeline.load_experiment(cfg)
        manifest_path = pipeline.run_pipeline(spec)
        assert (out / "results" / "vad.csv").exists()
        assert (out / "results" / "envelope.csv").exists()
        assert [p.name for p in (out / "figures").iterdir()] == ["violin.svg"]
        assert (out / "stats" / "comparisons.csv").exists()
        artifacts = yaml.safe_load(manifest_path.read_text())
        assert "results/vad.csv" in artifacts
        # one SubjectResult CSV per feature in the grid
        assert len(list((out / "results").glob("*.csv"))) == 2
        rows = read_subject_results(out / "results" / "vad.csv")
        assert {r.subject_id for r in rows} == {"sub00", "sub01"}

    def test_rerun_is_cached_and_hashes_stable(self, dataset, tmp_path, monkeypatch):
        """Each input file is read once in a run, however many cells key on it,
        and not at all in a later run while the hash record holds it settled
        and unchanged."""
        cfg = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        cfg.write_text(yaml.safe_dump(experiment_yaml(dataset, out, features=("vad", "envelope"),
                                                      max_epochs=1)))
        spec = pipeline.load_experiment(cfg)
        manifest = pipeline.load_manifest(dataset)
        inputs = {manifest.inventory_path, manifest.embeddings_path,
                  *(r.eeg_path for r in manifest.recordings),
                  *(p for files in manifest.stories.values() for p in dataclasses.astuple(files))}
        settle(dataset.parent)
        hashed = count_calls(monkeypatch, "file_sha256")
        first = yaml.safe_load(pipeline.run_pipeline(spec).read_text())
        assert sorted(p for (p,) in hashed if p in inputs) == sorted(inputs)
        hashed.clear()
        second = yaml.safe_load(pipeline.run_pipeline(pipeline.load_experiment(cfg)).read_text())
        assert first == second
        assert not [p for (p,) in hashed if p in inputs]

    def test_a_file_asked_for_twice_is_read_once(self, dataset, monkeypatch):
        """A command's loader reads each input once however many keys hash it, and answers
        a repeated request from memory, without another stat."""
        manifest = pipeline.load_manifest(dataset)
        loader = pipeline.AssetLoader(manifest)
        eeg = manifest.recordings[0].eeg_path
        digest = pipeline.file_sha256(eeg)
        hashed = count_calls(monkeypatch, "file_sha256")
        stats = count_calls(monkeypatch, "_stat_fields")
        assert loader.file_hash(eeg) == digest
        for name in ("vad", "mel"):  # each key hashes the story's files and the inventory
            loader.feature_key("story00", name, PreprocConfig())
        seen = len(stats)
        assert loader.file_hash(eeg) == digest
        assert len(stats) == seen
        files = dataclasses.astuple(manifest.stories["story00"])
        assert sorted(hashed) == sorted([(eeg,), *((p,) for p in files),
                                         (manifest.inventory_path,), (manifest.embeddings_path,)])

    def test_warm_rerun_changes_no_byte_and_reads_only_what_may_have_changed(
            self, dataset, tmp_path, monkeypatch, caplog):
        """Files the record holds as settled and unchanged are listed without a read."""
        cfg, out = write_experiment(dataset, tmp_path, features=["vad", "envelope"])
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        before = tree_bytes(out)
        hashed = count_calls(monkeypatch, "file_sha256")
        for reader in ("read_inventory", "read_embeddings"):  # every feature is cached
            monkeypatch.setattr(pipeline, reader, lambda path: pytest.fail(f"{path} parsed"))
        with caplog.at_level(logging.INFO, logger="eegmatch.pipeline"):
            pipeline.run_pipeline(pipeline.load_experiment(cfg))
        assert tree_bytes(out) == before
        record = json.loads((out / pipeline.HASH_RECORD).read_bytes())
        artifacts = {name for name in record if not Path(name).is_absolute()}
        assert artifacts == set(before) - {"artifacts.yaml", str(pipeline.HASH_RECORD)}
        may_change = {out / pipeline.HASH_RECORD} | {
            out / rel for rel in artifacts
            if not recorded_as_settled(record[rel]) or stat_of(out / rel) != stat_of(record[rel])}
        read_again = {path for (path,) in hashed if out in Path(path).parents}
        assert read_again <= may_change
        assert not any(p.is_relative_to(out / "cache") for p in read_again)
        (line,) = [r.getMessage() for r in caplog.records if "files listed" in r.getMessage()]
        assert f"{len(before) - 1} files listed, {len(read_again)} hashed" in line
        assert "in cache/" not in line

    @pytest.mark.parametrize("text", ["", "key: [unclosed\n", "no-cell"],
                             ids=["empty", "not-yaml", "no-cell"])
    def test_unusable_stamp_retrains_the_cell(self, dataset, tmp_path, monkeypatch, text):
        cfg, out = write_experiment(dataset, tmp_path)
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        stamp = out / "models" / "vad" / "cell.yaml"
        if text == "no-cell":  # a stamp written before stamps carried the description
            recorded = yaml.safe_load(stamp.read_text())
            text = yaml.safe_dump({"key": recorded["key"], "best_epoch": recorded["best_epoch"]})
        stamp.write_text(text)
        trained = count_calls(monkeypatch, "train")
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        assert len(trained) == 1
        assert yaml.safe_load(stamp.read_text())["cell"]["feature"] == "vad"

    def test_relabelled_phonemes_retrain_the_cell(self, dataset, tmp_path, monkeypatch):
        """The cell key covers each story's feature key, so new phoneme labels
        give ``env+bpc`` a new cell: it trains again on the new features."""
        raw = absolute_manifest(dataset)
        phonemes = tmp_path / "story00.phonemes.tsv"
        shutil.copyfile(raw["subjects"]["sub00"][0]["phonemes"], phonemes)
        for entries in raw["subjects"].values():
            entries[0]["phonemes"] = str(phonemes)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(raw))
        cfg, out = write_experiment(manifest, tmp_path, features=["env+bpc"])
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        stamp = yaml.safe_load((out / "models" / "env+bpc" / "cell.yaml").read_text())
        rows = [row.split("\t") for row in phonemes.read_text().splitlines()]
        phonemes.write_text("".join(
            "\t".join(row if len(row) < 3 else [*row[:2], "p" if row[2] == "ɑ" else "ɑ"]) + "\n"
            for row in rows))
        trained = count_calls(monkeypatch, "train")
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        assert len(trained) == 1
        old = stamp["cell"]["inputs"]
        new = yaml.safe_load((out / "models" / "env+bpc" / "cell.yaml").read_text())["cell"]["inputs"]
        assert new["eeg"] == old["eeg"] and sorted(new["features"]) == ["story00"]
        assert new["features"] != old["features"]

    def test_every_setting_changes_the_cell_key(self, dataset, tmp_path):
        """A new seed or dtype, or one changed key of any block, gives a cell a new key."""
        spec = pipeline.load_experiment(write_experiment(dataset, tmp_path)[0])
        changes = {"seed": 8, "dtype": "float64", "train": {"patience": 4},
                   "arch": {"embed_dim": 4}, "windowing": {"overlap_frac": 0.8},
                   "split": {"train_frac": 0.7, "val_frac": 0.2}, "preproc": {"low_hz": 1.0}}
        assert set(changes) == set(pipeline.CELL_SETTINGS)
        key = pipeline.config_hash(spec.cell("vad", ["eeg-hash"]))
        for name, value in changes.items():
            if isinstance(value, dict):
                value = {**getattr(spec, name), **value}
            changed = dataclasses.replace(spec, **{name: value})
            assert pipeline.config_hash(changed.cell("vad", ["eeg-hash"])) != key, name

    def test_chain_version_is_in_every_key(self, dataset, tmp_path, monkeypatch):
        """A new chain version gives new preprocessing and feature entries and a new cell key."""
        spec = pipeline.load_experiment(write_experiment(dataset, tmp_path)[0])
        manifest = pipeline.load_manifest(dataset)
        entry = manifest.recordings[0]
        loader = pipeline.AssetLoader(manifest)
        cache = tmp_path / "cache"

        def keys():
            pipeline.preprocess_recording_cached(entry, PreprocConfig(), cache / "preproc",
                                                 loader.file_hash)
            loader.feature_cached(entry.story_id, "envelope", cache / "features", PreprocConfig())
            return pipeline.config_hash(spec.cell("vad", ["eeg-hash"]))

        key = keys()
        monkeypatch.setattr(pipeline, "CHAIN_VERSION", pipeline.CHAIN_VERSION + 1)
        assert keys() != key
        for stage in ("preproc", "features"):  # one entry, under its own key, per version
            assert len(list((cache / stage).glob("*.ndmm"))) == 2, stage

    def test_feature_version_is_in_its_keys(self, dataset, tmp_path, monkeypatch):
        """A new envelope version gives the envelope and env+bpc, and no other
        feature, new cache entries and new cell keys."""
        from eegmatch import features

        assert feature_versions("env+bpc") == [2, 1] and feature_versions("mel") == [1]
        spec = pipeline.load_experiment(write_experiment(dataset, tmp_path)[0])
        loader = pipeline.AssetLoader(pipeline.load_manifest(dataset))
        names = ("envelope", "env+bpc", "bpc", "mel")

        def keys():
            return {name: (loader.feature_key("story00", name, PreprocConfig()),
                           pipeline.config_hash(spec.cell(name, ["eeg-hash"])))
                    for name in names}

        before = keys()
        monkeypatch.setitem(features.PARTS, "envelope",
                            features.PARTS["envelope"]._replace(version=3))
        after = keys()
        assert {name for name in names if after[name][0] != before[name][0]} == {
            "envelope", "env+bpc"}
        assert {name for name in names if after[name][1] != before[name][1]} == {
            "envelope", "env+bpc"}

    @pytest.mark.parametrize("features", [["vowel/consonant", "vowel_consonant"],
                                          ["env", "envelope"], ["VAD", "vad"],
                                          ["env+bpc", "envelope+BPC"], ["mel", "mel"]],
                             ids=["one slug", "alias", "case", "alias in a join", "repeated"])
    def test_feature_names_that_share_a_cell_are_refused(self, dataset, tmp_path, capsys,
                                                         features):
        """Two names with one slug would share ``models/`` and the results CSV; two
        names of one feature would extract and train it twice."""
        cfg, out = write_experiment(dataset, tmp_path, features=["mel", *features])
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: features {features[0]!r} and {features[1]!r} name one cell" in err, err
        assert not out.exists()

    def test_unknown_feature_rejected_at_load(self, dataset, tmp_path):
        cfg = tmp_path / "exp.yaml"
        spec = experiment_yaml(dataset, tmp_path / "o", features=("sonogram",))
        cfg.write_text(yaml.safe_dump(spec))
        with pytest.raises(InvalidSpecError):
            pipeline.load_experiment(cfg)


class TestRunStats:
    def test_features_tied_on_every_subject_get_a_note(self, dataset, tmp_path, monkeypatch):
        from eegmatch.training import SubjectResult, write_subject_results

        def fake_cell(spec, manifest, loader, feature_name):
            path = spec.out_dir / "results" / f"{feature_name}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            tied = [0.5, 0.6, 0.7, 0.8, 0.9, 0.55]
            accuracy = {"vad": tied, "envelope": tied,
                        "mel": [0.51, 0.63, 0.66, 0.85, 0.92, 0.5]}[feature_name]
            write_subject_results(path, [SubjectResult(f"s{i}", a, 10, feature_name)
                                         for i, a in enumerate(accuracy)])
            return path

        monkeypatch.setattr(pipeline, "run_feature_cell", fake_cell)
        cfg = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        cfg.write_text(yaml.safe_dump(experiment_yaml(dataset, out, features=("vad", "envelope", "mel"))))
        artifacts = yaml.safe_load(pipeline.run_pipeline(pipeline.load_experiment(cfg)).read_text())
        assert "stats/comparisons.csv" in artifacts
        rows = list(csv.DictReader((out / "stats" / "comparisons.csv").read_text().splitlines()))
        assert len(rows) == 3
        for row in rows:
            tied = {row["feature_a"], row["feature_b"]} == {"vad", "envelope"}
            assert (row["z"] == "") == tied and bool(row["note"]) == tied

    def test_one_subject_grid_has_notes_and_no_violin(self, dataset, tmp_path, caplog):
        raw = absolute_manifest(dataset)
        del raw["subjects"]["sub01"]
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(raw))
        cfg, out = write_experiment(manifest, tmp_path, features=["vad", "envelope"])
        with caplog.at_level(logging.WARNING, logger="eegmatch.pipeline"):
            assert cli.main(["run", "--config", str(cfg)]) == 0
        assert "no violin" in caplog.text
        assert not (out / "figures").exists()
        rows = list(csv.DictReader((out / "stats" / "comparisons.csv").read_text().splitlines()))
        assert [(r["feature_a"], r["feature_b"], r["z"]) for r in rows] == [("vad", "envelope", "")]
        assert rows[0]["note"]
        assert "stats/comparisons.csv" in yaml.safe_load((out / "artifacts.yaml").read_text())


@pytest.fixture
def two_stories(tmp_path):
    return pipeline.load_manifest(write_synth_dataset(
        tmp_path / "ds", n_subjects=1, n_stories=2, duration_s=20.0, seed=3,
    ))


class TestFeatureCache:
    def test_concatenated_feature_reuses_its_parts(self, two_stories, tmp_path, monkeypatch):
        from eegmatch import features

        calls = []
        extract = features.envelope_powerlaw
        monkeypatch.setattr(features, "envelope_powerlaw",
                            lambda audio, cfg: calls.append(audio) or extract(audio, cfg))
        loader = pipeline.AssetLoader(two_stories)
        cache = tmp_path / "cache"
        got = {(story, name): loader.feature_cached(story, name, cache, PreprocConfig())
               for name in ("envelope", "env+bpc") for story in sorted(two_stories.stories)}
        assert len(calls) == 2
        for story in sorted(two_stories.stories):
            fresh = extract_feature("env+bpc", loader.assets(story))
            np.testing.assert_array_equal(got[story, "env+bpc"].data, fresh.data)
            assert len(list(cache.glob(f"{story}_env+bpc_*.ndmm"))) == 1

    def test_key_covers_the_embedding_table(self, two_stories, tmp_path):
        cache = tmp_path / "cache"
        story = min(two_stories.stories)
        old = pipeline.AssetLoader(two_stories).feature_cached(story, "wordemb", cache,
                                                               PreprocConfig())
        path = two_stories.embeddings_path
        rows = [line.split(" ") for line in path.read_text().splitlines()]
        path.write_text("".join(
            " ".join([r[0]] + [f"{-float(v) + 0.25:.6f}" for v in r[1:]]) + "\n" for r in rows
        ))
        loader = pipeline.AssetLoader(two_stories)
        new = loader.feature_cached(story, "wordemb", cache, PreprocConfig())
        fresh = extract_feature("wordemb", loader.assets(story))
        assert not np.array_equal(new.data, old.data)
        np.testing.assert_array_equal(new.data, fresh.data)


    def test_key_and_acoustic_features_follow_the_band(self, two_stories, tmp_path):
        """``preproc: {low_hz: 1.0}`` filters the envelope as it filters the EEG."""
        cache = tmp_path / "cache"
        story = min(two_stories.stories)
        loader = pipeline.AssetLoader(two_stories)
        narrow = PreprocConfig(low_hz=1.0)
        got = {(name, cfg): loader.feature_cached(story, name, cache, cfg)
               for name in ("envelope", "vad") for cfg in (PreprocConfig(), narrow)}
        assert not np.array_equal(got["envelope", narrow].data,
                                  got["envelope", PreprocConfig()].data)
        fresh = extract_feature("envelope", loader.assets(story), narrow)
        np.testing.assert_array_equal(got["envelope", narrow].data, fresh.data)
        np.testing.assert_array_equal(got["vad", narrow].data, got["vad", PreprocConfig()].data)
        for name in ("envelope", "vad"):  # one entry, under its own key, per band
            assert len(list(cache.glob(f"{story}_{name}_*.ndmm"))) == 2


class FullDisk:
    """A file that takes ``room`` bytes, then fails the way a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):  # close, seek and tell, as a writer may call them
        return getattr(self.fh, name)

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[:self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)


def full_disk(room, name_prefix=""):
    """An ``open`` whose writes to files named ``name_prefix...`` hit a full disk."""

    def open_(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        full = "w" in mode and Path(path).name.startswith(name_prefix)
        return FullDisk(fh, room) if full else fh

    return open_


class TestAtomicWrites:
    def test_failed_write_leaves_no_cache_entry(self, two_stories, tmp_path, monkeypatch):
        from eegmatch import tensors

        cache = tmp_path / "cache"
        story = min(two_stories.stories)
        header = 4 + 12 + 2 * 8 + 8  # magic, version/dtype/rank, dims, rate of a rank-2 tensor
        monkeypatch.setattr(tensors, "open", full_disk(header), raising=False)
        with pytest.raises(OSError, match="No space"):
            pipeline.AssetLoader(two_stories).feature_cached(story, "vad", cache, PreprocConfig())
        assert list(cache.iterdir()) == []
        monkeypatch.undo()
        loader = pipeline.AssetLoader(two_stories)
        got = loader.feature_cached(story, "vad", cache, PreprocConfig())
        np.testing.assert_array_equal(got.data, extract_feature("vad", loader.assets(story)).data)
        assert [p.suffix for p in cache.iterdir()] == [".ndmm"]

    def test_failed_cell_stamp_write_retrains_the_cell(self, dataset, tmp_path, monkeypatch):
        cfg, out = write_experiment(dataset, tmp_path)
        monkeypatch.setattr(pipeline, "open", full_disk(20, "cell.yaml"), raising=False)
        with pytest.raises(OSError, match="No space"):
            pipeline.run_pipeline(pipeline.load_experiment(cfg))
        model = out / "models" / "vad"
        assert (out / "results" / "vad.csv").exists()
        assert not [p.name for p in model.iterdir() if p.name.startswith("cell.yaml")]
        monkeypatch.undo()
        trained = count_calls(monkeypatch, "train")
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        assert len(trained) == 1
        assert yaml.safe_load((model / "cell.yaml").read_text())["cell"]["feature"] == "vad"

    def test_failed_synth_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        from eegmatch import synth

        monkeypatch.setattr(synth, "open", full_disk(20, "manifest.yaml"), raising=False)
        with pytest.raises(OSError, match="No space"):
            write_synth_dataset(tmp_path, n_subjects=1, n_stories=1, duration_s=12.0, seed=3)
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("manifest.yaml")]

    @pytest.mark.parametrize("writer", ["wav", "alignment", "inventory", "embeddings"])
    def test_failed_dataset_write_leaves_the_previous_file(self, tmp_path, monkeypatch, writer):
        """``synth make`` rewrites a dataset in place: a write that fails part-way keeps the old file."""
        from scipy.io import wavfile

        from eegmatch import acoustic, alignments

        inv = default_inventory()
        lexicon = default_lexicon(inv)
        stories = [generate_story(4.0, seed=k, inv=inv, lexicon=lexicon) for k in (1, 2)]
        inventories = [inv, alignments.PhonemeInventory(inv.symbols[::-1], inv.class_map)]
        module, name, write = {
            "wav": (wavfile, "story.wav",
                    lambda path, k: acoustic.write_wav(path, stories[k].audio)),
            "alignment": (alignments, "story.phonemes.tsv",
                          lambda path, k: alignments.write_alignment(path, stories[k].phonemes)),
            "inventory": (alignments, "inventory.yaml",
                          lambda path, k: alignments.write_inventory(path, inventories[k])),
            "embeddings": (alignments, "embeddings.txt",
                           lambda path, k: alignments.write_embeddings(
                               path, synth_embeddings(list(lexicon), seed=k))),
        }[writer]
        path = tmp_path / name
        write(path, 0)
        before = path.read_bytes()
        monkeypatch.setattr(module, "open", full_disk(100, name), raising=False)
        with pytest.raises(OSError, match="No space"):
            write(path, 1)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_failed_violin_write_leaves_no_file(self, tmp_path, monkeypatch):
        from eegmatch import stats

        d = tmp_path / "res"
        d.mkdir()
        (d / "vad.csv").write_text("subject,accuracy,n_windows,feature\n"
                                   + "".join(f"s{i},0.{60 + i},10,vad\n" for i in range(4)))
        monkeypatch.setattr(stats, "open", full_disk(20, "violin.svg"), raising=False)
        rc = cli.main(["stats", "violin", "--in", str(d), "--out", str(tmp_path / "violin.svg")])
        assert rc == 3
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("violin.svg")]


class TestCheckpointRoundtrip:
    CONFIG = ArchitectureConfig(
        eeg_channels=6, frames=320, eeg_conv_filters=4, eeg_conv_kernel=8,
        embed_dim=4, parts=(SpeechPart(1, "no-conv"),),
        dtype="float32",
    )

    def test_save_load(self, tmp_path):
        params = init_params(self.CONFIG, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck", params)
        back = load_checkpoint(tmp_path / "ck")
        assert back.config == self.CONFIG
        for key in params.tensors:
            np.testing.assert_array_equal(back.tensors[key], params.tensors[key])

    @pytest.mark.parametrize("case, named", [
        ("no head_w", "tensors: no 'head_w' key"),
        ("head_w of another shape", "'head_w' has shape (2,)"),
        ("extra tensor", "tensors: unknown key(s) 'head_b'"),
        ("no architecture", "no 'architecture' key"),
        ("architecture without embed_dim", "architecture: no 'embed_dim' key"),
        # every checkpoint made while the LSTM width was a setting records it
        ("architecture with lstm_units", "architecture: unknown key(s) 'lstm_units'"),
        ("unknown key", "unknown key(s) 'optimizer'"),
        ("not YAML", "checkpoint.yaml: "),
    ])
    def test_checkpoint_unlike_its_architecture_is_refused(self, tmp_path, case, named):
        """A model is refused by its manifest's path unless its tensors are its architecture's."""
        path = save_checkpoint(tmp_path / "ck", init_params(self.CONFIG, np.random.default_rng(1)))
        manifest = yaml.safe_load(path.read_text())
        if case == "no head_w":
            del manifest["tensors"]["head_w"]
        elif case == "head_w of another shape":
            write_tensor(tmp_path / "ck" / "head_w.ndmm", np.ones(2, dtype=np.float32), fs=0.0)
        elif case == "extra tensor":
            manifest["tensors"]["head_b"] = "head_w.ndmm"
        elif case == "no architecture":
            del manifest["architecture"]
        elif case == "architecture without embed_dim":
            del manifest["architecture"]["embed_dim"]
        elif case == "architecture with lstm_units":
            manifest["architecture"]["lstm_units"] = manifest["architecture"]["embed_dim"]
        elif case == "unknown key":
            manifest["optimizer"] = "adam"
        path.write_text("tensors: {head_w: [" if case == "not YAML" else yaml.safe_dump(manifest))
        with pytest.raises(InvalidInputError) as refusal:
            load_checkpoint(tmp_path / "ck")
        assert str(refusal.value).startswith(f"{path}: ") and named in str(refusal.value)


class TestCli:
    def test_synth_make_and_stats(self, tmp_path, capsys):
        rc = cli.main([
            "synth", "make", "--subjects", "2", "--stories", "1",
            "--duration", "12", "--snr-db", "5", "--seed", "3",
            "--out", str(tmp_path / "ds"),
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("manifest.yaml")

    @pytest.mark.parametrize("flag, value, refusal", [
        ("--subjects", "0", "--subjects must be at least 1, got 0"),
        ("--stories", "0", "--stories must be at least 1, got 0"),
        ("--duration", "-5", "--duration must be positive, got -5.0"),
        ("--duration", "0", "--duration must be positive, got 0.0"),
        ("--coupling", "nope", "--coupling: unknown feature 'nope'"),
        ("--snr-db", "nan", "--snr-db must be a number or +-inf, got nan"),
    ], ids=["subjects 0", "stories 0", "duration -5", "duration 0", "unknown coupling", "snr nan"])
    def test_synth_make_refuses_what_it_cannot_make(self, tmp_path, capsys, flag, value, refusal):
        out = tmp_path / "ds"
        assert cli.main(["synth", "make", "--duration", "12", flag, value, "--out", str(out)]) == 2
        assert refusal in capsys.readouterr().err
        assert not out.exists()

    def test_stats_compare(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(
            "subject,accuracy,n_windows,feature\n"
            + "".join(f"s{i},{0.7 + 0.02 * i},10,x\n" for i in range(6))
        )
        b.write_text(
            "subject,accuracy,n_windows,feature\n"
            + "".join(f"s{i},{0.65 + 0.02 * i},10,y\n" for i in range(6))
        )
        rc = cli.main(["stats", "compare", "--a", str(a), "--b", str(b)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "z=" in printed and "n_effective=6" in printed

    def test_stats_compare_too_few_subjects_errors(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("subject,accuracy,n_windows,feature\ns0,0.7,10,x\n")
        b.write_text("subject,accuracy,n_windows,feature\ns0,0.6,10,y\n")
        rc = cli.main(["stats", "compare", "--a", str(a), "--b", str(b)])
        assert rc == 2
        assert "error[" in capsys.readouterr().err

    @pytest.mark.parametrize("b_rows", [
        "subject,accuracy\n" + "".join(f"s{i},0.{60 + i}\n" for i in range(6)),
        "subject,accuracy,n_windows,feature\n" + "".join(f"s{min(i, 4)},0.{60 + i},10,y\n"
                                                         for i in range(6)),
        *(RESULTS_HEADER + "".join(f"s{i},0.{60 + i},10,y\n" for i in range(5)) + bad
          for bad in BAD_RESULT_ROWS.values()),
    ], ids=["no n_windows", "a subject twice", *BAD_RESULT_ROWS])
    def test_stats_compare_needs_results_csvs(self, tmp_path, capsys, b_rows):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("subject,accuracy,n_windows,feature\n"
                     + "".join(f"s{i},0.{70 + i},10,x\n" for i in range(6)))
        b.write_text(b_rows)
        rc = cli.main(["stats", "compare", "--a", str(a), "--b", str(b)])
        assert rc == 2
        assert str(b) in capsys.readouterr().err

    def test_stats_violin_refuses_accuracies_outside_0_to_1(self, tmp_path, capsys):
        d = tmp_path / "res"
        d.mkdir()
        (d / "vad.csv").write_text(RESULTS_HEADER + "".join(f"s{i},0.{60 + i},10,vad\n"
                                                           for i in range(4)))
        (d / "mel.csv").write_text(RESULTS_HEADER + "".join(BAD_RESULT_ROWS.values()))
        svg = tmp_path / "violin.svg"
        assert cli.main(["stats", "violin", "--in", str(d), "--out", str(svg)]) == 2
        assert f"{d / 'mel.csv'}: subject s5: accuracy nan" in capsys.readouterr().err
        assert not svg.exists()

    def test_stats_violin(self, tmp_path, capsys):
        d = tmp_path / "res"
        d.mkdir()
        rng = np.random.default_rng(4)
        for name in ("vad", "envelope"):
            rows = "".join(f"s{i},{rng.uniform(0.6, 0.9):.4f},10,{name}\n" for i in range(8))
            (d / f"{name}.csv").write_text("subject,accuracy,n_windows,feature\n" + rows)
        svg = tmp_path / "violin.svg"
        rc = cli.main(["stats", "violin", "--in", str(d), "--out", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert all(f">{name}</text>" in text for name in ("vad", "envelope"))

    def test_stats_violin_draws_what_run_draws(self, dataset, tmp_path, capsys, caplog):
        """A results CSV of one subject gets a warning and no violin, as in ``run``,
        and the figure has ``run``'s bytes; with no violin to draw it is refused."""
        from eegmatch.training import SubjectResult, write_subject_results

        d = tmp_path / "res"
        d.mkdir()
        accuracy = {"envelope": [0.71], "vad": [0.62, 0.75, 0.58, 0.8]}
        for name, accs in accuracy.items():
            write_subject_results(d / f"{name}.csv", [SubjectResult(f"s{i}", a, 10, name)
                                                      for i, a in enumerate(accs)])
        svg = tmp_path / "violin.svg"
        assert cli.main(["stats", "violin", "--in", str(d), "--out", str(svg)]) == 0
        assert "envelope scored on 1 subject(s): no violin" in caplog.text
        spec = pipeline.ExperimentSpec(features=list(accuracy), manifest=dataset,
                                       out_dir=tmp_path / "out")
        pipeline.run_stats(spec, {name: read_subject_results(d / f"{name}.csv")
                                  for name in accuracy})
        assert svg.read_bytes() == (tmp_path / "out" / "figures" / "violin.svg").read_bytes()
        (d / "vad.csv").unlink()
        capsys.readouterr()
        assert cli.main(["stats", "violin", "--in", str(d), "--out", str(tmp_path / "v2.svg")]) == 2
        assert str(d) in capsys.readouterr().err
        assert not (tmp_path / "v2.svg").exists()

    def test_stage_commands_hash_no_input_after_a_settled_run(self, dataset, tmp_path,
                                                              monkeypatch):
        """``preprocess``, ``featurize``, ``train`` and ``evaluate`` over the training
        manifest take every digest from the hash record of ``run`` and leave it as it was."""
        cfg, out = write_experiment(dataset, tmp_path)
        settle(dataset.parent)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        record = (out / pipeline.HASH_RECORD).read_bytes()
        hashed = count_calls(monkeypatch, "file_sha256")
        for argv in (["preprocess", "--config", str(cfg)], ["featurize", "--config", str(cfg)],
                     ["train", "--config", str(cfg), "--feature", "vad"],
                     ["evaluate", "--model", str(out / "models" / "vad"),
                      "--manifest", str(dataset), "--out", str(tmp_path / "eval")]):
            assert cli.main(argv) == 0
            assert hashed == [], argv[0]
        assert (out / pipeline.HASH_RECORD).read_bytes() == record

    def test_featurize_and_build_dataset(self, dataset, tmp_path, monkeypatch):
        cfg, out = write_experiment(dataset, tmp_path, features=["vad", "envelope"])
        extracted = count_calls(monkeypatch, "extract_feature")
        assert cli.main(["featurize", "--config", str(cfg)]) == 0
        assert sorted(args[0] for args in extracted) == ["envelope", "vad"]
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(extracted) == 2  # the run built its dataset from the featurize entries
        cached = cache_files(out)
        assert cli.main(["featurize", "--config", str(cfg)]) == 0
        assert cache_files(out) == cached

    def test_preprocess_writes_tensors(self, dataset, tmp_path, monkeypatch):
        cfg, out = write_experiment(dataset, tmp_path, preproc={"low_hz": 1.0})
        preprocessed = count_calls(monkeypatch, "preprocess_eeg")
        assert cli.main(["preprocess", "--config", str(cfg)]) == 0
        assert len(preprocessed) == 2
        eeg = read_timeseries(*(out / "cache" / "preproc").glob("sub00_story00_*.ndmm"))
        assert eeg.fs == 64.0
        assert abs(eeg.data.mean(axis=1)).max() < 1e-9
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(preprocessed) == 2
        cached = cache_files(out)
        assert cli.main(["preprocess", "--config", str(cfg)]) == 0
        assert cache_files(out) == cached

    def test_train_is_a_one_cell_run(self, dataset, tmp_path, monkeypatch):
        cfg, out = write_experiment(dataset, tmp_path)
        trained = count_calls(monkeypatch, "train")
        assert cli.main(["train", "--config", str(cfg), "--feature", "vad"]) == 0
        assert len(trained) == 1
        model, results = out / "models" / "vad", out / "results" / "vad.csv"
        written = {f: f.read_bytes() for f in [*model.iterdir(), results]}
        assert model / "checkpoint.yaml" in written and model / "cell.yaml" in written
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(trained) == 1
        assert {f: f.read_bytes() for f in [*model.iterdir(), results]} == written

    def test_evaluate_scores_with_the_trained_cell(self, dataset, tmp_path, monkeypatch):
        split = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2}
        cfg, out = write_experiment(dataset, tmp_path, windowing={"overlap_frac": 0.8},
                                    split=split)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        results = (out / "results" / "vad.csv").read_bytes()
        assert {r.n_windows for r in read_subject_results(out / "results" / "vad.csv")} == {28}
        cached = cache_files(out)
        monkeypatch.chdir(out / "models")  # a relative --model has no parents to take
        rc = cli.main(["evaluate", "--model", "vad", "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert cache_files(out) == cached
        assert list((tmp_path / "eval").iterdir()) == [tmp_path / "eval" / "vad.csv"]
        assert (tmp_path / "eval" / "vad.csv").read_bytes() == results

    def test_evaluate_scores_every_triple_of_a_new_listener(self, dataset, tmp_path):
        """A listener the cell was not trained on is scored on every triple of
        the recording; a listener it was trained on, on the test partition only."""
        cfg, out = write_experiment(dataset, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        trained = {r.subject_id: r.n_windows
                   for r in read_subject_results(out / "results" / "vad.csv")}
        # the fixture's dataset with a third subject: sub00 and sub01 are the training EEG
        more = write_synth_dataset(tmp_path / "more", n_subjects=3, n_stories=1, duration_s=120.0,
                                   snr_db=10.0, coupling="envelope", seed=5)
        for rec in ("sub00_story00", "sub01_story00"):
            eeg = Path("eeg", f"{rec}.ndmm")
            assert (more.parent / eeg).read_bytes() == (dataset.parent / eeg).read_bytes()
        rc = cli.main(["evaluate", "--model", str(out / "models" / "vad"), "--manifest", str(more),
                       "--out", str(tmp_path / "eval")])
        assert rc == 0
        scored = {r.subject_id: r.n_windows
                  for r in read_subject_results(tmp_path / "eval" / "vad.csv")}
        # 120 s is 7,680 frames: (7680 - 704) // 32 + 1 = 219 triples, two orders each
        assert scored == {**trained, "sub02": 438}
        assert set(trained) == {"sub00", "sub01"} and max(trained.values()) < 438

    def test_evaluate_scores_a_new_recording_too_short_for_the_split(self, dataset, tmp_path,
                                                                   capsys):
        """20 s is 1,280 frames: the default test range holds 128, fewer than a triple's 704,
        but the whole recording holds 19 triples. 10 s holds none and is refused by name."""
        cfg, out = write_experiment(dataset, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        evaluate = ["evaluate", "--model", str(out / "models" / "vad"),
                    "--out", str(tmp_path / "eval")]
        # a new listener, though named sub00 as a training listener: EEG is told apart by its hash
        short = write_synth_dataset(tmp_path / "short", n_subjects=1, n_stories=1, duration_s=20.0,
                                    seed=6)
        assert cli.main([*evaluate, "--manifest", str(short)]) == 0
        rows = read_subject_results(tmp_path / "eval" / "vad.csv")
        assert [(r.subject_id, r.n_windows) for r in rows] == [("sub00", 38)]
        cached = cache_files(out)
        tiny = write_synth_dataset(tmp_path / "tiny", n_subjects=1, n_stories=1, duration_s=10.0,
                                   seed=6)
        capsys.readouterr()
        assert cli.main([*evaluate, "--manifest", str(tiny)]) == 2
        err = capsys.readouterr().err
        assert "sub00/sub00_story00: recording of 640 frames holds no triple" in err, err
        assert cache_files(out) == cached

    def test_evaluate_refuses_a_listener_of_another_channel_count(self, dataset, tmp_path,
                                                                  capsys):
        """A new listener with 32 of the model's 64 EEG channels: refused by name, before
        ``evaluate`` writes any cache."""
        cfg, out = write_experiment(dataset, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        raw = absolute_manifest(dataset)
        del raw["subjects"]["sub01"]
        entry = raw["subjects"]["sub00"][0]
        eeg = read_timeseries(entry["eeg"])
        entry["eeg"] = str(tmp_path / "sub00_32ch.ndmm")
        write_timeseries(entry["eeg"], TimeSeriesTensor(eeg.data[:32], eeg.fs))
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(raw))
        cached = cache_files(out)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--model", str(out / "models" / "vad"),
                       "--manifest", str(manifest), "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sub00/sub00_story00 has 32 EEG channels, but the model takes 64" in err, err
        assert cache_files(out) == cached
        assert not (tmp_path / "eval").exists()

    def test_evaluate_refuses_a_cell_without_its_training_eeg(self, dataset, tmp_path, capsys):
        """Without ``inputs: eeg`` a new listener cannot be told from a trained one."""
        out = tmp_path / "out"
        model = out / "models" / "vad"
        (out / "cache").mkdir(parents=True)
        arch = ArchitectureConfig(parts=speech_parts("vad"), dtype="float32")
        save_checkpoint(model, init_params(arch, np.random.default_rng(0)))
        cell = {"feature": "vad", "chain": pipeline.CHAIN_VERSION,
                "version": feature_versions("vad"), "inputs": {"features": {}}}
        (model / "cell.yaml").write_text(yaml.safe_dump({"key": "0", "best_epoch": 1,
                                                          "cell": cell}))
        rc = cli.main(["evaluate", "--model", str(model), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(model / "cell.yaml") in err and "train the model again" in err, err
        assert not list((out / "cache").rglob("*"))
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("parent", ["a", "models"])
    def test_evaluate_refuses_a_model_outside_models(self, dataset, tmp_path, capsys, parent):
        cfg, out = write_experiment(dataset, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        # copied/models/vad has a models/ parent, but copied/ is no experiment
        copied = tmp_path / "copied" / parent / "vad"
        shutil.copytree(out / "models" / "vad", copied)
        rc = cli.main(["evaluate", "--model", str(copied), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert str(copied) in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "copied").iterdir()) == [parent]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("chain", [None, 1], ids=["none", "older"])
    def test_evaluate_refuses_a_cell_of_another_chain(self, dataset, tmp_path, capsys, chain):
        """A model trained on features of another chain version, or of one that
        recorded none, is refused by its ``cell.yaml`` before anything is written."""
        cfg, out = write_experiment(dataset, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        stamp_path = out / "models" / "vad" / "cell.yaml"
        stamp = yaml.safe_load(stamp_path.read_text())
        assert stamp["cell"]["chain"] == pipeline.CHAIN_VERSION
        if chain is None:
            del stamp["cell"]["chain"]
        else:
            stamp["cell"]["chain"] = chain
        stamp_path.write_text(yaml.safe_dump(stamp))
        cached = cache_files(out)
        rc = cli.main(["evaluate", "--model", str(out / "models" / "vad"),
                       "--manifest", str(dataset), "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(stamp_path) in err and "chain version" in err, err
        assert cache_files(out) == cached
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("version", [None, [2]], ids=["none", "other"])
    def test_evaluate_refuses_a_cell_of_another_feature_version(self, dataset, tmp_path, capsys,
                                                                version):
        """A model trained on another definition of its feature, or in a cell
        that recorded none, is refused by its ``cell.yaml`` before anything is
        written."""
        cfg, out = write_experiment(dataset, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        stamp_path = out / "models" / "vad" / "cell.yaml"
        stamp = yaml.safe_load(stamp_path.read_text())
        assert stamp["cell"]["version"] == feature_versions("vad") == [1]
        if version is None:
            del stamp["cell"]["version"]
        else:
            stamp["cell"]["version"] = version
        stamp_path.write_text(yaml.safe_dump(stamp))
        cached = cache_files(out)
        rc = cli.main(["evaluate", "--model", str(out / "models" / "vad"),
                       "--manifest", str(dataset), "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(stamp_path) in err and "feature version" in err, err
        assert cache_files(out) == cached
        assert not (tmp_path / "eval").exists()

    def test_evaluate_needs_the_cell_description(self, dataset, tmp_path, capsys):

        model = tmp_path / "model"
        arch = ArchitectureConfig(parts=speech_parts("vad"), dtype="float32")
        save_checkpoint(model, init_params(arch, np.random.default_rng(0)))
        (model / "cell.yaml").write_text(yaml.safe_dump({"key": "36415dad68aa", "best_epoch": 1}))
        rc = cli.main(["evaluate", "--model", str(model), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert str(model / "cell.yaml") in capsys.readouterr().err

    @pytest.mark.parametrize("block, key", [("windowing", "fs"), ("preproc", "target_fs")])
    def test_evaluate_refuses_a_cell_that_sets_the_frame_rate(self, dataset, tmp_path, capsys,
                                                              block, key):

        out = tmp_path / "out"
        model = out / "models" / "vad"
        (out / "cache").mkdir(parents=True)
        arch = ArchitectureConfig(parts=speech_parts("vad"), dtype="float32")
        save_checkpoint(model, init_params(arch, np.random.default_rng(0)))
        cell = {"feature": "vad", "seed": 7, "dtype": "float32", "train": {}, "arch": {},
                "windowing": {}, "split": {}, "preproc": {}, "inputs": [], block: {key: 128.0}}
        (model / "cell.yaml").write_text(yaml.safe_dump({"key": "0", "best_epoch": 1,
                                                          "cell": cell}))
        rc = cli.main(["evaluate", "--model", str(model), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert block in err and f"'{key}'" in err, err
        assert not list((out / "cache").rglob("*"))

    @pytest.mark.parametrize("key, value", DERIVED_ARCH_VALUES)
    def test_evaluate_refuses_a_cell_that_sets_a_derived_arch_field(self, dataset, tmp_path,
                                                                    capsys, key, value):

        out = tmp_path / "out"
        model = out / "models" / "vad"
        (out / "cache").mkdir(parents=True)
        arch = ArchitectureConfig(parts=speech_parts("vad"), dtype="float32")
        save_checkpoint(model, init_params(arch, np.random.default_rng(0)))
        cell = {"feature": "vad", "seed": 7, "dtype": "float32", "train": {}, "arch": {key: value},
                "windowing": {}, "split": {}, "preproc": {}, "inputs": []}
        (model / "cell.yaml").write_text(yaml.safe_dump({"key": "0", "best_epoch": 1,
                                                          "cell": cell}))
        rc = cli.main(["evaluate", "--model", str(model), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model / 'cell.yaml'}: arch: '{key}'" in err, err
        assert not list((out / "cache").rglob("*"))
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("change, named", [({"seeds": 3}, "unknown key(s) 'seeds'"),
                                               ({"feature": "sonogram"}, "sonogram")],
                             ids=["unknown key", "unknown feature"])
    def test_evaluate_refuses_a_malformed_cell_by_its_path(self, dataset, tmp_path, capsys,
                                                           change, named):

        out = tmp_path / "out"
        model = out / "models" / "vad"
        (out / "cache").mkdir(parents=True)
        arch = ArchitectureConfig(parts=speech_parts("vad"), dtype="float32")
        save_checkpoint(model, init_params(arch, np.random.default_rng(0)))
        cell = {"feature": "vad", "seed": 7, "dtype": "float32", "train": {}, "arch": {},
                "windowing": {}, "split": {}, "preproc": {}, "inputs": [], **change}
        (model / "cell.yaml").write_text(yaml.safe_dump({"key": "0", "best_epoch": 1,
                                                          "cell": cell}))
        rc = cli.main(["evaluate", "--model", str(model), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model / 'cell.yaml'}: " in err and named in err, err
        assert not list((out / "cache").rglob("*"))
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("key, value", DERIVED_ARCH_VALUES)
    def test_run_refuses_an_experiment_that_sets_a_derived_arch_field(self, dataset, tmp_path,
                                                                      capsys, key, value):
        """The window length, the EEG channel count and the dtype are not ``arch`` settings."""
        exp = experiment_yaml(dataset, tmp_path / "out", max_epochs=1)
        cfg, out = write_experiment(dataset, tmp_path, arch={**exp["arch"], key: value})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: arch: '{key}'" in err, err
        assert not out.exists()

    def test_embed_dim_alone_sets_the_lstm_width(self, dataset, tmp_path):
        """The head compares the LSTM state with the EEG embedding, so one width sets both."""
        cfg, out = write_experiment(dataset, tmp_path, arch={"embed_dim": 8})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        params = load_checkpoint(out / "models" / "vad")
        assert params.config.embed_dim == 8
        assert params.tensors["lstm_wh"].shape == (32, 8)

    def test_readme_experiment_is_read(self, tmp_path):
        """The README's ``experiment.yaml`` example stays inside the rules it is read by."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("`experiment.yaml` drives a grid", 1)[1]
        example = example.split("```yaml\n", 1)[1].split("```", 1)[0]
        (tmp_path / "experiment.yaml").write_text(example, encoding="utf-8")
        spec = pipeline.load_experiment(tmp_path / "experiment.yaml")
        assert spec.features == ["vad", "envelope", "mel", "env+bpc"]
        assert spec.train["learning_rate"] == 1e-3

    def test_unknown_experiment_key_is_refused(self, dataset, tmp_path, capsys):
        """A typo such as ``sed: 3`` is refused by name, before anything is written."""
        cfg, out = write_experiment(dataset, tmp_path, sed=3)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: unknown key(s) 'sed'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "manifest without subjects", "experiment without features", "train key typo",
        "removed adam key", "preproc edges out of order", "alignment row with two fields",
        "windowing sets the frame rate", "preproc sets the frame rate",
        "experiment not YAML", "manifest not YAML", "inventory not a mapping",
        "inventory without symbols", "recordings of a story name other files",
        "audio cut inside its data chunk", "alignment time not finite",
        "arch sets lstm_units",
        "windowing window under a frame", "windowing gap under a frame", *SETTINGS_OF_A_WRONG_TYPE,
    ])
    def test_malformed_input_is_refused_by_name(self, dataset, tmp_path, capsys, case):
        raw = absolute_manifest(dataset)
        manifest, cfg, out = tmp_path / "manifest.yaml", tmp_path / "exp.yaml", tmp_path / "out"
        exp = experiment_yaml(manifest, out, max_epochs=1)
        text = {}  # files written as they are, not as YAML
        if case == "experiment not YAML":
            text[cfg] = "features: [vad\n"
            named = [str(cfg)]
        elif case in SETTINGS_OF_A_WRONG_TYPE:
            key, value, refusal = SETTINGS_OF_A_WRONG_TYPE[case]
            exp[key] = {**exp[key], **value} if key in ("train", "arch") else value
            named = [f"{cfg}: {refusal}"]
        elif case == "manifest not YAML":
            text[manifest] = "subjects: {sub00: [\n"
            named = [str(manifest.resolve())]
        elif case.startswith("inventory"):
            inv = yaml.safe_load(Path(raw["inventory"]).read_text(encoding="utf-8"))
            raw["inventory"] = str(tmp_path / "inventory.yaml")
            if case == "inventory not a mapping":
                text[tmp_path / "inventory.yaml"] = yaml.safe_dump(inv["symbols"])
                named = [raw["inventory"], "not a mapping"]
            else:
                text[tmp_path / "inventory.yaml"] = yaml.safe_dump({"classes": inv["classes"]})
                named = [raw["inventory"], "'symbols'"]
        elif case == "recordings of a story name other files":
            # sub01 heard story00, but its entry names other audio: refused, not
            # featurized from sub00's files
            other = tmp_path / "other.wav"
            shutil.copyfile(raw["subjects"]["sub01"][0]["audio"], other)
            raw["subjects"]["sub01"][0]["audio"] = str(other)
            named = [str(manifest.resolve()), "story00", "sub01_story00"]
        elif case == "audio cut inside its data chunk":
            cut = tmp_path / "cut.wav"
            cut.write_bytes(Path(raw["subjects"]["sub00"][0]["audio"]).read_bytes()[:4000])
            for entries in raw["subjects"].values():
                entries[0]["audio"] = str(cut)
            named = [str(cut), "data chunk"]
        elif case == "manifest without subjects":
            del raw["subjects"]
            named = [str(manifest.resolve()), "'subjects'"]
        elif case == "experiment without features":
            del exp["features"]
            named = [str(cfg), "'features'"]
        elif case in ("train key typo", "removed adam key"):
            key = "betas" if case == "train key typo" else "adam_eps"
            exp["train"][key] = 3
            named = [str(cfg), "train", key]
        elif case == "preproc edges out of order":
            exp["preproc"] = {"low_hz": 40.0, "high_hz": 32.0}
            named = [str(cfg), "preproc"]
        elif case.endswith("sets the frame rate"):  # 64 Hz is fixed, not a setting
            block, key = case.split()[0], "fs" if case.startswith("windowing") else "target_fs"
            exp[block] = {key: 128.0}
            named = [str(cfg), block, f"'{key}'"]
        elif case == "arch sets lstm_units":  # the LSTM is as wide as the embedding
            exp["arch"] = {"lstm_units": 8}
            named = [str(cfg), "arch", "'lstm_units'"]
        elif case.endswith("under a frame"):  # 0.005 s and 0.001 s round to 0 frames at 64 Hz
            key = "window_s" if case.split()[1] == "window" else "gap_s"
            exp["windowing"] = {key: 0.005 if key == "window_s" else 0.001}
            named = [str(cfg), "windowing", "at least one frame"]
        else:
            rows = Path(raw["subjects"]["sub00"][0]["phonemes"]).read_text().splitlines()
            start, end, label = rows[2].split("\t")
            rows[2] = (f"{start}\tinf\t{label}" if case == "alignment time not finite"
                       else f"{start}\t{end}")
            bad = tmp_path / "bad.phonemes.tsv"
            bad.write_text("\n".join(rows) + "\n")
            for entries in raw["subjects"].values():
                entries[0]["phonemes"] = str(bad)
            named = [str(bad), "not finite" if case == "alignment time not finite" else "line 3"]
        manifest.write_text(yaml.safe_dump(raw))
        cfg.write_text(yaml.safe_dump(exp))
        for path, content in text.items():
            path.write_text(content, encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        if case.startswith(("train", "removed", "preproc", "windowing", "experiment", "arch",
                            "seed", "features", "dtype")):
            assert not out.exists()

    def test_recording_too_short_for_the_split_is_named(self, tmp_path, capsys):
        """60 s is 3,840 frames: the default 10 % validation range holds 384, a triple spans 704."""
        manifest = write_synth_dataset(tmp_path / "ds", n_subjects=1, n_stories=1,
                                       duration_s=60.0, seed=4)
        entry = pipeline.load_manifest(manifest).recordings[0]
        cfg, out = write_experiment(manifest, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{entry.subject_id}/{entry.recording_id}" in err, err
        assert "val has 384 frames" in err and "test has 384 frames" in err, err
        assert "train" not in err and "a triple spans 704 frames" in err, err
        # refused before any cache is written
        for cache in (pipeline.PREPROC_CACHE, pipeline.FEATURE_CACHE):
            assert not list((out / cache).glob("*")), cache

    def test_recordings_of_other_channel_counts_are_refused(self, dataset, tmp_path, capsys):
        """sub01's EEG cut to 32 of its 64 channels: refused by both names, before any cache."""
        raw = absolute_manifest(dataset)
        entry = raw["subjects"]["sub01"][0]
        eeg = read_timeseries(entry["eeg"])
        entry["eeg"] = str(tmp_path / "sub01_32ch.ndmm")
        write_timeseries(entry["eeg"], TimeSeriesTensor(eeg.data[:32], eeg.fs))
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(raw))
        cfg, out = write_experiment(manifest, tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "sub01/sub01_story00 has 32 EEG channels, but sub00/sub00_story00 has 64" in err, err
        for cache in (pipeline.PREPROC_CACHE, pipeline.FEATURE_CACHE):
            assert not list((out / cache).glob("*")), cache

    def test_error_exit_code(self, dataset, tmp_path):
        cfg, _ = write_experiment(dataset, tmp_path, manifest=str(tmp_path / "missing.yaml"))
        rc = cli.main(["preprocess", "--config", str(cfg)])
        assert rc == 3  # io error


def test_cli_surface():
    """Every command's flags, by long name: 21 in all, and ``run`` takes ``--config`` only."""

    def flags(parser, command=()):
        found = {" ".join(command): sorted(
            max(a.option_strings, key=len) for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction))}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    found.update(flags(sub, command + (name,)))
        return found

    surface = {k: v for k, v in flags(cli.build_parser()).items() if v}
    assert surface == {
        "": ["--verbose"],
        "synth make": ["--coupling", "--duration", "--noise-color", "--out", "--seed",
                       "--snr-db", "--stories", "--subjects"],
        "preprocess": ["--config"],
        "featurize": ["--config"],
        "train": ["--config", "--feature"],
        "evaluate": ["--manifest", "--model", "--out"],
        "stats compare": ["--a", "--b"],
        "stats violin": ["--in", "--out"],
        "run": ["--config"],
    }
    assert sum(map(len, surface.values())) == 21
