import csv
import errno
from pathlib import Path

import numpy as np
import pytest
import yaml

from eegmatch import cli, pipeline
from eegmatch.errors import InvalidInputError, InvalidSpecError
from eegmatch.features import StoryAssets, canonical_parts, extract_feature, feature_dims
from eegmatch.synth import default_inventory, default_lexicon, generate_story, synth_embeddings, write_synth_dataset
from eegmatch.tensors import read_timeseries
from eegmatch.training import read_subject_results
from eegmatch.windows import read_window_set


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

    def test_dims_and_wordemb_flags(self):
        dims, flags = feature_dims("env+phoneme+mel")
        assert dims == [1, 40, 28]
        assert flags == [False, False, False]
        dims, flags = feature_dims("wordemb")
        assert dims == [300]
        assert flags == [True]

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
        assert abs(out.n_samples - round(story_assets.duration_s * 64)) <= 1

    def test_concat_parts_align(self, story_assets):
        combined = extract_feature("env+anyphoneme", story_assets)
        env = extract_feature("envelope", story_assets)
        n = combined.n_samples
        np.testing.assert_array_equal(combined.data[0, :n], env.data[0, :n])


class TestManifest:
    def test_loads_and_validates(self, dataset):
        manifest = pipeline.load_manifest(dataset)
        assert len(manifest.recordings) == 2
        assert manifest.story_ids == ["story00"]
        assert {r.subject_id for r in manifest.recordings} == {"sub00", "sub01"}

    def test_missing_file_fails_fast_with_name(self, dataset, tmp_path):
        raw = yaml.safe_load(dataset.read_text())
        raw["subjects"]["sub00"][0]["eeg"] = "eeg/nonexistent.ndmm"
        bad = tmp_path / "manifest.yaml"
        bad.write_text(yaml.safe_dump(raw))
        (tmp_path / "eeg").mkdir()
        with pytest.raises(InvalidInputError, match="nonexistent"):
            pipeline.load_manifest(bad)


def experiment_yaml(dataset, out_dir, features=("vad",), max_epochs=2):
    return {
        "features": list(features),
        "manifest": str(dataset),
        "out": str(out_dir),
        "seed": 7,
        "dtype": "float32",
        "train": {"batch_size": 64, "max_epochs": max_epochs, "patience": 3},
        "arch": {"eeg_conv_filters": 8, "embed_dim": 8, "lstm_units": 8,
                 "speech_conv_filters": 8},
    }


def write_experiment(dataset, tmp_path, **settings):
    """An ``experiment.yaml`` with ``out`` under ``tmp_path``; returns (config, out)."""
    cfg, out = tmp_path / "exp.yaml", tmp_path / "out"
    cfg.write_text(yaml.safe_dump({**experiment_yaml(dataset, out, max_epochs=1), **settings}))
    return cfg, out


def count_training(monkeypatch) -> list:
    """The training config of every ``pipeline.train`` call from now on."""
    calls = []
    train = pipeline.train
    monkeypatch.setattr(pipeline, "train", lambda *args: calls.append(args[-1]) or train(*args))
    return calls


class TestRunPipeline:
    def test_full_run_emits_artifacts(self, dataset, tmp_path):
        cfg = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        cfg.write_text(yaml.safe_dump(experiment_yaml(dataset, out, features=("vad", "envelope"), max_epochs=1)))
        spec = pipeline.load_experiment(cfg)
        manifest_path = pipeline.run_pipeline(spec)
        assert (out / "results" / "vad.csv").exists()
        assert (out / "results" / "envelope.csv").exists()
        assert (out / "figures" / "violin.svg").exists()
        assert (out / "stats" / "comparisons.csv").exists()
        artifacts = yaml.safe_load(manifest_path.read_text())
        assert "results/vad.csv" in artifacts
        # one SubjectResult CSV per feature in the grid
        assert len(list((out / "results").glob("*.csv"))) == 2
        rows = read_subject_results(out / "results" / "vad.csv")
        assert {r.subject_id for r in rows} == {"sub00", "sub01"}

    def test_rerun_is_cached_and_hashes_stable(self, dataset, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        cfg.write_text(yaml.safe_dump(experiment_yaml(dataset, out, features=("vad", "envelope"),
                                                      max_epochs=1)))
        spec = pipeline.load_experiment(cfg)
        first = yaml.safe_load(pipeline.run_pipeline(spec).read_text())
        hashed = []
        file_sha256 = pipeline.file_sha256
        monkeypatch.setattr(pipeline, "file_sha256",
                            lambda path: hashed.append(path) or file_sha256(path))
        second = yaml.safe_load(pipeline.run_pipeline(pipeline.load_experiment(cfg)).read_text())
        assert first == second
        # each input file is read once per run, however many cells key on it
        eeg = [r.eeg_path for r in pipeline.load_manifest(dataset).recordings]
        assert sorted(p for p in hashed if p in eeg) == sorted(eeg)

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
                            lambda audio: calls.append(audio) or extract(audio))
        loader = pipeline.AssetLoader(two_stories)
        cache = tmp_path / "cache"
        got = {(story, name): loader.feature_cached(story, name, cache)
               for name in ("envelope", "env+bpc") for story in two_stories.story_ids}
        assert len(calls) == 2
        for story in two_stories.story_ids:
            fresh = extract_feature("env+bpc", loader.assets(story))
            np.testing.assert_array_equal(got[story, "env+bpc"].data, fresh.data)
            assert len(list(cache.glob(f"{story}_env+bpc_*.ndmm"))) == 1

    def test_key_covers_the_embedding_table(self, two_stories, tmp_path):
        cache = tmp_path / "cache"
        story = two_stories.story_ids[0]
        old = pipeline.AssetLoader(two_stories).feature_cached(story, "wordemb", cache)
        path = two_stories.embeddings_path
        rows = [line.split(" ") for line in path.read_text().splitlines()]
        path.write_text("".join(
            " ".join([r[0]] + [f"{-float(v) + 0.25:.6f}" for v in r[1:]]) + "\n" for r in rows
        ))
        loader = pipeline.AssetLoader(two_stories)
        new = loader.feature_cached(story, "wordemb", cache)
        fresh = extract_feature("wordemb", loader.assets(story))
        assert not np.array_equal(new.data, old.data)
        np.testing.assert_array_equal(new.data, fresh.data)


class FullDisk:
    """A file that takes ``room`` bytes, then fails the way a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

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
        story = two_stories.story_ids[0]
        header = 4 + 12 + 2 * 8 + 8  # magic, version/dtype/rank, dims, rate of a rank-2 tensor
        monkeypatch.setattr(tensors, "open", full_disk(header), raising=False)
        with pytest.raises(OSError, match="No space"):
            pipeline.AssetLoader(two_stories).feature_cached(story, "vad", cache)
        assert list(cache.iterdir()) == []
        monkeypatch.undo()
        loader = pipeline.AssetLoader(two_stories)
        got = loader.feature_cached(story, "vad", cache)
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
        trained = count_training(monkeypatch)
        pipeline.run_pipeline(pipeline.load_experiment(cfg))
        assert len(trained) == 1
        assert yaml.safe_load((model / "cell.yaml").read_text())["cell"]["feature"] == "vad"


class TestCheckpointRoundtrip:
    def test_save_load(self, tmp_path):
        from eegmatch.checkpoint import load_checkpoint, save_checkpoint
        from eegmatch.model import ArchitectureConfig, SpeechPart, init_params

        cfg = ArchitectureConfig(
            eeg_channels=6, frames=320, eeg_conv_filters=4, eeg_conv_kernel=8,
            embed_dim=4, lstm_units=4, parts=(SpeechPart(1, "no-conv"),),
            dtype="float32",
        )
        params = init_params(cfg, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck", params)
        back = load_checkpoint(tmp_path / "ck")
        assert back.config == cfg
        for key in params.tensors:
            np.testing.assert_array_equal(back.tensors[key], params.tensors[key])


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

    def test_stats_compare(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        b_figure = tmp_path / "b_figure.csv"
        a.write_text(
            "subject,accuracy,n_windows,feature\n"
            + "".join(f"s{i},{0.7 + 0.02 * i},10,x\n" for i in range(6))
        )
        b.write_text(
            "subject,accuracy,n_windows,feature\n"
            + "".join(f"s{i},{0.65 + 0.02 * i},10,y\n" for i in range(6))
        )
        b_figure.write_text(  # the figure-data layout of the same accuracies
            "subject,accuracy\n" + "".join(f"s{i},{0.65 + 0.02 * i}\n" for i in range(6))
        )
        printed = []
        for other in (b, b_figure):
            rc = cli.main(["stats", "compare", "--a", str(a), "--b", str(other)])
            assert rc == 0
            printed.append(capsys.readouterr().out)
        assert "z=" in printed[0] and "n_effective=6" in printed[0]
        assert printed[1] == printed[0]

    def test_stats_compare_too_few_subjects_errors(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("subject,accuracy,n_windows,feature\ns0,0.7,10,x\n")
        b.write_text("subject,accuracy,n_windows,feature\ns0,0.6,10,y\n")
        rc = cli.main(["stats", "compare", "--a", str(a), "--b", str(b)])
        assert rc == 2
        assert "error[" in capsys.readouterr().err

    def test_stats_violin(self, tmp_path, capsys):
        d = tmp_path / "res"
        d.mkdir()
        rng = np.random.default_rng(4)
        for name in ("vad", "envelope"):
            rows = "".join(f"s{i},{rng.uniform(0.6, 0.9):.4f},10,{name}\n" for i in range(8))
            (d / f"{name}.csv").write_text("subject,accuracy,n_windows,feature\n" + rows)
        rows = "".join(f"s{i},{rng.uniform(0.6, 0.9):.6f}\n" for i in range(8))
        (d / "mel.csv").write_text("subject,accuracy\n" + rows)  # figure-data layout
        svg = tmp_path / "violin.svg"
        rc = cli.main(["stats", "violin", "--in", str(d), "--out", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert all(f">{name}</text>" in text for name in ("vad", "envelope", "mel"))

    def test_featurize_and_build_dataset(self, dataset, tmp_path, capsys):
        cfg, _ = write_experiment(dataset, tmp_path, features=["vad", "envelope"])
        rc = cli.main(["featurize", "--config", str(cfg), "--out", str(tmp_path / "feat")])
        assert rc == 0
        assert sorted(p.name.split("_")[1] for p in (tmp_path / "feat").iterdir()) == [
            "envelope", "vad"]
        rc = cli.main(["build-dataset", "--config", str(cfg), "--feature", "vad",
                       "--out", str(tmp_path / "dsout")])
        assert rc == 0
        assert (tmp_path / "dsout" / "train" / "index.csv").exists()
        eeg, match, mismatch, rows = read_window_set(tmp_path / "dsout" / "test")
        assert eeg.shape[1] == 64
        assert match.shape[1:] == (1, 320)

    def test_preprocess_writes_tensors(self, dataset, tmp_path):
        cfg, _ = write_experiment(dataset, tmp_path, preproc={"target_fs": 32.0})
        rc = cli.main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "pre")])
        assert rc == 0
        out = read_timeseries(tmp_path / "pre" / "sub00_story00.ndmm")
        assert out.fs == 32.0
        assert abs(out.data.mean(axis=1)).max() < 1e-9

    def test_train_is_a_one_cell_run(self, dataset, tmp_path, monkeypatch):
        cfg, out = write_experiment(dataset, tmp_path)
        trained = count_training(monkeypatch)
        assert cli.main(["train", "--config", str(cfg), "--feature", "vad"]) == 0
        assert len(trained) == 1
        model, results = out / "models" / "vad", out / "results" / "vad.csv"
        written = {f: f.read_bytes() for f in [*model.iterdir(), results]}
        assert model / "checkpoint.yaml" in written and model / "cell.yaml" in written
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert len(trained) == 1
        assert {f: f.read_bytes() for f in [*model.iterdir(), results]} == written

    def test_evaluate_scores_with_the_trained_cell(self, dataset, tmp_path):
        split = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2}
        cfg, out = write_experiment(dataset, tmp_path, windowing={"overlap_frac": 0.8},
                                    split=split)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        results = (out / "results" / "vad.csv").read_bytes()
        assert {r.n_windows for r in read_subject_results(out / "results" / "vad.csv")} == {28}
        rc = cli.main(["evaluate", "--model", str(out / "models" / "vad"),
                       "--manifest", str(dataset), "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert (tmp_path / "eval" / "vad.csv").read_bytes() == results

    def test_evaluate_needs_the_cell_description(self, dataset, tmp_path, capsys):
        from eegmatch.checkpoint import save_checkpoint
        from eegmatch.model import config_for_feature, init_params

        model = tmp_path / "model"
        arch = config_for_feature([1], [False], dtype="float32", frames=320, eeg_channels=64)
        save_checkpoint(model, init_params(arch, np.random.default_rng(0)))
        (model / "cell.yaml").write_text(yaml.safe_dump({"key": "36415dad68aa", "best_epoch": 1}))
        rc = cli.main(["evaluate", "--model", str(model), "--manifest", str(dataset),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert str(model / "cell.yaml") in capsys.readouterr().err

    def test_error_exit_code(self, dataset, tmp_path):
        cfg, _ = write_experiment(dataset, tmp_path, manifest=str(tmp_path / "missing.yaml"))
        rc = cli.main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3  # io error
