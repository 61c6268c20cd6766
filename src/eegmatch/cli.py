"""Command-line entry point orchestrating the pipeline stages."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import pipeline
from .checkpoint import load_checkpoint
from .errors import EegMatchError
from .preproc import PreprocConfig, load_preproc_config
from .stats import (
    PairedSample,
    read_condition_csv,
    summarize,
    violin_svg,
    wilcoxon_signed_rank,
)
from .synth import write_synth_dataset
from .tensors import write_timeseries
from .training import evaluate_per_subject, read_subject_results, write_subject_results
from .windows import write_window_set

logger = logging.getLogger("eegmatch")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)


def _one_feature(args, **settings):
    """The one-feature experiment that a stage command's flags describe."""
    preproc = asdict(load_preproc_config(args.preproc_config)) if args.preproc_config else {}
    spec = pipeline.ExperimentSpec(features=[args.feature], manifest=args.manifest,
                                   out_dir=args.out, seed=args.seed, preproc=preproc, **settings)
    manifest = pipeline.load_manifest(spec.manifest)
    return spec, manifest, pipeline.AssetLoader(manifest)


def _window_sets(args):
    sets, _, _ = pipeline.build_cell(*_one_feature(args), args.feature)
    return sets


def cmd_synth_make(args) -> int:
    path = write_synth_dataset(
        args.out,
        n_subjects=args.subjects,
        n_stories=args.stories,
        duration_s=args.duration,
        snr_db=args.snr_db,
        coupling=args.coupling,
        seed=args.seed,
        noise_color=args.noise_color,
    )
    print(path)
    return 0


def cmd_preprocess(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    cfg = load_preproc_config(args.config) if args.config else PreprocConfig()
    args.out.mkdir(parents=True, exist_ok=True)
    for entry in manifest.recordings:
        out = pipeline.preprocess_recording_cached(entry, cfg, args.out)
        write_timeseries(args.out / f"{entry.recording_id}.ndmm", out)
        print(f"{entry.recording_id}: {out.n_channels}x{out.n_samples} @ {out.fs} Hz")
    return 0


def cmd_featurize(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    loader = pipeline.AssetLoader(manifest)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in args.features.split(","):
        for story_id in manifest.story_ids:
            feat = loader.feature_cached(story_id, name, args.out)
            print(f"{story_id}/{name}: {feat.n_channels}x{feat.n_samples}")
    return 0


def cmd_build_dataset(args) -> int:
    for part, ws in _window_sets(args).items():
        write_window_set(args.out / part, ws)
        print(f"{part}: {ws.n_triples} triples")
    return 0


def cmd_train(args) -> int:
    """A one-cell ``run``: model under ``<out>/models/``, CSV under ``<out>/results/``."""
    train = {"batch_size": args.batch_size, "learning_rate": args.learning_rate,
             "max_epochs": args.max_epochs, "patience": args.patience}
    print(pipeline.run_feature_cell(*_one_feature(args, dtype=args.dtype, train=train), args.feature))
    return 0


def cmd_evaluate(args) -> int:
    params = load_checkpoint(args.model)
    results = evaluate_per_subject(params, _window_sets(args)["test"], feature_name=args.feature)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{pipeline.feature_slug(args.feature)}.csv"
    write_subject_results(path, results)
    for r in results:
        print(f"{r.subject_id}: {r.test_accuracy:.3f} over {r.n_windows} windows")
    return 0


def cmd_stats_compare(args) -> int:
    def as_map(path):
        try:
            return {r.subject_id: r.test_accuracy for r in read_subject_results(path)}
        except KeyError:
            subjects, accs = read_condition_csv(path)
            return dict(zip(subjects, accs))

    pair = PairedSample.from_maps(as_map(args.a), as_map(args.b))
    res = wilcoxon_signed_rank(pair.a, pair.b)
    print(f"z={res.z:.4f} p={res.p:.6g} n_effective={res.n_effective}")
    return 0


def cmd_stats_violin(args) -> int:
    summaries = []
    for path in sorted(Path(args.indir).glob("*.csv")):
        try:
            rows = read_subject_results(path)
            subjects = [r.subject_id for r in rows]
            accs = np.array([r.test_accuracy for r in rows])
        except KeyError:
            subjects, accs = read_condition_csv(path)
        summaries.append(summarize(path.stem, subjects, accs))
    Path(args.out).write_text(violin_svg(summaries), encoding="utf-8")
    print(args.out)
    return 0


def cmd_run(args) -> int:
    spec = pipeline.load_experiment(args.config)
    if args.seed is not None:
        spec.seed = args.seed
    if args.out is not None:
        spec.out_dir = args.out
    manifest = pipeline.run_pipeline(spec)
    print(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eegmatch")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthetic dataset generation")
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)
    make = synth_sub.add_parser("make")
    make.add_argument("--subjects", type=int, default=2)
    make.add_argument("--stories", type=int, default=2)
    make.add_argument("--duration", type=float, default=120.0)
    make.add_argument("--snr-db", type=float, default=10.0)
    make.add_argument("--coupling", default="envelope")
    make.add_argument("--noise-color", default="pink", choices=["white", "pink"])
    _add_common(make)
    make.set_defaults(func=cmd_synth_make)

    pre = sub.add_parser("preprocess")
    pre.add_argument("--manifest", type=Path, required=True)
    pre.add_argument("--config", type=Path)
    _add_common(pre)
    pre.set_defaults(func=cmd_preprocess)

    feat = sub.add_parser("featurize")
    feat.add_argument("--manifest", type=Path, required=True)
    feat.add_argument("--features", required=True, help="comma-separated feature names")
    _add_common(feat)
    feat.set_defaults(func=cmd_featurize)

    build = sub.add_parser("build-dataset")
    build.add_argument("--manifest", type=Path, required=True)
    build.add_argument("--feature", required=True)
    build.add_argument("--preproc-config", type=Path)
    _add_common(build)
    build.set_defaults(func=cmd_build_dataset)

    tr = sub.add_parser("train")
    tr.add_argument("--manifest", type=Path, required=True)
    tr.add_argument("--feature", required=True)
    tr.add_argument("--preproc-config", type=Path)
    tr.add_argument("--dtype", default="float32", choices=["float32", "float64"])
    tr.add_argument("--batch-size", type=int, default=64)
    tr.add_argument("--learning-rate", type=float, default=1e-3)
    tr.add_argument("--max-epochs", type=int, default=100)
    tr.add_argument("--patience", type=int, default=5)
    _add_common(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate")
    ev.add_argument("--model", type=Path, required=True)
    ev.add_argument("--manifest", type=Path, required=True)
    ev.add_argument("--feature", required=True)
    ev.add_argument("--preproc-config", type=Path)
    _add_common(ev)
    ev.set_defaults(func=cmd_evaluate)

    stats = sub.add_parser("stats")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    cmp_ = stats_sub.add_parser("compare")
    cmp_.add_argument("--a", type=Path, required=True)
    cmp_.add_argument("--b", type=Path, required=True)
    cmp_.set_defaults(func=cmd_stats_compare)
    violin = stats_sub.add_parser("violin")
    violin.add_argument("--in", dest="indir", type=Path, required=True)
    violin.add_argument("--out", type=Path, required=True)
    violin.set_defaults(func=cmd_stats_violin)

    run = sub.add_parser("run")
    run.add_argument("--config", type=Path, required=True)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", type=Path)
    run.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except EegMatchError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
