"""Command-line entry point orchestrating the pipeline stages."""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from . import pipeline
from .checkpoint import load_checkpoint
from .errors import EegMatchError, InvalidInputError, refused_as
from .features import canonical_parts
from .stats import compare, violin
from .synth import write_synth_dataset
from .training import evaluate_per_subject, read_subject_results, write_subject_results

logger = logging.getLogger("eegmatch")


def _experiment(path: Path):
    """The experiment in ``path``, its dataset manifest and an asset loader over it."""
    spec = pipeline.load_experiment(path)
    manifest = pipeline.load_manifest(spec.manifest)
    return spec, manifest, spec.loader(manifest)


def _accuracies(path: Path) -> dict[str, float]:
    """Each subject's test accuracy in the results CSV at ``path``."""
    return {r.subject_id: r.test_accuracy for r in read_subject_results(path)}


def cmd_synth_make(args) -> int:
    """A synthetic dataset in ``--out``; what it cannot make is refused before ``--out`` is made."""
    for flag, value in (("--subjects", args.subjects), ("--stories", args.stories)):
        if value < 1:
            raise InvalidInputError(f"{flag} must be at least 1, got {value}")
    if not args.duration > 0:
        raise InvalidInputError(f"--duration must be positive, got {args.duration}")
    if math.isnan(args.snr_db):
        raise InvalidInputError("--snr-db must be a number or +-inf, got nan")
    with refused_as("--coupling"):
        canonical_parts(args.coupling)
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
    """Fill the experiment's preprocessing cache, as ``run`` would."""
    spec, manifest, loader = _experiment(args.config)
    for entry in manifest.recordings:
        out = pipeline.preprocess_recording_cached(
            entry, spec.preproc_config, spec.out_dir / pipeline.PREPROC_CACHE, loader.file_hash
        )
        print(f"{entry.recording_id}: {out.n_channels}x{out.n_samples} @ {out.fs} Hz")
    return 0


def cmd_featurize(args) -> int:
    """Fill the experiment's feature cache, as ``run`` would."""
    spec, manifest, loader = _experiment(args.config)
    for name in spec.features:
        for story_id in sorted(manifest.stories):
            feat = loader.feature_cached(story_id, name, spec.out_dir / pipeline.FEATURE_CACHE,
                                         spec.preproc_config)
            print(f"{story_id}/{name}: {feat.n_channels}x{feat.n_samples}")
    return 0


def cmd_train(args) -> int:
    """One cell of a ``run``, written where ``run`` writes it."""
    print(pipeline.run_feature_cell(*_experiment(args.config), args.feature))
    return 0


def cmd_evaluate(args) -> int:
    """Score ``--manifest``'s triples (:func:`pipeline.scoring_set`) with the model's cell."""
    spec, trained_eeg = pipeline.trained_cell(args.model, args.manifest)
    feature = spec.features[0]
    params = load_checkpoint(args.model)
    scored = pipeline.scoring_set(spec, trained_eeg, params.config.eeg_channels)
    results = evaluate_per_subject(params, scored, feature_name=feature)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{pipeline.feature_slug(feature)}.csv"
    write_subject_results(path, results)
    for r in results:
        print(f"{r.subject_id}: {r.test_accuracy:.3f} over {r.n_windows} windows")
    return 0


def cmd_stats_compare(args) -> int:
    res = compare(_accuracies(args.a), _accuracies(args.b))
    print(f"z={res.z:.4f} p={res.p:.6g} n_effective={res.n_effective}")
    return 0


def cmd_stats_violin(args) -> int:
    """``run``'s figure of the results CSVs in ``--in``; refused if none holds 2 subjects."""
    path = violin(args.out, {p.stem: _accuracies(p) for p in sorted(args.indir.glob("*.csv"))})
    if path is None:
        raise InvalidInputError(f"{args.indir}: no results CSV scored on 2 or more subjects")
    print(path)
    return 0


def cmd_run(args) -> int:
    print(pipeline.run_pipeline(pipeline.load_experiment(args.config)))
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
    make.add_argument("--seed", type=int, default=0)
    make.add_argument("--out", type=Path, required=True)
    make.set_defaults(func=cmd_synth_make)

    pre = sub.add_parser("preprocess")
    pre.add_argument("--config", type=Path, required=True)
    pre.set_defaults(func=cmd_preprocess)

    feat = sub.add_parser("featurize")
    feat.add_argument("--config", type=Path, required=True)
    feat.set_defaults(func=cmd_featurize)

    tr = sub.add_parser("train")
    tr.add_argument("--config", type=Path, required=True)
    tr.add_argument("--feature", required=True)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate")
    ev.add_argument("--model", type=Path, required=True)
    ev.add_argument("--manifest", type=Path, required=True)
    ev.add_argument("--out", type=Path, required=True)
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
