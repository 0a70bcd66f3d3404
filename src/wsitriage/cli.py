"""Command-line surface: corpus generation, splitting, training, per-lab
calibration, frozen runs, evaluation, and timing profiles.

Exit codes: 0 success, 1 usage/config error, 2 data error (missing or
malformed input files, the offending path named on stderr; a run over no
slide, before any output; a run with any Error slide, after its outputs
are written).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .aggregation import (load_specimen_results, save_class_scores,
                          save_slide_results, save_specimen_results)
from .config import Config, ConfigError, load_config
from .confidence import load_thresholds, save_thresholds
from .evaluation import evaluate, format_report, write_report
from .manifest import (DatasetManifest, Split, build_splits, check_ratios,
                       load_manifest, save_manifest)
from .pipeline import (format_profile, load_models, load_run_manifest,
                       load_timings, model_paths, profile, run_corpus,
                       save_models, save_run_manifest, save_timings)
from .synthesis import check_corpus_size, default_lab_profiles, generate_corpus
from .training import calibrate_lab, calibrate_reference, train_models

USAGE_ERROR = 1
DATA_ERROR = 2


class CliError(Exception):
    def __init__(self, message, code=DATA_ERROR):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, code=USAGE_ERROR)


def _load_config(args) -> Config:
    """The effective config of a command: the --config file (or the
    defaults) with --seed and --workers applied over it."""
    overrides = {key: getattr(args, key) for key in ("seed", "workers")
                 if getattr(args, key) is not None}
    return Config(overrides) if args.config is None else load_config(args.config, overrides)


def cmd_synth(args) -> int:
    try:
        check_corpus_size(args.specimens, (args.slides_min, args.slides_max))
    except ValueError as exc:
        raise CliError(f"bad --specimens/--slides-min/--slides-max value: {exc}",
                       code=USAGE_ERROR) from None
    config = _load_config(args)
    profiles = {p.lab_id: p for p in default_lab_profiles()}
    labs = args.labs.split(",") if args.labs else list(profiles)
    unknown = [lab for lab in labs if lab not in profiles]
    if unknown:
        raise CliError(f"unknown lab profiles: {unknown}", code=USAGE_ERROR)
    repeated = sorted({lab for lab in labs if labs.count(lab) > 1})
    if repeated:
        raise CliError(f"repeated lab profiles: {repeated}", code=USAGE_ERROR)
    out = args.out or os.path.join(config["paths.workdir"], "corpus")
    manifest = generate_corpus(
        n_specimens_per_lab=args.specimens,
        labs=[profiles[lab] for lab in labs],
        slides_per_specimen_range=(args.slides_min, args.slides_max),
        seed=config["seed"],
        out_dir=out,
        workers=config["workers"],
    )
    print(f"wrote {len(manifest.records)} slides for {len(labs)} labs to {out}")
    return 0


def cmd_split(args) -> int:
    try:
        ratios = tuple(float(v) for v in args.ratios.split(","))
        check_ratios(ratios)
        names = tuple(Split(n) for n in args.names.split(","))
    except ValueError as exc:
        raise CliError(f"bad --ratios/--names value: {exc}", code=USAGE_ERROR) from None
    if len(names) != 3:
        raise CliError("need exactly three split names", code=USAGE_ERROR)
    manifest = load_manifest(args.manifest)
    if args.lab is not None:
        records = [r for r in manifest.records if r.lab_id == args.lab]
        if not records:
            raise CliError(f"no records for lab {args.lab!r} in {args.manifest}")
        manifest = DatasetManifest(records=records)
    out = build_splits(manifest, ratios, seed=args.seed, splits=names)
    save_manifest(out, args.out)
    counts = {}
    for split in out.splits.values():
        counts[split.value] = counts.get(split.value, 0) + 1
    print(f"wrote {args.out}: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.manifest)
    trained = train_models(manifest, config, workers=config["workers"])
    trained = dataclasses.replace(trained, thresholds=calibrate_reference(
        manifest, trained, config, workers=config["workers"],
        global_seed=config["seed"]))
    os.makedirs(args.models, exist_ok=True)
    save_models(trained, model_paths(args.models))
    print(f"trained on {trained.n_train_slides} slides; "
          f"training accuracy {trained.train_accuracy:.4f}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.manifest)
    ref_paths = model_paths(args.models)
    del ref_paths["thresholds"]   # the reference thresholds play no part in calibration
    reference = load_models(ref_paths)
    cal = calibrate_lab(manifest, reference, config, workers=config["workers"],
                        global_seed=config["seed"],
                        with_adaptation=not args.no_adaptation)
    paths = model_paths(args.models, cal.lab_id)
    del paths["segmenter"]   # the reference's, shared by every lab
    save_models(cal, paths)
    print(format_report(cal.validation, f"lab {cal.lab_id}: CalibValidation"))
    return 0


def cmd_run(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.manifest)
    paths = model_paths(args.models, args.lab)
    models = load_models(paths)
    try:
        split = Split(args.split) if args.split else None
    except ValueError:
        raise CliError(f"unknown split {args.split!r}", code=USAGE_ERROR) from None
    out = args.out or os.path.join(config["paths.workdir"], "run")

    run = run_corpus(manifest, models, config, workers=config["workers"],
                     global_seed=config["seed"], split=split)

    os.makedirs(out, exist_ok=True)
    save_slide_results(run.slide_results, os.path.join(out, "slide_results.csv"))
    save_specimen_results(run.specimens, models.thresholds,
                          os.path.join(out, "specimen_results.csv"))
    save_class_scores(run.specimens, os.path.join(out, "class_scores.csv"))
    save_timings(run.timings, os.path.join(out, "timings.csv"))
    save_thresholds(models.thresholds, os.path.join(out, "thresholds.txt"))
    save_run_manifest(
        os.path.join(out, "run_manifest.txt"),
        run_id=os.path.basename(os.path.normpath(out)),
        global_seed=config["seed"], workers=config["workers"],
        input_manifest=args.manifest, model_files=paths, config=config,
        wall_ms=run.wall_ms, slide_results=run.slide_results)
    throughput = profile(run.timings, run.wall_ms).throughput_per_hour
    print(f"processed {len(run.slide_results)} slides "
          f"({len(run.specimens)} specimens) in {run.wall_ms:.0f} ms; "
          f"throughput {throughput:.0f} slides/hour")
    errors = [r for r in run.slide_results if r.error is not None]
    if errors:
        raise CliError(f"{len(errors)} of {len(run.slide_results)} slides ended in "
                       f"Error, the first {errors[0].slide_id}: {errors[0].error}")
    return 0


def cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    specimens = load_specimen_results(os.path.join(args.run, "specimen_results.csv"),
                                      os.path.join(args.run, "class_scores.csv"))
    thresholds = load_thresholds(os.path.join(args.run, "thresholds.txt"))
    report = evaluate(specimens, manifest.truth_by_specimen(), thresholds)
    if args.out:
        write_report(report, args.out)
        print(f"wrote report to {args.out}")
    else:
        print(format_report(report))
    return 0


def cmd_profile(args) -> int:
    timings = load_timings(os.path.join(args.run, "timings.csv"))
    run_manifest = load_run_manifest(os.path.join(args.run, "run_manifest.txt"))
    print(format_profile(profile(timings, wall_ms=run_manifest["wall_ms"])))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wsitriage",
                     description="Whole-slide-image triage pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file (defaults documented in README)")
        p.add_argument("--seed", type=int, help="global seed (overrides config)")
        p.add_argument("--workers", type=int, help="worker processes (overrides config)")

    p = sub.add_parser("synth", help="generate a synthetic multi-lab corpus")
    common(p)
    p.add_argument("--out", help="corpus output directory "
                   "(default: <paths.workdir>/corpus)")
    p.add_argument("--labs", help="comma list of built-in lab profiles (default: all)")
    p.add_argument("--specimens", type=int, default=40, help="specimens per lab")
    p.add_argument("--slides-min", type=int, default=1)
    p.add_argument("--slides-max", type=int, default=2)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="assign specimen-grouped splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--lab", help="restrict to one lab's records first")
    p.add_argument("--ratios", default="0.7,0.15,0.15")
    p.add_argument("--names", default="Train,Validation,Test",
                   help="comma list of three split names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="train reference models on the Train split")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True, help="model output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("calibrate", help="fit lab stats, fine-tune, fix thresholds")
    common(p)
    p.add_argument("--manifest", required=True, help="one lab's manifest with calib splits")
    p.add_argument("--models", required=True, help="directory with base models")
    p.add_argument("--no-adaptation", action="store_true",
                   help="skip appearance adaptation for this lab")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("run", help="frozen run over a manifest split")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--lab", help="use this lab's model set (default: the reference set)")
    p.add_argument("--split", help="restrict to one split (e.g. Test)")
    p.add_argument("--out", help="run output directory "
                   "(default: <paths.workdir>/run)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("evaluate", help="selective-classification report for a run")
    p.add_argument("--run", required=True,
                   help="run output directory; its thresholds.txt is applied")
    p.add_argument("--manifest", required=True, help="manifest with ground truth")
    p.add_argument("--out", help="write report files here instead of stdout")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("profile", help="per-stage timing summary for a run")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(fn=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        # a file that cannot be opened or read: missing, a directory, unreadable
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename is not None
              else f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        # malformed input (each reader's error names path:line) and the
        # library's other validation failures are data errors
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
