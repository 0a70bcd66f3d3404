"""Model fitting and per-lab calibration on top of the slide pipeline.

Development fits everything on the reference lab's training split: domain
statistics, the ROI segmenter (on the generator's ground-truth masks), and
the slide classifier.  Calibrating an additional lab fits that lab's
color statistics, fine-tunes the classifier on the lab's calibration
slides, and fixes the lab's confidence thresholds on its held-out
calibration validation specimens; after that everything is frozen for a
single test run.

train_models and calibrate_lab each return a run-ready model set (a
pipeline.Models that run_corpus takes as it is), the set a lab's model
files hold; train_models leaves its thresholds to calibrate_reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .adaptation import AdapterModel, DomainStats, adapt_tiles, fit_stats
from .classifier import N_FEATURES, accuracy, fine_tune, train
from .config import Config
from .confidence import ThresholdSet, calibrate_thresholds
from .evaluation import EvalReport, evaluate
from .manifest import DatasetManifest, Split
from .parallel import pmap
from .pipeline import Models, embed_record, run_corpus, slide_tiles
from .pnm import read_pgm
from .roi import train_segmenter
from .synthesis import mask_path_for


def collect_embeddings(records, models: Models, config: Config, workers: int = 1):
    """Embeddings and labels for every record with a non-empty ROI selection."""
    records = sorted(records, key=lambda r: r.slide_id)
    fn = functools.partial(embed_record, models=models, config=config)
    embeddings = pmap(fn, records, workers=workers)
    kept = [(emb, int(rec.truth)) for rec, emb in zip(records, embeddings)
            if emb is not None]
    x = np.stack([emb for emb, _ in kept]) if kept else np.empty((0, N_FEATURES))
    return x, np.array([label for _, label in kept], dtype=int)


SAMPLE_SLIDES = 24
SEGMENTER_MAX_TILES = 600


def _tissue_tiles(records, config: Config):
    """(record, its unadapted tissue Tiles) for the first SAMPLE_SLIDES
    records in slide_id order."""
    for rec in sorted(records, key=lambda r: r.slide_id)[:SAMPLE_SLIDES]:
        yield rec, slide_tiles(rec, config)


def sample_tiles(records, config: Config) -> np.ndarray:
    """One (N, tile_px, tile_px, 3) stack of the unadapted tissue tiles of
    a deterministic sample of slides."""
    return np.concatenate([tiles.pixels for _, tiles in _tissue_tiles(records, config)])


def segmenter_pairs(records, adapter: AdapterModel | None, config: Config):
    """Up to SEGMENTER_MAX_TILES (adapted tile pixels, ground-truth lesion
    mask) training pairs."""
    pairs = []
    side = config.tiling.tile_px
    for rec, tiles in _tissue_tiles(records, config):
        lesion = read_pgm(mask_path_for(rec.raster_path)) > 0
        tiles = adapt_tiles(tiles[:SEGMENTER_MAX_TILES - len(pairs)], adapter,
                            config.tiling)
        for (y, x), pixels in zip(tiles.origins, tiles.pixels):
            pairs.append((pixels, lesion[y:y + side, x:x + side]))
        if len(pairs) >= SEGMENTER_MAX_TILES:
            break
    return pairs


@dataclass(frozen=True, kw_only=True)
class TrainedModels(Models):
    """The reference lab's run-ready model set, with the identity adapter
    over the reference stats, and how well it fits its training slides."""
    train_accuracy: float
    n_train_slides: int

    @property
    def reference_stats(self) -> DomainStats:
        return self.adapter.target


def train_models(manifest: DatasetManifest, config: Config,
                 workers: int = 1) -> TrainedModels:
    """Fit reference stats, ROI segmenter, and the base classifier on the
    manifest's training split."""
    train_records = manifest.records_in(Split.TRAIN)
    if not train_records:
        raise ValueError("manifest has no Train split records")

    ref_stats = fit_stats(sample_tiles(train_records, config), config.tiling)
    identity = AdapterModel(source=ref_stats, target=ref_stats)

    pairs = segmenter_pairs(train_records, identity, config)
    segmenter = train_segmenter(pairs, seed=config["classifier.seed"])

    embed_models = Models(segmenter=segmenter, adapter=identity)
    x, labels = collect_embeddings(train_records, embed_models, config, workers)
    if len(x) == 0:
        raise ValueError("no training slide produced an ROI selection")
    params = train(x, labels, config.train)
    return TrainedModels(segmenter=segmenter, classifier=params, adapter=identity,
                         train_accuracy=accuracy(params, x, labels),
                         n_train_slides=len(x))


def _fit_thresholds(manifest: DatasetManifest, models: Models, split: Split,
                    config: Config, workers: int, global_seed: int):
    """Run split with models and fix the confidence thresholds on its scored
    specimens; returns (thresholds, the split's report at those thresholds)."""
    run = run_corpus(manifest, models, config, workers=workers,
                     global_seed=global_seed, split=split)
    truths = manifest.truth_by_specimen()
    scored = tuple((s.score, s.predicted == truths[s.specimen_id])
                   for s in run.specimens if s.classified)
    if not scored:
        raise ValueError(f"no {split.value} specimen of {manifest.lab_ids()} was scored")
    thresholds = calibrate_thresholds(scored, targets=config["confidence.targets"])
    return thresholds, evaluate(run.specimens, truths, thresholds)


def calibrate_reference(manifest: DatasetManifest, trained: Models,
                        config: Config, workers: int = 1,
                        global_seed: int = 0) -> ThresholdSet:
    """Fix confidence thresholds on the reference validation split."""
    return _fit_thresholds(manifest, trained, Split.VALIDATION, config, workers,
                           global_seed)[0]


@dataclass(frozen=True, kw_only=True)
class LabCalibration(Models):
    """A calibrated lab's run-ready model set: the reference segmenter, the
    lab's adapter (the identity without adaptation) and fine-tuned
    classifier, and the thresholds fixed on its CalibValidation specimens."""
    lab_id: str
    validation: EvalReport          # the CalibValidation split at these thresholds


def calibrate_lab(lab_manifest: DatasetManifest, base: Models,
                  config: Config, workers: int = 1, global_seed: int = 0,
                  with_adaptation: bool = True) -> LabCalibration:
    """Fit lab stats, fine-tune the classifier, and fix confidence
    thresholds, using only the lab's calibration splits.  base is the
    reference set, whose adapter's target is the reference stats."""
    lab_ids = lab_manifest.lab_ids()
    if len(lab_ids) != 1:
        raise ValueError(f"calibration manifest must cover one lab, got {lab_ids}")
    lab_id = lab_ids[0]

    cf_records = lab_manifest.records_in(Split.CALIB_FINETUNE)
    if not cf_records or not lab_manifest.records_in(Split.CALIB_VALIDATION):
        raise ValueError(f"lab {lab_id!r} needs CalibFinetune and CalibValidation splits")

    ref_stats = base.adapter.target
    lab_stats = (fit_stats(sample_tiles(cf_records, config), config.tiling)
                 if with_adaptation else ref_stats)
    adapter = AdapterModel(source=lab_stats, target=ref_stats)

    embed_models = Models(segmenter=base.segmenter, adapter=adapter)
    x, labels = collect_embeddings(cf_records, embed_models, config, workers)
    if len(x) == 0:
        raise ValueError(f"lab {lab_id!r}: no fine-tuning slide produced an ROI")
    tuned = fine_tune(base.classifier, x, labels, config.train)

    thresholds, validation = _fit_thresholds(
        lab_manifest, Models(base.segmenter, tuned, adapter), Split.CALIB_VALIDATION,
        config, workers, global_seed)
    return LabCalibration(segmenter=base.segmenter, classifier=tuned, adapter=adapter,
                          lab_id=lab_id, thresholds=thresholds, validation=validation)
