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

Both fit from the first SAMPLE_SLIDES fitting slides in slide_id order in
three steps, and no process holds a stack of the sample's pixels:
- scan: a pool pass reads, segments and tiles each sample slide and
  keeps two small things of it, its tiles' origins and their pixels'
  (count, code) runs (adaptation.chunk_runs);
- fit: the parent merges the runs into the stats (adaptation.merge_runs,
  the merge fit_stats makes of its chunks), and gathers the segmenter's
  pairs by reading again only the slides their tiles come from;
- embed: the embedding pool reads each sample slide again and gathers its
  tiles at its origins, so no slide is segmented twice; a fitting slide
  outside the sample is read and cut where it is embedded.
So a sample raster is read twice and a segmenter slide three times, each
through pipeline.slide_tiles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .adaptation import AdapterModel, DomainStats, adapt_tiles, chunk_runs, merge_runs
from .classifier import N_FEATURES, accuracy, fine_tune, train
from .config import Config
from .confidence import ThresholdSet, calibrate_thresholds
from .evaluation import EvalReport, evaluate
from .manifest import DatasetManifest, Split
from .parallel import pmap
from .pipeline import Models, embed_tiles, run_corpus, slide_tiles
from .pnm import read_pgm
from .roi import train_segmenter
from .synthesis import mask_path_for
from .tiling import cells


SAMPLE_SLIDES = 24
SEGMENTER_MAX_TILES = 600


def _sample(records) -> list:
    """The first SAMPLE_SLIDES records in slide_id order."""
    return sorted(records, key=lambda r: r.slide_id)[:SAMPLE_SLIDES]


def _scan(record, config: Config):
    """A sample slide read, segmented and tiled: the origins of its tissue
    tiles and their pixels' (count, code) runs, all that is kept of it."""
    tiles = slide_tiles(record, config)
    return tiles.origins, chunk_runs(tiles.pixels.reshape(-1, 3))


def _fit_sample(records, config: Config, workers: int):
    """Scan the sample's slides in a pool and merge their runs: (record ->
    its tiles' origins, in slide_id order; the stats of the sample's
    tissue pixels)."""
    sample = _sample(records)
    scanned = pmap(functools.partial(_scan, config=config), sample, workers=workers)
    stats = merge_runs((runs for _, slide_runs in scanned for runs in slide_runs),
                       config.tiling)
    return {rec: origins for rec, (origins, _) in zip(sample, scanned)}, stats


def sample_tiles(records, config: Config) -> np.ndarray:
    """One (N, tile_px, tile_px, 3) stack of the unadapted tissue tiles of
    a deterministic sample of slides."""
    return np.concatenate([slide_tiles(rec, config).pixels for rec in _sample(records)])


def segmenter_pairs(records, adapter: AdapterModel | None, config: Config):
    """One (adapted tiles, ground-truth lesion masks) pair of stacks per
    slide, up to SEGMENTER_MAX_TILES tiles in all, empty for a blank slide."""
    return _pairs({rec: slide_tiles(rec, config).origins for rec in _sample(records)},
                  adapter, config)


def _pairs(origins: dict, adapter: AdapterModel | None, config: Config):
    """segmenter_pairs of the scanned slides (record -> its tiles'
    origins).  Only the slides the pairs' tiles come from are read again,
    each raster gathered at its origins and each lesion mask read once."""
    t = config.tiling.tile_px
    pairs, n_tiles = [], 0
    for rec, kept in origins.items():
        kept = kept[:SEGMENTER_MAX_TILES - n_tiles]
        if len(kept):
            tiles = adapt_tiles(slide_tiles(rec, config, origins=kept), adapter, config.tiling)
            lesion = read_pgm(mask_path_for(rec.raster_path)) > 0
            pairs.append((tiles.pixels, cells(lesion, kept, t)))
        else:   # a blank slide: nothing to read
            pairs.append((np.empty((0, t, t, 3), np.uint8), np.empty((0, t, t), bool)))
        n_tiles += len(kept)
        if n_tiles >= SEGMENTER_MAX_TILES:
            break
    return pairs


def _embedding(origins: dict, record, models: Models, config: Config):
    """The record's embedding: a scanned record's tiles gathered at its
    origins, any other record's cut from its raster."""
    return embed_tiles(slide_tiles(record, config, origins=origins.get(record)),
                       models, config)


def _embeddings(records, origins: dict, models: Models, config: Config, workers: int):
    """Embeddings and labels for every record with a non-empty ROI
    selection.  The pool forks, so its workers inherit the scanned
    origins without pickling them."""
    records = sorted(records, key=lambda r: r.slide_id)
    fn = functools.partial(_embedding, origins, models=models, config=config)
    embeddings = pmap(fn, records, workers=workers)
    kept = [(emb, int(rec.truth)) for rec, emb in zip(records, embeddings)
            if emb is not None]
    x = np.stack([emb for emb, _ in kept]) if kept else np.empty((0, N_FEATURES))
    return x, np.array([label for _, label in kept], dtype=int)


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

    origins, ref_stats = _fit_sample(train_records, config, workers)
    identity = AdapterModel(source=ref_stats, target=ref_stats)
    segmenter = train_segmenter(_pairs(origins, identity, config),
                                seed=config["classifier.seed"])

    embed_models = Models(segmenter=segmenter, adapter=identity)
    x, labels = _embeddings(train_records, origins, embed_models, config, workers)
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
    origins, lab_stats = (_fit_sample(cf_records, config, workers) if with_adaptation
                          else ({}, ref_stats))
    adapter = AdapterModel(source=lab_stats, target=ref_stats)

    embed_models = Models(segmenter=base.segmenter, adapter=adapter)
    x, labels = _embeddings(cf_records, origins, embed_models, config, workers)
    if len(x) == 0:
        raise ValueError(f"lab {lab_id!r}: no fine-tuning slide produced an ROI")
    tuned = fine_tune(base.classifier, x, labels, config.train)

    thresholds, validation = _fit_thresholds(
        lab_manifest, Models(base.segmenter, tuned, adapter), Split.CALIB_VALIDATION,
        config, workers, global_seed)
    return LabCalibration(segmenter=base.segmenter, classifier=tuned, adapter=adapter,
                          lab_id=lab_id, thresholds=thresholds, validation=validation)
