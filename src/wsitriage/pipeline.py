"""End-to-end slide pipeline: segment, tile, adapt, select ROIs, classify
with repeated masked prediction, score; plus parallel corpus execution and
a per-slide record of outcome, tile counts and stage times.

Parallelism is per slide; every slide's stochastic stream is seeded from
(global seed, slide_id), so results are identical at any worker count or
schedule.  No stage of a slide calls BLAS: adapt's 3x3 colour products,
the ROI logit and classify's 64 -> 32 -> 4 products add their terms in
index order (tiling.ordered_sum), so from fixed model files the results
have the same bits on any OpenBLAS kernel.  Training and the corpus
generator's colour product still call BLAS, so model files and rasters
made under another kernel can differ in their last bits.  Failing slides
yield error records, never abort a corpus run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time
from collections import Counter
from dataclasses import astuple, dataclass
from typing import get_type_hints

import numpy as np

from .adaptation import AdapterModel, adapt_tiles, load_adapter, save_adapter
from .aggregation import SLIDE_OUTCOMES, SlideResult, aggregate
from .classifier import NetParams, block_features, load_params, pool, save_params
from .config import Config
from .confidence import (ThresholdSet, load_thresholds, mc_predict, save_thresholds,
                         score)
from .manifest import DatasetManifest, SlideRecord, Split, stable_seed
from .parallel import host_facts, pmap
from .pnm import read_ppm
from . import tiling
from .roi import PixelSegmenter, load_segmenter, positive_fractions, save_segmenter
from .tables import TableError, at_least, finite, read_table, write_table

RUN_MANIFEST_HEAD = ("wsi-triage-run v2", "key,value")


@dataclass(frozen=True)
class Models:
    """One lab's model set, frozen for a run: its four fields are the lab's
    four model files (model_paths, load_models, save_models).  train_models
    and calibrate_lab return it run-ready, as the subclasses TrainedModels
    and LabCalibration."""
    segmenter: PixelSegmenter
    classifier: NetParams | None = None   # not needed for embedding-only use
    adapter: AdapterModel | None = None   # None disables appearance adaptation
    thresholds: ThresholdSet | None = None   # a-priori confidence-level thresholds


# the loader and saver of the model file of each Models field
_MODEL_FILES = {"adapter": (load_adapter, save_adapter),
                "segmenter": (load_segmenter, save_segmenter),
                "classifier": (load_params, save_params),
                "thresholds": (load_thresholds, save_thresholds)}


def model_paths(models_dir, lab=None) -> dict:
    """The four files of one lab's model set, by Models field; lab None is
    the reference set."""
    prefix = "reference" if lab is None else lab
    names = {
        "adapter": f"{prefix}.adapter",
        "segmenter": "segmenter.txt",
        "classifier": "classifier.txt" if lab is None else f"{lab}.classifier.txt",
        "thresholds": f"{prefix}.thresholds",
    }
    return {kind: os.path.join(models_dir, name) for kind, name in names.items()}


def load_models(paths) -> Models:
    """The model set in the files of paths (Models field -> path); a field
    left out of paths is None."""
    return Models(**{kind: _MODEL_FILES[kind][0](path) for kind, path in paths.items()})


def save_models(models: Models, paths) -> None:
    """Write the model files of paths; the inverse of load_models."""
    for kind, path in paths.items():
        _MODEL_FILES[kind][1](getattr(models, kind), path)


@dataclass(frozen=True)
class StageTiming:
    """One slide's record of a run, a row of timings.csv: its outcome
    (Classified, NoROI or Error), its tile counts and the milliseconds of
    each stage, every <stage>_ms field but total_ms, in run order."""
    slide_id: str
    outcome: str
    n_tiles: int = 0          # tissue tiles
    n_roi_tiles: int = 0      # tiles selected as region of interest
    read_ms: float = 0.0
    segment_ms: float = 0.0
    tile_ms: float = 0.0
    adapt_ms: float = 0.0
    roi_ms: float = 0.0
    featurize_ms: float = 0.0   # featurize and pool
    classify_ms: float = 0.0    # the repeated masked predictions
    score_ms: float = 0.0
    total_ms: float = 0.0       # the whole slide, read included

    def stage_sum(self) -> float:
        return sum(getattr(self, f"{stage}_ms") for stage in STAGES)


_TIMING_FIELDS = get_type_hints(StageTiming)
STAGES = tuple(name[:-3] for name in _TIMING_FIELDS
               if name.endswith("_ms") and name != "total_ms")
TIMINGS_HEAD = ("wsi-triage-timings v2", ",".join(_TIMING_FIELDS))


def _outcome(text):
    if text not in SLIDE_OUTCOMES:
        raise ValueError(f"outcome must be one of {SLIDE_OUTCOMES}, got {text!r}")
    return text


class _Laps(dict):
    """StageTiming fields by name: lap(stage) adds the milliseconds since
    the previous lap (or since creation) to <stage>_ms."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self._add(stage, now - self.t0)
        self.t0 = now

    @contextlib.contextmanager
    def aside(self, stage: str):
        """Add the time of the enclosed work to <stage>_ms and leave it out
        of the lap it interrupts."""
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        self._add(stage, seconds)
        self.t0 += seconds

    def _add(self, stage: str, seconds: float) -> None:
        key = f"{stage}_ms"
        self[key] = self.get(key, 0.0) + seconds * 1000.0


def slide_tiles(record: SlideRecord, config: Config, laps: _Laps | None = None):
    """Read, segment and tile: the unadapted tissue Tiles of a slide, and
    the one place a slide raster is read.  Each stage's lap goes into laps
    when given."""
    laps = _Laps() if laps is None else laps
    raster = read_ppm(record.raster_path)
    laps.lap("read")
    mask = tiling.segment_tissue(raster, config.tiling)
    laps.lap("segment")
    tiles = tiling.tile(raster, mask, record.slide_id, config.tiling)
    laps.lap("tile")
    return tiles


def embed_record(record: SlideRecord, models: Models, config: Config,
                 laps: _Laps | None = None):
    """The slide's embedding, or None when no tile is selected: read,
    segment, tile, adapt, select ROIs, featurize and pool, the one path
    from a SlideRecord to its embedding.  Each stage's lap and the tile
    counts go into laps when given."""
    laps = _Laps() if laps is None else laps
    return embed_tiles(slide_tiles(record, config, laps), models, config, laps)


def embed_tiles(tiles: tiling.Tiles, models: Models, config: Config,
                laps: _Laps | None = None):
    """The embedding of a slide's unadapted tissue Tiles, or None when no
    tile is selected: adapt, select ROIs, featurize and pool.  Each
    stage's lap and the tile counts go into laps when given.

    The adapted tiles are taken once, a block at a time (tiling.blocks):
    the block's pixel_planes give its positive fractions, and the same
    planes give the features of the tiles select would keep.  The
    embedding is bitwise pool(featurize_tiles(select(tiles,
    segment_tiles(tiles, ...)).selected)); the features' share of each
    block counts as featurize time, the rest as roi."""
    laps = _Laps() if laps is None else laps
    pixels = adapt_tiles(tiles, models.adapter, config.tiling).pixels
    laps.lap("adapt")
    theta, features = config["roi.theta"], []
    for rows in tiling.blocks(pixels):
        block = pixels[rows]
        planes = tiling.pixel_planes(block)
        keep = positive_fractions(planes, models.segmenter) >= theta   # select's rule
        if keep.any():
            with laps.aside("featurize"):
                features.append(block_features(
                    block[keep], planes.saturation[keep], planes.luma[keep],
                    planes.grad[keep], config.tiling))
    laps.lap("roi")
    n_roi_tiles = sum(len(f) for f in features)
    laps.update(n_tiles=len(pixels), n_roi_tiles=n_roi_tiles)
    if not n_roi_tiles:
        return None
    embedding = pool(np.concatenate(features))
    laps.lap("featurize")
    return embedding


def run_slide(record: SlideRecord, models: Models, config: Config,
              global_seed: int = 0):
    """Process one slide through all stages, embed_record's then classify
    and score; returns (SlideResult, StageTiming).

    A slide with no selected tile ends as a no-ROI result with zero
    featurize, classify and score time.  Any exception ends it as an error
    result, its text `Type: message`, whose record keeps every lap
    finished before it.
    """
    laps = _Laps()
    start = laps.t0
    try:
        embedding = embed_record(record, models, config, laps)
        result = SlideResult(record.slide_id, record.specimen_id)
        if embedding is not None:
            matrix = mc_predict(embedding, models.classifier, t=config["confidence.T"],
                                keep_prob=config["confidence.keep_prob"],
                                seed=stable_seed("mc", global_seed, record.slide_id))
            laps.lap("classify")
            conf = score(matrix)
            laps.lap("score")
            result = SlideResult(record.slide_id, record.specimen_id,
                                 predicted=conf.argmax_class, score=conf.value,
                                 matrix=matrix)
    except Exception as exc:  # per-slide failures never abort the corpus
        result = SlideResult(record.slide_id, record.specimen_id,
                             error=f"{type(exc).__name__}: {exc}")
    laps["total_ms"] = (time.perf_counter() - start) * 1000.0
    return result, StageTiming(record.slide_id, result.outcome, **laps)


@dataclass
class CorpusRun:
    slide_results: list
    timings: list
    specimens: list            # aggregated, unthresholded specimen results
    wall_ms: float


def run_corpus(manifest: DatasetManifest, models: Models, config: Config,
               workers: int = 1, global_seed: int = 0,
               split: Split | None = None) -> CorpusRun:
    """Run every manifest slide (optionally one split), slides in canonical
    slide_id order, then aggregate per specimen; a manifest or split that
    holds no slide is rejected."""
    if not manifest.records:
        raise ValueError("the manifest holds no slide")
    records = manifest.records if split is None else manifest.records_in(split)
    if not records:
        raise ValueError(f"no slide of the manifest is in split {split.value}")
    records = sorted(records, key=lambda r: r.slide_id)

    t0 = time.perf_counter()
    fn = functools.partial(run_slide, models=models, config=config,
                           global_seed=global_seed)
    pairs = pmap(fn, records, workers=workers)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    slide_results = [p[0] for p in pairs]
    timings = [p[1] for p in pairs]

    by_specimen: dict[str, list] = {}
    for r in slide_results:
        by_specimen.setdefault(r.specimen_id, []).append(r)
    specimens = [aggregate(group) for _, group in sorted(by_specimen.items())]
    return CorpusRun(slide_results, timings, specimens, wall_ms)


@dataclass(frozen=True)
class ProfileSummary:
    n_slides: int
    n_errors: int              # Error slides, left out of every statistic
    stage_median_ms: dict      # stage -> (q1, median, q3)
    median_total_ms: float
    median_total_classified_ms: float   # excluding no-ROI slides
    throughput_per_hour: float | None
    wall_ms: float | None


def profile(timings, wall_ms: float | None = None) -> ProfileSummary:
    """Per-stage quartiles and medians, and corpus throughput when the
    wall-clock time of the run is known.  Error slides did not run their
    stages, so they are counted and left out of every statistic."""
    timings = list(timings)
    if not timings:
        raise ValueError("no timings to profile")
    done = [t for t in timings if t.outcome != "Error"]

    def quartiles(values):
        if not values:
            return (float("nan"),) * 3
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        return float(q1), float(q2), float(q3)

    classified = [t.total_ms for t in done if t.outcome == "Classified"]
    throughput = None
    if wall_ms is not None and wall_ms > 0:
        throughput = len(done) / (wall_ms / 3_600_000.0)
    return ProfileSummary(
        n_slides=len(timings),
        n_errors=len(timings) - len(done),
        stage_median_ms={stage: quartiles([getattr(t, f"{stage}_ms") for t in done])
                         for stage in STAGES},
        median_total_ms=quartiles([t.total_ms for t in done])[1],
        median_total_classified_ms=quartiles(classified)[1],
        throughput_per_hour=throughput,
        wall_ms=wall_ms,
    )


def format_profile(summary: ProfileSummary) -> str:
    lines = [f"slides: {summary.n_slides} (Error: {summary.n_errors}, left out below)"]
    lines.append("stage      q1_ms      median_ms  q3_ms")
    for stage, (q1, q2, q3) in summary.stage_median_ms.items():
        lines.append(f"{stage:<10} {q1:<10.2f} {q2:<10.2f} {q3:.2f}")
    lines.append(f"median total (no Error):          {summary.median_total_ms:.2f} ms")
    lines.append(f"median total (excluding no-ROI):  {summary.median_total_classified_ms:.2f} ms")
    if summary.wall_ms is not None:
        lines.append(f"wall clock: {summary.wall_ms:.1f} ms")
    if summary.throughput_per_hour is not None:
        lines.append(f"throughput: {summary.throughput_per_hour:.1f} slides/hour")
    return "\n".join(lines)


def save_timings(timings, path) -> None:
    write_table(path, TIMINGS_HEAD,
                (astuple(t) for t in sorted(timings, key=lambda t: t.slide_id)))


def load_timings(path):
    columns = [_outcome if name == "outcome" else finite if convert is float else convert
               for name, convert in _TIMING_FIELDS.items()]
    return [StageTiming(*row) for _, row in read_table(path, TIMINGS_HEAD, columns)]


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# the typed fields of a run manifest; model.<kind> and config.<key> rows
# are text
_RUN_FIELDS = {"run_id": str, "global_seed": int, "worker_count": at_least(1),
               "input_manifest": str, "wall_ms": finite}


def save_run_manifest(path, run_id: str, global_seed: int, workers: int,
                      input_manifest, model_files: dict, config: Config,
                      wall_ms: float, slide_results) -> None:
    """What a run used and did: its seed, worker count, input manifest
    (absolute), its wall time, how many of its slide results end in each
    outcome (slides_classified, slides_noroi, slides_error), the host's
    facts (parallel.host_facts), a digest of each model file and every
    config value."""
    outcomes = Counter(r.outcome for r in slide_results)
    rows = [("run_id", run_id), ("global_seed", global_seed),
            ("worker_count", workers),
            ("input_manifest", os.path.abspath(input_manifest)),
            ("wall_ms", float(wall_ms)),
            *((f"slides_{o.lower()}", outcomes[o]) for o in SLIDE_OUTCOMES), *host_facts()]
    rows += [(f"model.{kind}", _file_digest(p)) for kind, p in sorted(model_files.items())]
    rows += config.snapshot()
    write_table(path, RUN_MANIFEST_HEAD, rows)


def load_run_manifest(path) -> dict:
    """key -> value of a run manifest written by save_run_manifest."""
    fields = {}
    for lineno, (key, value) in read_table(path, RUN_MANIFEST_HEAD, (str, str)):
        try:
            fields[key] = _RUN_FIELDS.get(key, str)(value)
        except ValueError as exc:
            raise TableError(f"{path}:{lineno}: {exc}") from None
    missing = [key for key in _RUN_FIELDS if key not in fields]
    if missing:
        raise TableError(f"{path}: missing keys {missing}")
    return fields
