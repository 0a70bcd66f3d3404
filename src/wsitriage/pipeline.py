"""End-to-end slide pipeline: segment, tile, adapt, select ROIs, classify
with repeated masked prediction, score; plus parallel corpus execution and
per-stage timing.

Parallelism is per slide; every slide's stochastic stream is seeded from
(global seed, slide_id), so results are a pure function of the inputs and
identical at any worker count or schedule.  Failing slides yield error
records, never abort a corpus run.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import astuple, dataclass

import numpy as np

from .adaptation import AdapterModel, adapt_tiles
from .aggregation import SlideResult, aggregate
from .classifier import NetParams, featurize_tiles, pool
from .config import Config
from .confidence import mc_predict, score
from .manifest import DatasetManifest, SlideRecord, Split, stable_seed
from .parallel import pmap
from .pnm import read_ppm
from . import tiling
from .roi import PixelSegmenter, segment_tiles, select
from .tables import read_table, write_table

TIMINGS_HEADER = "slide_id,segment_ms,tile_ms,adapt_ms,roi_ms,classify_ms,score_ms,total_ms"
RUN_MANIFEST_HEADER = "wsi-triage-run v1"

STAGES = ("segment", "tile", "adapt", "roi", "classify", "score")


@dataclass(frozen=True)
class Models:
    segmenter: PixelSegmenter
    classifier: NetParams | None = None   # not needed for embedding-only use
    adapter: AdapterModel | None = None   # None disables appearance adaptation


@dataclass(frozen=True)
class StageTiming:
    slide_id: str
    segment_ms: float = 0.0
    tile_ms: float = 0.0
    adapt_ms: float = 0.0
    roi_ms: float = 0.0
    classify_ms: float = 0.0
    score_ms: float = 0.0
    total_ms: float = 0.0

    def stage_sum(self) -> float:
        return (self.segment_ms + self.tile_ms + self.adapt_ms
                + self.roi_ms + self.classify_ms + self.score_ms)


class _Timer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def lap_ms(self) -> float:
        now = time.perf_counter()
        ms = (now - self.t0) * 1000.0
        self.t0 = now
        return ms


def select_tiles(raster: np.ndarray, slide_id: str, models: Models, config: Config):
    """Segment, tile, adapt and select ROIs: the one path from a raster to
    the tiles a slide is classified on.  Returns (selection, laps), laps
    being (segment_ms, tile_ms, adapt_ms, roi_ms)."""
    timer = _Timer()
    mask = tiling.segment_tissue(raster, config.tiling)
    segment_ms = timer.lap_ms()
    tiles = tiling.tile(raster, mask, slide_id, config.tiling)
    tile_ms = timer.lap_ms()
    tiles = adapt_tiles(tiles, models.adapter, config.tiling)
    adapt_ms = timer.lap_ms()
    segmaps = segment_tiles(tiles, models.segmenter)
    selection = select(tiles, segmaps, theta=config["roi.theta"])
    return selection, (segment_ms, tile_ms, adapt_ms, timer.lap_ms())


def embed_record(record: SlideRecord, models: Models, config: Config):
    """Slide embedding for training/calibration, or None when no ROI."""
    raster = read_ppm(record.raster_path)
    selection, _ = select_tiles(raster, record.slide_id, models, config)
    if selection.empty:
        return None
    return pool(featurize_tiles(selection.selected, config.tiling))


def run_slide(record: SlideRecord, models: Models, config: Config,
              global_seed: int = 0):
    """Process one slide through all stages; returns (SlideResult, StageTiming).

    An empty ROI selection short-circuits to a no-ROI result with zero
    classify/score time; an unreadable raster becomes an error result.
    The raster read counts in total_ms only.
    """
    total_timer = _Timer()
    try:
        raster = read_ppm(record.raster_path)
    except (OSError, ValueError) as exc:
        result = SlideResult(record.slide_id, record.specimen_id, error=str(exc))
        return result, StageTiming(record.slide_id, total_ms=total_timer.lap_ms())

    selection, laps = select_tiles(raster, record.slide_id, models, config)
    if selection.empty:
        result = SlideResult(record.slide_id, record.specimen_id)
        return result, StageTiming(record.slide_id, *laps, 0.0, 0.0, total_timer.lap_ms())

    timer = _Timer()
    embedding = pool(featurize_tiles(selection.selected, config.tiling))
    matrix = mc_predict(embedding, models.classifier, t=config["confidence.T"],
                        keep_prob=config["confidence.keep_prob"],
                        seed=stable_seed("mc", global_seed, record.slide_id))
    classify_ms = timer.lap_ms()

    conf = score(matrix)
    score_ms = timer.lap_ms()

    result = SlideResult(record.slide_id, record.specimen_id,
                         predicted=conf.argmax_class, score=conf.value,
                         matrix=matrix)
    return result, StageTiming(record.slide_id, *laps, classify_ms, score_ms,
                               total_timer.lap_ms())


@dataclass
class CorpusRun:
    slide_results: list
    timings: list
    specimens: list            # aggregated, unthresholded specimen results
    wall_ms: float
    worker_count: int

    def noroi_slide_ids(self) -> set:
        return {r.slide_id for r in self.slide_results
                if r.error is None and not r.classified}

    def error_slide_ids(self) -> set:
        return {r.slide_id for r in self.slide_results if r.error is not None}

    @property
    def throughput_per_hour(self) -> float:
        """Slides completed without an error per hour of wall time."""
        done = sum(r.error is None for r in self.slide_results)
        if not done or self.wall_ms <= 0:
            return 0.0
        return done / (self.wall_ms / 3_600_000.0)


def _run_one(record, models, config, global_seed):
    try:
        return run_slide(record, models, config, global_seed)
    except Exception as exc:  # per-slide failures never abort the corpus
        result = SlideResult(record.slide_id, record.specimen_id, error=repr(exc))
        return result, StageTiming(record.slide_id)


def run_corpus(manifest: DatasetManifest, models: Models, config: Config,
               workers: int = 1, global_seed: int = 0,
               split: Split | None = None) -> CorpusRun:
    """Run every manifest slide (optionally one split), slides in
    canonical slide_id order, then aggregate per specimen."""
    records = manifest.records if split is None else manifest.records_in(split)
    records = sorted(records, key=lambda r: r.slide_id)

    t0 = time.perf_counter()
    fn = functools.partial(_run_one, models=models, config=config,
                           global_seed=global_seed)
    pairs = pmap(fn, records, workers=workers)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    slide_results = [p[0] for p in pairs]
    timings = [p[1] for p in pairs]

    by_specimen: dict[str, list] = {}
    for r in slide_results:
        by_specimen.setdefault(r.specimen_id, []).append(r)
    specimens = [aggregate(group) for _, group in sorted(by_specimen.items())]
    return CorpusRun(slide_results, timings, specimens, wall_ms, workers)


@dataclass(frozen=True)
class ProfileSummary:
    n_slides: int
    n_errors: int              # Error slides, left out of every statistic
    stage_median_ms: dict      # stage -> (q1, median, q3)
    median_total_ms: float
    median_total_classified_ms: float   # excluding no-ROI slides
    throughput_per_hour: float | None
    wall_ms: float | None


def profile(timings, noroi_slide_ids=(), wall_ms: float | None = None,
            error_slide_ids=()) -> ProfileSummary:
    """Per-stage quartiles and medians, and corpus throughput when the
    wall-clock time of the run is known.  Error slides did not run their
    stages, so they are counted and left out of every statistic."""
    timings = list(timings)
    if not timings:
        raise ValueError("no timings to profile")
    noroi = set(noroi_slide_ids)
    errors = set(error_slide_ids)
    done = [t for t in timings if t.slide_id not in errors]

    def quartiles(values):
        if not values:
            return (float("nan"),) * 3
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        return float(q1), float(q2), float(q3)

    def median(values):
        return float(np.median(values)) if values else float("nan")

    stage_stats = {}
    for stage in STAGES:
        stage_stats[stage] = quartiles([getattr(t, f"{stage}_ms") for t in done])

    classified = [t.total_ms for t in done if t.slide_id not in noroi]
    throughput = None
    if wall_ms is not None and wall_ms > 0:
        throughput = len(done) / (wall_ms / 3_600_000.0)
    return ProfileSummary(
        n_slides=len(timings),
        n_errors=len(timings) - len(done),
        stage_median_ms=stage_stats,
        median_total_ms=median([t.total_ms for t in done]),
        median_total_classified_ms=median(classified),
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
    write_table(path, [TIMINGS_HEADER],
                (astuple(t) for t in sorted(timings, key=lambda t: t.slide_id)))


def load_timings(path):
    return [StageTiming(*row)
            for _, row in read_table(path, [TIMINGS_HEADER], (str,) + (float,) * 7)]


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    run_id: str
    global_seed: int
    worker_count: int
    input_manifest: str
    model_versions: dict       # model name -> content digest
    config_snapshot: str


def build_run_manifest(run_id: str, global_seed: int, workers: int,
                       input_manifest: str, model_paths: dict,
                       config: Config) -> RunManifest:
    versions = {name: _file_digest(p) for name, p in sorted(model_paths.items())}
    return RunManifest(run_id=run_id, global_seed=global_seed,
                       worker_count=workers, input_manifest=str(input_manifest),
                       model_versions=versions, config_snapshot=config.snapshot())


def save_run_manifest(rm: RunManifest, path, wall_ms: float | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RUN_MANIFEST_HEADER + "\n")
        fh.write(f"run_id={rm.run_id}\n")
        fh.write(f"global_seed={rm.global_seed}\n")
        fh.write(f"worker_count={rm.worker_count}\n")
        fh.write(f"input_manifest={rm.input_manifest}\n")
        if wall_ms is not None:
            fh.write(f"wall_ms={wall_ms!r}\n")
        for name, digest in rm.model_versions.items():
            fh.write(f"model.{name}={digest}\n")
        fh.write("[config]\n")
        fh.write(rm.config_snapshot + "\n")
