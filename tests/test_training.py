"""train_models and calibrate_lab: each fitting slide is segmented once and
read an exact number of times, and the model sets equal the stage-by-stage
composition of the public stages."""

import collections
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from wsitriage import pipeline, training
from wsitriage.adaptation import AdapterModel, fit_stats
from wsitriage.classifier import fine_tune, train
from wsitriage.config import Config
from wsitriage.confidence import calibrate_thresholds
from wsitriage.manifest import DatasetManifest, Split, build_splits
from wsitriage.pipeline import Models, embed_record, model_paths, run_corpus, save_models
from wsitriage.roi import train_segmenter
from wsitriage.synthesis import mask_path_for
from wsitriage.tiling import segment_tissue

CALIB_SPLITS = (Split.CALIB_FINETUNE, Split.CALIB_VALIDATION, Split.TEST)
WORKERS = 2   # the forked pools, whose workers inherit the scanned origins


@pytest.fixture(scope="module")
def config():
    return Config()


@pytest.fixture(scope="module")
def lab_manifest(small_corpus):
    """The small corpus split as a lab to calibrate."""
    return build_splits(DatasetManifest(list(small_corpus.records)), (0.5, 0.3, 0.2),
                        seed=2, splits=CALIB_SPLITS)


@dataclass
class Reads:
    """Files read and rasters segmented, by path."""
    files: collections.Counter        # every raster and lesion mask read
    segmented: collections.Counter    # each slide's segment_tissue call


@pytest.fixture
def reads(monkeypatch):
    """Counts every raster read through pipeline.read_ppm, every lesion
    mask read through training's read_pgm, and every segment_tissue call
    of pipeline.slide_tiles, charged to the raster read last (the calls
    run in process)."""
    counts = Reads(collections.Counter(), collections.Counter())
    last = []

    def counting(reader, is_raster):
        def read(path):
            counts.files[path] += 1
            if is_raster:
                last[:] = [path]
            return reader(path)
        return read

    def segment(raster, config):
        counts.segmented[last[0]] += 1
        return segment_tissue(raster, config)

    monkeypatch.setattr(pipeline, "read_ppm", counting(pipeline.read_ppm, True))
    monkeypatch.setattr(training, "read_pgm", counting(training.read_pgm, False))
    monkeypatch.setattr(pipeline.tiling, "segment_tissue", segment)
    return counts


def model_files(models, tmp_path, kinds):
    """The bytes of the model files of models' kinds: equal bytes are equal
    bits, since the files hold every float's repr."""
    paths = {kind: path for kind, path in model_paths(str(tmp_path)).items() if kind in kinds}
    tmp_path.mkdir(exist_ok=True)
    save_models(models, paths)
    return {kind: open(path, "rb").read() for kind, path in paths.items()}


def stagewise_embeddings(records, models, config):
    kept = [(emb, int(rec.truth))
            for rec in sorted(records, key=lambda r: r.slide_id)
            if (emb := embed_record(rec, models, config)) is not None]
    return np.stack([emb for emb, _ in kept]), np.array([label for _, label in kept])


def stagewise_train_models(manifest, config):
    records = manifest.records_in(Split.TRAIN)
    stats = fit_stats(training.sample_tiles(records, config), config.tiling)
    identity = AdapterModel(source=stats, target=stats)
    segmenter = train_segmenter(training.segmenter_pairs(records, identity, config),
                                seed=config["classifier.seed"])
    x, labels = stagewise_embeddings(records, Models(segmenter, adapter=identity), config)
    return Models(segmenter, train(x, labels, config.train), identity)


def stagewise_calibrate_lab(manifest, base, config, with_adaptation):
    records = manifest.records_in(Split.CALIB_FINETUNE)
    ref_stats = base.adapter.target
    lab_stats = (fit_stats(training.sample_tiles(records, config), config.tiling)
                 if with_adaptation else ref_stats)
    adapter = AdapterModel(source=lab_stats, target=ref_stats)
    x, labels = stagewise_embeddings(records, Models(base.segmenter, adapter=adapter), config)
    models = Models(base.segmenter, fine_tune(base.classifier, x, labels, config.train),
                    adapter)
    run = run_corpus(manifest, models, config, split=Split.CALIB_VALIDATION)
    truths = manifest.truth_by_specimen()
    scored = [(s.score, s.predicted == truths[s.specimen_id])
              for s in run.specimens if s.classified]
    thresholds = calibrate_thresholds(scored, targets=config["confidence.targets"])
    return Models(models.segmenter, models.classifier, adapter, thresholds)


def segmenter_slides(records, config, cap):
    """The sample slides the segmenter's first cap tiles come from."""
    taken, out = 0, []
    for rec in records:
        n = len(pipeline.slide_tiles(rec, config))
        if n:
            out.append(rec)
        taken += n
        if taken >= cap:
            break
    return out


# 5 sampled slides leave the later Train and CalibFinetune slides to be read
# where they are embedded; 24 sample every one of them.  The segmenter's
# cap of tiles ends in the sample's third slide, so later sample slides are
# read for the stats and the embeddings alone.
@pytest.mark.parametrize("sample_slides", [5, training.SAMPLE_SLIDES])
class TestReadOnce:
    """Each fitting slide is segmented once, and each raster and lesion
    mask is read an exact number of times."""

    def test_train_models_reads_each_raster_and_mask_once(
            self, small_corpus, config, reads, monkeypatch, sample_slides):
        """A sample raster is read twice (scan, embedding), three times
        when the segmenter's tiles come from it, with its lesion mask once;
        any other Train raster once.  Each is segmented once."""
        records = sorted(small_corpus.records_in(Split.TRAIN), key=lambda r: r.slide_id)
        sample = records[:sample_slides]
        counts = [len(pipeline.slide_tiles(rec, config)) for rec in sample[:3]]
        cap = counts[0] + counts[1] + counts[2] // 2
        pairs = segmenter_slides(sample, config, cap)
        assert len(sample) > len(pairs) == 3
        reads.files.clear()
        reads.segmented.clear()
        monkeypatch.setattr(training, "SAMPLE_SLIDES", sample_slides)
        monkeypatch.setattr(training, "SEGMENTER_MAX_TILES", cap)

        training.train_models(small_corpus, config, workers=1)
        expected = {rec.raster_path: 1 + (rec in sample) + (rec in pairs) for rec in records}
        expected.update((mask_path_for(rec.raster_path), 1) for rec in pairs)
        assert dict(reads.files) == expected
        assert dict(reads.segmented) == {rec.raster_path: 1 for rec in records}

    def test_calibrate_lab_reads_each_raster_once(
            self, lab_manifest, small_models, config, reads, monkeypatch, sample_slides):
        """A CalibFinetune sample raster is read twice; any other
        CalibFinetune raster and every CalibValidation raster once.  Each
        is segmented once, and no lesion mask is read."""
        monkeypatch.setattr(training, "SAMPLE_SLIDES", sample_slides)
        training.calibrate_lab(lab_manifest, small_models, config, workers=1)
        finetune = sorted(lab_manifest.records_in(Split.CALIB_FINETUNE),
                          key=lambda r: r.slide_id)
        fitted = finetune + lab_manifest.records_in(Split.CALIB_VALIDATION)
        sample = finetune[:sample_slides]
        assert len(finetune) > 5
        assert dict(reads.files) == {rec.raster_path: 1 + (rec in sample) for rec in fitted}
        assert dict(reads.segmented) == {rec.raster_path: 1 for rec in fitted}


def test_calibrate_lab_holds_no_sample_stack(lab_manifest, small_models, config):
    """In process (workers=1), calibrate_lab's traced peak stays below the
    size of its CalibFinetune sample's pixel stack: the scan keeps each
    slide's tile origins and code runs, never the sample's pixels."""
    records = sorted(lab_manifest.records_in(Split.CALIB_FINETUNE), key=lambda r: r.slide_id)
    stack = sum(pipeline.slide_tiles(rec, config).pixels.nbytes
                for rec in records[:training.SAMPLE_SLIDES])
    tracemalloc.start()
    try:
        training.calibrate_lab(lab_manifest, small_models, config, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack, (peak, stack)


class TestStagewise:
    @pytest.mark.parametrize("sample_slides", [5, training.SAMPLE_SLIDES])
    def test_train_models_is_the_stage_composition(self, small_corpus, config, tmp_path,
                                                   monkeypatch, sample_slides):
        monkeypatch.setattr(training, "SAMPLE_SLIDES", sample_slides)
        kinds = ("adapter", "segmenter", "classifier")
        got = training.train_models(small_corpus, config, workers=WORKERS)
        expected = stagewise_train_models(small_corpus, config)
        assert (model_files(got, tmp_path / "got", kinds)
                == model_files(expected, tmp_path / "expected", kinds))

    @pytest.mark.parametrize("with_adaptation", [True, False])
    def test_calibrate_lab_is_the_stage_composition(self, lab_manifest, small_models,
                                                    config, tmp_path, with_adaptation):
        kinds = ("adapter", "segmenter", "classifier", "thresholds")
        got = training.calibrate_lab(lab_manifest, small_models, config, workers=WORKERS,
                                     with_adaptation=with_adaptation)
        expected = stagewise_calibrate_lab(lab_manifest, small_models, config,
                                           with_adaptation)
        assert (model_files(got, tmp_path / "got", kinds)
                == model_files(expected, tmp_path / "expected", kinds))
