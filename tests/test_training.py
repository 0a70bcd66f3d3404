"""train_models and calibrate_lab: each fitting slide is read once, and the
model sets equal the stage-by-stage composition of the public stages."""

import collections

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

CALIB_SPLITS = (Split.CALIB_FINETUNE, Split.CALIB_VALIDATION, Split.TEST)
WORKERS = 2   # the forked pool, whose workers inherit the cut sample


@pytest.fixture(scope="module")
def config():
    return Config()


@pytest.fixture(scope="module")
def lab_manifest(small_corpus):
    """The small corpus split as a lab to calibrate."""
    return build_splits(DatasetManifest(list(small_corpus.records)), (0.5, 0.3, 0.2),
                        seed=2, splits=CALIB_SPLITS)


@pytest.fixture
def reads(monkeypatch):
    """Paths read, by path: every raster through pipeline.slide_tiles and
    every lesion mask through the segmenter pairs."""
    counts = collections.Counter()

    def counting(reader):
        def read(path):
            counts[path] += 1
            return reader(path)
        return read

    monkeypatch.setattr(pipeline, "read_ppm", counting(pipeline.read_ppm))
    monkeypatch.setattr(training, "read_pgm", counting(training.read_pgm))
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


# 5 sampled slides leave the later Train and CalibFinetune slides to be read
# where they are embedded; 24 sample every one of them
@pytest.mark.parametrize("sample_slides", [5, training.SAMPLE_SLIDES])
class TestReadOnce:
    def test_train_models_reads_each_raster_and_mask_once(
            self, small_corpus, config, reads, monkeypatch, sample_slides):
        monkeypatch.setattr(training, "SAMPLE_SLIDES", sample_slides)
        training.train_models(small_corpus, config, workers=1)
        records = sorted(small_corpus.records_in(Split.TRAIN), key=lambda r: r.slide_id)
        rasters = {rec.raster_path for rec in records}
        masks = {mask_path_for(rec.raster_path) for rec in records[:sample_slides]}
        masks_read = {path: n for path, n in reads.items() if path not in rasters}
        assert {path: reads[path] for path in rasters} == dict.fromkeys(rasters, 1)
        assert masks_read and set(masks_read) <= masks
        assert set(masks_read.values()) == {1}

    def test_calibrate_lab_reads_each_raster_once(
            self, lab_manifest, small_models, config, reads, monkeypatch, sample_slides):
        monkeypatch.setattr(training, "SAMPLE_SLIDES", sample_slides)
        training.calibrate_lab(lab_manifest, small_models, config, workers=1)
        fitted = (lab_manifest.records_in(Split.CALIB_FINETUNE)
                  + lab_manifest.records_in(Split.CALIB_VALIDATION))
        rasters = {rec.raster_path for rec in fitted}
        assert dict(reads) == dict.fromkeys(rasters, 1)


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
