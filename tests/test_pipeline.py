from dataclasses import replace

import numpy as np
import pytest

from wsitriage.adaptation import (AdapterModel, DomainStats, adapt_pixels, adapt_tiles,
                                  fit_stats)
from wsitriage.classifier import featurize_tiles, pool
from wsitriage.config import Config
from wsitriage.manifest import (ClassLabel, DatasetManifest, SlideRecord, Split,
                                load_manifest, save_manifest)
from wsitriage import pipeline
from wsitriage.pipeline import (Models, StageTiming, embed_record, format_profile,
                                load_run_manifest, load_timings, profile, run_corpus,
                                run_slide, save_run_manifest, save_timings)
from wsitriage.pnm import write_ppm
from wsitriage.roi import N_PIXEL_FEATURES, PixelSegmenter, segment_tiles, select
from wsitriage import tiling
from wsitriage.synthesis import (default_lab_profiles, generate_corpus, generate_slide,
                                 identity_profile)
from wsitriage.tables import TableError


@pytest.fixture(scope="module")
def config():
    return Config()


def results_equal(a, b):
    if (a.slide_id, a.specimen_id, a.predicted, a.score, a.error) != \
            (b.slide_id, b.specimen_id, b.predicted, b.score, b.error):
        return False
    if (a.matrix is None) != (b.matrix is None):
        return False
    return a.matrix is None or np.array_equal(a.matrix, b.matrix)


class TestRunSlide:
    def test_blank_slide_noroi_with_zero_classify_time(self, tmp_path,
                                                       small_models, config):
        profile_blank = identity_profile(artifact_rates={"blank": 1.0})
        slide = generate_slide(ClassLabel.OTHER, profile_blank, 1)
        path = str(tmp_path / "blank.ppm")
        write_ppm(path, slide.raster)
        record = SlideRecord("blank", "sp", "reference", ClassLabel.OTHER, path)
        result, timing = run_slide(record, small_models, config, 0)
        assert not result.classified
        assert result.error is None
        assert timing.outcome == "NoROI"
        assert timing.n_roi_tiles == 0
        assert timing.featurize_ms == 0.0
        assert timing.classify_ms == 0.0
        assert timing.score_ms == 0.0

    def test_lesion_slide_classified_correctly(self, tmp_path, small_models,
                                               config):
        slide = generate_slide(ClassLabel.BASALOID,
                               identity_profile(noise_sigma=1.0), 33)
        path = str(tmp_path / "bas.ppm")
        write_ppm(path, slide.raster)
        record = SlideRecord("bas", "sp", "reference", ClassLabel.BASALOID, path)
        result, timing = run_slide(record, small_models, config, 0)
        assert result.classified
        assert result.predicted is ClassLabel.BASALOID
        assert result.matrix.shape == (30, 4)
        assert timing.total_ms > 0
        assert timing.outcome == "Classified"
        assert timing.read_ms > 0 and timing.featurize_ms > 0
        assert 0 < timing.n_roi_tiles <= timing.n_tiles
        assert timing.stage_sum() <= timing.total_ms * 1.05

    def test_corpus_runs_from_another_working_directory(self, tmp_path, monkeypatch,
                                                         small_models, config):
        monkeypatch.chdir(tmp_path)
        generate_corpus(1, [default_lab_profiles()[0]], slides_per_specimen_range=(1, 1),
                        seed=3, out_dir="corpus")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        record = load_manifest(tmp_path / "corpus" / "manifest.txt").records[0]
        result, _ = run_slide(record, small_models, config, 0)
        assert result.error is None

    def test_relative_raster_path_from_another_working_directory(
            self, tmp_path, monkeypatch, small_models, config):
        data = tmp_path / "data"
        data.mkdir()
        write_ppm(str(data / "s.ppm"), generate_slide(
            ClassLabel.BASALOID, identity_profile(noise_sigma=1.0), 33).raster)
        save_manifest(DatasetManifest([SlideRecord("s", "sp", "reference",
                                                   ClassLabel.BASALOID, "s.ppm")]),
                      data / "rel.manifest")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        record = load_manifest("../data/rel.manifest").records[0]
        assert record.raster_path == str(data / "s.ppm")
        result, _ = run_slide(record, small_models, config, 0)
        assert result.error is None and result.classified

    def test_unreadable_raster_becomes_error_result(self, small_models, config):
        record = SlideRecord("gone", "sp", "reference", ClassLabel.OTHER,
                             "/nonexistent/path.ppm")
        result, timing = run_slide(record, small_models, config, 0)
        assert result.error.startswith("FileNotFoundError: ")
        assert "/nonexistent/path.ppm" in result.error
        assert not result.classified
        assert timing.slide_id == "gone"
        assert timing.outcome == "Error"

    def test_error_after_read_same_from_run_slide_and_run_corpus(
            self, small_corpus, small_models, config, monkeypatch):
        def boom(planes, model):
            raise RuntimeError("segmenter failed, on purpose")
        # the ROI stage's per-block call
        monkeypatch.setattr(pipeline, "positive_fractions", boom)
        records = sorted(small_corpus.records, key=lambda r: r.slide_id)[:2]
        alone = [run_slide(record, small_models, config, 0) for record in records]
        for result, timing in alone:
            assert result.error == "RuntimeError: segmenter failed, on purpose"
            assert timing.outcome == "Error"
            assert timing.read_ms > 0 and timing.featurize_ms == 0.0
            # every lap finished before the failure is kept
            assert timing.segment_ms > 0 and timing.tile_ms > 0 and timing.adapt_ms > 0
            assert timing.roi_ms == 0.0
        from wsitriage.manifest import DatasetManifest
        run = run_corpus(DatasetManifest(records=records), small_models, config,
                         workers=2)
        for (result, _), pooled in zip(alone, run.slide_results):
            assert results_equal(pooled, result)
        assert [t.outcome for t in run.timings] == ["Error", "Error"]

    def test_deterministic_given_seed(self, tmp_path, small_models, config):
        slide = generate_slide(ClassLabel.MELANOCYTIC,
                               identity_profile(noise_sigma=1.0), 5)
        path = str(tmp_path / "mel.ppm")
        write_ppm(path, slide.raster)
        record = SlideRecord("mel", "sp", "reference", ClassLabel.MELANOCYTIC, path)
        a, _ = run_slide(record, small_models, config, 42)
        b, _ = run_slide(record, small_models, config, 42)
        c, _ = run_slide(record, small_models, config, 43)
        assert results_equal(a, b)
        assert not np.array_equal(a.matrix, c.matrix)   # seed matters


def constant_segmenter(bias):
    """A segmenter whose every logit is bias: every tile is selected for a
    positive bias, none for a negative one."""
    return PixelSegmenter(weights=np.zeros(N_PIXEL_FEATURES), bias=bias,
                          feat_mean=np.zeros(N_PIXEL_FEATURES),
                          feat_std=np.ones(N_PIXEL_FEATURES))


@pytest.fixture(scope="module")
def lab_a_records(tmp_path_factory):
    """Three lab_a slides on disk: Basaloid, Melanocytic and Other."""
    out = tmp_path_factory.mktemp("lab-a")
    lab_a = {p.lab_id: p for p in default_lab_profiles()}["lab_a"]
    records = []
    for i, label in enumerate([ClassLabel.BASALOID, ClassLabel.MELANOCYTIC,
                               ClassLabel.OTHER]):
        path = str(out / f"s{i}.ppm")
        write_ppm(path, generate_slide(label, lab_a, 40 + i).raster)
        records.append(SlideRecord(f"s{i}", f"sp{i}", "lab_a", label, path))
    return records


# each slide of a manifest run from a model directory's reference files
# but thresholds: slide_id, outcome and the SHA-256 of its score and
# matrix bytes
SLIDE_RESULTS_DIGEST = """
import hashlib
import numpy as np
from wsitriage.config import Config
from wsitriage.manifest import load_manifest
from wsitriage.pipeline import load_models, model_paths, run_slide
paths = model_paths({models!r})
del paths["thresholds"]
models = load_models(paths)
for record in load_manifest({manifest!r}).records:
    result, _ = run_slide(record, models, Config(), 3)
    digest = hashlib.sha256(np.float64(result.score).tobytes() + result.matrix.tobytes())
    print(record.slide_id, result.outcome, digest.hexdigest() if result.classified else "")
"""


def test_slide_results_same_bytes_on_every_blas_kernel(
        tmp_path, lab_a_records, small_models, run_under_blas_kernel, blas_kernels):
    """From fixed model files, with an adapter that moves lab_a's colours,
    each slide's score and repetition matrix have the same bytes under
    every OpenBLAS kernel (OPENBLAS_CORETYPE): no stage of a slide calls
    BLAS."""
    tiles = pipeline.slide_tiles(lab_a_records[0], Config())
    adapter = AdapterModel(fit_stats(tiles.pixels), small_models.adapter.target)
    paths = pipeline.model_paths(tmp_path)
    del paths["thresholds"]
    pipeline.save_models(replace(small_models, adapter=adapter), paths)
    manifest = tmp_path / "manifest.txt"
    save_manifest(DatasetManifest(lab_a_records), manifest)
    code = SLIDE_RESULTS_DIGEST.format(models=str(tmp_path), manifest=str(manifest))
    # Sandybridge runs on AVX, which every CPU with Haswell's AVX2 has
    kernels = blas_kernels + ["Sandybridge"] * ("Haswell" in blas_kernels)
    digests = {kernel: run_under_blas_kernel(code, kernel) for kernel in kernels}
    assert len(set(digests.values())) == 1, digests
    assert digests[None].count("Classified") >= 2


class TestEmbedRecord:
    # bias None is the trained segmenter; full and partial say whether some
    # block has all of its tiles selected and some block only part of them
    @pytest.mark.parametrize("tile_px, bias, full, partial", [
        (128, None, True, True), (32, None, False, True),
        (128, -1.0, False, False), (128, 1.0, True, False)],
        ids=["default", "tile-32", "none-selected", "all-selected"])
    def test_bitwise_the_stage_by_stage_embedding(self, lab_a_records, small_models,
                                                  tile_px, bias, full, partial):
        """The one block pass gives what segment_tiles, select, featurize_tiles
        and pool give one after the other, bit for bit."""
        config = Config({"tiling.tile_px": tile_px})
        segmenter = small_models.segmenter if bias is None else constant_segmenter(bias)
        ref = small_models.adapter.target
        full_blocks = partial_blocks = 0
        for record in lab_a_records:
            tiles = pipeline.slide_tiles(record, config)
            models = Models(segmenter, small_models.classifier,
                            AdapterModel(fit_stats(tiles.pixels, config.tiling), ref))
            tiles = adapt_tiles(tiles, models.adapter, config.tiling)
            fractions = segment_tiles(tiles, segmenter)
            selection = select(tiles, fractions, theta=config["roi.theta"])
            embedding = embed_record(record, models, config)
            _, timing = run_slide(record, models, config)
            assert (timing.n_tiles, timing.n_roi_tiles) == (len(tiles), len(selection))
            if selection.empty:
                assert embedding is None
            else:
                expected = pool(featurize_tiles(selection.selected, config.tiling))
                assert embedding.tobytes() == expected.tobytes()
            for rows in tiling.blocks(tiles.pixels):
                kept = fractions[rows] >= config["roi.theta"]
                full_blocks += kept.all()
                partial_blocks += kept.any() and not kept.all()
        assert (bool(full_blocks), bool(partial_blocks)) == (full, partial)

    def test_adapts_over_configured_tissue_mask(self, tmp_path):
        config = Config({"tiling.s_min": 0.2, "tiling.l_max": 0.7})
        lab_a = {p.lab_id: p for p in default_lab_profiles()}["lab_a"]
        raster = generate_slide(ClassLabel.BASALOID, lab_a, 21).raster
        path = str(tmp_path / "s.ppm")
        write_ppm(path, raster)
        record = SlideRecord("s", "sp", "lab_a", ClassLabel.BASALOID, path)
        mask = tiling.segment_tissue(raster, config.tiling)
        tiles = tiling.tile(raster, mask, "s", config.tiling)
        source = fit_stats(tiles.pixels, config.tiling)
        adapter = AdapterModel(source, DomainStats(source.mean + [0.05, -0.03, 0.02],
                                                   source.std * 1.2))
        # every pixel scores positive, so every tile is selected
        embedding = embed_record(record, Models(constant_segmenter(1.0), adapter=adapter),
                                 config)

        def embed(pixels):
            return pool(featurize_tiles(replace(tiles, pixels=pixels), config.tiling))

        expected = adapt_pixels(tiles.pixels, adapter, config.tiling)
        default_mask = adapt_pixels(tiles.pixels, adapter)
        assert not np.array_equal(embed(expected), embed(default_mask))
        assert np.array_equal(embedding, embed(expected))


class TestRunCorpus:
    def test_worker_counts_bit_identical(self, small_corpus, small_models,
                                         config):
        runs = [run_corpus(small_corpus, small_models, config, workers=w,
                           global_seed=7) for w in (1, 2)]
        for a, b in zip(runs[0].slide_results, runs[1].slide_results):
            assert results_equal(a, b)

    def test_every_slide_exactly_once_ordered(self, small_corpus,
                                              small_models, config):
        run = run_corpus(small_corpus, small_models, config, workers=2,
                         global_seed=7)
        ids = [r.slide_id for r in run.slide_results]
        assert ids == sorted(r.slide_id for r in small_corpus.records)
        assert len(set(ids)) == len(small_corpus.records)

    def test_split_filter(self, small_corpus, small_models, config):
        run = run_corpus(small_corpus, small_models, config, workers=1,
                         global_seed=7, split=Split.TEST)
        expected = {r.slide_id for r in small_corpus.records_in(Split.TEST)}
        assert {r.slide_id for r in run.slide_results} == expected

    def test_split_without_a_slide_rejected(self, small_corpus, small_models, config):
        with pytest.raises(ValueError, match="no slide of the manifest is in split "
                           "CalibValidation"):
            run_corpus(small_corpus, small_models, config, split=Split.CALIB_VALIDATION)

    def test_empty_manifest(self, small_models, config):
        for split in (None, Split.TEST):
            with pytest.raises(ValueError, match="^the manifest holds no slide$"):
                run_corpus(DatasetManifest(records=[]), small_models, config,
                           workers=1, split=split)

    def test_throughput_counts_no_error_slides(self, tmp_path, small_models, config):
        from wsitriage.manifest import DatasetManifest
        missing = SlideRecord("gone", "sp", "reference", ClassLabel.OTHER,
                              str(tmp_path / "missing.ppm"))
        run = run_corpus(DatasetManifest(records=[missing]), small_models, config,
                         workers=1)
        assert run.slide_results[0].error is not None
        assert profile(run.timings, run.wall_ms).throughput_per_hour == 0.0

    def test_specimen_aggregation_present(self, small_corpus, small_models,
                                          config):
        run = run_corpus(small_corpus, small_models, config, workers=2,
                         global_seed=7)
        assert len(run.specimens) == len({r.specimen_id for r in small_corpus.records})

    def test_failed_slide_recorded_not_fatal(self, small_corpus,
                                             small_models, config, tmp_path):
        from wsitriage.manifest import DatasetManifest
        records = list(small_corpus.records[:3])
        records.append(SlideRecord("zz-missing", "zz", "reference",
                                   ClassLabel.OTHER, "/missing.ppm"))
        manifest = DatasetManifest(records=records)
        run = run_corpus(manifest, small_models, config, workers=2)
        by_id = {r.slide_id: r for r in run.slide_results}
        assert by_id["zz-missing"].error is not None
        assert len(run.slide_results) == 4
        assert {t.slide_id for t in run.timings if t.outcome == "Error"} == {"zz-missing"}


class TestProfile:
    def test_single_timing(self):
        t = StageTiming("a", "Classified", 3, 2, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5, 0.5, 6.0, 22.0)
        summary = profile([t])
        assert summary.median_total_ms == 22.0
        assert summary.stage_median_ms["segment"][1] == 1.0
        assert summary.stage_median_ms["featurize"][1] == 4.5

    def test_median_of_three(self):
        timings = [StageTiming(f"s{i}", "Classified", total_ms=v)
                   for i, v in enumerate((10.0, 20.0, 30.0))]
        assert profile(timings).median_total_ms == 20.0

    def test_throughput_from_wall_clock(self):
        timings = [StageTiming(f"s{i}", "Classified", total_ms=10.0) for i in range(10)]
        summary = profile(timings, wall_ms=2000.0)
        assert summary.throughput_per_hour == pytest.approx(10 / (2.0 / 3600.0))

    def test_noroi_exclusion(self):
        timings = [StageTiming("a", "NoROI", total_ms=10.0),
                   StageTiming("b", "Classified", total_ms=100.0),
                   StageTiming("c", "Classified", total_ms=200.0)]
        summary = profile(timings)
        assert summary.median_total_classified_ms == 150.0
        assert summary.median_total_ms == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profile([])

    def test_error_slides_left_out_and_counted(self):
        timings = [StageTiming("err", "Error", read_ms=0.4, total_ms=0.5),
                   StageTiming("b", "Classified", 9, 4, 0.5, 10.0, 1.0, 30.0, 20.0,
                               4.0, 1.0, 0.1, 70.0),
                   StageTiming("c", "Classified", 9, 5, 0.5, 20.0, 1.0, 40.0, 30.0,
                               4.0, 1.0, 0.1, 100.0)]
        summary = profile(timings, wall_ms=3600.0)
        assert summary.n_slides == 3
        assert summary.n_errors == 1
        assert summary.stage_median_ms["adapt"] == (32.5, 35.0, 37.5)
        assert summary.stage_median_ms["read"] == (0.5, 0.5, 0.5)
        assert summary.median_total_ms == 85.0
        assert summary.median_total_classified_ms == 85.0
        assert summary.throughput_per_hour == pytest.approx(2000.0)
        assert "slides: 3 (Error: 1, left out below)" in format_profile(summary)

    def test_noroi_and_error_rows_left_out_from_saved_timings(self, tmp_path):
        path = tmp_path / "timings.csv"
        save_timings([StageTiming("a", "Classified", 9, 3, total_ms=40.0),
                      StageTiming("b", "NoROI", 6, 0, total_ms=10.0),
                      StageTiming("c", "Error", total_ms=1.0),
                      StageTiming("d", "Classified", 9, 4, total_ms=60.0)], path)
        summary = profile(load_timings(path))
        assert (summary.n_slides, summary.n_errors) == (4, 1)
        assert summary.median_total_ms == 40.0
        assert summary.median_total_classified_ms == 50.0

    @pytest.mark.filterwarnings("error")
    def test_only_error_slides(self):
        summary = profile([StageTiming("err", "Error")])
        assert summary.n_errors == 1
        assert np.isnan(summary.median_total_ms)
        assert all(np.isnan(v) for q in summary.stage_median_ms.values() for v in q)

    def test_stage_sums_bounded_by_total(self, small_corpus, small_models,
                                         config):
        run = run_corpus(small_corpus, small_models, config, workers=1,
                         global_seed=3)
        for t in run.timings:
            assert t.stage_sum() <= t.total_ms * 1.05

    def test_timings_round_trip(self, tmp_path):
        timings = [StageTiming("a", "Classified", 12, 3, 0.5, 1.5, 2.5, 3.5, 4.5,
                               5.0, 0.5, 6.5, 25.0),
                   StageTiming("b", "Error", total_ms=1.0)]
        path = tmp_path / "t.csv"
        save_timings(timings, path)
        loaded = load_timings(path)
        assert loaded == sorted(timings, key=lambda t: t.slide_id)

    def test_malformed_timings_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        save_timings([StageTiming("a", "NoROI", total_ms=1.0)], path)
        with open(path, "a") as fh:
            fh.write("b,1.0,2.0\n")
        with pytest.raises(ValueError, match=f"{path}:4:"):
            load_timings(path)

    def test_unknown_outcome_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        save_timings([StageTiming("a", "NoROI", total_ms=1.0)], path)
        path.write_text(path.read_text().replace("NoROI", "Skipped"))
        with pytest.raises(ValueError, match=f"{path}:3: outcome must be one of"):
            load_timings(path)

    def test_v1_timings_rejected_at_line_1(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("slide_id,segment_ms,tile_ms,adapt_ms,roi_ms,classify_ms,"
                        "score_ms,total_ms\na,1.0,1.0,1.0,1.0,1.0,1.0,6.0\n")
        with pytest.raises(TableError, match=f"{path}:1: expected 'wsi-triage-timings v2'"):
            load_timings(path)


class TestRunManifest:
    def test_save_and_load(self, tmp_path, config, monkeypatch):
        model_path = tmp_path / "model.txt"
        model_path.write_text("stub\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run_manifest.txt"
        run_id = 'run,1 "a"\nb'   # survives CSV quoting
        timings = [StageTiming("a", "Classified", read_ms=4.0), StageTiming("b", "NoROI"),
                   StageTiming("c", "NoROI", read_ms=2.0), StageTiming("d", "Error")]
        save_run_manifest(out, run_id, 7, 4, "manifest.txt",
                          {"classifier": str(model_path)}, config, wall_ms=123.0,
                          timings=timings)
        fields = load_run_manifest(out)
        assert fields["run_id"] == run_id
        assert (fields["global_seed"], fields["worker_count"]) == (7, 4)
        assert fields["wall_ms"] == 123.0
        assert [fields[f"slides_{o}"] for o in ("classified", "noroi", "error")] == [1, 2, 1]
        assert (fields["read_ms_p50"], fields["roi_ms_p50"]) == (2.0, 0.0)
        assert fields["input_manifest"] == str(tmp_path / "manifest.txt")
        assert len(fields["model.classifier"]) == 16
        assert fields["config.confidence.T"] == "30"
        assert fields["config.confidence.targets"] == "0.9,0.95,0.98"

    def test_v1_run_manifest_rejected_at_line_1(self, tmp_path):
        out = tmp_path / "run_manifest.txt"
        out.write_text("wsi-triage-run v1\nrun_id=r\nwall_ms=1.0\n")
        with pytest.raises(TableError, match=f"{out}:1:"):
            load_run_manifest(out)

    @pytest.mark.parametrize("edit, error", [
        (lambda t: t.replace("wall_ms,1.0", "wall_ms,fast"), ":7: could not convert"),
        (lambda t: t + "global_seed,3\n", r":\d+: repeated key 'global_seed'"),
        (lambda t: t.replace("wall_ms,1.0\n", ""), r": missing keys \['wall_ms'\]"),
    ])
    def test_malformed_run_manifest_names_path(self, tmp_path, config, edit, error):
        out = tmp_path / "run_manifest.txt"
        save_run_manifest(out, "r", 0, 1, "m.txt", {}, config, wall_ms=1.0,
                          timings=[StageTiming("a", "Classified")])
        out.write_text(edit(out.read_text()))
        with pytest.raises(TableError, match=f"{out}{error}"):
            load_run_manifest(out)
