import numpy as np
import pytest

from wsitriage.adaptation import (AdapterModel, adapt, adapt_tiles,
                                  fit_stats, from_decorrelated, load_adapter,
                                  save_adapter, to_decorrelated)
from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import default_lab_profiles, generate_slide, identity_profile
from wsitriage.tiling import Tile, segment_tissue, tile


def tiles_for(profile, seed, label=ClassLabel.BASALOID):
    slide = generate_slide(label, profile, seed)
    mask = segment_tissue(slide.raster)
    return tile(slide.raster, mask, "s")


@pytest.fixture(scope="module")
def reference_tiles():
    return tiles_for(identity_profile(noise_sigma=1.0), 42)


@pytest.fixture(scope="module")
def shifted_profile():
    # artifact-free so the shifted batch draws the same content as the
    # reference batch (artifacts would legitimately change tissue stats)
    lab = default_lab_profiles()[2]
    return type(lab)(lab.lab_id, lab.color_matrix, lab.color_offset,
                     lab.noise_sigma, {})


@pytest.fixture(scope="module")
def shifted_tiles(shifted_profile):
    return tiles_for(shifted_profile, 42)


class TestColorSpace:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        rgb = rng.integers(5, 251, size=(50, 3)).astype(np.float64)
        back = from_decorrelated(to_decorrelated(rgb))
        assert np.allclose(back, rgb, atol=1e-6)


class TestFitStats:
    def test_uniform_tile_floors_std(self):
        pixels = np.full((128, 128, 3), 120, dtype=np.uint8)
        stats = fit_stats([pixels])
        assert np.all(stats.std == 1e-6)
        expected = to_decorrelated(np.array([[120.0, 120.0, 120.0]]))[0]
        assert np.allclose(stats.mean, expected, atol=1e-12)

    def test_matches_two_pass_recomputation(self, reference_tiles):
        stats = fit_stats(reference_tiles)
        pixels = np.concatenate([
            t.pixels[segment_tissue(t.pixels)] for t in reference_tiles])
        vals = to_decorrelated(pixels)
        mean = vals.sum(axis=0) / len(vals)
        var = ((vals - mean) ** 2).sum(axis=0) / len(vals)
        assert np.allclose(stats.mean, mean, atol=1e-9)
        assert np.allclose(stats.std, np.sqrt(var), atol=1e-9)

    def test_disjoint_samples_agree(self):
        profile = identity_profile(noise_sigma=1.0)
        a = fit_stats(tiles_for(profile, 1))
        b = fit_stats(tiles_for(profile, 2))
        assert np.all(np.abs(a.std - b.std) <= 0.02 * np.abs(a.std) + 1e-4)
        assert np.all(np.abs(a.mean - b.mean) <= 0.02 * np.abs(a.mean) + 0.02 * a.std)

    def test_lab_shift_detected(self, reference_tiles, shifted_tiles):
        ref = fit_stats(reference_tiles)
        lab = fit_stats(shifted_tiles)
        assert np.any(np.abs(ref.mean - lab.mean) > 1e-3)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_stats([])


class TestAdapt:
    def test_identity_is_bit_exact(self, reference_tiles):
        stats = fit_stats(reference_tiles)
        model = AdapterModel(stats, stats)
        out = adapt(reference_tiles[0], model)
        assert np.array_equal(out.pixels, reference_tiles[0].pixels)

    def test_shifted_batch_means_match_target(self, reference_tiles, shifted_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles),
                             target=fit_stats(reference_tiles))
        adapted = adapt_tiles(shifted_tiles, model)

        def tissue_means(tiles):
            pixels = np.concatenate([t.pixels[segment_tissue(t.pixels)]
                                     for t in tiles]).astype(np.float64)
            return pixels.mean(axis=0)

        target = tissue_means(reference_tiles)
        got = tissue_means(adapted)
        assert np.all(np.abs(got - target) <= 1.5)

    def test_all_black_tile_finite(self, reference_tiles, shifted_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles),
                             target=fit_stats(reference_tiles))
        black = Tile("s", (0, 0), np.zeros((128, 128, 3), dtype=np.uint8), 1.0)
        out = adapt(black, model)
        assert out.pixels.dtype == np.uint8  # clamped, no overflow or NaN

    def test_idempotent_after_refit(self, reference_tiles, shifted_tiles):
        target = fit_stats(reference_tiles)
        once = adapt_tiles(shifted_tiles, AdapterModel(fit_stats(shifted_tiles), target))
        twice = adapt_tiles(once, AdapterModel(fit_stats(once), target))
        for a, b in zip(once, twice):
            diff = np.abs(a.pixels.astype(np.float64) - b.pixels.astype(np.float64))
            assert diff.mean(axis=(0, 1)).max() <= 1.0

    def test_preserves_shape_and_metadata(self, shifted_tiles, reference_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles),
                             target=fit_stats(reference_tiles))
        t = shifted_tiles[0]
        out = adapt(t, model)
        assert out.pixels.shape == (128, 128, 3)
        assert out.origin == t.origin
        assert out.tissue_fraction == t.tissue_fraction

    def test_batch_matches_single(self, shifted_tiles, reference_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles),
                             target=fit_stats(reference_tiles))
        batch = adapt_tiles(shifted_tiles[:4], model)
        for t, b in zip(shifted_tiles[:4], batch):
            assert np.array_equal(adapt(t, model).pixels, b.pixels)


class TestPersistence:
    def test_round_trip(self, tmp_path, reference_tiles, shifted_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles),
                             target=fit_stats(reference_tiles))
        path = tmp_path / "m.adapter"
        save_adapter(model, path)
        loaded = load_adapter(path)
        assert loaded == model

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.adapter"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_adapter(path)
