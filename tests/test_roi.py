import numpy as np
import pytest
from scipy import ndimage

from wsitriage.manifest import ClassLabel
from wsitriage.pnm import read_pgm, read_ppm
from wsitriage.roi import (load_segmenter, pixel_features, save_segmenter,
                           segment_tiles, select, train_segmenter)
from wsitriage.synthesis import default_lab_profiles, generate_slide, mask_path_for
from wsitriage.tiling import BLOCK_PX, Tiles, segment_tissue, tile


def blank_tiles(n):
    """n black tiles along one row of a slide."""
    return Tiles("s", np.array([(0, 128 * i) for i in range(n)]).reshape(n, 2),
                 np.zeros((n, 128, 128, 3), dtype=np.uint8))


@pytest.fixture(scope="module")
def lesion_tiles(small_corpus, small_models):
    """The tiles of one training slide of the shared corpus, and each
    tile's truth mask."""
    rec = sorted(small_corpus.records, key=lambda r: r.slide_id)[0]
    raster = read_ppm(rec.raster_path)
    lesion = read_pgm(mask_path_for(rec.raster_path)) > 0
    tiles = tile(raster, segment_tissue(raster), rec.slide_id)
    return tiles, [lesion[y:y + 128, x:x + 128] for y, x in tiles.origins]


def reference_pixel_features(pixels):
    """pixel_features written out plane by plane, each channel converted
    from uint8 on its own: the formula the one-cast version must match."""
    f32 = np.float32
    r, g, b = (pixels[..., c].astype(f32) / f32(255.0) for c in range(3))
    r8, g8, b8 = (pixels[..., c].astype(f32) for c in range(3))
    mx = np.maximum(np.maximum(r8, g8), b8)
    mn = np.minimum(np.minimum(r8, g8), b8)
    saturation = (mx - mn) / np.maximum(mx, f32(1e-12))
    luma = f32(0.299) * r8 + f32(0.587) * g8 + f32(0.114) * b8
    luma /= f32(255.0)
    grad = np.hypot(np.gradient(luma, axis=-2), np.gradient(luma, axis=-1))
    size = (1,) * (luma.ndim - 2) + (5, 5)
    m = ndimage.uniform_filter(luma, size=size, mode="nearest")
    m2 = ndimage.uniform_filter(luma * luma, size=size, mode="nearest")
    local_std = np.sqrt(np.maximum(m2 - m * m, f32(0.0)))
    return np.stack([r, g, b, saturation, f32(1.0) - luma, grad, local_std], axis=-1)


class TestPixelFeatures:
    def test_random_stack_bitwise(self):
        pixels = np.random.default_rng(5).integers(0, 256, size=(34, 32, 32, 3),
                                                   dtype=np.uint8)
        assert np.array_equal(pixel_features(pixels), reference_pixel_features(pixels))

    def test_lab_a_stack_bitwise(self):
        lab_a = next(p for p in default_lab_profiles() if p.lab_id == "lab_a")
        raster = generate_slide(ClassLabel.BASALOID, lab_a, 7).raster
        pixels = tile(raster, segment_tissue(raster), "s").pixels
        assert len(pixels) > 1
        assert np.array_equal(pixel_features(pixels), reference_pixel_features(pixels))


class TestSegment:
    def test_background_tile_all_zero(self, small_models):
        glass = np.full((1, 128, 128, 3), 235, dtype=np.uint8)
        tiles = Tiles("s", np.zeros((1, 2), dtype=int), glass)
        assert segment_tiles(tiles, small_models.segmenter)[0] == 0.0

    def test_positive_fraction_near_truth(self, lesion_tiles, small_models):
        tiles, truths = lesion_tiles
        fractions = segment_tiles(tiles, small_models.segmenter)
        checked = 0
        for fraction, truth in zip(fractions, truths):
            assert abs(fraction - truth.mean()) <= 0.15
            checked += 1
        assert checked > 0

    def test_positive_fraction_definitional(self, lesion_tiles, small_models):
        tiles, _ = lesion_tiles
        fractions = segment_tiles(tiles, small_models.segmenter)
        masks = small_models.segmenter.scores(tiles.pixels) >= 0.0
        assert len(fractions) == len(tiles) > 1
        for fraction, mask in zip(fractions, masks):
            assert fraction == mask.sum() / mask.size

    def test_batch_matches_single(self, lesion_tiles, small_models):
        tiles = lesion_tiles[0][:5]
        singles = [segment_tiles(tiles[i:i + 1], small_models.segmenter)[0]
                   for i in range(len(tiles))]
        batched = segment_tiles(tiles, small_models.segmenter)
        for i, (a, b) in enumerate(zip(singles, batched)):
            assert a == b
            single_mask = small_models.segmenter.scores(tiles.pixels[i]) >= 0.0
            batch_mask = small_models.segmenter.scores(tiles.pixels)[i] >= 0.0
            assert np.array_equal(single_mask, batch_mask)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges_match_single(self, lesion_tiles, small_models, extra):
        n = BLOCK_PX // (128 * 128) + extra
        tiles = lesion_tiles[0][:n]
        assert len(tiles) == n
        singles = [segment_tiles(tiles[i:i + 1], small_models.segmenter)[0]
                   for i in range(n)]
        assert segment_tiles(tiles, small_models.segmenter).tolist() == singles

    def test_empty_tiles_give_no_fractions(self, small_models):
        assert len(segment_tiles(blank_tiles(0), small_models.segmenter)) == 0


class TestSelect:
    def test_fraction_rule(self):
        tiles = blank_tiles(4)
        sel = select(tiles, np.array([0.0, 0.04, 0.05, 0.9]), theta=0.05)
        assert np.array_equal(sel.selected.origins, tiles.origins[2:])
        assert np.array_equal(sel.selected.pixels, tiles.pixels[2:])
        assert sel.selected.slide_id == "s"

    def test_all_zero_gives_empty(self):
        sel = select(blank_tiles(4), np.zeros(4), theta=0.05)
        assert sel.empty

    def test_theta_zero_selects_all(self):
        sel = select(blank_tiles(3), np.array([0.0, 0.3, 1.0]), theta=0.0)
        assert len(sel) == 3

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(5)
        tiles = blank_tiles(20)
        fractions = rng.random(20)
        previous = None
        for theta in np.linspace(0.0, 1.0, 11):
            chosen = {tuple(o) for o in select(tiles, fractions, theta=theta).selected.origins}
            if previous is not None:
                assert chosen <= previous
            previous = chosen

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            select(blank_tiles(2), np.array([0.5]))


class TestTrainSegmenter:
    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_segmenter([])

    def test_single_class_rejected(self):
        pixels = np.full((128, 128, 3), 235, dtype=np.uint8)
        empty = np.zeros((128, 128), dtype=bool)
        with pytest.raises(ValueError):
            train_segmenter([(pixels, empty)])

    def test_deterministic(self, lesion_tiles):
        pairs = list(zip(lesion_tiles[0].pixels, lesion_tiles[1]))
        a = train_segmenter(pairs, seed=3, epochs=20)
        b = train_segmenter(pairs, seed=3, epochs=20)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestPersistence:
    def test_round_trip(self, tmp_path, small_models):
        path = tmp_path / "seg.txt"
        save_segmenter(small_models.segmenter, path)
        loaded = load_segmenter(path)
        assert np.array_equal(loaded.weights, small_models.segmenter.weights)
        assert loaded.bias == small_models.segmenter.bias
        assert np.array_equal(loaded.feat_mean, small_models.segmenter.feat_mean)
        assert np.array_equal(loaded.feat_std, small_models.segmenter.feat_std)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_segmenter(path)
