import os

import numpy as np
import pytest
from scipy import ndimage

from wsitriage import training
from wsitriage.adaptation import adapt_tiles
from wsitriage.config import Config
from wsitriage.manifest import ClassLabel, SlideRecord, Split, stable_seed
from wsitriage.pipeline import slide_tiles
from wsitriage.pnm import read_pgm, read_ppm, write_pgm, write_ppm
from wsitriage.roi import (EPOCHS, L2, LEARNING_RATE, N_PIXEL_FEATURES, SAMPLES_PER_TILE,
                           _feature_planes, load_segmenter, save_segmenter,
                           segment_tiles, select, train_segmenter)
from wsitriage.synthesis import default_lab_profiles, generate_slide, mask_path_for
from wsitriage.tiling import BLOCK_PX, Tiles, pixel_planes, segment_tissue, tile


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
    """The (..., H, W, 7) stack of the segmenter's feature planes, written
    out plane by plane, each channel converted from uint8 on its own: the
    formulas the one-cast planes must match."""
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


def assert_feature_planes_bitwise(pixels):
    """The planes _feature_planes takes from pixel_planes equal the
    reference formulas, plane by plane."""
    planes = list(_feature_planes(pixel_planes(pixels)))
    reference = reference_pixel_features(pixels)
    assert len(planes) == N_PIXEL_FEATURES == reference.shape[-1]
    for k, plane in enumerate(planes):
        assert plane.dtype == np.float32
        assert np.array_equal(plane, reference[..., k]), k


class TestPixelFeatures:
    def test_random_stack_bitwise(self):
        pixels = np.random.default_rng(5).integers(0, 256, size=(34, 32, 32, 3),
                                                   dtype=np.uint8)
        assert_feature_planes_bitwise(pixels)

    def test_lab_a_stack_bitwise(self):
        lab_a = next(p for p in default_lab_profiles() if p.lab_id == "lab_a")
        raster = generate_slide(ClassLabel.BASALOID, lab_a, 7).raster
        pixels = tile(raster, segment_tissue(raster), "s").pixels
        assert len(pixels) > 1
        assert_feature_planes_bitwise(pixels)


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
        masks = small_models.segmenter.logits(pixel_planes(tiles.pixels)) >= 0.0
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
            single_mask = small_models.segmenter.logits(pixel_planes(tiles.pixels[i])) >= 0.0
            batch_mask = small_models.segmenter.logits(pixel_planes(tiles.pixels))[i] >= 0.0
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


# the sha256 of PixelSegmenter.logits on fixed pixels and a fixed segmenter
SCORES_DIGEST = """
import hashlib
import numpy as np
from wsitriage.roi import N_PIXEL_FEATURES, PixelSegmenter
from wsitriage.tiling import pixel_planes
rng = np.random.default_rng(17)
pixels = rng.integers(0, 256, size=(4, 128, 128, 3), dtype=np.uint8)
segmenter = PixelSegmenter(weights=rng.normal(size=N_PIXEL_FEATURES), bias=0.3,
                           feat_mean=rng.normal(size=N_PIXEL_FEATURES),
                           feat_std=rng.uniform(0.1, 1.0, size=N_PIXEL_FEATURES))
print(hashlib.sha256(segmenter.logits(pixel_planes(pixels)).tobytes()).hexdigest())
"""


def test_scores_same_bytes_on_every_blas_kernel(run_under_blas_kernel, blas_kernels):
    """The logit is an elementwise sum in a fixed order, so the OpenBLAS
    kernel (OPENBLAS_CORETYPE) cannot move its bits."""
    digests = {kernel: run_under_blas_kernel(SCORES_DIGEST, kernel)
               for kernel in blas_kernels}
    assert len(set(digests.values())) == 1, digests


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


def reference_train_segmenter(pairs, seed):
    """train_segmenter written tile by tile: each tile's (H * W, 7)
    reference_pixel_features rows, its positives and then its negatives
    drawn with the same RNG, then the same gradient descent.  Returns the
    weights, bias, feature means and feature stds."""
    rng = np.random.default_rng(stable_seed("segmenter", seed))
    xs, ys = [], []
    for stack, masks in pairs:
        for pixels, mask in zip(stack, masks):
            feats = reference_pixel_features(pixels).reshape(-1, N_PIXEL_FEATURES)
            flat = mask.reshape(-1)
            for idx in (np.flatnonzero(flat), np.flatnonzero(~flat)):
                if len(idx):
                    take = rng.choice(idx, size=min(SAMPLES_PER_TILE // 2, len(idx)),
                                      replace=False)
                    xs.append(feats[take])
                    ys.append(flat[take])
    x = np.concatenate(xs)
    y = np.concatenate(ys).astype(np.float64)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-6)
    xs_std = (x - mean) / std
    w = np.zeros(N_PIXEL_FEATURES)
    b = 0.0
    for _ in range(EPOCHS):
        err = 1.0 / (1.0 + np.exp(-(xs_std @ w + b))) - y
        w -= LEARNING_RATE * (xs_std.T @ err / len(y) + L2 * w)
        b -= LEARNING_RATE * float(err.mean())
    return w, b, mean, std


class TestTrainSegmenter:
    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_segmenter([])
        no_tiles = (np.zeros((0, 128, 128, 3), dtype=np.uint8),
                    np.zeros((0, 128, 128), dtype=bool))
        with pytest.raises(ValueError):
            train_segmenter([no_tiles, no_tiles])

    def test_single_class_rejected(self):
        pixels = np.full((1, 128, 128, 3), 235, dtype=np.uint8)
        empty = np.zeros((1, 128, 128), dtype=bool)
        with pytest.raises(ValueError):
            train_segmenter([(pixels, empty)])

    def test_deterministic(self, lesion_tiles):
        pairs = [(lesion_tiles[0].pixels, np.stack(lesion_tiles[1]))]
        a = train_segmenter(pairs, seed=3)
        b = train_segmenter(pairs, seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_pairs_match_tile_by_tile_reference(self, small_corpus, small_models,
                                                tmp_path, monkeypatch):
        """On Train slides that include a blank slide (no tissue tile) and a
        slide cut short by SEGMENTER_MAX_TILES, segmenter_pairs cuts each
        mask at its tile's origin, and the block-wise training gives the
        tile-by-tile reference's segmenter bit for bit."""
        config = Config()
        blank = str(tmp_path / "blank.ppm")
        write_ppm(blank, np.full((384, 512, 3), 240, dtype=np.uint8))
        write_pgm(mask_path_for(blank), np.zeros((384, 512), dtype=np.uint8))
        train = sorted(small_corpus.records_in(Split.TRAIN), key=lambda r: r.slide_id)[:3]
        records = [SlideRecord("0-blank", "0", "lab", ClassLabel.OTHER, blank)] + train
        counts = [len(slide_tiles(rec, config)) for rec in records]
        assert counts[0] == 0 and min(counts[1:]) > 1
        cut = counts[3] // 2
        monkeypatch.setattr(training, "SEGMENTER_MAX_TILES", sum(counts[:3]) + cut)

        pairs = training.segmenter_pairs(records, small_models.adapter, config)
        assert [len(pixels) for pixels, _ in pairs] == counts[:3] + [cut]
        for rec, (pixels, masks) in zip(records, pairs):
            tiles = adapt_tiles(slide_tiles(rec, config)[:len(pixels)],
                                small_models.adapter, config.tiling)
            lesion = read_pgm(mask_path_for(rec.raster_path)) > 0
            assert np.array_equal(pixels, tiles.pixels)
            assert masks.shape == pixels.shape[:3] and masks.dtype == bool
            for (y, x), mask in zip(tiles.origins, masks):
                assert np.array_equal(mask, lesion[y:y + 128, x:x + 128])

        segmenter = train_segmenter(pairs, seed=3)
        got = (segmenter.weights, segmenter.bias, segmenter.feat_mean, segmenter.feat_std)
        for a, b in zip(got, reference_train_segmenter(pairs, seed=3)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# the sha256 of train_segmenter's model and of reference_train_segmenter's,
# whose descent keeps the float32 samples in each product, on fixed pixels
SEGMENTER_DIGESTS = """
import hashlib, sys
import numpy as np
sys.path.insert(0, {tests!r})
from test_roi import reference_train_segmenter
from wsitriage.roi import train_segmenter
rng = np.random.default_rng(23)
pixels = rng.integers(0, 256, size=(40, 128, 128, 3), dtype=np.uint8)
masks = rng.random((40, 128, 128)) < np.linspace(0.05, 0.95, 40)[:, None, None]
pairs = [(pixels[:25], masks[:25]), (pixels[25:], masks[25:])]
model = train_segmenter(pairs, seed=3)
for arrays in ((model.weights, model.bias, model.feat_mean, model.feat_std),
               reference_train_segmenter(pairs, seed=3)):
    print(hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest())
"""


def test_train_segmenter_bitwise_the_reference_on_every_blas_kernel(
        run_under_blas_kernel, blas_kernels):
    """Under each OpenBLAS kernel the descent on samples cast to float64
    once, with a C-contiguous transpose, gives the bits of the descent
    that casts the float32 samples in each product."""
    code = SEGMENTER_DIGESTS.format(tests=os.path.dirname(os.path.abspath(__file__)))
    for kernel in blas_kernels:
        got, expected = run_under_blas_kernel(code, kernel).split()
        assert got == expected, kernel


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
