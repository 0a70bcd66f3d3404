import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import default_lab_profiles, generate_slide, identity_profile
from wsitriage.tiling import (BLOCK_PX, Tiles, TilingConfig, color_planes,
                              ordered_sum, segment_tissue, tile, tissue_mask)


def raw_level_tissue_mask(raster, config):
    """The tissue test as it was written before color_planes(): saturation
    and luma over raw 0..255 levels, luma compared with l_max * 255."""
    r = raster[..., 0].astype(np.float32)
    g = raster[..., 1].astype(np.float32)
    b = raster[..., 2].astype(np.float32)
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    saturation = (mx - mn) / np.maximum(mx, np.float32(1e-12))
    luminance = np.float32(0.299) * r + np.float32(0.587) * g + np.float32(0.114) * b
    return (saturation >= config.s_min) | (luminance <= config.l_max * 255.0)


def loop_sum(terms, weights, order):
    """sum of terms[k] * weights[k] over the indexes k in order, element by
    element in Python scalar arithmetic of the terms' dtype."""
    out = np.empty(terms.shape[1:], dtype=terms.dtype)
    for index in np.ndindex(out.shape):
        acc = terms[order[0]][index] * weights[order[0]]
        for k in order[1:]:
            acc = acc + terms[k][index] * weights[k]
        out[index] = acc
    return out


class TestOrderedSum:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_the_index_order_loop(self, dtype):
        rng = np.random.default_rng(4)
        scales = 10.0 ** rng.integers(-6, 7, size=(9, 1, 1))   # the order matters
        terms = (rng.normal(size=(9, 5, 3)) * scales).astype(dtype)
        weights = rng.normal(size=9).astype(dtype)
        expected = loop_sum(terms, weights, range(9))
        got = ordered_sum(terms, weights)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()
        assert expected.tobytes() != loop_sum(terms, weights, range(8, -1, -1)).tobytes()

    def test_batch_rows_have_the_bits_of_their_own_sum(self):
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(40, 64)), rng.normal(size=(64, 32))
        batch = ordered_sum(x.T[..., None], w)
        assert batch.shape == (40, 32)
        for row, xi in zip(batch, x):
            assert row.tobytes() == ordered_sum(xi, w).tobytes()


class TestSegmentTissue:
    @pytest.mark.parametrize("config", [TilingConfig(), TilingConfig(s_min=0.2, l_max=0.7)])
    def test_every_rgb_code_matches_raw_level_formula(self, config):
        for start in range(0, 1 << 24, 1 << 20):
            codes = np.arange(start, start + (1 << 20), dtype=np.uint32)
            pixels = np.stack([codes >> 16, (codes >> 8) & 255, codes & 255],
                              axis=-1).astype(np.uint8)
            got = segment_tissue(pixels, config)
            assert np.array_equal(got, raw_level_tissue_mask(pixels, config)), start

    def test_all_white_is_background(self):
        raster = np.full((64, 64, 3), 255, dtype=np.uint8)
        assert not segment_tissue(raster).any()

    def test_near_white_glass_is_background(self):
        raster = np.full((64, 64, 3), 235, dtype=np.uint8)
        assert not segment_tissue(raster).any()

    def test_saturated_pink_is_tissue(self):
        raster = np.zeros((32, 32, 3), dtype=np.uint8)
        raster[..., 0] = 255
        raster[..., 2] = 128
        assert segment_tissue(raster).all()

    def test_dark_pixels_are_tissue(self):
        raster = np.full((16, 16, 3), 40, dtype=np.uint8)
        assert segment_tissue(raster).all()

    def test_empty_raster_rejected(self):
        with pytest.raises(ValueError):
            segment_tissue(np.empty((0, 0, 3), dtype=np.uint8))

    @pytest.mark.parametrize("n_px", [BLOCK_PX - 1, BLOCK_PX, BLOCK_PX + 1])
    def test_block_edges_match_one_pass(self, n_px):
        pixels = np.random.default_rng(n_px).integers(200, 256, (n_px, 3), dtype=np.uint8)
        mask = segment_tissue(pixels)
        assert mask.any() and not mask.all()
        assert np.array_equal(mask, tissue_mask(*color_planes(pixels)))

    def test_whole_slide_and_strided_view_match_one_pass(self):
        raster = generate_slide(ClassLabel.SQUAMOUS, default_lab_profiles()[1], seed=5).raster
        assert raster.shape == (1024, 1536, 3)
        for pixels in (raster, raster[::2, ::3]):
            mask = segment_tissue(pixels)
            assert mask.shape == pixels.shape[:2]
            assert np.array_equal(mask, tissue_mask(*color_planes(pixels)))

    def test_memory_bounded_by_blocks(self):
        # one float32 plane over this raster is 6 MiB, and a pass over the
        # whole raster holds several at once; the bool mask alone is 1.5 MiB
        raster = generate_slide(ClassLabel.SQUAMOUS, default_lab_profiles()[1], seed=5).raster
        tracemalloc.start()
        try:
            segment_tissue(raster)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

    @pytest.mark.parametrize("profile_idx", [0, 2])
    def test_iou_with_generator_region(self, profile_idx):
        profile = default_lab_profiles()[profile_idx]
        profile = type(profile)(profile.lab_id, profile.color_matrix,
                                profile.color_offset, profile.noise_sigma, {})
        slide = generate_slide(ClassLabel.BASALOID, profile, seed=77)
        mask = segment_tissue(slide.raster)
        inter = (mask & slide.tissue_mask).sum()
        union = (mask | slide.tissue_mask).sum()
        assert inter / union >= 0.9


def per_cell_tiles(raster, mask, config=TilingConfig()):
    """The tiles as the per-cell loop cut them before tile() gathered them
    in one step: (origin, pixels) of each kept cell, in row-major order."""
    t = config.tile_px
    kept = []
    for y in range(0, raster.shape[0] - t + 1, t):
        for x in range(0, raster.shape[1] - t + 1, t):
            frac = float(mask[y:y + t, x:x + t].mean(dtype=np.float64))
            if frac >= config.min_tissue_fraction:
                kept.append(((y, x), raster[y:y + t, x:x + t]))
    return kept


def origins(tiles):
    return [tuple(int(v) for v in o) for o in tiles.origins]


class TestTile:
    def test_small_grid_all_tissue(self):
        raster = np.full((256, 256, 3), 200, dtype=np.uint8)
        mask = np.ones((256, 256), dtype=bool)
        tiles = tile(raster, mask, "s")
        assert origins(tiles) == [(0, 0), (0, 128), (128, 0), (128, 128)]
        assert tiles.pixels.shape == (4, 128, 128, 3)

    def test_blank_slide_no_tiles(self):
        raster = np.full((512, 512, 3), 235, dtype=np.uint8)
        assert len(tile(raster, segment_tissue(raster), "s")) == 0

    def test_edge_remainders_dropped(self):
        raster = np.full((300, 200, 3), 0, dtype=np.uint8)
        mask = np.ones((300, 200), dtype=bool)
        tiles = tile(raster, mask, "s")
        assert origins(tiles) == [(0, 0), (128, 0)]

    def test_count_matches_brute_force(self):
        slide = generate_slide(ClassLabel.SQUAMOUS, identity_profile(), seed=8)
        rng = np.random.default_rng(3)
        cases = [(slide.raster, segment_tissue(slide.raster))]
        for h, w in ((300, 200), (700, 430), (100, 90)):   # edge remainders, < one tile
            cases.append((rng.integers(0, 256, (h, w, 3), dtype=np.uint8),
                          rng.random((h, w)) < 0.4))
        for raster, mask in cases:
            tiles = tile(raster, mask, "s")
            expected = per_cell_tiles(raster, mask)
            assert len(tiles) == len(expected)
            assert tiles.origins.shape == (len(expected), 2)
            assert tiles.pixels.shape == (len(expected), 128, 128, 3)
            assert origins(tiles) == [o for o, _ in expected]
            for got, (_, pixels) in zip(tiles.pixels, expected):
                assert np.array_equal(got, pixels)
        assert len(tile(*cases[0], "s")) > 0 and len(tile(*cases[-1], "s")) == 0

    def test_row_selection_keeps_views_of_the_stack(self):
        slide = generate_slide(ClassLabel.BASALOID, identity_profile(), seed=2)
        tiles = tile(slide.raster, segment_tissue(slide.raster), "s")
        assert len(tiles) > 3
        picks = (slice(1, 3), np.array([0, 2]), np.arange(len(tiles)) % 2 == 0)
        for rows in picks:
            part = tiles[rows]
            assert isinstance(part, Tiles) and part.slide_id == "s"
            assert np.array_equal(part.origins, tiles.origins[rows])
            assert np.array_equal(part.pixels, tiles.pixels[rows])
        assert np.shares_memory(tiles[1:3].pixels, tiles.pixels)

    def test_no_overlap_and_in_bounds(self):
        slide = generate_slide(ClassLabel.OTHER, identity_profile(), seed=4)
        mask = segment_tissue(slide.raster)
        tiles = tile(slide.raster, mask, "s")
        cut = origins(tiles)
        assert len(set(cut)) == len(cut)
        for y, x in cut:
            assert y % 128 == 0 and x % 128 == 0
            assert y + 128 <= 1024 and x + 128 <= 1536
        assert cut == sorted(cut)  # canonical row-major order

    def test_mask_shape_mismatch(self):
        raster = np.zeros((128, 128, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            tile(raster, np.ones((64, 64), dtype=bool), "s")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           low=st.floats(0.05, 0.5), high=st.floats(0.5, 0.95))
    def test_lowering_threshold_never_removes_tiles(self, seed, low, high):
        rng = np.random.default_rng(seed)
        mask = rng.random((256, 384)) < rng.uniform(0.1, 0.9)
        raster = np.zeros((256, 384, 3), dtype=np.uint8)
        strict = tile(raster, mask, "s", TilingConfig(min_tissue_fraction=high))
        loose = tile(raster, mask, "s", TilingConfig(min_tissue_fraction=low))
        assert set(origins(strict)) <= set(origins(loose))
