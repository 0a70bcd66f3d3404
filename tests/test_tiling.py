import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import default_lab_profiles, generate_slide, identity_profile
from wsitriage.tiling import Tile, Tiles, TilingConfig, segment_tissue, tile


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
    in one step: (origin, pixels, tissue fraction) of each kept cell, in
    row-major order."""
    t = config.tile_px
    kept = []
    for y in range(0, raster.shape[0] - t + 1, t):
        for x in range(0, raster.shape[1] - t + 1, t):
            frac = float(mask[y:y + t, x:x + t].mean(dtype=np.float64))
            if frac >= config.min_tissue_fraction:
                kept.append(((y, x), raster[y:y + t, x:x + t], frac))
    return kept


class TestTile:
    def test_small_grid_all_tissue(self):
        raster = np.full((256, 256, 3), 200, dtype=np.uint8)
        mask = np.ones((256, 256), dtype=bool)
        tiles = tile(raster, mask, "s")
        assert [t.origin for t in tiles] == [(0, 0), (0, 128), (128, 0), (128, 128)]
        assert all(t.pixels.shape == (128, 128, 3) for t in tiles)
        assert all(t.tissue_fraction == 1.0 for t in tiles)

    def test_blank_slide_no_tiles(self):
        raster = np.full((512, 512, 3), 235, dtype=np.uint8)
        assert len(tile(raster, segment_tissue(raster), "s")) == 0

    def test_edge_remainders_dropped(self):
        raster = np.full((300, 200, 3), 0, dtype=np.uint8)
        mask = np.ones((300, 200), dtype=bool)
        tiles = tile(raster, mask, "s")
        assert [t.origin for t in tiles] == [(0, 0), (128, 0)]

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
            assert [tuple(o) for o in tiles.origins] == [o for o, _, _ in expected]
            assert tiles.tissue_fractions.tolist() == [f for _, _, f in expected]
            for got, (_, pixels, _) in zip(tiles.pixels, expected):
                assert np.array_equal(got, pixels)
        assert len(tile(*cases[0], "s")) > 0 and len(tile(*cases[-1], "s")) == 0

    def test_iteration_yields_tile_views_of_the_stack(self):
        slide = generate_slide(ClassLabel.BASALOID, identity_profile(), seed=2)
        tiles = tile(slide.raster, segment_tissue(slide.raster), "s")
        items = list(tiles)
        assert len(items) == len(tiles) > 1
        for i, item in enumerate(items):
            assert isinstance(item, Tile)
            assert item.slide_id == "s"
            assert item.origin == tuple(int(v) for v in tiles.origins[i])
            assert item.tissue_fraction == tiles.tissue_fractions[i]
            assert np.shares_memory(item.pixels, tiles.pixels)
            assert np.array_equal(item.pixels, tiles.pixels[i])
            assert tiles[i].origin == item.origin
        part = tiles[1:3]
        assert isinstance(part, Tiles) and part.slide_id == "s"
        assert [t.origin for t in part] == [t.origin for t in items[1:3]]

    def test_no_overlap_and_in_bounds(self):
        slide = generate_slide(ClassLabel.OTHER, identity_profile(), seed=4)
        mask = segment_tissue(slide.raster)
        tiles = tile(slide.raster, mask, "s")
        origins = [t.origin for t in tiles]
        assert len(set(origins)) == len(origins)
        for y, x in origins:
            assert y % 128 == 0 and x % 128 == 0
            assert y + 128 <= 1024 and x + 128 <= 1536
        assert origins == sorted(origins)  # canonical row-major order

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
        assert {t.origin for t in strict} <= {t.origin for t in loose}
