import math

import numpy as np
import pytest

from wsitriage.adaptation import (_DECOR, _LMS2RGB, _LMS_FLOOR, _RGB2LMS,
                                  AdapterModel, DomainStats, adapt_pixels,
                                  adapt_tiles, fit_stats, load_adapter,
                                  save_adapter, to_decorrelated)
from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import default_lab_profiles, generate_slide, identity_profile
from wsitriage.tiling import BLOCK_PX, Tiles, TilingConfig, segment_tissue, tile


# np.linalg.inv of _RGB2LMS and _DECOR under OpenBLAS's SkylakeX kernel:
# reference_adapt's inverses, which the program's formulas must reproduce
# pixel for pixel
REFERENCE_LMS2RGB = np.array([
    [4.468669863496255, -3.5886759034721267, 0.11960436657860116],
    [-1.2197166276177631, 2.3830879129554567, -0.16263011175140055],
    [0.058508476938545856, -0.2610784390276937, 1.205665908525623],
])
REFERENCE_DECOR_INV = np.array([
    [0.5773502691896257, 0.40824829046386296, 0.7071067811865476],
    [0.5773502691896257, 0.40824829046386296, -0.7071067811865476],
    [0.5773502691896255, -0.8164965809277259, 1.1404650007967886e-16],
])


def column_sums(rows, matrix):
    """rows @ matrix.T in float32, each output column written out as
    (rows[:, 0] * m[0] + rows[:, 1] * m[1]) + rows[:, 2] * m[2] for its
    matrix row m: products rounded, then added left to right."""
    matrix = matrix.astype(np.float32)
    return np.stack([rows[:, 0] * m[0] + rows[:, 1] * m[1] + rows[:, 2] * m[2]
                     for m in matrix], axis=1)


def reference_adapt(pixels, model, config=TilingConfig()):
    """adapt_pixels as it was before the palette transfer: the tissue mask
    over every pixel, then the float32 transfer on the masked pixels, with
    the literal inverses and each 3x3 product summed column by column."""
    out = np.asarray(pixels, dtype=np.uint8).copy()
    if model.is_identity:
        return out
    mask = segment_tissue(out, config)
    flat = out[mask].astype(np.float32) / np.float32(255.0)
    lms = np.maximum(column_sums(flat, _RGB2LMS), np.float32(_LMS_FLOOR))
    vals = column_sums(np.log10(lms), _DECOR)
    scale = (model.target.std / model.source.std).astype(np.float32)
    shift = (model.target.mean - model.source.mean * model.target.std
             / model.source.std).astype(np.float32)
    vals *= scale
    vals += shift
    lms = np.power(np.float32(10.0), column_sums(vals, REFERENCE_DECOR_INV))
    adapted = column_sums(lms, REFERENCE_LMS2RGB) * np.float32(255.0)
    np.rint(adapted, out=adapted)
    np.clip(adapted, 0, 255, out=adapted)
    out[mask] = adapted.astype(np.uint8)
    return out


def assert_fsum_moments(stats, pixels, atol=4e-15):
    """stats are within atol of the correctly rounded (math.fsum) mean and
    std of the pixels' decorrelated values."""
    vals = to_decorrelated(pixels).T
    mean = np.array([math.fsum(v) / len(v) for v in vals])
    std = np.array([math.sqrt(math.fsum((v - m) ** 2) / len(v))
                    for v, m in zip(vals, mean)])
    assert np.all(np.abs(stats.mean - mean) <= atol)
    assert np.all(np.abs(stats.std - std) <= atol)


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


def reference_fit_stats(pixels, config=TilingConfig()):
    """fit_stats over the palette and counts np.unique takes from the
    whole stack's codes at once."""
    flat = np.asarray(pixels, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
    codes, counts = np.unique((flat[:, 0] << 16) | (flat[:, 1] << 8) | flat[:, 2],
                              return_counts=True)
    palette = np.stack([codes >> 16, (codes >> 8) & 255, codes & 255], axis=1)
    palette = palette.astype(np.uint8)
    tissue = segment_tissue(palette, config)
    if tissue.any():
        palette, counts = palette[tissue], counts[tissue]
    vals = to_decorrelated(palette).T.copy()
    mean = (vals * counts).sum(axis=1) / counts.sum()
    var = ((vals - mean[:, None]) ** 2 * counts).sum(axis=1) / counts.sum()
    return DomainStats(mean=mean, std=np.sqrt(var))


class TestFitStats:
    @pytest.mark.parametrize("stack", [
        lambda tiles: tiles.pixels[:7],                       # 1.75 blocks of tiles
        lambda tiles: tiles.pixels.reshape(-1, 3)[:2 * BLOCK_PX + 17],
        lambda tiles: np.full((3, 50, 3), (170, 60, 120), dtype=np.uint8),
        lambda tiles: np.concatenate([np.full((1, 40, 3), 240, dtype=np.uint8),
                                      np.full((1, 40, 3), 236, dtype=np.uint8)]),
    ], ids=["tiles", "pixels", "one-code", "no-tissue"])
    def test_bitwise_the_unique_reference(self, reference_tiles, stack):
        """Codes packed block by block and sorted in place give the palette
        and counts of np.unique over the whole stack, so the same stats."""
        pixels = stack(reference_tiles)
        assert len(pixels.reshape(-1, 3)) % BLOCK_PX
        assert fit_stats(pixels) == reference_fit_stats(pixels)

    def test_uniform_tile_floors_std(self):
        pixels = np.full((128, 128, 3), 120, dtype=np.uint8)
        stats = fit_stats([pixels])
        assert np.all(stats.std == 1e-6)
        expected = to_decorrelated(np.array([[120.0, 120.0, 120.0]]))[0]
        assert np.allclose(stats.mean, expected, atol=1e-12)

    def test_matches_two_pass_recomputation(self, reference_tiles):
        stats = fit_stats(reference_tiles.pixels)
        pixels = np.concatenate([
            t[segment_tissue(t)] for t in reference_tiles.pixels])
        vals = to_decorrelated(pixels)
        mean = vals.sum(axis=0) / len(vals)
        var = ((vals - mean) ** 2).sum(axis=0) / len(vals)
        assert np.allclose(stats.mean, mean, atol=1e-9)
        assert np.allclose(stats.std, np.sqrt(var), atol=1e-9)

    def test_disjoint_samples_agree(self):
        profile = identity_profile(noise_sigma=1.0)
        a = fit_stats(tiles_for(profile, 1).pixels)
        b = fit_stats(tiles_for(profile, 2).pixels)
        assert np.all(np.abs(a.std - b.std) <= 0.02 * np.abs(a.std) + 1e-4)
        assert np.all(np.abs(a.mean - b.mean) <= 0.02 * np.abs(a.mean) + 0.02 * a.std)

    def test_lab_shift_detected(self, reference_tiles, shifted_tiles):
        ref = fit_stats(reference_tiles.pixels)
        lab = fit_stats(shifted_tiles.pixels)
        assert np.any(np.abs(ref.mean - lab.mean) > 1e-3)

    def test_stack_matches_tile_by_tile_concatenation(self, reference_tiles,
                                                      shifted_tiles):
        """One stack from several slides, as sample_tiles builds it, gives
        the stats of the tissue pixels concatenated tile by tile."""
        config = TilingConfig(s_min=0.2, l_max=0.7)
        glass = np.full((1, 128, 128, 3), 240, dtype=np.uint8)
        stack = np.concatenate([reference_tiles.pixels, glass, shifted_tiles.pixels])
        tissue = np.concatenate([t[segment_tissue(t, config)] for t in stack])
        assert_fsum_moments(fit_stats(stack, config), tissue)

    def test_invariant_to_tile_slide_and_pixel_order(self, reference_tiles,
                                                     shifted_tiles):
        stack = np.concatenate([reference_tiles.pixels, shifted_tiles.pixels])
        stats = fit_stats(stack)
        rng = np.random.default_rng(0)
        swapped = np.concatenate([shifted_tiles.pixels, reference_tiles.pixels])
        pixels = stack.reshape(-1, 3)[rng.permutation(stack[..., 0].size)]
        for other in (stack[rng.permutation(len(stack))], swapped,
                      pixels.reshape(stack.shape)):
            assert fit_stats(other) == stats

    def test_blank_sample_uses_every_pixel(self):
        """A glass-only sample has no tissue: the moments are those of all
        its pixels."""
        glass = np.full((2, 128, 128, 3), 240, dtype=np.uint8)
        glass[1] = 236
        glass[1, :, :64, 2] = 230
        assert not segment_tissue(glass).any()
        assert_fsum_moments(fit_stats(glass), glass.reshape(-1, 3))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_stats([])


class TestAdapt:
    def test_identity_is_bit_exact(self, reference_tiles):
        stats = fit_stats(reference_tiles.pixels)
        model = AdapterModel(stats, stats)
        out = adapt_tiles(reference_tiles[:1], model)
        assert np.array_equal(out.pixels, reference_tiles.pixels[:1])

    def test_shifted_batch_means_match_target(self, reference_tiles, shifted_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles.pixels),
                             target=fit_stats(reference_tiles.pixels))
        adapted = adapt_tiles(shifted_tiles, model)

        def tissue_means(tiles):
            pixels = np.concatenate([t[segment_tissue(t)]
                                     for t in tiles.pixels]).astype(np.float64)
            return pixels.mean(axis=0)

        target = tissue_means(reference_tiles)
        got = tissue_means(adapted)
        assert np.all(np.abs(got - target) <= 1.5)

    def test_all_black_tile_finite(self, reference_tiles, shifted_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles.pixels),
                             target=fit_stats(reference_tiles.pixels))
        black = Tiles("s", np.zeros((1, 2), dtype=int),
                      np.zeros((1, 128, 128, 3), dtype=np.uint8))
        out = adapt_tiles(black, model)
        assert out.pixels.dtype == np.uint8  # clamped, no overflow or NaN

    def test_idempotent_after_refit(self, reference_tiles, shifted_tiles):
        target = fit_stats(reference_tiles.pixels)
        once = adapt_tiles(shifted_tiles, AdapterModel(fit_stats(shifted_tiles.pixels), target))
        twice = adapt_tiles(once, AdapterModel(fit_stats(once.pixels), target))
        for a, b in zip(once.pixels, twice.pixels):
            diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
            assert diff.mean(axis=(0, 1)).max() <= 1.0

    def test_preserves_shape_and_metadata(self, shifted_tiles, reference_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles.pixels),
                             target=fit_stats(reference_tiles.pixels))
        out = adapt_tiles(shifted_tiles[:1], model)
        assert out.pixels.shape == (1, 128, 128, 3)
        assert out.slide_id == shifted_tiles.slide_id
        assert np.array_equal(out.origins, shifted_tiles.origins[:1])

    def test_identity_returns_copy(self, reference_tiles):
        stats = fit_stats(reference_tiles.pixels)
        pixels = reference_tiles.pixels[0]
        out = adapt_pixels(pixels, AdapterModel(stats, stats))
        assert not np.shares_memory(out, pixels)
        assert np.array_equal(out, pixels)

    @pytest.mark.parametrize("config", [TilingConfig(),
                                        TilingConfig(s_min=0.2, l_max=0.7)])
    def test_every_rgb_code_matches_reference(self, config, shifted_tiles,
                                              reference_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles.pixels),
                             target=fit_stats(reference_tiles.pixels))
        chunk = 1 << 20
        for start in range(0, 1 << 24, chunk):
            # an odd multiplier permutes the 2^24 codes, so each chunk holds
            # codes out of order and all chunks together hold every code
            codes = (np.arange(start, start + chunk, dtype=np.uint32)
                     * np.uint32(2654435761)) & np.uint32(0xFFFFFF)
            pixels = np.stack([codes >> 16, codes >> 8, codes], axis=-1).astype(np.uint8)
            pixels = pixels.reshape(1024, 1024, 3)
            assert np.array_equal(adapt_pixels(pixels, model, config),
                                  reference_adapt(pixels, model, config))

    def test_every_97th_code_matches_reference_under_a_fixed_adapter(self):
        """A hand-set adapter, so the check rests on no fit: lab_a's
        appearance, as fitted on one slide, onto the reference's."""
        model = AdapterModel(
            source=DomainStats([-0.2865, -0.0522, 0.0082], [0.231, 0.0905, 0.005]),
            target=DomainStats([-0.2798, -0.0505, 0.0079], [0.223, 0.0857, 0.0027]))
        codes = np.arange(0, 1 << 24, 97, dtype=np.uint32)
        pixels = np.stack([codes >> 16, codes >> 8, codes], axis=-1).astype(np.uint8)
        adapted = adapt_pixels(pixels, model)
        assert np.array_equal(adapted, reference_adapt(pixels, model))
        assert not np.array_equal(adapted, pixels)

    def test_lab_a_stacks_match_reference(self, reference_tiles):
        lab_a = default_lab_profiles()[1]
        stacks = [tiles_for(lab_a, seed, ClassLabel(seed % 4)).pixels for seed in (3, 4)]
        model = AdapterModel(source=fit_stats(stacks[0]),
                             target=fit_stats(reference_tiles.pixels))
        for stack in stacks:
            expected = reference_adapt(stack, model)
            assert np.array_equal(adapt_pixels(stack, model), expected)
            assert np.array_equal(adapt_pixels(np.asfortranarray(stack), model), expected)

    def test_batch_matches_single(self, shifted_tiles, reference_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles.pixels),
                             target=fit_stats(reference_tiles.pixels))
        batch = adapt_tiles(shifted_tiles[:4], model)
        for i, b in enumerate(batch.pixels):
            assert np.array_equal(adapt_tiles(shifted_tiles[i:i + 1], model).pixels[0], b)


class TestPersistence:
    def test_round_trip(self, tmp_path, reference_tiles, shifted_tiles):
        model = AdapterModel(source=fit_stats(shifted_tiles.pixels),
                             target=fit_stats(reference_tiles.pixels))
        path = tmp_path / "m.adapter"
        save_adapter(model, path)
        loaded = load_adapter(path)
        assert loaded == model

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.adapter"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_adapter(path)


# the sha256 of the inverse colour matrices (_DECOR's inverse is _DECOR.T)
INVERSES_DIGEST = """
import hashlib
from wsitriage.adaptation import _DECOR, _LMS2RGB
print(hashlib.sha256(_LMS2RGB.tobytes() + _DECOR.tobytes()).hexdigest())
"""


def test_inverse_matrices_same_bytes_on_every_blas_kernel(run_under_blas_kernel):
    """The inverses are formulas that call no BLAS or LAPACK routine, so
    the OpenBLAS kernel cannot move their bits, and each undoes its forward
    matrix."""
    digests = {kernel: run_under_blas_kernel(INVERSES_DIGEST, kernel)
               for kernel in (None, "Prescott")}
    assert len(set(digests.values())) == 1, digests
    for inverse, forward in ((_LMS2RGB, _RGB2LMS), (_DECOR.T, _DECOR)):
        assert inverse.dtype == np.float64
        assert np.allclose(inverse @ forward, np.eye(3), rtol=0, atol=1e-14)
