import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.classifier import (NetParams, TrainConfig, accuracy,
                                  dropout_scale, featurize_tiles,
                                  fine_tune,
                                  init_params, load_params, loss_and_grad,
                                  one_hot, pool, predict, predict_class,
                                  save_params, train)
from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import default_lab_profiles, generate_slide
from wsitriage.tiling import BLOCK_PX, Tiles, TilingConfig, segment_tissue, tile


def rand_pixels(seed):
    return np.random.default_rng(seed).integers(0, 256, (128, 128, 3), dtype=np.uint8)


def stack_tiles(pixels):
    """A Tiles record around a list of (128, 128, 3) tile pixels."""
    n = len(pixels)
    return Tiles("s", np.zeros((n, 2), dtype=int), np.stack(pixels))


def separable_embeddings(n_per_class=30, seed=0):
    """Four well-separated gaussian clusters in feature space."""
    rng = np.random.default_rng(seed)
    centers = rng.random((4, 64)) * 0.5
    xs, ys = [], []
    for c in range(4):
        xs.append(centers[c] + rng.normal(0, 0.01, size=(n_per_class, 64)))
        ys.extend([c] * n_per_class)
    return np.concatenate(xs), np.array(ys)


def reference_features(pixels, config=TilingConfig()):
    """The 64-vector as featurize computed it before color_planes(): luma
    from uint8 levels times float32 coefficients, then divided by 255."""
    luma = (np.float32(0.299) * pixels[..., 0] + np.float32(0.587) * pixels[..., 1]
            + np.float32(0.114) * pixels[..., 2]).astype(np.float32)
    luma /= np.float32(255.0)
    grad = np.hypot(np.gradient(luma, axis=0), np.gradient(luma, axis=1))
    grad_bins = np.minimum((grad * (16 / 0.5)).astype(np.intp), 15)
    tissue = pixels[segment_tissue(pixels, config)]
    parts = []
    for c in range(3):
        if len(tissue):
            hist = np.bincount(tissue[:, c] >> 4, minlength=16)
            parts.append(hist / hist.sum())
        else:
            parts.append(np.full(16, 1.0 / 16))
    hist = np.bincount(grad_bins.reshape(-1), minlength=16)
    parts.append(hist / hist.sum())
    return np.concatenate(parts)


class TestFeaturize:
    def test_random_tiles_match_reference_bitwise(self):
        tiles = stack_tiles([rand_pixels(seed) for seed in range(6)])
        got = featurize_tiles(tiles)
        for t, row in zip(tiles.pixels, got):
            assert np.array_equal(row, reference_features(t))

    def test_generated_tiles_match_reference_bitwise(self):
        for i, profile in enumerate(default_lab_profiles()):
            slide = generate_slide(ClassLabel(i % 4), profile, seed=21 + i)
            tiles = tile(slide.raster, segment_tissue(slide.raster), "s")
            assert tiles
            got = featurize_tiles(tiles)
            for t, row in zip(tiles.pixels, got):
                assert np.array_equal(row, reference_features(t))

    def test_uniform_gray_tile_gradient_in_lowest_bin(self):
        pixels = np.full((128, 128, 3), 90, dtype=np.uint8)
        vec = featurize_tiles(stack_tiles([pixels]))[0]
        assert vec[48] == 1.0
        assert np.all(vec[49:] == 0.0)

    def test_identical_tiles_identical_vectors(self):
        a = featurize_tiles(stack_tiles([rand_pixels(4)]))[0]
        b = featurize_tiles(stack_tiles([rand_pixels(4)]))[0]
        assert np.array_equal(a, b)

    def test_histogram_groups_sum_to_one(self):
        vec = featurize_tiles(stack_tiles([rand_pixels(9)]))[0]
        for start in (0, 16, 32, 48):
            assert abs(vec[start:start + 16].sum() - 1.0) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_no_tissue_uniform_fallback(self):
        glass = np.full((128, 128, 3), 255, dtype=np.uint8)
        vec = featurize_tiles(stack_tiles([glass]))[0]
        assert np.all(vec[:48] == 1.0 / 16)

    @pytest.mark.filterwarnings("error")
    def test_glass_among_tissue_tiles_matches_reference_bitwise(self):
        glass = np.full((128, 128, 3), 250, dtype=np.uint8)
        stacks = [rand_pixels(1), glass, rand_pixels(2), glass]
        got = featurize_tiles(stack_tiles(stacks))
        for pixels, row in zip(stacks, got):
            assert np.array_equal(row, reference_features(pixels))

    @pytest.mark.filterwarnings("error")
    def test_block_edge_matches_reference_bitwise(self):
        glass = np.full((128, 128, 3), 250, dtype=np.uint8)
        n = BLOCK_PX // (128 * 128) + 1   # the last block holds one glass tile
        stacks = [glass if i % 3 == 1 else rand_pixels(30 + i) for i in range(n)]
        got = featurize_tiles(stack_tiles(stacks))
        assert got.shape == (n, 64)
        for pixels, row in zip(stacks, got):
            assert np.array_equal(row, reference_features(pixels))

    def test_all_finite(self):
        vec = featurize_tiles(stack_tiles([rand_pixels(17)]))[0]
        assert np.all(np.isfinite(vec))
        assert len(vec) == 64


class TestPool:
    def test_single_vector_identity(self):
        v = np.arange(64.0)
        assert np.array_equal(pool([v]), v)

    def test_duplicate_is_identity(self):
        v = np.random.default_rng(0).random(64)
        assert np.allclose(pool([v, v]), v, atol=0)

    def test_matches_independent_mean(self):
        rng = np.random.default_rng(1)
        vs = [rng.random(64) for _ in range(5)]
        expected = sum(vs) / 5
        assert np.all(np.abs(pool(vs) - expected) < 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool([])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        vs = [rng.random(64) for _ in range(6)]
        shuffled = [vs[i] for i in rng.permutation(6)]
        assert np.allclose(pool(vs), pool(shuffled), atol=1e-15)


class TestPredict:
    def test_zero_params_give_half(self):
        params = NetParams(np.zeros((64, 32)), np.zeros(32), np.zeros((32, 4)),
                           np.zeros(4))
        out = predict(np.random.default_rng(0).random(64), params)
        assert np.allclose(out, 0.5, atol=0)

    def test_full_keep_mask_equals_no_mask(self):
        params = init_params(3)
        emb = np.random.default_rng(4).random(64)
        scale = dropout_scale(np.random.default_rng(5), 32, 1.0)
        assert np.array_equal(predict(emb, params, scale), predict(emb, params))

    def test_matches_independent_forward_pass(self):
        # second implementation written from scratch with explicit loops
        rng = np.random.default_rng(8)
        params = init_params(8)
        emb = rng.random(64)
        keep = rng.random(32) < 0.5
        scale = keep / 0.5

        hidden = np.empty(32)
        for j in range(32):
            acc = params.b1[j]
            for i in range(64):
                acc += emb[i] * params.w1[i, j]
            hidden[j] = np.tanh(acc)
        hidden = hidden * keep / 0.5
        out = np.empty(4)
        for c in range(4):
            acc = params.b2[c]
            for j in range(32):
                acc += hidden[j] * params.w2[j, c]
            out[c] = 1.0 / (1.0 + np.exp(-acc))

        got = predict(emb, params, scale)
        assert np.all(np.abs(got - out) < 1e-12)

    def test_outputs_in_open_interval(self):
        params = init_params(1)
        out = predict(np.random.default_rng(2).random(64) * 10, params)
        assert np.all((out > 0) & (out < 1))

    def test_argmax_tie_breaks_canonically(self):
        params = NetParams(np.zeros((64, 32)), np.zeros(32), np.zeros((32, 4)),
                           np.zeros(4))
        assert predict_class(np.zeros(64), params) == 0


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(11)
        for instance in range(3):
            params = init_params(instance)
            x = rng.random((6, 64))
            y = one_hot(rng.integers(0, 4, size=6))
            scale = (rng.random((6, 32)) < 0.5) / 0.5
            _, grads = loss_and_grad(params, x, y, scale)
            arrays = {"w1": params.w1, "b1": params.b1,
                      "w2": params.w2, "b2": params.b2}
            for _ in range(5):
                name = ["w1", "b1", "w2", "b2"][rng.integers(0, 4)]
                arr = arrays[name]
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                eps = 1e-6
                arr[idx] += eps
                up, _ = loss_and_grad(params, x, y, scale)
                arr[idx] -= 2 * eps
                down, _ = loss_and_grad(params, x, y, scale)
                arr[idx] += eps
                fd = (up - down) / (2 * eps)
                analytic = grads[name][idx]
                denom = max(abs(fd), abs(analytic), 1e-8)
                assert abs(fd - analytic) / denom < 1e-4


class TestTrain:
    def test_separable_data_high_accuracy(self):
        x, y = separable_embeddings()
        params = train(x, y, TrainConfig(seed=1))
        assert accuracy(params, x, y) >= 0.95

    def test_zero_epochs_returns_init(self):
        x, y = separable_embeddings(5)
        params = train(x, y, TrainConfig(epochs=0, seed=7))
        init = init_params(7)
        assert np.array_equal(params.w1, init.w1)
        assert np.array_equal(params.b2, init.b2)

    def test_missing_class_warns(self):
        x, y = separable_embeddings(4)
        keep = y != 2
        with pytest.warns(UserWarning, match="missing"):
            train(x[keep], y[keep], TrainConfig(epochs=1))

    def test_deterministic(self):
        x, y = separable_embeddings(10)
        a = train(x, y, TrainConfig(epochs=5, seed=3))
        b = train(x, y, TrainConfig(epochs=5, seed=3))
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train(np.empty((0, 64)), [], TrainConfig())

    @pytest.mark.parametrize("keep_prob", [0.0, 1.5])
    def test_keep_prob_outside_unit_interval_rejected(self, keep_prob):
        x, y = separable_embeddings(5)
        with pytest.raises(ValueError, match="keep_prob"):
            train(x, y, TrainConfig(epochs=1, keep_prob=keep_prob))


class TestFineTune:
    def test_zero_epochs_identity(self):
        x, y = separable_embeddings(5)
        base = train(x, y, TrainConfig(epochs=3, seed=2))
        tuned = fine_tune(base, x, y, TrainConfig(finetune_epochs=0))
        assert np.array_equal(tuned.w1, base.w1)
        assert np.array_equal(tuned.b1, base.b1)

    def test_same_distribution_no_degradation(self):
        x, y = separable_embeddings(30, seed=5)
        xv, yv = separable_embeddings(20, seed=5)   # same centers, same seed stream
        base = train(x, y, TrainConfig(seed=4))
        before = accuracy(base, xv, yv)
        tuned = fine_tune(base, x, y, TrainConfig(seed=4))
        after = accuracy(tuned, xv, yv)
        assert after >= before - 0.02


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        params = train(*separable_embeddings(8), TrainConfig(epochs=3, seed=9))
        path = tmp_path / "net.txt"
        save_params(params, path)
        loaded = load_params(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_params(path)
