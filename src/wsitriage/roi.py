"""Region-of-interest extraction: the positive fraction of each tile's
segmentation map and the selection of the tiles forwarded to
classification.

The segmenter is a per-pixel logistic model over local color/texture
features, trained on the generator's ground-truth lesion masks.  A tile is
selected when enough of its segmentation map is positive; a slide whose
selection comes out empty ends as a no-ROI result downstream, never as a
class prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .manifest import stable_seed
from .tables import read_arrays, write_arrays
from .tiling import Tiles, blocks, color_planes, gradient_magnitude

THETA_ROI = 0.05

SEGMENTER_HEADER = "wsi-triage-segmenter v2"

N_PIXEL_FEATURES = 7


def pixel_features(pixels: np.ndarray) -> np.ndarray:
    """(..., H, W, 7) feature stack: rgb, saturation, darkness, gradient,
    local std.  Accepts one tile (H, W, 3) or a stack (N, H, W, 3); the
    local filters never mix pixels across tiles."""
    pixels = np.asarray(pixels).astype(np.float32)   # each channel converted once
    one = np.float32(1.0)
    r, g, b = (pixels[..., c] / np.float32(255.0) for c in range(3))
    saturation, luma = color_planes(pixels)
    del pixels   # held to the end, the float32 stack would raise the peak memory
    grad = gradient_magnitude(luma)
    size = (1,) * (luma.ndim - 2) + (5, 5)
    m = ndimage.uniform_filter(luma, size=size, mode="nearest")
    m2 = ndimage.uniform_filter(luma * luma, size=size, mode="nearest")
    local_std = np.sqrt(np.maximum(m2 - m * m, np.float32(0.0)))
    return np.stack([r, g, b, saturation, one - luma, grad, local_std], axis=-1)


@dataclass(frozen=True)
class ROISelection:
    selected: Tiles     # tiles kept, in canonical row-major order

    def __len__(self):
        return len(self.selected)

    @property
    def empty(self) -> bool:
        return not self.selected


@dataclass(frozen=True)
class PixelSegmenter:
    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def scores(self, pixels: np.ndarray) -> np.ndarray:
        """Per-pixel logits; standardization is folded into the weights so
        the whole map is one float32 matmul."""
        folded_w = (self.weights / self.feat_std).astype(np.float32)
        folded_b = np.float32(self.bias - float((self.feat_mean / self.feat_std)
                                                @ self.weights))
        return pixel_features(pixels) @ folded_w + folded_b


def segment_tiles(tiles: Tiles, model: PixelSegmenter) -> np.ndarray:
    """(N,) positive fractions of the (adapted) tiles' lesion maps; a pixel
    is positive at threshold 0.5 on the logistic output, i.e. 0 on the
    logit.  The logits are taken a block of whole tiles at a time (see
    tiling.blocks), and only each block's fractions are kept."""
    pixels = tiles.pixels
    fractions = np.empty(len(pixels))
    for rows in blocks(pixels):
        fractions[rows] = (model.scores(pixels[rows]) >= 0.0).mean(axis=(1, 2))
    return fractions


def select(tiles: Tiles, fractions, theta: float = THETA_ROI) -> ROISelection:
    """Keep tiles whose positive fraction reaches theta; may be empty."""
    fractions = np.asarray(fractions)
    if len(tiles) != len(fractions):
        raise ValueError(f"{len(tiles)} tiles but {len(fractions)} positive fractions")
    return ROISelection(tiles[fractions >= theta])


def train_segmenter(pairs, seed: int = 0, samples_per_tile: int = 300,
                    epochs: int = 150, learning_rate: float = 2.0,
                    l2: float = 1e-4) -> PixelSegmenter:
    """Fit the logistic pixel model on (tile_pixels, truth_mask) pairs.

    Pixels are subsampled per tile, balanced between classes where
    possible; training is deterministic full-batch gradient descent.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no training pairs")
    rng = np.random.default_rng(stable_seed("segmenter", seed))
    xs, ys = [], []
    half = samples_per_tile // 2
    for pixels, mask in pairs:
        feats = pixel_features(pixels).reshape(-1, N_PIXEL_FEATURES)
        flat = np.asarray(mask, dtype=bool).reshape(-1)
        pos = np.flatnonzero(flat)
        neg = np.flatnonzero(~flat)
        for idx, want in ((pos, half), (neg, half)):
            if len(idx) == 0:
                continue
            take = rng.choice(idx, size=min(want, len(idx)), replace=False)
            xs.append(feats[take])
            ys.append(flat[take])
    x = np.concatenate(xs)
    y = np.concatenate(ys).astype(np.float64)
    if y.min() == y.max():
        raise ValueError("training pairs contain a single pixel class only")

    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-6)
    xs_std = (x - mean) / std

    w = np.zeros(N_PIXEL_FEATURES)
    b = 0.0
    n = len(y)
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(xs_std @ w + b)))
        err = p - y
        w -= learning_rate * (xs_std.T @ err / n + l2 * w)
        b -= learning_rate * float(err.mean())
    return PixelSegmenter(weights=w, bias=b, feat_mean=mean, feat_std=std)


def save_segmenter(model: PixelSegmenter, path) -> None:
    write_arrays(path, SEGMENTER_HEADER, {
        "weights": model.weights, "bias": model.bias,
        "feat_mean": model.feat_mean, "feat_std": model.feat_std})


def load_segmenter(path) -> PixelSegmenter:
    v = read_arrays(path, SEGMENTER_HEADER, ("weights", "bias", "feat_mean", "feat_std"))
    return PixelSegmenter(weights=v["weights"], bias=float(v["bias"]),
                          feat_mean=v["feat_mean"], feat_std=v["feat_std"])
