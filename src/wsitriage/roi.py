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
from .tiling import Planes, Tiles, blocks, ordered_sum, pixel_planes

THETA_ROI = 0.05

SEGMENTER_HEADER = "wsi-triage-segmenter v2"

N_PIXEL_FEATURES = 7

SAMPLES_PER_TILE = 300      # train_segmenter: pixels drawn per tile,
EPOCHS = 150                # and its full-batch gradient descent
LEARNING_RATE = 2.0
L2 = 1e-4


def _feature_planes(planes: Planes):
    """The segmenter's 7 feature planes in order, each made when it is asked
    for: rgb, saturation, darkness, gradient, local std.  The local filters
    run over the last two axes, so they never mix pixels across tiles."""
    for channel in (planes.r, planes.g, planes.b):
        yield channel / np.float32(255.0)
    yield planes.saturation
    yield np.float32(1.0) - planes.luma
    yield planes.grad
    luma = planes.luma
    size = (1,) * (luma.ndim - 2) + (5, 5)
    m = ndimage.uniform_filter(luma, size=size, mode="nearest")
    m2 = ndimage.uniform_filter(luma * luma, size=size, mode="nearest")
    m *= m
    m2 -= m
    yield np.sqrt(np.maximum(m2, np.float32(0.0), out=m2), out=m2)


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

    def logits(self, planes: Planes) -> np.ndarray:
        """Per-pixel float32 logits from planes already taken.  The
        standardization is folded into the weights and the bias, and the
        7 weighted feature planes are added in _feature_planes' order
        (tiling.ordered_sum), then the bias: no feature stack is built."""
        weights = (self.weights / self.feat_std).astype(np.float32)
        shift = ordered_sum(self.feat_mean / self.feat_std, self.weights)
        logits = ordered_sum(_feature_planes(planes), weights)
        logits += np.float32(self.bias - shift)
        return logits


def segment_tiles(tiles: Tiles, model: PixelSegmenter) -> np.ndarray:
    """(N,) positive fractions of the (adapted) tiles' lesion maps.  The
    logits are taken a block of whole tiles at a time (see tiling.blocks),
    and only each block's fractions are kept."""
    pixels = tiles.pixels
    fractions = np.empty(len(pixels))
    for rows in blocks(pixels):
        fractions[rows] = positive_fractions(pixel_planes(pixels[rows]), model)
    return fractions


def positive_fractions(planes: Planes, model: PixelSegmenter) -> np.ndarray:
    """(N,) positive fractions of the lesion maps of a stack of tiles whose
    pixel_planes are planes; a pixel is positive at threshold 0.5 on the
    logistic output, i.e. 0 on the logit."""
    return (model.logits(planes) >= 0.0).mean(axis=(1, 2))


def select(tiles: Tiles, fractions, theta: float = THETA_ROI) -> ROISelection:
    """Keep tiles whose positive fraction reaches theta; may be empty."""
    fractions = np.asarray(fractions)
    if len(tiles) != len(fractions):
        raise ValueError(f"{len(tiles)} tiles but {len(fractions)} positive fractions")
    return ROISelection(tiles[fractions >= theta])


def train_segmenter(pairs, seed: int = 0) -> PixelSegmenter:
    """Fit the logistic pixel model on (pixels, masks) pairs: a slide's
    (N, H, W, 3) adapted tiles and their (N, H, W) lesion masks.  Each tile
    gives up to SAMPLES_PER_TILE // 2 pixels of each class, positives first,
    with features gathered from the ROI logit's planes a block of whole
    tiles at a time; then deterministic full-batch gradient descent."""
    pairs = list(pairs)
    if not any(len(pixels) for pixels, _ in pairs):
        raise ValueError("no training tiles")
    rng = np.random.default_rng(stable_seed("segmenter", seed))
    xs, ys = [], []
    for pixels, masks in pairs:
        for rows in blocks(pixels):
            flat = np.asarray(masks[rows], dtype=bool).reshape(len(pixels[rows]), -1)
            take = []
            for i, tile_mask in enumerate(flat):
                for idx in (np.flatnonzero(tile_mask), np.flatnonzero(~tile_mask)):
                    if len(idx):
                        take.append(i * flat.shape[1] + rng.choice(
                            idx, size=min(SAMPLES_PER_TILE // 2, len(idx)), replace=False))
            take = np.concatenate(take)
            planes = _feature_planes(pixel_planes(pixels[rows]))
            xs.append(np.stack([plane.reshape(-1)[take] for plane in planes], axis=1))
            ys.append(flat.reshape(-1)[take])
    x = np.concatenate(xs)
    y = np.concatenate(ys).astype(np.float64)
    if y.min() == y.max():
        raise ValueError("training pairs contain a single pixel class only")

    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-6)
    # the float32 samples cast to float64 once, as each product would cast
    # them; the transpose is made C-contiguous, the layout that product's
    # cast gives, so BLAS runs the same routine and keeps the bits
    xs = ((x - mean) / std).astype(np.float64)
    xs_t = np.ascontiguousarray(xs.T)

    w = np.zeros(N_PIXEL_FEATURES)
    b = 0.0
    n = len(y)
    for _ in range(EPOCHS):
        p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
        err = p - y
        w -= LEARNING_RATE * (xs_t @ err / n + L2 * w)
        b -= LEARNING_RATE * float(err.mean())
    return PixelSegmenter(weights=w, bias=b, feat_mean=mean, feat_std=std)


_ARRAY_SHAPES = {"weights": (N_PIXEL_FEATURES,), "bias": (),
                 "feat_mean": (N_PIXEL_FEATURES,), "feat_std": (N_PIXEL_FEATURES,)}


def save_segmenter(model: PixelSegmenter, path) -> None:
    write_arrays(path, SEGMENTER_HEADER,
                 {name: getattr(model, name) for name in _ARRAY_SHAPES})


def load_segmenter(path) -> PixelSegmenter:
    v = read_arrays(path, SEGMENTER_HEADER, _ARRAY_SHAPES)
    return PixelSegmenter(**{**v, "bias": float(v["bias"])})
