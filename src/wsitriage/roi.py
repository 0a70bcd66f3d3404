"""Region-of-interest extraction: the positive fraction of each tile's
segmentation map and the selection of the tiles forwarded to
classification.

The segmenter is a per-pixel logistic model over local color/texture
features, fitted to the generator's ground-truth lesion masks by a fixed
number of Newton steps whose sums all run in a fixed order
(tiling.ordered_sum, tiling.blocked_sum), so its model file has the same
bits on any BLAS kernel.  A tile is selected when enough of its
segmentation map is positive; a slide whose selection comes out empty
ends as a no-ROI result downstream, never as a class prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .manifest import stable_seed
from .tables import read_arrays, write_arrays
from .tiling import Planes, Tiles, blocked_sum, blocks, ordered_sum, pixel_planes

THETA_ROI = 0.05

SEGMENTER_HEADER = "wsi-triage-segmenter v2"

N_PIXEL_FEATURES = 7

SAMPLES_PER_TILE = 300      # train_segmenter: pixels drawn per tile,
NEWTON_STEPS = 8            # Newton steps from zero,
L2 = 1e-3                   # and the L2 weight on the 7 weights
# L2 is ten times the 1e-4 of the early-stopped gradient descent the Newton
# fit replaced: converged at 1e-4 or 3e-4, the segmenter made acceptance
# criterion 7 classify most of lab_c's Other specimens as Melanocytic
# (level-0 accuracy 0.712); at 1e-3 and 3e-3 every lab read 1.000.


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
    tiles at a time; the features are standardized, then fitted by
    NEWTON_STEPS Newton steps (_newton)."""
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
    # one row per standardized feature, in float64, then a row of ones for
    # the bias: the fit's one sample-sized matrix
    design = np.ones((N_PIXEL_FEATURES + 1, len(y)))
    design[:-1] = ((x - mean) / std).T
    theta = _newton(design, y)
    return PixelSegmenter(weights=theta[:-1], bias=float(theta[-1]),
                          feat_mean=mean, feat_std=std)


def _newton(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NEWTON_STEPS Newton (IRLS) steps from zero on the mean logistic loss
    of the samples, the columns of design, plus L2 / 2 times the squared
    weights; the last row of design is the bias, which L2 leaves out.  The
    logit adds the rows in index order (tiling.ordered_sum), the gradient
    and Hessian sums over the samples run in tiling.blocked_sum's order,
    and the step solves the Hessian system by _cholesky_solve."""
    n = len(y)
    ridge = np.append(np.full(len(design) - 1, L2), 0.0)
    theta = np.zeros(len(design))
    for _ in range(NEWTON_STEPS):
        p = 1.0 / (1.0 + np.exp(-ordered_sum(design, theta)))
        gradient = blocked_sum(design, p - y) / n + ridge * theta
        p *= 1.0 - p   # each sample's weight in the Hessian
        hessian = np.diag(ridge)   # of which _cholesky_solve reads the lower triangle
        for j, row in enumerate(design):
            hessian[j:, j] += blocked_sum(design[j:], row * p) / n
        theta -= _cholesky_solve(hessian, gradient)
    return theta


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x with a x = b for a symmetric positive definite a, of which only
    the lower triangle is read: the Cholesky factor l of a (a = l l^T)
    column by column, then the two triangular solves, every entry with its
    products subtracted in index order.  A pivot that is not positive (or
    nan) raises ValueError."""
    n = len(b)
    a, l = a.tolist(), [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = _minus_products(a[j][j], l[j][:j], l[j][:j])
        if not pivot > 0.0:
            raise ValueError(f"Cholesky pivot {j} is {pivot}, not positive")
        l[j][j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            l[i][j] = _minus_products(a[i][j], l[i][:j], l[j][:j]) / l[j][j]
    z = []
    for i in range(n):
        z.append(_minus_products(b[i], l[i][:i], z) / l[i][i])
    x = []
    for i in reversed(range(n)):
        x.insert(0, _minus_products(z[i], [row[i] for row in l[i + 1:]], x) / l[i][i])
    return np.array(x)


def _minus_products(total: float, xs, ys) -> float:
    """total minus each xs[k] * ys[k], in index order."""
    for x, y in zip(xs, ys):
        total -= x * y
    return total


_ARRAY_SHAPES = {"weights": (N_PIXEL_FEATURES,), "bias": (),
                 "feat_mean": (N_PIXEL_FEATURES,), "feat_std": (N_PIXEL_FEATURES,)}


def save_segmenter(model: PixelSegmenter, path) -> None:
    write_arrays(path, SEGMENTER_HEADER,
                 {name: getattr(model, name) for name in _ARRAY_SHAPES})


def load_segmenter(path) -> PixelSegmenter:
    v = read_arrays(path, SEGMENTER_HEADER, _ARRAY_SHAPES, positive=("feat_std",))
    return PixelSegmenter(**{**v, "bias": float(v["bias"])})
