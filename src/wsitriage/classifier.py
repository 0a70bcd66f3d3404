"""Slide classification: tile features, mean pooling to a slide embedding,
and a small fully-connected network with per-class sigmoid outputs.

The network is 64 -> 32 (tanh) -> 4, trained on summed per-class binary
cross-entropy, so each output is an independent binary probability rather
than a normalized distribution.  A stochastic mask over the hidden layer
(keep probability 0.30, survivors scaled by 1/0.30) is applied both during
training and during repeated inference for confidence scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .manifest import N_CLASSES, stable_seed
from .tables import interval, read_arrays, write_arrays
from .tiling import Tiles, TilingConfig, blocks, ordered_sum, pixel_planes, tissue_mask

CLASSIFIER_HEADER = "wsi-triage-classifier v2"

N_FEATURES = 64
N_HIDDEN = 32
N_COLOR_BINS = 16
N_GRAD_BINS = 16
GRAD_RANGE = 0.5
KEEP_PROB = 0.30


def featurize_tiles(tiles: Tiles, config: TilingConfig = TilingConfig()) -> np.ndarray:
    """(N, 64) features of tiles: per tile, a 16-bin color histogram per
    channel over its tissue pixels (uniform without tissue), then a 16-bin
    gradient-magnitude histogram over the whole tile; each of the four
    histograms is L1-normalized.  The rows are taken a block of whole
    tiles at a time (see tiling.blocks)."""
    pixels = tiles.pixels
    features = np.empty((len(pixels), N_FEATURES))
    for rows in blocks(pixels):
        planes = pixel_planes(pixels[rows])
        features[rows] = block_features(pixels[rows], planes.saturation, planes.luma,
                                        planes.grad, config)
    return features


def block_features(stack: np.ndarray, saturation: np.ndarray, luma: np.ndarray,
                   grad: np.ndarray, config: TilingConfig) -> np.ndarray:
    """featurize_tiles' rows of an (n, H, W, 3) uint8 block whose
    pixel_planes are saturation, luma and grad, in one vectorized pass."""
    masks = tissue_mask(saturation, luma, config)
    grad_bins = np.minimum((grad * (N_GRAD_BINS / GRAD_RANGE)).astype(np.intp),
                           N_GRAD_BINS - 1)

    # one bincount per histogram kind over all tiles: tile i counts into
    # bins [16 i, 16 i + 16); non-tissue pixels count into a spare last tile
    n = len(stack)
    offsets = (np.arange(n, dtype=np.intp) * N_COLOR_BINS)[:, None, None]
    color_base = np.where(masks, offsets, n * N_COLOR_BINS)
    color = np.stack([
        np.bincount((color_base + (stack[..., c] >> 4)).reshape(-1),
                    minlength=(n + 1) * N_COLOR_BINS)[:n * N_COLOR_BINS]
        .reshape(n, N_COLOR_BINS)
        for c in range(3)], axis=1)
    grad_hist = np.bincount((grad_bins + offsets).reshape(-1),
                            minlength=n * N_GRAD_BINS).reshape(n, N_GRAD_BINS)

    # a tile without tissue keeps uniform color histograms
    n_tissue = masks.sum(axis=(1, 2))[:, None, None]
    color_hists = np.full((n, 3, N_COLOR_BINS), 1.0 / N_COLOR_BINS)
    np.divide(color, n_tissue, out=color_hists, where=n_tissue > 0)
    return np.concatenate([color_hists.reshape(n, 3 * N_COLOR_BINS),
                           grad_hist / grad_hist.sum(axis=1, keepdims=True)], axis=1)


def pool(features: np.ndarray) -> np.ndarray:
    """Componentwise mean of the (N, 64) tile features (order-invariant)."""
    if len(features) == 0:
        raise ValueError("cannot pool an empty feature set; no-ROI slides "
                         "must be handled before classification")
    return np.mean(features, axis=0)


@dataclass(frozen=True)
class NetParams:
    w1: np.ndarray   # (64, 32)
    b1: np.ndarray   # (32,)
    w2: np.ndarray   # (32, 4)
    b2: np.ndarray   # (4,)


def dropout_scale(rng: np.random.Generator, shape, keep_prob: float) -> np.ndarray:
    """Hidden-unit scaling of shape `shape`: each unit is kept with
    probability keep_prob and survivors are scaled by 1/keep_prob."""
    keep_prob = interval(0, 1, "keep_prob", open_low=True)(keep_prob)
    return (rng.random(shape) < keep_prob) / keep_prob


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_params(seed: int = 0) -> NetParams:
    rng = np.random.default_rng(stable_seed("classifier-init", seed))
    return NetParams(
        w1=rng.normal(0.0, 1.0 / np.sqrt(N_FEATURES), size=(N_FEATURES, N_HIDDEN)),
        b1=np.zeros(N_HIDDEN),
        w2=rng.normal(0.0, 1.0 / np.sqrt(N_HIDDEN), size=(N_HIDDEN, N_CLASSES)),
        b2=np.zeros(N_CLASSES),
    )


def _forward(x: np.ndarray, params: NetParams, scale: np.ndarray | None):
    """(hidden units, scaled hidden units, the 4 sigmoids) of one embedding
    or of a batch; scale omits hidden units and rescales the survivors,
    None uses all units unscaled.  Each product adds its 64, then 32 terms
    in index order (tiling.ordered_sum), so a row of a batch has the bits
    of its own pass."""
    # term k is x's column k as (n, 1), or its entry k; weight k is row k
    h = np.tanh(ordered_sum(x.T[..., None], params.w1) + params.b1)
    hm = h if scale is None else h * scale
    return h, hm, _sigmoid(ordered_sum(hm.T[..., None], params.w2) + params.b2)


def predict(embedding: np.ndarray, params: NetParams,
            scale: np.ndarray | None = None) -> np.ndarray:
    """Forward pass to the 4 per-class sigmoids of an embedding or of a
    batch of them; scale is dropout_scale rows, or None for all units
    unscaled.

    Outputs are clamped away from exact 0/1 so saturated units still
    yield valid strictly-(0,1) probabilities downstream.
    """
    return np.clip(_forward(embedding, params, scale)[2], 1e-12, 1.0 - 1e-12)


def one_hot(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((len(labels), N_CLASSES))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def loss_and_grad(params: NetParams, x: np.ndarray, y: np.ndarray,
                  mask_scale: np.ndarray):
    """Mean summed-per-class BCE over the batch and its analytic gradient.

    mask_scale is the (N, 32) per-sample hidden scaling (mask / keep_prob,
    or ones for no dropout); fixing it makes the loss deterministic, which
    the finite-difference gradient check relies on.
    """
    n = len(x)
    h, hm, p = _forward(x, params, mask_scale)

    eps = 1e-12
    loss = float(-(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)).sum() / n)

    dz2 = (p - y) / n
    gw2 = hm.T @ dz2
    gb2 = dz2.sum(axis=0)
    dh = (dz2 @ params.w2.T) * mask_scale
    dz1 = dh * (1.0 - h * h)
    gw1 = x.T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.8
    batch_size: int = 32
    seed: int = 0
    keep_prob: float = KEEP_PROB
    finetune_lr_scale: float = 0.1
    finetune_epochs: int = 60


def train(x: np.ndarray, labels, config: TrainConfig = TrainConfig(),
          params: NetParams | None = None) -> NetParams:
    """Seeded minibatch SGD with per-sample stochastic hidden masks.

    Starts from a fresh seeded initialization unless params is given (the
    fine-tuning path).  Missing classes in the labels produce a warning,
    not a failure.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ValueError("empty training set")
    missing = sorted(set(range(N_CLASSES)) - set(labels.tolist()))
    if missing:
        import warnings
        warnings.warn(f"training set is missing classes {missing}", stacklevel=2)

    lr = config.learning_rate
    if params is None:
        params = init_params(config.seed)
    y = one_hot(labels)
    rng = np.random.default_rng(stable_seed("classifier-train", config.seed))

    n = len(x)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            scale = dropout_scale(rng, (len(idx), N_HIDDEN), config.keep_prob)
            _, g = loss_and_grad(params, x[idx], y[idx], scale)
            # out of place: the params passed in are never written
            params = NetParams(*(getattr(params, k) - lr * g[k] for k in _PARAM_SHAPES))
    return params


def fine_tune(params: NetParams, x: np.ndarray, labels,
              config: TrainConfig = TrainConfig()) -> NetParams:
    """Continue training on calibration data at a reduced learning rate."""
    return train(x, labels, replace(
        config, learning_rate=config.learning_rate * config.finetune_lr_scale,
        epochs=config.finetune_epochs), params=params)


def accuracy(params: NetParams, x: np.ndarray, labels) -> float:
    """Share of the embeddings whose unmasked argmax is their label; ties
    break to the canonical class order."""
    preds = np.argmax(predict(np.asarray(x, dtype=np.float64), params), axis=1)
    return float(np.mean(preds == np.asarray(labels, dtype=int)))


_PARAM_SHAPES = {"w1": (N_FEATURES, N_HIDDEN), "b1": (N_HIDDEN,),
                 "w2": (N_HIDDEN, N_CLASSES), "b2": (N_CLASSES,)}


def save_params(params: NetParams, path) -> None:
    write_arrays(path, CLASSIFIER_HEADER,
                 {name: getattr(params, name) for name in _PARAM_SHAPES})


def load_params(path) -> NetParams:
    v = read_arrays(path, CLASSIFIER_HEADER, _PARAM_SHAPES)
    return NetParams(*(v[name] for name in _PARAM_SHAPES))
