"""Tissue segmentation and decomposition of a slide raster into tiles.

A pixel counts as tissue when it is either saturated enough or dark
enough; the near-white glass background is neither.  Tiles are cut on a
fixed non-overlapping grid and kept only when they contain enough tissue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Pixels per block of per-pixel float work.  A block's float32 planes
# (256 KiB each, about 2 MiB live at once) fit a core's 2 MiB L2 cache,
# where planes over a whole 1024 x 1536 raster (6.3 MB each) do not.  On
# such rasters the tissue test was fastest at 2^15-2^16 pixels a block and
# about 1.8x slower whole; ROI and features were fastest at 4 tiles
# (2^16 pixels) a block.
BLOCK_PX = 1 << 16


def blocks(pixels: np.ndarray) -> list:
    """Slices along the first axis of an (n, ..., 3) pixel stack, each
    taking whole items (tiles, or the pixels of an (n, 3) stack) and about
    BLOCK_PX pixels, at least one item."""
    n, step = len(pixels), max(1, BLOCK_PX // math.prod(pixels.shape[1:-1]))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def ordered_sum(terms, weights):
    """The sum over k of terms[k] * weights[k], each product taken
    elementwise (broadcast) and the products added one at a time in index
    order.  Every element is the same left-to-right sum whatever the shape
    of the batch around it, and no BLAS kernel decides the order."""
    pairs = zip(terms, weights)
    total = np.multiply(*next(pairs))
    product = np.empty_like(total)
    for term, weight in pairs:
        total += np.multiply(term, weight, out=product)
    return total


@dataclass(frozen=True)
class TilingConfig:
    s_min: float = 0.08
    l_max: float = 0.82
    min_tissue_fraction: float = 0.25
    tile_px: int = 128


@dataclass(frozen=True, eq=False)
class Tiles:
    """A slide's tiles as one stack, in canonical row-major order: what
    every stage from tile() to featurize_tiles() passes on."""
    slide_id: str
    origins: np.ndarray   # (N, 2) (row, col), multiples of tile_px
    pixels: np.ndarray    # (N, tile_px, tile_px, 3) uint8

    def __len__(self):
        return len(self.origins)

    def __getitem__(self, rows):
        """The Tiles of the rows a slice, an index array or a boolean mask
        picks.  An integer drops the row axis; `for t in tiles`, which
        Python runs through integer indexes, still yields t.pixels of one
        tile, as perfbench's adaptation check reads them."""
        return Tiles(self.slide_id, self.origins[rows], self.pixels[rows])


def color_planes(pixels: np.ndarray):
    """(saturation, luma) float32 planes of an (..., 3) RGB stack, uint8 or
    float32 over 0..255.

    Saturation is (max - min) / max over the raw 0..255 channel levels;
    luma is Rec. 601 luma divided by 255, on the normalized 0..1 scale.
    """
    return _saturation_luma(*_channels(pixels))


def _channels(pixels: np.ndarray) -> list:
    """The r, g and b planes of an (..., 3) stack, as contiguous float32."""
    return [pixels[..., c].astype(np.float32) for c in range(3)]


def _saturation_luma(r: np.ndarray, g: np.ndarray, b: np.ndarray):
    """color_planes of the channel planes, written into as few new planes
    as the operations allow."""
    mx = np.maximum(r, g)
    np.maximum(mx, b, out=mx)
    saturation = np.minimum(r, g)
    np.minimum(saturation, b, out=saturation)
    np.subtract(mx, saturation, out=saturation)
    saturation /= np.maximum(mx, np.float32(1e-12), out=mx)
    luma = np.float32(0.299) * r
    luma += np.multiply(np.float32(0.587), g, out=mx)
    luma += np.multiply(np.float32(0.114), b, out=mx)
    luma /= np.float32(255.0)
    return saturation, luma


def gradient_magnitude(plane: np.ndarray) -> np.ndarray:
    """Central-difference gradient magnitude over the last two axes, so a
    stack of tiles never mixes pixels across tiles."""
    return np.hypot(np.gradient(plane, axis=-2), np.gradient(plane, axis=-1))


class Planes(NamedTuple):
    """The float32 planes of one tile or a stack of tiles that the ROI
    logit and the tile features read, each taken once (pixel_planes)."""
    r: np.ndarray            # the channels over 0..255
    g: np.ndarray
    b: np.ndarray
    saturation: np.ndarray   # color_planes
    luma: np.ndarray
    grad: np.ndarray         # gradient_magnitude(luma)


def pixel_planes(pixels: np.ndarray) -> Planes:
    """The Planes of an (H, W, 3) tile or an (N, H, W, 3) stack of uint8
    pixels; each channel is cast to float32 once."""
    channels = _channels(np.asarray(pixels))
    saturation, luma = _saturation_luma(*channels)
    return Planes(*channels, saturation, luma, gradient_magnitude(luma))


def segment_tissue(raster: np.ndarray, config: TilingConfig = TilingConfig()) -> np.ndarray:
    """Boolean tissue mask: saturation >= s_min or luma <= l_max, with the
    planes of color_planes().  Works on any (..., 3) stack of rasters.

    The pixels are taken in flat blocks of BLOCK_PX, each block's mask
    written into the preallocated output.  The test is elementwise, so the
    mask is bitwise the one a single pass over the whole input gives."""
    if raster.size == 0:
        raise ValueError("empty raster")
    flat = raster.reshape(-1, 3)
    mask = np.empty(len(flat), dtype=bool)
    for rows in blocks(flat):
        mask[rows] = tissue_mask(*color_planes(flat[rows]), config)
    return mask.reshape(raster.shape[:-1])


def tissue_mask(saturation: np.ndarray, luma: np.ndarray,
                config: TilingConfig = TilingConfig()) -> np.ndarray:
    """The tissue test on planes already taken with color_planes()."""
    return (saturation >= config.s_min) | (luma <= config.l_max)


def tile(raster: np.ndarray, mask: np.ndarray, slide_id: str = "",
         config: TilingConfig = TilingConfig()) -> Tiles:
    """Cut the raster into grid-aligned tiles with enough tissue.

    Non-overlapping tile_px x tile_px cells in row-major order; a cell is
    kept iff its tissue fraction is >= min_tissue_fraction.  Edge
    remainders smaller than a full tile are dropped.  The kept cells are
    gathered from a strided view of the raster, so only their pixels are
    copied.
    """
    if mask.shape != raster.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} != raster shape {raster.shape[:2]}")
    t = config.tile_px
    n_rows, n_cols = raster.shape[0] // t, raster.shape[1] // t
    fractions = (mask[: n_rows * t, : n_cols * t].reshape(n_rows, t, n_cols, t)
                 .mean(axis=(1, 3), dtype=np.float64))
    cells = (raster[: n_rows * t, : n_cols * t]
             .reshape(n_rows, t, n_cols, t, 3).swapaxes(1, 2))
    kept = np.argwhere(fractions >= config.min_tissue_fraction)
    i, j = kept.T
    return Tiles(slide_id, kept * t, cells[i, j])
