"""Appearance standardization: map tiles from any lab into the reference
domain by matching per-channel color statistics.

Statistics live in a decorrelated log color space (log-LMS rotated onto
its principal axes), where per-channel scale/shift transfer is a good
approximation of full distribution matching for stain-like color shifts.
The stage contract is tile in, appearance-standardized tile of the same
shape out, so a learned model could replace this implementation behind
the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import read_arrays, write_arrays
from .tiling import Tile, TilingConfig, segment_tissue

ADAPTER_HEADER = "wsi-triage-adapter v2"

STD_FLOOR = 1e-6

_RGB2LMS = np.array([
    [0.3811, 0.5783, 0.0402],
    [0.1967, 0.7244, 0.0782],
    [0.0241, 0.1288, 0.8444],
])
_LMS2RGB = np.linalg.inv(_RGB2LMS)

_DECOR = np.diag([1.0 / np.sqrt(3.0), 1.0 / np.sqrt(6.0), 1.0 / np.sqrt(2.0)]) @ np.array([
    [1.0, 1.0, 1.0],
    [1.0, 1.0, -2.0],
    [1.0, -1.0, 0.0],
])
_DECOR_INV = np.linalg.inv(_DECOR)

_LMS_FLOOR = 1e-6


def to_decorrelated(rgb: np.ndarray) -> np.ndarray:
    """(..., 3) uint8/float RGB -> (..., 3) decorrelated log-space values."""
    flat = np.asarray(rgb, dtype=np.float64).reshape(-1, 3) / 255.0
    lms = np.maximum(flat @ _RGB2LMS.T, _LMS_FLOOR)
    return (np.log10(lms) @ _DECOR.T).reshape(np.shape(rgb))


def from_decorrelated(vals: np.ndarray) -> np.ndarray:
    """Inverse of to_decorrelated; returns float RGB in gray levels (unclamped)."""
    flat = np.asarray(vals, dtype=np.float64).reshape(-1, 3)
    lms = np.power(10.0, flat @ _DECOR_INV.T)
    return (lms @ _LMS2RGB.T).reshape(np.shape(vals)) * 255.0


@dataclass(frozen=True)
class DomainStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(3))
        std = np.maximum(np.asarray(self.std, dtype=float).reshape(3), STD_FLOOR)
        object.__setattr__(self, "std", std)

    def __eq__(self, other):
        if not isinstance(other, DomainStats):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.std, other.std)


@dataclass(frozen=True)
class AdapterModel:
    source: DomainStats
    target: DomainStats

    @property
    def is_identity(self) -> bool:
        return self.source == self.target


def fit_stats(tiles, config: TilingConfig = TilingConfig()) -> DomainStats:
    """Mean/std over the tissue pixels of a tile sample, in decorrelated space.

    Tiles without tissue pixels do not contribute; if the whole sample has
    none (blank corpus), all pixels are used instead.
    """
    if not tiles:
        raise ValueError("cannot fit domain stats on an empty tile sample")
    chunks = []
    all_pixels = []
    for t in tiles:
        pixels = t.pixels if isinstance(t, Tile) else np.asarray(t)
        mask = segment_tissue(pixels, config)
        chunks.append(pixels[mask])
        all_pixels.append(pixels.reshape(-1, 3))
    tissue = [c for c in chunks if len(c)]
    stacked = np.concatenate(tissue if tissue else all_pixels)
    vals = to_decorrelated(stacked)
    return DomainStats(mean=vals.mean(axis=0), std=vals.std(axis=0))


def _pack(rgb: np.ndarray) -> np.ndarray:
    """(n, 3) uint8 rows -> (n,) uint32 codes (r << 16) | (g << 8) | b."""
    return ((rgb[:, 0].astype(np.uint32) << 16) | (rgb[:, 1].astype(np.uint32) << 8)
            | rgb[:, 2])


def _unpack(codes: np.ndarray, rgb: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _pack, written into rgb when given."""
    if rgb is None:
        rgb = np.empty((len(codes), 3), dtype=np.uint8)
    rgb[:, 0] = codes >> 16
    rgb[:, 1] = codes >> 8
    rgb[:, 2] = codes
    return rgb


def _transfer(rgb: np.ndarray, model: AdapterModel) -> np.ndarray:
    """Reinhard transfer of (n, 3) uint8 rows in float32 log-LMS space;
    returns the adapted (n, 3) uint8 rows.  The per-pixel transform runs
    in float32 (the result is rounded to 8-bit gray levels anyway);
    statistics fitting stays float64."""
    flat = rgb.astype(np.float32) / np.float32(255.0)
    lms = np.maximum(flat @ _RGB2LMS.T.astype(np.float32), np.float32(_LMS_FLOOR))
    vals = np.log10(lms) @ _DECOR.T.astype(np.float32)
    scale = (model.target.std / model.source.std).astype(np.float32)
    shift = (model.target.mean - model.source.mean * model.target.std
             / model.source.std).astype(np.float32)
    vals *= scale
    vals += shift
    lms = np.power(np.float32(10.0), vals @ _DECOR_INV.T.astype(np.float32))
    adapted = (lms @ _LMS2RGB.T.astype(np.float32)) * np.float32(255.0)
    np.rint(adapted, out=adapted)
    np.clip(adapted, 0, 255, out=adapted)
    return adapted.astype(np.uint8)


def adapt_pixels(pixels: np.ndarray, model: AdapterModel,
                 config: TilingConfig = TilingConfig()) -> np.ndarray:
    """Standardize an (..., 3) RGB array; returns a new uint8 array of the
    same shape.

    Only tissue pixels are transformed, mirroring the tissue-only fit;
    background glass is already standard and dragging it through the
    transfer would tint it into phantom tissue.  A pixel's result depends
    on its RGB code alone, so the tissue test and the transfer run once
    per distinct code (the palette) and are scattered back to the pixels:
    one sort of (code << 32 | position) keys finds the palette as runs of
    equal codes and, in its low half, where each pixel goes.
    """
    out = np.asarray(pixels, dtype=np.uint8).copy()
    if model.is_identity:
        return out
    if out.size == 0:
        raise ValueError("empty raster")
    flat = out.reshape(-1, 3)
    keys = _pack(flat).astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= np.arange(len(flat), dtype=np.uint64)
    keys.sort()
    sorted_codes = (keys >> np.uint64(32)).astype(np.uint32)
    starts = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    palette = _unpack(sorted_codes[np.concatenate(([0], starts))])
    tissue = segment_tissue(palette, config)
    palette[tissue] = _transfer(palette[tissue], model)
    counts = np.diff(np.concatenate(([0], starts, [len(flat)])))
    codes = np.empty(len(flat), dtype=np.uint32)
    codes[(keys & np.uint64(0xFFFFFFFF)).astype(np.intp)] = np.repeat(_pack(palette), counts)
    _unpack(codes, flat)
    return out


def adapt(t: Tile, model: AdapterModel) -> Tile:
    """Map one tile into the target domain; shape and metadata preserved."""
    return Tile(t.slide_id, t.origin, adapt_pixels(t.pixels, model), t.tissue_fraction)


def adapt_tiles(tiles, model: AdapterModel | None,
                config: TilingConfig = TilingConfig()) -> list:
    """Batch form of adapt(); None passes tiles through unchanged."""
    tiles = list(tiles)
    if model is None or not tiles:
        return tiles
    stacked = adapt_pixels(np.stack([t.pixels for t in tiles]), model, config)
    return [Tile(t.slide_id, t.origin, px, t.tissue_fraction)
            for t, px in zip(tiles, stacked)]


def save_adapter(model: AdapterModel, path) -> None:
    write_arrays(path, ADAPTER_HEADER, {
        "source_mean": model.source.mean, "source_std": model.source.std,
        "target_mean": model.target.mean, "target_std": model.target.std})


def load_adapter(path) -> AdapterModel:
    v = read_arrays(path, ADAPTER_HEADER,
                    ("source_mean", "source_std", "target_mean", "target_std"))
    return AdapterModel(source=DomainStats(v["source_mean"], v["source_std"]),
                        target=DomainStats(v["target_mean"], v["target_std"]))
