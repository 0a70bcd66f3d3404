"""Appearance standardization: map tiles from any lab into the reference
domain by matching per-channel color statistics.

Statistics live in a decorrelated log color space (log-LMS rotated onto
its principal axes), where per-channel scale/shift transfer is a good
approximation of full distribution matching for stain-like color shifts.
The stage contract is tiles in, appearance-standardized tiles of the same
shape out, so a learned model could replace this implementation behind
the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tables import read_arrays, write_arrays
from .tiling import Tiles, TilingConfig, blocks, mix, segment_tissue

ADAPTER_HEADER = "wsi-triage-adapter v2"

STD_FLOOR = 1e-6

_RGB2LMS = np.array([
    [0.3811, 0.5783, 0.0402],
    [0.1967, 0.7244, 0.0782],
    [0.0241, 0.1288, 0.8444],
])
# The inverse is the adjugate over the determinant.  The adjugate's rows
# are the cross products of the columns, so no BLAS or LAPACK routine runs
# and no OpenBLAS kernel (OPENBLAS_CORETYPE) can move its bits.
_c0, _c1, _c2 = _RGB2LMS.T
_LMS2RGB = np.array([np.cross(_c1, _c2), np.cross(_c2, _c0), np.cross(_c0, _c1)])
_LMS2RGB /= sum(_c0 * _LMS2RGB[0])

# Orthonormal rows, so its inverse is its transpose.
_DECOR = np.array([
    [1.0, 1.0, 1.0],
    [1.0, 1.0, -2.0],
    [1.0, -1.0, 0.0],
]) * (1.0 / np.sqrt([3.0, 6.0, 2.0]))[:, None]

_LMS_FLOOR = 1e-6


def _decorrelated(rgb: np.ndarray, dtype) -> list:
    """The three decorrelated log-space planes of (n, 3) RGB rows, in dtype."""
    channels = [rgb[:, c].astype(dtype) / dtype(255.0) for c in range(3)]
    lms = [np.log10(np.maximum(plane, dtype(_LMS_FLOOR)))
           for plane in mix(_RGB2LMS, channels, dtype)]
    return mix(_DECOR, lms, dtype)


def to_decorrelated(rgb: np.ndarray, dtype=np.float64) -> np.ndarray:
    """(..., 3) uint8/float RGB -> (..., 3) decorrelated log-space values in dtype."""
    rgb = np.asarray(rgb)
    return np.stack(_decorrelated(rgb.reshape(-1, 3), dtype), axis=-1).reshape(rgb.shape)


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


def fit_stats(pixels, config: TilingConfig = TilingConfig()) -> DomainStats:
    """Mean/std over the tissue pixels of an (..., 3) uint8 pixel stack, in
    decorrelated space; over all its pixels if it has none (blank corpus).
    The tissue test and the transform run once per distinct RGB code, and
    the moments are pooled over the codes, weighted by their pixel counts.
    The codes are packed a block at a time (tiling.blocks) into one uint32
    array and sorted in place, so no temporary the size of the stack is
    made beyond that array."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.size == 0:
        raise ValueError("cannot fit domain stats on an empty tile sample")
    flat = pixels.reshape(-1, 3)
    codes = np.empty(len(flat), dtype=np.uint32)
    for rows in blocks(flat):
        codes[rows] = _pack(flat[rows])
    codes.sort()
    distinct, counts = _runs(codes)
    palette = _unpack(distinct)
    tissue = segment_tissue(palette, config)
    if tissue.any():
        palette, counts = palette[tissue], counts[tissue]
    vals = np.array(_decorrelated(palette, np.float64))  # rows contiguous: pairwise sums
    mean = (vals * counts).sum(axis=1) / counts.sum()
    var = ((vals - mean[:, None]) ** 2 * counts).sum(axis=1) / counts.sum()
    return DomainStats(mean=mean, std=np.sqrt(var))


def _pack(rgb: np.ndarray) -> np.ndarray:
    """(n, 3) uint8 rows -> (n,) uint32 codes (r << 16) | (g << 8) | b."""
    return ((rgb[:, 0].astype(np.uint32) << 16) | (rgb[:, 1].astype(np.uint32) << 8)
            | rgb[:, 2])


def _runs(sorted_codes: np.ndarray):
    """(each distinct code, its run length) of sorted codes, in order."""
    starts = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    bounds = np.concatenate(([0], starts, [len(sorted_codes)]))
    return sorted_codes[bounds[:-1]], np.diff(bounds)


def _unpack(codes: np.ndarray, rgb: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _pack, written into rgb when given."""
    if rgb is None:
        rgb = np.empty((len(codes), 3), dtype=np.uint8)
    rgb[:, 0] = codes >> 16
    rgb[:, 1] = codes >> 8
    rgb[:, 2] = codes
    return rgb


def _transfer(rgb: np.ndarray, model: AdapterModel) -> np.ndarray:
    """Reinhard transfer of (n, 3) uint8 rows in float32 log-LMS space (the
    result is rounded to 8-bit gray levels anyway); returns the new rows."""
    scale = (model.target.std / model.source.std).astype(np.float32)
    shift = (model.target.mean - model.source.mean * model.target.std
             / model.source.std).astype(np.float32)
    vals = [plane * s + t for plane, s, t in zip(_decorrelated(rgb, np.float32), scale, shift)]
    # _DECOR.T is the inverse rotation
    lms = [np.power(np.float32(10.0), plane) for plane in mix(_DECOR.T, vals, np.float32)]
    adapted = np.stack(mix(_LMS2RGB, lms, np.float32), axis=-1) * np.float32(255.0)
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
    one sort of (position, code) uint32 pairs, read as little-endian
    uint64 keys (code << 32 | position), finds the palette as runs of
    equal codes and, in each key's low half, where each pixel goes.
    """
    out = np.asarray(pixels, dtype=np.uint8).copy()
    if model.is_identity:
        return out
    if out.size == 0:
        raise ValueError("empty raster")
    flat = out.reshape(-1, 3)
    keys = np.empty((len(flat), 2), dtype="<u4")
    keys[:, 0] = np.arange(len(flat), dtype=np.uint32)
    keys[:, 1] = _pack(flat)
    keys.view("<u8").reshape(-1).sort()
    positions = keys[:, 0]
    distinct, counts = _runs(keys[:, 1])
    palette = _unpack(distinct)
    tissue = segment_tissue(palette, config)
    palette[tissue] = _transfer(palette[tissue], model)
    codes = np.empty(len(flat), dtype=np.uint32)
    codes[positions] = np.repeat(_pack(palette), counts)
    _unpack(codes, flat)
    return out


def adapt_tiles(tiles: Tiles, model: AdapterModel | None,
                config: TilingConfig = TilingConfig()) -> Tiles:
    """Map tiles into the target domain, shape and metadata preserved;
    None passes tiles through unchanged."""
    if model is None or not tiles:
        return tiles
    return replace(tiles, pixels=adapt_pixels(tiles.pixels, model, config))


def save_adapter(model: AdapterModel, path) -> None:
    write_arrays(path, ADAPTER_HEADER, {
        "source_mean": model.source.mean, "source_std": model.source.std,
        "target_mean": model.target.mean, "target_std": model.target.std})


def load_adapter(path) -> AdapterModel:
    v = read_arrays(path, ADAPTER_HEADER, dict.fromkeys(
        ("source_mean", "source_std", "target_mean", "target_std"), (3,)),
        positive=("source_std", "target_std"))
    return AdapterModel(source=DomainStats(v["source_mean"], v["source_std"]),
                        target=DomainStats(v["target_mean"], v["target_std"]))
