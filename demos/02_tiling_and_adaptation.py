"""Tissue segmentation, tiling, and appearance standardization.

A slide from a shifted lab is cut into 128x128 tiles, one Tiles stack
per slide; lab statistics are fit on the stack's pixels in the
decorrelated log color space and the tiles are mapped into the reference
domain.  The printout shows tissue channel means moving onto
the reference values.

Run:  python demos/02_tiling_and_adaptation.py
"""

import numpy as np

from wsitriage.adaptation import AdapterModel, adapt_tiles, fit_stats
from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import LabProfile, default_lab_profiles, generate_slide, identity_profile
from wsitriage.tiling import segment_tissue, tile


def tiles_of(profile, seed):
    slide = generate_slide(ClassLabel.MELANOCYTIC, profile, seed)
    mask = segment_tissue(slide.raster)
    tiles = tile(slide.raster, mask, "demo")
    return slide, tiles


def tissue_means(tiles):
    pixels = tiles.pixels[segment_tissue(tiles.pixels)]
    return pixels.astype(float).mean(axis=0)


reference = identity_profile(noise_sigma=1.0)
shifted = default_lab_profiles()[2]
shifted = LabProfile(shifted.lab_id, shifted.color_matrix, shifted.color_offset,
                     shifted.noise_sigma, {})   # artifacts off for a clean look

ref_slide, ref_tiles = tiles_of(reference, seed=42)
lab_slide, lab_tiles = tiles_of(shifted, seed=42)
print(f"reference slide: {len(ref_tiles)} tiles kept of "
      f"{(ref_slide.raster.shape[0] // 128) * (ref_slide.raster.shape[1] // 128)} cells")

ref_stats = fit_stats(ref_tiles.pixels)
lab_stats = fit_stats(lab_tiles.pixels)
print("\ndomain stats (decorrelated log space):")
print(f"  reference mean {np.round(ref_stats.mean, 4)}")
print(f"  {shifted.lab_id:>9} mean {np.round(lab_stats.mean, 4)}")

model = AdapterModel(source=lab_stats, target=ref_stats)
adapted = adapt_tiles(lab_tiles, model)

print("\ntissue channel means (RGB gray levels):")
print(f"  reference target: {np.round(tissue_means(ref_tiles), 1)}")
print(f"  {shifted.lab_id} before:   {np.round(tissue_means(lab_tiles), 1)}")
print(f"  {shifted.lab_id} adapted:  {np.round(tissue_means(adapted), 1)}")
