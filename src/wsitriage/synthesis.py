"""Deterministic synthetic multi-lab slide corpus.

Each synthetic slide is a small RGB raster standing in for a scanned
glass slide: a near-white background, one connected tissue region, and a
class-specific lesion texture whose pixels are recorded in a ground-truth
ROI mask.  Lab appearance is an affine color transform plus gaussian
noise; scanning artifacts (pen ink, blur, bubbles, blank slides) are
injected at configurable rates.  Everything is seeded per slide from
(global seed, slide_id), so generation order and worker count never
change the output.  A slide is composed one block of pixels at a time
(generate_slide), so no float array the size of the slide is held.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .manifest import ClassLabel, DatasetManifest, SlideRecord, save_manifest, stable_seed
from .parallel import pmap
from .pnm import write_pgm, write_ppm
from .tables import interval
from .tiling import blocks, mix

SLIDE_H = 1024
SLIDE_W = 1536

BACKGROUND_LEVEL = 235
TISSUE_RGB = (232.0, 195.0, 210.0)
INK_RGB = (28.0, 36.0, 88.0)

OTHER_NO_LESION_FRACTION = 0.25
EXTRA_SLIDE_NO_LESION_FRACTION = 0.15

ARTIFACT_KINDS = ("pen_ink", "blur_patch", "bubble", "blank")


@dataclass(frozen=True)
class LabProfile:
    """Per-lab appearance model: out = matrix @ rgb + offset + N(0, sigma)."""

    lab_id: str
    color_matrix: np.ndarray
    color_offset: np.ndarray
    noise_sigma: float = 0.0
    artifact_rates: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "color_matrix", np.asarray(self.color_matrix, dtype=float))
        object.__setattr__(self, "color_offset", np.asarray(self.color_offset, dtype=float))
        if self.color_matrix.shape != (3, 3):
            raise ValueError("color_matrix must be 3x3")
        if self.color_offset.shape != (3,):
            raise ValueError("color_offset must be a 3-vector")
        c0, c1, c2 = self.color_matrix.T   # the determinant, as a triple product
        if abs(sum(c0 * np.cross(c1, c2))) <= 1e-6:
            raise ValueError(f"color_matrix for {self.lab_id!r} is not invertible")
        interval(0, math.inf, "noise_sigma")(self.noise_sigma)
        for kind, rate in self.artifact_rates.items():
            if kind not in ARTIFACT_KINDS:
                raise ValueError(f"unknown artifact kind {kind!r}")
            interval(0, 1, f"artifact rate for {kind!r}")(rate)


@dataclass(frozen=True)
class TextureRecipe:
    label: ClassLabel
    blob_density: float        # target lesion fraction of the tissue area
    blob_radius_px: int
    base_chroma: tuple
    arrangement: str


# One recipe per class; hues chosen well apart so the four classes are
# separable in plain color histograms and difficulty comes from the
# lab-to-lab appearance shifts rather than the textures themselves.
RECIPES = {
    ClassLabel.BASALOID: TextureRecipe(
        ClassLabel.BASALOID, 0.24, 22, (98.0, 74.0, 168.0), "dense_islands"
    ),
    ClassLabel.SQUAMOUS: TextureRecipe(
        ClassLabel.SQUAMOUS, 0.20, 11, (210.0, 100.0, 120.0), "ridges"
    ),
    ClassLabel.MELANOCYTIC: TextureRecipe(
        ClassLabel.MELANOCYTIC, 0.16, 9, (124.0, 88.0, 58.0), "nested_clusters"
    ),
    ClassLabel.OTHER: TextureRecipe(
        ClassLabel.OTHER, 0.09, 14, (120.0, 150.0, 135.0), "sparse_background"
    ),
}


@dataclass
class SynthSlide:
    raster: np.ndarray      # (H, W, 3) uint8
    roi_mask: np.ndarray    # (H, W) bool, True on lesion pixels
    tissue_mask: np.ndarray  # (H, W) bool, generator's ground-truth tissue region
    record: SlideRecord


def identity_profile(lab_id: str = "reference", noise_sigma: float = 0.0,
                     artifact_rates: dict | None = None) -> LabProfile:
    return LabProfile(lab_id, np.eye(3), np.zeros(3), noise_sigma, artifact_rates or {})


def default_lab_profiles() -> list[LabProfile]:
    """A reference lab plus three shifted labs.

    The shifts move mid-tone and saturated colors by one to two histogram
    bins while keeping near-white glass near-neutral, so the background
    stays background under every profile.
    """
    rates = {"pen_ink": 0.04, "blur_patch": 0.05, "bubble": 0.05, "blank": 0.02}
    return [
        identity_profile("reference", noise_sigma=1.0,
                         artifact_rates={"pen_ink": 0.02, "blur_patch": 0.03,
                                         "bubble": 0.03, "blank": 0.01}),
        LabProfile(
            "lab_a",
            [[1.05, 0.03, 0.00], [0.02, 0.97, 0.01], [0.00, 0.03, 0.92]],
            [-14.0, -3.0, 10.0], 2.2, dict(rates),
        ),
        LabProfile(
            "lab_b",
            [[0.93, 0.03, 0.01], [0.02, 0.96, 0.03], [0.01, 0.01, 1.03]],
            [9.0, -5.0, -14.0], 2.8, dict(rates),
        ),
        LabProfile(
            "lab_c",
            [[0.97, 0.05, 0.00], [0.00, 1.03, 0.02], [0.04, 0.00, 0.94]],
            [-8.0, -16.0, 2.0], 1.6, dict(rates),
        ),
    ]


def _tissue_region(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Connected star-convex blob covering roughly 20-60% of the raster.

    Evaluated on a 4x-downsampled grid and upsampled; the blob boundary is
    far larger than 4 px so coverage is unaffected.
    """
    frac = rng.uniform(0.24, 0.42)
    cy = h * rng.uniform(0.42, 0.58)
    cx = w * rng.uniform(0.42, 0.58)
    aspect = rng.uniform(0.75, 1.35)
    base_r = np.sqrt(frac * h * w / (np.pi * aspect))

    ds = 4
    hd, wd = h // ds, w // ds
    yy = (np.arange(hd, dtype=np.float32)[:, None] * ds - np.float32(cy))
    xx = (np.arange(wd, dtype=np.float32)[None, :] * ds - np.float32(cx)) / np.float32(aspect)
    theta = np.arctan2(yy, xx)
    wobble = np.ones((hd, wd), dtype=np.float32)
    for k in range(1, 5):
        amp = rng.uniform(0.0, 0.22 / k)
        phase = rng.uniform(0.0, 2 * np.pi)
        wobble += np.float32(amp) * np.cos(k * theta + np.float32(phase))
    coarse = np.hypot(yy, xx) <= np.float32(base_r) * wobble
    full = np.zeros((h, w), dtype=bool)
    full[: hd * ds, : wd * ds] = np.repeat(np.repeat(coarse, ds, axis=0), ds, axis=1)
    return full


def _paint_disk(mask: np.ndarray, cy: int, cx: int, r: float) -> int:
    """Paint a disk; returns the number of newly set pixels."""
    h, w = mask.shape
    ri = int(np.ceil(r))
    y0, y1 = max(0, cy - ri), min(h, cy + ri + 1)
    x0, x1 = max(0, cx - ri), min(w, cx + ri + 1)
    if y0 >= y1 or x0 >= x1:
        return 0
    yy = np.arange(y0, y1)[:, None] - cy
    xx = np.arange(x0, x1)[None, :] - cx
    disk = yy * yy + xx * xx <= r * r
    view = mask[y0:y1, x0:x1]
    added = int((disk & ~view).sum())
    view |= disk
    return added


def _paint_segment(mask: np.ndarray, p0, p1, halfwidth: float) -> int:
    """Paint a capsule around a segment; returns newly set pixel count."""
    h, w = mask.shape
    (y0p, x0p), (y1p, x1p) = p0, p1
    pad = int(np.ceil(halfwidth)) + 1
    y0 = max(0, int(min(y0p, y1p)) - pad)
    y1 = min(h, int(max(y0p, y1p)) + pad + 1)
    x0 = max(0, int(min(x0p, x1p)) - pad)
    x1 = min(w, int(max(x0p, x1p)) + pad + 1)
    if y0 >= y1 or x0 >= x1:
        return 0
    yy = np.arange(y0, y1, dtype=np.float32)[:, None]
    xx = np.arange(x0, x1, dtype=np.float32)[None, :]
    dy, dx = y1p - y0p, x1p - x0p
    length2 = dy * dy + dx * dx
    if length2 < 1e-9:
        t = np.zeros((y1 - y0, x1 - x0), dtype=np.float32)
    else:
        t = np.clip(((yy - y0p) * dy + (xx - x0p) * dx) / length2, 0.0, 1.0)
    dist2 = (yy - (y0p + t * dy)) ** 2 + (xx - (x0p + t * dx)) ** 2
    band = dist2 <= halfwidth * halfwidth
    view = mask[y0:y1, x0:x1]
    added = int((band & ~view).sum())
    view |= band
    return added


# the radius range, in blob radii, of the arrangements drawn as one disk per anchor
_DISK_SCALES = {"dense_islands": (0.7, 1.4), "sparse_background": (0.6, 1.3)}


def _lesion_mask(rng: np.random.Generator, tissue: np.ndarray,
                 recipe: TextureRecipe) -> np.ndarray:
    """Draw the class arrangement inside the tissue region until the target
    fraction of tissue area is covered."""
    lesion = np.zeros_like(tissue)
    # sample anchor points on a coarse grid; the final mask is clipped to
    # the tissue region anyway
    ys, xs = np.nonzero(tissue[::4, ::4])
    n_anchors = len(ys)
    n_tissue = int(tissue.sum())
    if n_anchors == 0:
        return lesion
    target = recipe.blob_density * n_tissue
    r = recipe.blob_radius_px

    covered = 0
    for _ in range(400):
        if covered >= target:
            break
        i = rng.integers(0, n_anchors)
        cy, cx = int(ys[i]) * 4, int(xs[i]) * 4
        if recipe.arrangement in _DISK_SCALES:
            scale = rng.uniform(*_DISK_SCALES[recipe.arrangement])
            covered += _paint_disk(lesion, cy, cx, scale * r)
        elif recipe.arrangement == "nested_clusters":
            for _ in range(int(rng.integers(6, 14))):
                oy = cy + rng.normal(0.0, 4.0 * r)
                ox = cx + rng.normal(0.0, 4.0 * r)
                covered += _paint_disk(lesion, int(oy), int(ox), rng.uniform(0.6, 1.3) * r)
        elif recipe.arrangement == "ridges":
            angle = rng.uniform(0.0, np.pi)
            length = rng.uniform(10.0, 30.0) * r
            dy, dx = np.sin(angle) * length / 2, np.cos(angle) * length / 2
            covered += _paint_segment(lesion, (cy - dy, cx - dx), (cy + dy, cx + dx),
                                      rng.uniform(0.7, 1.2) * r)
        else:
            raise ValueError(f"unknown arrangement {recipe.arrangement!r}")
    lesion &= tissue
    return lesion


def _render_reference(rng: np.random.Generator, label: ClassLabel, shape,
                      no_lesion: bool):
    """Reference appearance as its float32 glass plane (H, W) and its fills,
    plus the ROI and tissue masks.  Each fill, plain tissue then lesion, is
    (the flat indices of its pixels, their float32 speckle, its float32
    RGB): a fill pixel's channel is its RGB value times its speckle, in
    place of the glass, in every channel plane (generate_slide)."""
    h, w = shape
    glass = rng.random((h, w), dtype=np.float32)
    glass *= 10.0
    glass += BACKGROUND_LEVEL - 5

    tissue = _tissue_region(rng, h, w)
    recipe = RECIPES[label]
    lesion = (np.zeros_like(tissue) if no_lesion else _lesion_mask(rng, tissue, recipe))

    fills = []
    for mask, sigma, rgb in ((tissue & ~lesion, 0.035, TISSUE_RGB),
                             (lesion, 0.09, recipe.base_chroma)):
        speckle = rng.normal(1.0, sigma, size=int(mask.sum())).astype(np.float32)
        fills.append((np.flatnonzero(mask), speckle, np.asarray(rgb, dtype=np.float32)))
    return glass, fills, lesion, tissue


def inject_artifact(raster: np.ndarray, kind: str, seed: int,
                    center=None) -> np.ndarray:
    """Return a copy of raster with one localized artifact applied."""
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}")
    rng = np.random.default_rng(stable_seed("artifact", kind, seed))
    out = np.array(raster, dtype=np.uint8, copy=True)
    h, w = out.shape[:2]
    if center is None:
        cy = int(rng.uniform(0.25, 0.75) * h)
        cx = int(rng.uniform(0.25, 0.75) * w)
    else:
        cy, cx = int(center[0]), int(center[1])

    if kind == "blank":
        out[:] = BACKGROUND_LEVEL
    elif kind == "pen_ink":
        stroke = np.zeros((h, w), dtype=bool)
        y, x = float(cy), float(cx)
        angle = rng.uniform(0.0, 2 * np.pi)
        for _ in range(4):
            step = rng.uniform(0.12, 0.25) * min(h, w)
            ny, nx = y + np.sin(angle) * step, x + np.cos(angle) * step
            _paint_segment(stroke, (y, x), (ny, nx), rng.uniform(3.0, 6.0))
            y, x = ny, nx
            angle += rng.uniform(-0.8, 0.8)
        out[stroke] = np.asarray(INK_RGB, dtype=np.uint8)
    elif kind == "blur_patch":
        side = int(rng.uniform(0.12, 0.2) * min(h, w))
        y0 = int(np.clip(cy - side // 2, 0, max(0, h - side)))
        x0 = int(np.clip(cx - side // 2, 0, max(0, w - side)))
        patch = out[y0:y0 + side, x0:x0 + side].astype(np.float32)
        blurred = ndimage.uniform_filter(patch, size=(9, 9, 1), mode="nearest")
        out[y0:y0 + side, x0:x0 + side] = np.clip(np.rint(blurred), 0, 255).astype(np.uint8)
    elif kind == "bubble":
        r = rng.uniform(0.05, 0.09) * min(h, w)
        ri = int(np.ceil(r)) + 2
        y0, y1 = max(0, cy - ri), min(h, cy + ri + 1)
        x0, x1 = max(0, cx - ri), min(w, cx + ri + 1)
        yy = np.arange(y0, y1)[:, None] - cy
        xx = np.arange(x0, x1)[None, :] - cx
        d2 = yy * yy + xx * xx
        inside = d2 <= r * r
        rim = (d2 > r * r) & (d2 <= (r + 2.5) ** 2)
        region = out[y0:y1, x0:x1].astype(np.float32)
        region[inside] += 0.45 * (255.0 - region[inside])
        region[rim] *= 0.82
        out[y0:y1, x0:x1] = np.clip(np.rint(region), 0, 255).astype(np.uint8)
    return out


def generate_slide(label: ClassLabel, profile: LabProfile, seed: int,
                   slide_id: str = "slide-0", specimen_id: str = "specimen-0",
                   raster_path: str = "", no_lesion: bool = False,
                   shape=(SLIDE_H, SLIDE_W)) -> SynthSlide:
    """Render one slide: reference texture, lab appearance transform and
    noise, composed a tiling.blocks block of pixels at a time into the
    uint8 raster, then any artifacts drawn from the profile's rates."""
    rng = np.random.default_rng(stable_seed("slide", seed))
    glass, fills, roi, tissue = _render_reference(rng, label, shape, no_lesion)
    h, w = roi.shape

    # a block of pixels at a time: its three channel planes (the glass, then
    # each fill's pixels in the block), its noise rows drawn next in the
    # stream, and to each channel of the noise its colour product, summed
    # over the planes in index order (tiling.mix), and its offset
    raster = np.empty((h * w, 3), dtype=np.uint8)
    glass = glass.reshape(-1)
    offset = profile.color_offset.astype(np.float32)
    for px in blocks(raster):
        planes = np.empty((3, px.stop - px.start), dtype=np.float32)
        planes[:] = glass[px]
        for flat, speckle, rgb in fills:
            lo, hi = np.searchsorted(flat, (px.start, px.stop))
            at = flat[lo:hi] - px.start
            for plane, value in zip(planes, rgb):
                plane[at] = value * speckle[lo:hi]
        out = np.zeros((planes.shape[1], 3), dtype=np.float32)
        if profile.noise_sigma > 0:
            rng.standard_normal(out.shape, dtype=np.float32, out=out)
            out *= np.float32(profile.noise_sigma)
        for c, plane in enumerate(mix(profile.color_matrix, planes, np.float32)):
            out[:, c] += plane + offset[c]
        out += np.float32(0.5)  # truncation after +0.5 rounds half-up
        np.clip(out, 0, 255, out=out)
        raster[px] = out
    del glass, fills
    raster = raster.reshape(h, w, 3)

    drawn = [k for k in ARTIFACT_KINDS
             if rng.random() < profile.artifact_rates.get(k, 0.0)]
    if "blank" in drawn:
        raster = inject_artifact(raster, "blank", seed)
        roi = np.zeros_like(roi)
        tissue = np.zeros_like(tissue)
    else:
        for kind in drawn:
            center = None
            if kind == "pen_ink" and tissue.any():
                ys, xs = np.nonzero(tissue)
                center = (int(ys.mean()), int(xs.mean()))
            raster = inject_artifact(raster, kind, stable_seed(seed, kind), center=center)

    record = SlideRecord(slide_id, specimen_id, profile.lab_id, label, raster_path)
    return SynthSlide(raster=raster, roi_mask=roi, tissue_mask=tissue, record=record)


def mask_path_for(raster_path: str) -> str:
    root, _ = os.path.splitext(raster_path)
    return root + "_mask.pgm"


def _render_and_store(spec):
    label, profile, slide_seed, slide_id, specimen_id, raster_path, no_lesion, shape = spec
    slide = generate_slide(label, profile, slide_seed, slide_id=slide_id,
                           specimen_id=specimen_id, raster_path=raster_path,
                           no_lesion=no_lesion, shape=shape)
    write_ppm(raster_path, slide.raster)
    write_pgm(mask_path_for(raster_path), slide.roi_mask.astype(np.uint8) * 255)
    return slide.record


def check_corpus_size(n_specimens_per_lab: int, slides_per_specimen_range) -> None:
    """Raise ValueError unless generate_corpus can make at least one
    specimen per lab and lo <= hi slides per specimen, lo >= 1."""
    if n_specimens_per_lab < 1:
        raise ValueError("n_specimens_per_lab must be >= 1")
    lo, hi = slides_per_specimen_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad slides_per_specimen_range {slides_per_specimen_range!r}")


def generate_corpus(n_specimens_per_lab: int, labs: list[LabProfile],
                    slides_per_specimen_range=(1, 2), seed: int = 0,
                    out_dir: str = "corpus", workers: int = 1,
                    shape=(SLIDE_H, SLIDE_W)) -> DatasetManifest:
    """Generate a balanced multi-lab corpus and store it under out_dir,
    recording absolute raster paths so any working directory can run it.

    Classes are assigned in equal proportion per lab (within one specimen).
    A fraction of Other-class slides, and of second-and-later slides of any
    specimen, carry no lesion at all, exercising the no-ROI path downstream.
    """
    check_corpus_size(n_specimens_per_lab, slides_per_specimen_range)
    if not labs:
        raise ValueError("at least one lab profile is required")
    lab_ids = [profile.lab_id for profile in labs]
    if len(set(lab_ids)) != len(lab_ids):
        raise ValueError(f"repeated lab_id among {lab_ids}")
    lo, hi = slides_per_specimen_range

    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    specs = []
    for profile in labs:
        rng = np.random.default_rng(stable_seed("corpus", seed, profile.lab_id))
        classes = [ClassLabel(i % 4) for i in range(n_specimens_per_lab)]
        rng.shuffle(classes)
        for idx, label in enumerate(classes):
            specimen_id = f"{profile.lab_id}-s{idx:04d}"
            n_slides = int(rng.integers(lo, hi + 1))
            for j in range(n_slides):
                slide_id = f"{specimen_id}-{j}"
                if label is ClassLabel.OTHER:
                    no_lesion = rng.random() < OTHER_NO_LESION_FRACTION
                else:
                    no_lesion = j > 0 and rng.random() < EXTRA_SLIDE_NO_LESION_FRACTION
                raster_path = os.path.join(out_dir, f"{slide_id}.ppm")
                specs.append((label, profile, stable_seed(seed, slide_id),
                              slide_id, specimen_id, raster_path, no_lesion, shape))

    records = pmap(_render_and_store, specs, workers=workers)
    manifest = DatasetManifest(records=list(records))
    save_manifest(manifest, os.path.join(out_dir, "manifest.txt"))
    return manifest
