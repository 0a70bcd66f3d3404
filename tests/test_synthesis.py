import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wsitriage.manifest import ClassLabel, stable_seed
from wsitriage.pnm import read_pgm, read_ppm
from wsitriage.synthesis import (ARTIFACT_KINDS, BACKGROUND_LEVEL, RECIPES,
                                 SLIDE_H, SLIDE_W, TISSUE_RGB, LabProfile,
                                 _paint_disk, _paint_segment,
                                 _render_reference, _tissue_region,
                                 default_lab_profiles,
                                 generate_corpus, generate_slide,
                                 identity_profile, inject_artifact,
                                 mask_path_for)

SMALL = (256, 384)   # small raster keeps the unit tests quick


def reference_lesion_mask(rng, tissue, recipe):
    """_lesion_mask with one branch per arrangement, each drawing its own
    anchor."""
    lesion = np.zeros_like(tissue)
    ys, xs = np.nonzero(tissue[::4, ::4])
    n_anchors = len(ys)
    if n_anchors == 0:
        return lesion
    target = recipe.blob_density * int(tissue.sum())
    r = recipe.blob_radius_px

    def pick():
        i = rng.integers(0, n_anchors)
        return int(ys[i]) * 4, int(xs[i]) * 4

    covered = 0
    for _ in range(400):
        if covered >= target:
            break
        if recipe.arrangement == "dense_islands":
            cy, cx = pick()
            covered += _paint_disk(lesion, cy, cx, rng.uniform(0.7, 1.4) * r)
        elif recipe.arrangement == "sparse_background":
            cy, cx = pick()
            covered += _paint_disk(lesion, cy, cx, rng.uniform(0.6, 1.3) * r)
        elif recipe.arrangement == "nested_clusters":
            cy, cx = pick()
            for _ in range(int(rng.integers(6, 14))):
                oy = cy + rng.normal(0.0, 4.0 * r)
                ox = cx + rng.normal(0.0, 4.0 * r)
                covered += _paint_disk(lesion, int(oy), int(ox), rng.uniform(0.6, 1.3) * r)
        elif recipe.arrangement == "ridges":
            cy, cx = pick()
            angle = rng.uniform(0.0, np.pi)
            length = rng.uniform(10.0, 30.0) * r
            dy, dx = np.sin(angle) * length / 2, np.cos(angle) * length / 2
            covered += _paint_segment(lesion, (cy - dy, cx - dx), (cy + dy, cx + dx),
                                      rng.uniform(0.7, 1.2) * r)
    lesion &= tissue
    return lesion


def reference_render(rng, label, shape, no_lesion):
    """_render_reference with one speckle block each for plain tissue and
    lesion, each skipped when its region is empty."""
    h, w = shape
    glass = rng.random((h, w), dtype=np.float32)
    glass *= 10.0
    glass += BACKGROUND_LEVEL - 5
    raster = np.empty((h, w, 3), dtype=np.float32)
    raster[:] = glass[:, :, None]
    tissue = _tissue_region(rng, h, w)
    recipe = RECIPES[label]
    lesion = (np.zeros_like(tissue) if no_lesion
              else reference_lesion_mask(rng, tissue, recipe))
    plain = tissue & ~lesion
    n_plain = int(plain.sum())
    if n_plain:
        speckle = rng.normal(1.0, 0.035, size=n_plain).astype(np.float32)
        raster[plain] = np.asarray(TISSUE_RGB, dtype=np.float32) * speckle[:, None]
    n_lesion = int(lesion.sum())
    if n_lesion:
        speckle = rng.normal(1.0, 0.09, size=n_lesion).astype(np.float32)
        raster[lesion] = np.asarray(recipe.base_chroma, dtype=np.float32) * speckle[:, None]
    return raster, lesion, tissue


def reference_slide(label, profile, seed, shape, no_lesion=False):
    """generate_slide composed on the interleaved (H, W, 3) raster of
    reference_render: the lab's colour product, each output channel the
    float32 sum (r * m0 + g * m1) + b * m2 over its matrix row, then
    offset, noise, +0.5, clip, cast and the drawn artifacts.  Returns the
    raster, ROI mask and tissue mask."""
    rng = np.random.default_rng(stable_seed("slide", seed))
    reference, roi, tissue = reference_render(rng, label, shape, no_lesion)
    rgb = reference.reshape(-1, 3)
    out = np.stack([(rgb[:, 0] * m0 + rgb[:, 1] * m1) + rgb[:, 2] * m2
                    for m0, m1, m2 in profile.color_matrix.astype(np.float32)], axis=1)
    out += profile.color_offset.astype(np.float32)
    if profile.noise_sigma > 0:
        noise = rng.standard_normal(out.shape, dtype=np.float32)
        noise *= np.float32(profile.noise_sigma)
        out += noise
    out += np.float32(0.5)
    np.clip(out, 0, 255, out=out)
    raster = out.astype(np.uint8).reshape(reference.shape)
    drawn = [k for k in ARTIFACT_KINDS
             if rng.random() < profile.artifact_rates.get(k, 0.0)]
    if "blank" in drawn:
        return (inject_artifact(raster, "blank", seed), np.zeros_like(roi),
                np.zeros_like(tissue))
    for kind in drawn:
        center = None
        if kind == "pen_ink" and tissue.any():
            ys, xs = np.nonzero(tissue)
            center = (int(ys.mean()), int(xs.mean()))
        raster = inject_artifact(raster, kind, stable_seed(seed, kind), center=center)
    return raster, roi, tissue


def assert_slide_bitwise_the_reference(label, profile, seed, shape, no_lesion):
    slide = generate_slide(label, profile, seed, no_lesion=no_lesion, shape=shape)
    expected = reference_slide(label, profile, seed, shape, no_lesion)
    for a, b in zip((slide.raster, slide.roi_mask, slide.tissue_mask), expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), (label, profile.lab_id, seed, shape, no_lesion)


# the sha256 of a lab_a raster from generate_slide and from reference_slide
SLIDE_DIGESTS = """
import hashlib, sys
sys.path.insert(0, {tests!r})
from test_synthesis import reference_slide
from wsitriage.manifest import ClassLabel
from wsitriage.synthesis import SLIDE_H, SLIDE_W, default_lab_profiles, generate_slide
lab_a = default_lab_profiles()[1]
got = generate_slide(ClassLabel.SQUAMOUS, lab_a, 7).raster
expected = reference_slide(ClassLabel.SQUAMOUS, lab_a, 7, (SLIDE_H, SLIDE_W))[0]
print(hashlib.sha256(got.tobytes()).hexdigest(), hashlib.sha256(expected.tobytes()).hexdigest())
"""


def test_slide_bitwise_the_interleaved_reference_on_every_blas_kernel(
        run_under_blas_kernel, blas_kernels):
    """Under each OpenBLAS kernel the planar colour product gives the bytes
    of the interleaved reference's index-order sums, and so the same bytes
    under every kernel: the generator calls no BLAS routine."""
    code = SLIDE_DIGESTS.format(tests=os.path.dirname(os.path.abspath(__file__)))
    digests = {kernel: run_under_blas_kernel(code, kernel) for kernel in blas_kernels}
    for kernel, pair in digests.items():
        got, expected = pair.split()
        assert got == expected, kernel
    assert len(set(digests.values())) == 1, digests


class TestLabProfile:
    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            LabProfile("bad", np.zeros((3, 3)), np.zeros(3))

    def test_bad_artifact_rate_rejected(self):
        with pytest.raises(ValueError):
            identity_profile(artifact_rates={"pen_ink": 1.5})
        with pytest.raises(ValueError):
            identity_profile(artifact_rates={"scratch": 0.5})

    def test_default_profiles_distinct_and_valid(self):
        profiles = default_lab_profiles()
        assert len({p.lab_id for p in profiles}) == 4
        for p in profiles:
            assert abs(np.linalg.det(p.color_matrix)) > 1e-6

    def test_one_recipe_per_class(self):
        assert set(RECIPES) == set(ClassLabel)


class TestGenerateSlide:
    @pytest.mark.parametrize("no_lesion", [False, True], ids=["lesion", "no_lesion"])
    @pytest.mark.parametrize("label", list(ClassLabel), ids=lambda c: c.token)
    def test_render_bitwise_the_per_branch_reference(self, label, no_lesion):
        """Colour planes, lesion and tissue masks, and the generator state
        after them, equal the reference's at each seed; the planes, rebuilt
        from the glass plane and the fills, are the reference raster's
        channels."""
        for seed in (0, 1, 2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            glass, fills, lesion, tissue = _render_reference(rng, label, SMALL, no_lesion)
            expected = reference_render(ref_rng, label, SMALL, no_lesion)
            assert glass.shape == SMALL
            assert [flat.tolist() for flat, _, _ in fills] == [
                np.flatnonzero(tissue & ~lesion).tolist(), np.flatnonzero(lesion).tolist()]
            planes = np.stack([glass.reshape(-1)] * 3)
            for flat, speckle, rgb in fills:
                for plane, value in zip(planes, rgb):
                    plane[flat] = value * speckle
            got = (np.moveaxis(planes.reshape(3, *SMALL), 0, -1), lesion, tissue)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert lesion.any() != no_lesion
            assert rng.random() == ref_rng.random()

    def test_full_size_slide_peak_memory(self):
        """A full-size lab_a slide is composed a block of pixels at a time:
        no float plane or output the size of the slide is held, so the
        traced peak stays below 32 MB (a whole-slide composition held
        about 46 MB)."""
        lab_a = default_lab_profiles()[1]
        tracemalloc.start()
        try:
            slide = generate_slide(ClassLabel.SQUAMOUS, lab_a, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slide.raster.shape == (SLIDE_H, SLIDE_W, 3)
        assert peak < 32e6, peak

    @pytest.mark.parametrize("profile", default_lab_profiles(), ids=lambda p: p.lab_id)
    def test_slide_bitwise_the_interleaved_reference(self, profile):
        """Raster, ROI mask and tissue mask equal the interleaved
        composition's, for every class, with and without a lesion."""
        for label in ClassLabel:
            for no_lesion in (False, True):
                for seed in (0, 1, 2):
                    assert_slide_bitwise_the_reference(label, profile, seed, SMALL,
                                                       no_lesion)

    @pytest.mark.parametrize("noise_sigma", [0.0, 2.2], ids=["no_noise", "noise"])
    @pytest.mark.parametrize("shape", [SMALL, (97, 131)], ids=["small", "97x131"])
    def test_slide_bitwise_the_interleaved_reference_noise_and_shape(self, noise_sigma,
                                                                     shape):
        lab_a = default_lab_profiles()[1]
        profile = LabProfile("shift", lab_a.color_matrix, lab_a.color_offset, noise_sigma)
        for label in ClassLabel:
            assert_slide_bitwise_the_reference(label, profile, 4, shape, False)

    @pytest.mark.parametrize("kind", ARTIFACT_KINDS)
    def test_slide_bitwise_the_interleaved_reference_with_artifact(self, kind):
        lab_a = default_lab_profiles()[1]
        profile = LabProfile("shift", lab_a.color_matrix, lab_a.color_offset,
                             lab_a.noise_sigma, {kind: 1.0})
        for seed in (0, 1):
            assert_slide_bitwise_the_reference(ClassLabel.SQUAMOUS, profile, seed, SMALL,
                                               False)

    def test_deterministic(self):
        a = generate_slide(ClassLabel.SQUAMOUS, default_lab_profiles()[1], 5,
                           shape=SMALL)
        b = generate_slide(ClassLabel.SQUAMOUS, default_lab_profiles()[1], 5,
                           shape=SMALL)
        assert np.array_equal(a.raster, b.raster)
        assert np.array_equal(a.roi_mask, b.roi_mask)

    def test_identity_profile_matches_reference_means(self):
        # with the identity transform and no noise, channel means must equal
        # the composition of the recipe colors weighted by the drawn masks
        from wsitriage.synthesis import BACKGROUND_LEVEL, TISSUE_RGB
        slide = generate_slide(ClassLabel.BASALOID, identity_profile(), 9,
                               shape=SMALL)
        total = slide.raster.shape[0] * slide.raster.shape[1]
        lesion = slide.roi_mask.sum() / total
        plain = (slide.tissue_mask & ~slide.roi_mask).sum() / total
        glass = 1.0 - lesion - plain
        chroma = np.asarray(RECIPES[ClassLabel.BASALOID].base_chroma)
        expected = (BACKGROUND_LEVEL * glass + np.asarray(TISSUE_RGB) * plain
                    + chroma * lesion)
        means = slide.raster.astype(np.float64).reshape(-1, 3).mean(axis=0)
        assert np.all(np.abs(means - expected) <= 1.0)

    def test_roi_mask_inside_tissue_and_nonempty(self):
        slide = generate_slide(ClassLabel.MELANOCYTIC, identity_profile(), 21,
                               shape=SMALL)
        assert slide.roi_mask.sum() > 0
        assert not np.any(slide.roi_mask & ~slide.tissue_mask)

    def test_roi_fraction_in_configured_range(self):
        recipe = RECIPES[ClassLabel.MELANOCYTIC]
        fractions = []
        for seed in range(4):
            slide = generate_slide(ClassLabel.MELANOCYTIC, identity_profile(),
                                   seed, shape=SMALL)
            fractions.append(slide.roi_mask.sum() / slide.tissue_mask.sum())
        for frac in fractions:
            assert 0.4 * recipe.blob_density <= frac <= 1.8 * recipe.blob_density

    def test_no_lesion_variant(self):
        slide = generate_slide(ClassLabel.OTHER, identity_profile(), 3,
                               no_lesion=True, shape=SMALL)
        assert slide.roi_mask.sum() == 0
        assert slide.tissue_mask.sum() > 0

    def test_pen_ink_rate_one_overlaps_tissue(self):
        profile = identity_profile(artifact_rates={"pen_ink": 1.0})
        slide = generate_slide(ClassLabel.OTHER, profile, 17, shape=SMALL)
        from wsitriage.synthesis import INK_RGB
        ink = np.all(slide.raster == np.asarray(INK_RGB, dtype=np.uint8), axis=2)
        assert ink.sum() > 50
        assert (ink & slide.tissue_mask).sum() > 0

    def test_blank_rate_one_is_background_only(self):
        profile = identity_profile(artifact_rates={"blank": 1.0})
        slide = generate_slide(ClassLabel.BASALOID, profile, 2, shape=SMALL)
        assert np.all(slide.raster == 235)
        assert slide.roi_mask.sum() == 0

    def test_profile_inverse_recovers_reference(self):
        # applying the analytic inverse of the lab transform recovers the
        # reference rendering up to noise and quantization
        sigma = 2.0
        lab = LabProfile("shift", [[0.95, 0.04, 0.0], [0.02, 0.97, 0.01],
                                   [0.0, 0.03, 0.94]], [-6.0, 2.0, 5.0],
                         noise_sigma=sigma)
        shifted = generate_slide(ClassLabel.SQUAMOUS, lab, 31, shape=SMALL)
        reference = generate_slide(ClassLabel.SQUAMOUS,
                                   identity_profile("shift"), 31, shape=SMALL)
        flat = shifted.raster.reshape(-1, 3).astype(np.float64)
        recovered = np.linalg.solve(lab.color_matrix,
                                    (flat - lab.color_offset).T).T
        err = np.abs(recovered - reference.raster.reshape(-1, 3).astype(np.float64))
        assert err.mean(axis=0).max() <= 3.0 * sigma + 1.0


class TestInjectArtifact:
    def setup_method(self):
        self.slide = generate_slide(ClassLabel.BASALOID, identity_profile(), 12,
                                    shape=SMALL)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="artifact"):
            inject_artifact(self.slide.raster, "scratch", 0)

    def test_blank_constant(self):
        out = inject_artifact(self.slide.raster, "blank", 4)
        assert np.all(out == 235)

    def test_blur_reduces_variance(self):
        center = (SMALL[0] // 2, SMALL[1] // 2)
        out = inject_artifact(self.slide.raster, "blur_patch", 4, center=center)
        changed = np.any(out != self.slide.raster, axis=2)
        assert changed.sum() > 0
        ys, xs = np.nonzero(changed)
        window = (slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1))
        before = self.slide.raster[window].astype(np.float64)
        after = out[window].astype(np.float64)
        assert after.var() < before.var()

    def test_bubble_lifts_mean_inside_circle(self):
        center = (SMALL[0] // 2, SMALL[1] // 2)
        out = inject_artifact(self.slide.raster, "bubble", 4, center=center)
        changed = np.any(out != self.slide.raster, axis=2)
        inside = out[changed].astype(np.float64)
        before = self.slide.raster[changed].astype(np.float64)
        assert inside.mean() > before.mean()

    def test_input_not_mutated(self):
        snapshot = self.slide.raster.copy()
        inject_artifact(self.slide.raster, "pen_ink", 8)
        assert np.array_equal(self.slide.raster, snapshot)


class TestGenerateCorpus:
    def test_eight_specimens_balanced(self, tmp_path):
        manifest = generate_corpus(8, [identity_profile()],
                                   slides_per_specimen_range=(1, 1), seed=3,
                                   out_dir=str(tmp_path / "c"), shape=SMALL)
        assert len(manifest.records) == 8
        counts = Counter(r.truth for r in manifest.records)
        assert all(counts[c] == 2 for c in ClassLabel)

    def test_blank_rate_one_everything_blank(self, tmp_path):
        profile = identity_profile(artifact_rates={"blank": 1.0})
        manifest = generate_corpus(4, [profile], (1, 1), seed=5,
                                   out_dir=str(tmp_path / "c"), shape=SMALL)
        for rec in manifest.records:
            assert np.all(read_ppm(rec.raster_path) == 235)
            assert np.all(read_pgm(mask_path_for(rec.raster_path)) == 0)

    @staticmethod
    def assert_schedule_independent(tmp_path, profile):
        a = generate_corpus(6, [profile], (1, 2), seed=8,
                            out_dir=str(tmp_path / "a"), workers=1, shape=SMALL)
        b = generate_corpus(6, [profile], (1, 2), seed=8,
                            out_dir=str(tmp_path / "b"), workers=2, shape=SMALL)
        assert [r.slide_id for r in a.records] == [r.slide_id for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(read_ppm(ra.raster_path), read_ppm(rb.raster_path))
            assert np.array_equal(read_pgm(mask_path_for(ra.raster_path)),
                                  read_pgm(mask_path_for(rb.raster_path)))

    def test_schedule_independent(self, tmp_path):
        self.assert_schedule_independent(tmp_path, identity_profile())

    def test_schedule_independent_shifted_lab(self, tmp_path):
        # A non-identity colour matrix makes the lab transform a real
        # colour product, in-process and in a worker.
        self.assert_schedule_independent(tmp_path, default_lab_profiles()[1])

    def test_manifest_written(self, tmp_path):
        generate_corpus(2, [identity_profile()], (1, 1), seed=1,
                        out_dir=str(tmp_path / "c"), shape=SMALL)
        assert os.path.exists(tmp_path / "c" / "manifest.txt")

    def test_input_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(0, [identity_profile()], (1, 1), 0, str(tmp_path))
        with pytest.raises(ValueError):
            generate_corpus(2, [], (1, 1), 0, str(tmp_path))
        with pytest.raises(ValueError):
            generate_corpus(2, [identity_profile()], (2, 1), 0, str(tmp_path))

    def test_repeated_lab_rejected_before_the_directory_is_made(self, tmp_path):
        out = tmp_path / "dup"
        with pytest.raises(ValueError, match="repeated lab_id"):
            generate_corpus(1, [identity_profile(), identity_profile()], (1, 1), 0,
                            str(out), shape=SMALL)
        assert not out.exists()
