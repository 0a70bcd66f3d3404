import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.manifest import (ClassLabel, DatasetManifest, ManifestError,
                                SlideRecord, Split, build_splits,
                                load_manifest, save_manifest)


def make_manifest(n_specimens, slides_per_specimen=1):
    records = []
    for i in range(n_specimens):
        for j in range(slides_per_specimen):
            records.append(SlideRecord(
                f"s{i:03d}-{j}", f"spec{i:03d}", "labx",
                ClassLabel(i % 4), f"/tmp/s{i:03d}-{j}.ppm"))
    return DatasetManifest(records=records)


class TestClassLabel:
    def test_exactly_four_values(self):
        assert len(ClassLabel) == 4

    def test_canonical_order(self):
        assert [c.token for c in sorted(ClassLabel)] == [
            "Basaloid", "Squamous", "Melanocytic", "Other"]

    def test_token_round_trip(self):
        for c in ClassLabel:
            assert ClassLabel.from_token(c.token) is c
        with pytest.raises(ValueError):
            ClassLabel.from_token("Spindle")


class TestBuildSplits:
    def test_ten_specimens_floor_boundaries(self):
        # floor(10*0.7)=7 and floor(10*0.85)=8 give a 7/1/2 partition
        out = build_splits(make_manifest(10), (0.7, 0.15, 0.15), seed=7)
        counts = {split: 0 for split in (Split.TRAIN, Split.VALIDATION, Split.TEST)}
        for split in out.splits.values():
            counts[split] += 1
        assert counts == {Split.TRAIN: 7, Split.VALIDATION: 1, Split.TEST: 2}

    def test_single_specimen_single_split(self):
        out = build_splits(make_manifest(1, slides_per_specimen=3),
                           (0.7, 0.15, 0.15), seed=0)
        assert len(set(out.splits.values())) == 1

    def test_degenerate_ratio_all_train(self):
        out = build_splits(make_manifest(9), (1.0, 0.0, 0.0), seed=3)
        assert all(s is Split.TRAIN for s in out.splits.values())

    def test_specimens_never_split(self):
        out = build_splits(make_manifest(12, slides_per_specimen=3),
                           (0.5, 0.25, 0.25), seed=42)
        by_specimen = {}
        for rec in out.records:
            by_specimen.setdefault(rec.specimen_id, set()).add(out.splits[rec.slide_id])
        assert all(len(splits) == 1 for splits in by_specimen.values())

    def test_deterministic_and_order_independent(self):
        manifest = make_manifest(20, slides_per_specimen=2)
        reversed_manifest = DatasetManifest(records=list(reversed(manifest.records)))
        a = build_splits(manifest, (0.7, 0.15, 0.15), seed=9)
        b = build_splits(manifest, (0.7, 0.15, 0.15), seed=9)
        c = build_splits(reversed_manifest, (0.7, 0.15, 0.15), seed=9)
        assert a.splits == b.splits == c.splits

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            build_splits(DatasetManifest(records=[]), (0.7, 0.15, 0.15), seed=0)

    def test_custom_split_names(self):
        out = build_splits(make_manifest(10), (0.4, 0.1, 0.5), seed=1,
                           splits=(Split.CALIB_FINETUNE, Split.CALIB_VALIDATION,
                                   Split.TEST))
        assert set(out.splits.values()) <= {Split.CALIB_FINETUNE,
                                            Split.CALIB_VALIDATION, Split.TEST}

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**31),
           raw=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)))
    def test_counts_within_one_of_boundaries(self, n, seed, raw):
        total = sum(raw)
        ratios = tuple(v / total for v in raw)
        out = build_splits(make_manifest(n), ratios, seed=seed)
        specimens = {}
        for rec in out.records:
            specimens[rec.specimen_id] = out.splits[rec.slide_id]
        counts = [sum(1 for s in specimens.values() if s is split)
                  for split in (Split.TRAIN, Split.VALIDATION, Split.TEST)]
        assert sum(counts) == n
        # outer splits are a single floor each; the middle one takes both
        assert abs(counts[0] - n * ratios[0]) <= 1
        assert abs(counts[2] - n * ratios[2]) <= 1
        assert abs(counts[1] - n * ratios[1]) <= 2


class TestManifestIO:
    def test_round_trip_identity(self, tmp_path):
        manifest = build_splits(make_manifest(3, slides_per_specimen=2),
                                (0.7, 0.15, 0.15), seed=2)
        path = tmp_path / "m.txt"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_round_trip_without_splits(self, tmp_path):
        manifest = make_manifest(3)
        path = tmp_path / "m.txt"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_empty_manifest_valid(self, tmp_path):
        path = tmp_path / "m.txt"
        save_manifest(DatasetManifest(records=[]), path)
        assert load_manifest(path).records == []

    def test_duplicate_slide_id_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("wsi-triage-manifest v1\n"
                        "a,sp1,lab,Basaloid,,x.ppm\n"
                        "a,sp2,lab,Other,,y.ppm\n")
        with pytest.raises(ManifestError, match=":3"):
            load_manifest(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("not-a-manifest\n")
        with pytest.raises(ManifestError, match=":1"):
            load_manifest(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("wsi-triage-manifest v1\na,b,c\n")
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_empty_raster_path_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("wsi-triage-manifest v1\n"
                        "a,sp1,lab,Basaloid,,x.ppm\n"
                        "b,sp2,lab,Other,,\n")
        with pytest.raises(ManifestError, match=":3: empty raster_path"):
            load_manifest(path)

    def test_unknown_label_and_split(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("wsi-triage-manifest v1\na,sp,lab,Spindle,,x.ppm\n")
        with pytest.raises(ManifestError):
            load_manifest(path)
        path.write_text("wsi-triage-manifest v1\na,sp,lab,Other,Dev,x.ppm\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_duplicate_in_constructor(self):
        rec = SlideRecord("a", "sp", "lab", ClassLabel.OTHER, "x.ppm")
        with pytest.raises(ValueError):
            DatasetManifest(records=[rec, rec])
