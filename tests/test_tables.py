"""The shared file layout: top-line and field-count checks, and round trips
of every format written through it, with text fields that need quoting."""

import csv
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsitriage.adaptation import AdapterModel, DomainStats, load_adapter, save_adapter
from wsitriage.aggregation import (CLASS_SCORES_HEAD, RESULTS_HEAD, SLIDE_OUTCOMES,
                                   SlideResult, SpecimenResult, load_specimen_results,
                                   save_class_scores, save_slide_results,
                                   save_specimen_results)
from wsitriage.classifier import NetParams, load_params, save_params
from wsitriage.confidence import (THRESHOLDS_HEAD, UNREACHABLE, ThresholdSet,
                                  load_thresholds, save_thresholds)
from wsitriage.evaluation import CONFUSION_COLS, evaluate, write_report
from wsitriage.manifest import (ClassLabel, DatasetManifest, SlideRecord, Split,
                                load_manifest, save_manifest)
from wsitriage.pipeline import TIMINGS_HEAD, StageTiming, load_timings, save_timings
from wsitriage.roi import PixelSegmenter, load_segmenter, save_segmenter
from wsitriage.tables import TableError, read_table, write_table

# text that needs RFC 4180 quoting: delimiters, quotes and line breaks
TEXT = st.text(alphabet='ab7 ,"\n\r-.', min_size=1, max_size=10)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0)
TARGETS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
PROBS = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)

PROPERTY = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.csv"


@pytest.fixture(scope="module")
def no_class_scores(tmp_path_factory):
    """A class-score table with no rows."""
    scores = tmp_path_factory.mktemp("tables") / "class_scores.csv"
    scores.write_text("\n".join(CLASS_SCORES_HEAD) + "\n")
    return scores


class TestReadTable:
    def test_rows_and_line_numbers(self, path):
        write_table(path, ["head v1", "a,b"], [("x", "multi\nline"), ("y", 'q"uote')])
        rows = list(read_table(path, ["head v1", "a,b"], (str, str)))
        assert rows == [(3, ["x", "multi\nline"]), (5, ["y", 'q"uote'])]

    def test_wrong_top_line_names_line(self, path):
        path.write_text("head v1\nx,y\n")
        with pytest.raises(TableError, match=f"{path}:2:"):
            list(read_table(path, ["head v1", "a,b"], (str, str)))
        with pytest.raises(TableError, match=f"{path}:1:"):
            list(read_table(path, ["head v2"], (str, str)))

    def test_long_top_line_echoed_short(self, path):
        path.write_text("x" * 200_000 + "\na,b\n")
        with pytest.raises(TableError) as err:
            list(read_table(path, ["head v1", "a,b"], (str, str)))
        message = str(err.value)
        assert message.startswith(f"{path}:1: expected 'head v1', got 'xxx")
        assert message.endswith("... (200000 characters)")
        assert len(message) < len(str(path)) + 200

    def test_wrong_field_count_names_line(self, path):
        path.write_text('h\na,b\n"c\nd",e\nf\n')
        with pytest.raises(TableError, match=f"{path}:5: expected 2 fields, got 1"):
            list(read_table(path, ["h"], (str, str)))

    def test_blank_lines_ignored(self, path):
        path.write_text("h\n\na,b\n\n")
        assert list(read_table(path, ["h"], (str, str))) == [(3, ["a", "b"])]

    def test_error_is_value_error(self):
        assert issubclass(TableError, ValueError)


class TestNumericFields:
    """A field that does not convert names path:line, in every format."""

    def test_timings(self, path):
        path.write_text("\n".join(TIMINGS_HEAD) + "\na,NoROI,3,0,x,1,1,1,1,0,0,0,5\n")
        with pytest.raises(TableError, match=f"{path}:3: could not convert"):
            load_timings(path)

    def test_thresholds(self, path):
        path.write_text("\n".join(THRESHOLDS_HEAD) + "\n1,0.9,high\n")
        with pytest.raises(TableError, match=f"{path}:3: could not convert"):
            load_thresholds(path)

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_threshold_outside_unit_interval(self, path, value):
        path.write_text("\n".join(THRESHOLDS_HEAD) + f"\n1,0.9,0.5\n2,0.95,{value}\n")
        with pytest.raises(TableError, match=f"{path}:4: threshold must be in"):
            load_thresholds(path)
        with pytest.raises(ValueError, match="threshold must be in"):
            ThresholdSet(targets=(0.9, 0.95), values=(0.5, float(value)))

    @pytest.mark.parametrize("value", ["nan", "0.0", "-0.5", "7.0"])
    def test_target_outside_unit_interval(self, path, value):
        path.write_text("\n".join(THRESHOLDS_HEAD) + f"\n1,0.9,0.5\n2,{value},0.6\n")
        with pytest.raises(TableError, match=rf"{path}:4: target must be in \(0, 1\]"):
            load_thresholds(path)
        with pytest.raises(ValueError, match="target must be in"):
            ThresholdSet(targets=(0.9, float(value)), values=(0.5, 0.6))

    def test_specimen_results(self, path, no_class_scores):
        path.write_text("\n".join(RESULTS_HEAD) + "\nsp,Classified,Basaloid,x,1,s\n")
        with pytest.raises(TableError, match=f"{path}:3: could not convert"):
            load_specimen_results(path, no_class_scores)

    def test_class_scores(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("\n".join(RESULTS_HEAD) + "\nsp,Classified,Basaloid,0.9,1,s\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(CLASS_SCORES_HEAD) + "\nsp,0.9,0.1,nan?,0.1\n")
        with pytest.raises(TableError, match=f"{scores}:3: could not convert"):
            load_specimen_results(results, scores)

    @pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
    def test_score_outside_unit_interval(self, tmp_path, no_class_scores, value):
        results = tmp_path / "results.csv"
        results.write_text("\n".join(RESULTS_HEAD) + "\nsp,Classified,Basaloid,0.9,1,s"
                           f"\nsq,Classified,Other,{value},1,s\n")
        with pytest.raises(TableError, match=f"{results}:4: score must be in"):
            load_specimen_results(results, no_class_scores)
        results.write_text("\n".join(RESULTS_HEAD) + "\nsp,Classified,Basaloid,0.9,1,s\n")
        for column in range(4):
            means = ["0.25"] * 4
            means[column] = value
            scores = tmp_path / "scores.csv"
            scores.write_text("\n".join(CLASS_SCORES_HEAD)
                              + "\nsp," + ",".join(means) + "\n")
            with pytest.raises(TableError, match=f"{scores}:3: score must be in"):
                load_specimen_results(results, scores)

    def test_classified_specimen_without_score(self, path, no_class_scores):
        path.write_text("\n".join(RESULTS_HEAD) + "\nsp,Classified,Basaloid,,1,s\n")
        with pytest.raises(TableError, match=f"{path}:3:"):
            load_specimen_results(path, no_class_scores)

    @pytest.mark.parametrize("final", ["Classified", "BelowThreshold"])
    def test_specimen_without_class_scores(self, tmp_path, no_class_scores, final):
        results = tmp_path / "results.csv"
        results.write_text("\n".join(RESULTS_HEAD) + "\nsp,NoROI,,,,"
                           f"\nsq,{final},Other,0.9,0,s\n")
        with pytest.raises(TableError, match=f"{no_class_scores}: no class scores "
                                             "for specimen 'sq'"):
            load_specimen_results(results, no_class_scores)

    def test_repeated_specimen(self, tmp_path, no_class_scores):
        results = tmp_path / "results.csv"
        results.write_text("\n".join(RESULTS_HEAD) + "\nsp,NoROI,,,,\nsq,NoROI,,,,"
                           "\nsp,NoROI,,,,\n")
        with pytest.raises(TableError, match=f"{results}:5: repeated key 'sp'"):
            load_specimen_results(results, no_class_scores)
        results.write_text("\n".join(RESULTS_HEAD) + "\nsp,Classified,Basaloid,0.9,1,s\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(CLASS_SCORES_HEAD)
                          + "\nsp,0.7,0.1,0.1,0.1\nsp,0.7,0.1,0.1,0.1\n")
        with pytest.raises(TableError, match=f"{scores}:4: repeated key 'sp'"):
            load_specimen_results(results, scores)


class TestModelFiles:
    def test_v1_model_file_rejected(self, path):
        path.write_text("wsi-triage-classifier v1\ntensor b2 4\n0.0 0.0 0.0 0.0\n")
        with pytest.raises(TableError, match=f"{path}:1:"):
            load_params(path)

    def test_bad_shape_names_line(self, path):
        path.write_text("wsi-triage-adapter v2\nname,shape,values\n"
                        "source_mean,3,1.0 2.0\n")
        with pytest.raises(TableError, match=f"{path}:3:"):
            load_adapter(path)

    def test_missing_array_named(self, path):
        path.write_text("wsi-triage-adapter v2\nname,shape,values\n"
                        "source_mean,3,1.0 2.0 3.0\n")
        with pytest.raises(TableError, match="source_std"):
            load_adapter(path)

    @PROPERTY
    @given(st.lists(FLOATS, min_size=12, max_size=12))
    def test_adapter_round_trip(self, path, v):
        model = AdapterModel(DomainStats(v[0:3], v[3:6]), DomainStats(v[6:9], v[9:12]))
        save_adapter(model, path)
        assert load_adapter(path) == model

    @PROPERTY
    @given(st.lists(FLOATS, min_size=15, max_size=15),
           st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    min_size=7, max_size=7))
    def test_segmenter_round_trip(self, path, v, std):
        """Any finite weights, bias and means, and any positive stds (a std
        of 0 or below is rejected, see test_malformed.py)."""
        model = PixelSegmenter(np.array(v[0:7]), v[7], np.array(v[8:15]), np.array(std))
        save_segmenter(model, path)
        loaded = load_segmenter(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert np.array_equal(loaded.feat_mean, model.feat_mean)
        assert np.array_equal(loaded.feat_std, model.feat_std)

    @settings(max_examples=10, deadline=None)
    @given(hnp.arrays(np.float64, (64, 32), elements=FLOATS),
           hnp.arrays(np.float64, (32,), elements=FLOATS),
           hnp.arrays(np.float64, (32, 4), elements=FLOATS),
           hnp.arrays(np.float64, (4,), elements=FLOATS))
    def test_classifier_round_trip(self, path, w1, b1, w2, b2):
        params = NetParams(w1, b1, w2, b2)
        save_params(params, path)
        loaded = load_params(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(loaded, name).shape == getattr(params, name).shape
            assert np.array_equal(getattr(loaded, name), getattr(params, name))


@st.composite
def threshold_sets(draw):
    n = draw(st.integers(0, 4))
    targets = sorted(draw(st.lists(TARGETS, min_size=n, max_size=n)))
    n_reachable = draw(st.integers(0, n))
    values = sorted(draw(st.lists(UNIT, min_size=n_reachable, max_size=n_reachable)))
    return ThresholdSet(tuple(targets), tuple(values) + (UNREACHABLE,) * (n - n_reachable))


@PROPERTY
@given(threshold_sets())
def test_thresholds_round_trip(path, ts):
    save_thresholds(ts, path)
    loaded = load_thresholds(path)
    assert loaded.targets == ts.targets
    assert loaded.values == ts.values


def test_thresholds_level_out_of_order(path):
    path.write_text("wsi-triage-thresholds v2\nlevel,target,threshold\n2,0.9,0.5\n")
    with pytest.raises(TableError, match=f"{path}:3:"):
        load_thresholds(path)


@PROPERTY
@given(st.lists(st.tuples(TEXT, TEXT, TEXT, st.sampled_from(ClassLabel),
                          st.one_of(st.none(), st.sampled_from(Split)), TEXT),
                unique_by=lambda t: t[0], max_size=6))
def test_manifest_round_trip(path, rows):
    records = [SlideRecord(sid, spec, lab, truth, raster)
               for sid, spec, lab, truth, _, raster in rows]
    splits = {row[0]: row[4] for row in rows if row[4] is not None}
    manifest = DatasetManifest(records, splits)
    save_manifest(manifest, path)
    # the drawn raster paths are relative: loaded, they name files beside the manifest
    resolved = [dataclasses.replace(r, raster_path=os.path.join(path.parent, r.raster_path))
                for r in records]
    assert load_manifest(path) == DatasetManifest(resolved, splits)


@st.composite
def slide_results(draw):
    slide_id, specimen_id = draw(TEXT), draw(TEXT)
    kind = draw(st.sampled_from(["error", "classified", "noroi"]))
    if kind == "error":
        return SlideResult(slide_id, specimen_id, error=draw(TEXT))
    if kind == "classified":
        return SlideResult(slide_id, specimen_id, predicted=draw(st.sampled_from(ClassLabel)),
                           score=draw(PROBS))
    return SlideResult(slide_id, specimen_id)


@PROPERTY
@given(st.lists(slide_results(), unique_by=lambda r: r.slide_id, max_size=6))
def test_slide_results_round_trip(path, results):
    save_slide_results(results, path)
    head = ["wsi-triage-slide-results v1", "slide_id,specimen_id,outcome,class,score,error"]
    rows = [row for _, row in read_table(path, head, (str,) * 6)]
    expected = []
    for r in sorted(results, key=lambda r: r.slide_id):
        if r.error is not None:
            expected.append([r.slide_id, r.specimen_id, "Error", "", "", r.error])
        elif r.classified:
            expected.append([r.slide_id, r.specimen_id, "Classified", r.predicted.token,
                             repr(r.score), ""])
        else:
            expected.append([r.slide_id, r.specimen_id, "NoROI", "", "", ""])
    assert rows == expected
    assert {row[0] for row in rows if row[2] == "NoROI"} == \
        {r.slide_id for r in results if r.error is None and not r.classified}


@st.composite
def specimen_results(draw):
    specimen_id = draw(TEXT)
    if draw(st.booleans()):
        return SpecimenResult(specimen_id, None, None, None, None)
    means = draw(hnp.arrays(np.float64, (4,), elements=PROBS))
    return SpecimenResult(specimen_id, draw(st.sampled_from(ClassLabel)), draw(PROBS),
                          draw(TEXT), means)


@PROPERTY
@given(st.lists(specimen_results(), unique_by=lambda s: s.specimen_id, max_size=6),
       threshold_sets())
def test_specimen_results_and_class_scores_round_trip(tmp_path_factory, specimens, ts):
    out = tmp_path_factory.mktemp("specimens")
    save_specimen_results(specimens, ts, out / "results.csv")
    save_class_scores(specimens, out / "scores.csv")
    loaded = load_specimen_results(out / "results.csv", out / "scores.csv")
    expected = sorted(specimens, key=lambda s: s.specimen_id)
    assert [s.specimen_id for s in loaded] == [s.specimen_id for s in expected]
    for got, want in zip(loaded, expected):
        assert (got.predicted, got.score, got.source_slide_id) == \
            (want.predicted, want.score, want.source_slide_id)
        if want.predicted is None:
            assert got.class_means is None
        else:
            assert np.array_equal(got.class_means, want.class_means)


@PROPERTY
@given(st.lists(st.tuples(TEXT, st.sampled_from(SLIDE_OUTCOMES),
                          st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
                          st.lists(FLOATS, min_size=9, max_size=9)),
                unique_by=lambda t: t[0], max_size=6))
def test_timings_round_trip(path, rows):
    timings = [StageTiming(sid, outcome, *counts, *ms) for sid, outcome, counts, ms in rows]
    save_timings(timings, path)
    assert load_timings(path) == sorted(timings, key=lambda t: t.slide_id)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ClassLabel), st.sampled_from(ClassLabel),
                          st.one_of(st.none(), PROBS)), min_size=1, max_size=12),
       threshold_sets())
def test_report_tables_round_trip(tmp_path_factory, draws, ts):
    specimens, truths = [], {}
    for i, (truth, predicted, s) in enumerate(draws):
        sid = f"sp{i}"
        truths[sid] = truth
        if s is None:
            specimens.append(SpecimenResult(sid, None, None, None, None))
        else:
            means = np.full(4, s / 2.0)
            means[int(predicted)] = s
            specimens.append(SpecimenResult(sid, predicted, s, f"s{i}", means))
    report = evaluate(specimens, truths, ts)
    out = tmp_path_factory.mktemp("report")
    write_report(report, out)
    levels = sorted(report.levels.items())

    def read_rows(name, columns):
        # the report tables are for people: their first column is not a key
        with open(out / name, newline="", encoding="utf-8") as fh:
            head, *rows = csv.reader(fh)
        assert head == columns.split(",")
        return rows

    rows = read_rows("accuracy_coverage.csv", "level,threshold,accuracy,coverage,n_retained")
    assert len(rows) == len(levels)
    for (lv, m), (level, thr, acc, cov, n) in zip(levels, rows):
        assert int(level) == lv and int(n) == m.n_retained
        assert float(cov) == m.coverage
        if m.threshold is UNREACHABLE:
            assert thr == "unreachable"
        else:
            assert float(thr) == m.threshold
        if math.isnan(m.accuracy):
            assert acc == ""
        else:
            assert float(acc) == m.accuracy

    rows = read_rows("confusion.csv", "level,truth," + ",".join(CONFUSION_COLS))
    assert rows == [[str(lv), c.token, *(str(v) for v in m.confusion[int(c)])]
                    for lv, m in levels for c in ClassLabel]

    rows = read_rows("roc_points.csv", "level,class,fpr,tpr")
    assert [(int(lv), ClassLabel.from_token(c), float(f), float(t)) for lv, c, f, t in rows] == \
        [(lv, c, f, t) for lv, m in levels for c, curve in zip(ClassLabel, m.curves)
         if curve is not None for f, t in curve.points]

