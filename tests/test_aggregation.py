import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.aggregation import (SLIDE_RESULTS_HEAD, FinalOutcome, SlideResult,
                                   SpecimenResult, aggregate, final_outcome,
                                   load_specimen_results, save_class_scores,
                                   save_slide_results, save_specimen_results)
from wsitriage.confidence import UNREACHABLE, ThresholdSet
from wsitriage.manifest import ClassLabel
from wsitriage.tables import TableError, read_table


def classified(slide_id, specimen, label, s):
    rng = np.random.default_rng(hash(slide_id) % 2**32)
    matrix = rng.uniform(0.01, 0.99, size=(5, 4))
    return SlideResult(slide_id, specimen, predicted=label, score=s, matrix=matrix)


def noroi(slide_id, specimen):
    return SlideResult(slide_id, specimen)


class TestAggregate:
    def test_single_classified_slide(self):
        r = classified("a", "sp", ClassLabel.SQUAMOUS, 0.8)
        out = aggregate([r])
        assert out.predicted is ClassLabel.SQUAMOUS
        assert out.score == 0.8
        assert out.source_slide_id == "a"

    def test_max_confidence_wins(self):
        results = [classified("a", "sp", ClassLabel.MELANOCYTIC, 0.4),
                   classified("b", "sp", ClassLabel.BASALOID, 0.9),
                   noroi("c", "sp")]
        out = aggregate(results)
        assert out.predicted is ClassLabel.BASALOID
        assert out.score == 0.9
        assert out.source_slide_id == "b"

    def test_all_noroi(self):
        out = aggregate([noroi("a", "sp"), noroi("b", "sp")])
        assert not out.classified
        assert out.score is None

    def test_tie_breaks_to_lowest_slide_id(self):
        results = [classified("b", "sp", ClassLabel.OTHER, 0.5),
                   classified("a", "sp", ClassLabel.SQUAMOUS, 0.5)]
        out = aggregate(results)
        assert out.source_slide_id == "a"
        assert out.predicted is ClassLabel.SQUAMOUS

    def test_order_invariant(self):
        results = [classified(f"s{i}", "sp", ClassLabel(i % 4), 0.1 * i)
                   for i in range(6)] + [noroi("s9", "sp")]
        rng = np.random.default_rng(3)
        base = aggregate(results)
        for _ in range(5):
            shuffled = [results[i] for i in rng.permutation(len(results))]
            again = aggregate(shuffled)
            assert again.source_slide_id == base.source_slide_id
            assert again.score == base.score

    def test_error_slides_not_classified(self):
        error = SlideResult("x", "sp", predicted=ClassLabel.OTHER, score=0.9,
                            error="unreadable")
        out = aggregate([error, classified("a", "sp", ClassLabel.BASALOID, 0.2)])
        assert out.source_slide_id == "a"

    def test_mixed_specimens_rejected(self):
        with pytest.raises(ValueError):
            aggregate([classified("a", "sp1", ClassLabel.OTHER, 0.5),
                       classified("b", "sp2", ClassLabel.OTHER, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_aggregated_class_comes_from_argmax_slide(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 6)
            results = []
            for i in range(n):
                if rng.random() < 0.25:
                    results.append(noroi(f"s{i}", "sp"))
                else:
                    results.append(classified(
                        f"s{i}", "sp", ClassLabel(int(rng.integers(0, 4))),
                        float(np.round(rng.random(), 3))))
            out = aggregate(results)
            scored = [r for r in results if r.classified]
            if not scored:
                assert not out.classified
            else:
                best = min(scored, key=lambda r: (-r.score, r.slide_id))
                assert out.predicted is best.predicted
                assert out.source_slide_id == best.slide_id


def at_threshold(specimen, threshold):
    """The specimen's outcome at the level of a one-level set with this threshold."""
    return final_outcome(specimen, ThresholdSet(targets=(0.9,), values=(threshold,)), 1)


@st.composite
def threshold_sets(draw):
    """Non-decreasing thresholds in [0, 1] with an UNREACHABLE suffix."""
    n = draw(st.integers(0, 4))
    reachable = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=n)))
    values = tuple(reachable) + (UNREACHABLE,) * (n - len(reachable))
    return ThresholdSet(targets=(0.9,) * n, values=values)


class TestFinalize:
    def test_noroi_stays_noroi(self):
        spec = SpecimenResult("sp", None, None, None, None)
        for threshold in (0.0, 0.9, UNREACHABLE):
            assert at_threshold(spec, threshold) is FinalOutcome.NO_ROI

    def test_threshold_zero_keeps_classified(self):
        spec = SpecimenResult("sp", ClassLabel.OTHER, 0.01, "a", None)
        assert at_threshold(spec, 0.0) is FinalOutcome.CLASSIFIED

    def test_below_threshold(self):
        spec = SpecimenResult("sp", ClassLabel.OTHER, 0.5, "a", None)
        assert at_threshold(spec, 0.6) is FinalOutcome.BELOW_THRESHOLD
        assert at_threshold(spec, 0.5) is FinalOutcome.CLASSIFIED

    def test_unreachable_always_below(self):
        spec = SpecimenResult("sp", ClassLabel.OTHER, 0.99, "a", None)
        assert at_threshold(spec, UNREACHABLE) is FinalOutcome.BELOW_THRESHOLD

    def test_count_conservation_across_levels(self):
        rng = np.random.default_rng(5)
        specimens = []
        for i in range(40):
            if rng.random() < 0.2:
                specimens.append(SpecimenResult(f"sp{i}", None, None, None, None))
            else:
                specimens.append(SpecimenResult(
                    f"sp{i}", ClassLabel(int(rng.integers(0, 4))),
                    float(rng.random()), f"s{i}", None))
        for threshold in (0.0, 0.3, 0.8, UNREACHABLE):
            finals = [at_threshold(s, threshold) for s in specimens]
            counts = {f: finals.count(f) for f in FinalOutcome}
            assert sum(counts.values()) == len(specimens)

    @settings(max_examples=200, deadline=None)
    @given(thresholds=threshold_sets(), data=st.data())
    def test_level_is_highest_cleared_and_decides_the_outcome(self, thresholds, data):
        reachable = [v for v in thresholds.values if v is not UNREACHABLE]
        s = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(reachable or [0.5])))
        cleared = [lv for lv, v in zip(thresholds.levels, thresholds.values)
                   if v is not UNREACHABLE and s >= v]
        level = thresholds.level(s)
        assert level == max(cleared, default=0)
        spec = SpecimenResult("sp", ClassLabel.OTHER, s, "a", None)
        for at in range(len(thresholds.levels) + 1):
            assert ((final_outcome(spec, thresholds, at) is FinalOutcome.CLASSIFIED)
                    == (level >= at))


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        thresholds = ThresholdSet(targets=(0.90, 0.95, 0.98),
                                  values=(0.3, 0.6, 0.9))
        rng = np.random.default_rng(2)
        specimens = [
            SpecimenResult("sp0", ClassLabel.BASALOID, 0.95, "s0",
                           rng.uniform(0.01, 0.99, 4)),
            SpecimenResult("sp1", None, None, None, None),
            SpecimenResult("sp2", ClassLabel.OTHER, 0.4, "s2",
                           rng.uniform(0.01, 0.99, 4)),
        ]
        results_path = tmp_path / "specimens.csv"
        scores_path = tmp_path / "scores.csv"
        save_specimen_results(specimens, thresholds, results_path)
        save_class_scores(specimens, scores_path)
        loaded = load_specimen_results(results_path, scores_path)
        assert len(loaded) == 3
        by_id = {s.specimen_id: s for s in loaded}
        assert by_id["sp0"].predicted is ClassLabel.BASALOID
        assert by_id["sp0"].score == 0.95
        assert np.array_equal(by_id["sp0"].class_means, specimens[0].class_means)
        assert not by_id["sp1"].classified
        assert by_id["sp2"].score == 0.4

    def test_error_text_with_comma_and_quote_stays_one_field(self, tmp_path):
        error = """ValueError('mask shape (512, 512) != raster "(256, 256)"')"""
        results = [SlideResult("s0", "sp0", error=error), noroi("s1", "sp0"),
                   classified("s2", "sp1", ClassLabel.OTHER, 0.7), noroi("s3", "sp1")]
        path = tmp_path / "slides.csv"
        save_slide_results(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        assert all(len(row) == 6 for row in rows)
        assert rows[0] == ["s0", "sp0", "Error", "", "", error]
        outcomes = {row[0]: row[2] for _, row in read_table(path, SLIDE_RESULTS_HEAD,
                                                             (str,) * 6)}
        assert {sid for sid, o in outcomes.items() if o == "NoROI"} == {"s1", "s3"}
        assert {sid for sid, o in outcomes.items() if o == "Error"} == {"s0"}

    def test_malformed_class_score_row_names_line(self, tmp_path):
        thresholds = ThresholdSet(targets=(0.90,), values=(0.3,))
        specimens = [SpecimenResult("sp0", ClassLabel.OTHER, 0.9, "s0",
                                    np.array([0.1, 0.2, 0.3, 0.9]))]
        results_path = tmp_path / "specimens.csv"
        scores_path = tmp_path / "scores.csv"
        save_specimen_results(specimens, thresholds, results_path)
        save_class_scores(specimens, scores_path)
        with open(scores_path, "a") as fh:
            fh.write("sp1,0.1,0.2\n")
        with pytest.raises(ValueError, match=f"{scores_path}:4:"):
            load_specimen_results(results_path, scores_path)

    @pytest.mark.parametrize("stray", ["sp9", "sp1"], ids=["unknown", "no-roi"])
    def test_class_scores_of_a_specimen_without_a_class_rejected(self, tmp_path, stray):
        """A class-score row whose specimen the results file does not list
        with a class, unknown or NoROI, is rejected at its line."""
        thresholds = ThresholdSet(targets=(0.90,), values=(0.3,))
        specimens = [SpecimenResult("sp0", ClassLabel.OTHER, 0.9, "s0",
                                    np.array([0.1, 0.2, 0.3, 0.9])),
                     SpecimenResult("sp1", None, None, None, None)]
        results_path = tmp_path / "specimens.csv"
        scores_path = tmp_path / "scores.csv"
        save_specimen_results(specimens, thresholds, results_path)
        save_class_scores(specimens, scores_path)
        load_specimen_results(results_path, scores_path)
        with open(scores_path, "a") as fh:
            fh.write(f"{stray},0.1,0.2,0.3,0.4\n")
        with pytest.raises(TableError, match=re.escape(
                f"{scores_path}:4: class scores for specimen {stray!r}")):
            load_specimen_results(results_path, scores_path)

    def test_attained_level(self):
        thresholds = ThresholdSet(targets=(0.90, 0.95, 0.98),
                                  values=(0.3, 0.6, UNREACHABLE))
        spec = SpecimenResult("sp", ClassLabel.OTHER, 0.7, "a", None)
        assert thresholds.level(spec.score) == 2
        low = SpecimenResult("sp", ClassLabel.OTHER, 0.1, "a", None)
        assert thresholds.level(low.score) == 0
