import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsitriage
from wsitriage.aggregation import SpecimenResult
from wsitriage.confidence import UNREACHABLE, ThresholdSet
from wsitriage.evaluation import (domain_gap, evaluate, format_report, roc_auc,
                                  write_report)
from wsitriage.manifest import ClassLabel


def pairwise_auc(scores, truths):
    """Brute-force Mann-Whitney statistic: (wins + 0.5*ties) / (P*N)."""
    pos = [s for s, t in zip(scores, truths) if t]
    neg = [s for s, t in zip(scores, truths) if not t]
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert curve.auc == 1.0

    def test_all_identical_scores(self):
        curve = roc_auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
        assert curve.auc == pytest.approx(0.5, abs=1e-15)

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(4)
        curve = roc_auc(rng.random(30), rng.random(30) < 0.5)
        points = np.array(curve.points)
        assert tuple(points[0]) == (0.0, 0.0)
        assert tuple(points[-1]) == (1.0, 1.0)
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(4, 50))
    def test_matches_pairwise_statistic(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(n), 1)      # coarse grid forces ties
        truths = rng.random(n) < 0.5
        if truths.all() or not truths.any():
            truths[0] = not truths[0]
        curve = roc_auc(scores, truths)
        assert curve.auc == pytest.approx(pairwise_auc(scores, truths), abs=1e-9)

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(9)
        scores = rng.random(40)
        truths = rng.random(40) < 0.4
        truths[0], truths[1] = True, False
        a = roc_auc(scores, truths).auc
        b = roc_auc(np.exp(3 * scores), truths).auc
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            roc_auc([0.1, 0.2], [True, True])


def spec_result(i, label, s, class_means=None):
    if class_means is None:
        class_means = np.full(4, 0.2)
        class_means[int(label)] = s
    return SpecimenResult(f"sp{i}", label, s, f"s{i}", np.asarray(class_means))


class TestEvaluate:
    def make_fixture(self):
        """40 specimens with hand-planted outcomes.

        Per class: 7 correct at high score, 1 wrong (predicted as the next
        class) at low score, 1 below everything, 1 no-ROI.
        """
        specimens, truths = [], {}
        i = 0
        for c in ClassLabel:
            for _ in range(7):
                specimens.append(spec_result(i, c, 0.9))
                truths[f"sp{i}"] = c
                i += 1
            wrong = ClassLabel((int(c) + 1) % 4)
            specimens.append(spec_result(i, wrong, 0.55))
            truths[f"sp{i}"] = c
            i += 1
            specimens.append(spec_result(i, c, 0.3))
            truths[f"sp{i}"] = c
            i += 1
            specimens.append(SpecimenResult(f"sp{i}", None, None, None, None))
            truths[f"sp{i}"] = c
            i += 1
        return specimens, truths

    def test_hand_tally(self):
        specimens, truths = self.make_fixture()
        thresholds = ThresholdSet(targets=(0.90, 0.95, 0.98),
                                  values=(0.5, 0.8, UNREACHABLE))
        report = evaluate(specimens, truths, thresholds)

        none = report.levels[0]
        # 36 classified of 40; 32 correct (wrong ones: 4 cross-class)
        assert none.n_retained == 36
        assert none.coverage == pytest.approx(36 / 40)
        assert none.accuracy == pytest.approx(32 / 36)

        level1 = report.levels[1]   # threshold 0.5 keeps 0.9s and 0.55s
        assert level1.n_retained == 32
        assert level1.accuracy == pytest.approx(28 / 32)

        level2 = report.levels[2]   # threshold 0.8 keeps only correct 0.9s
        assert level2.n_retained == 28
        assert level2.accuracy == 1.0

        level3 = report.levels[3]   # unreachable keeps nothing
        assert level3.n_retained == 0
        assert level3.coverage == 0.0
        assert np.isnan(level3.accuracy)

    def test_confusion_rows_conserve_counts(self):
        specimens, truths = self.make_fixture()
        thresholds = ThresholdSet(targets=(0.90, 0.95, 0.98),
                                  values=(0.5, 0.8, UNREACHABLE))
        report = evaluate(specimens, truths, thresholds)
        for metrics in report.levels.values():
            assert np.all(metrics.confusion.sum(axis=1) == 10)

    def test_confusion_cells_match_hand_tally(self):
        specimens, truths = self.make_fixture()
        thresholds = ThresholdSet(targets=(0.90,), values=(0.5,))
        m = evaluate(specimens, truths, thresholds).levels[1]
        for c in ClassLabel:
            row = m.confusion[int(c)]
            assert row[int(c)] == 7
            assert row[(int(c) + 1) % 4] == 1
            assert row[4] == 1   # below threshold
            assert row[5] == 1   # no ROI

    def test_all_correct_threshold_zero(self):
        specimens = [spec_result(i, ClassLabel(i % 4), 0.7) for i in range(8)]
        truths = {f"sp{i}": ClassLabel(i % 4) for i in range(8)}
        report = evaluate(specimens, truths,
                          ThresholdSet(targets=(0.9,), values=(0.0,)))
        assert report.levels[0].accuracy == 1.0
        assert report.levels[0].coverage == 1.0
        assert report.levels[1].coverage == 1.0

    def test_unknown_specimen_rejected(self):
        specimens = [spec_result(0, ClassLabel.OTHER, 0.5)]
        with pytest.raises(ValueError):
            evaluate(specimens, {}, ThresholdSet(targets=(0.9,), values=(0.0,)))

    def test_perfect_fixture_auc_is_one(self):
        specimens = [spec_result(i, ClassLabel(i % 4), 0.9) for i in range(16)]
        truths = {f"sp{i}": ClassLabel(i % 4) for i in range(16)}
        report = evaluate(specimens, truths,
                          ThresholdSet(targets=(0.9,), values=(0.0,)))
        assert np.all(report.levels[0].auc == 1.0)


class TestDomainGap:
    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(0, 1, size=(200, 8))
        labels = ["a"] * 100 + ["b"] * 100
        assert abs(domain_gap(feats, labels)) < 0.1

    def test_far_separated_near_one(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.01, size=(50, 8))
        b = rng.normal(100, 0.01, size=(50, 8))
        labels = ["a"] * 50 + ["b"] * 50
        assert domain_gap(np.concatenate([a, b]), labels) > 0.9

    def test_single_lab_rejected(self):
        with pytest.raises(ValueError):
            domain_gap(np.zeros((10, 4)), ["a"] * 10)

    def test_single_point_per_lab_rejected(self):
        with pytest.raises(ValueError):
            domain_gap(np.zeros((2, 4)), ["a", "b"])


def test_import_loads_no_scipy_spatial_or_stats():
    """domain_gap and _lower_bound import their SciPy modules when they
    run, so importing the package, the start-up of every command and of
    the benchmark's timed process, loads neither."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wsitriage.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, wsitriage; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'spatial'], ['scipy', 'stats'])))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestReportOutput:
    def test_write_report_files(self, tmp_path):
        specimens = [spec_result(i, ClassLabel(i % 4), 0.9) for i in range(16)]
        truths = {f"sp{i}": ClassLabel(i % 4) for i in range(16)}
        report = evaluate(specimens, truths,
                          ThresholdSet(targets=(0.90, 0.95, 0.98),
                                       values=(0.1, 0.5, UNREACHABLE)))
        out = tmp_path / "report"
        write_report(report, out)
        for name in ("report.txt", "accuracy_coverage.csv", "confusion.csv",
                     "roc_points.csv"):
            assert (out / name).exists()
        text = format_report(report)
        assert "unreachable" in text
        assert "coverage" in text

    def test_report_prints_clopper_pearson_bound(self):
        specimens = [spec_result(i, ClassLabel(i % 4), 0.9) for i in range(16)]
        truths = {f"sp{i}": ClassLabel(i % 4) for i in range(16)}
        truths["sp0"] = ClassLabel.OTHER   # 15 of 16 right
        report = evaluate(specimens, truths,
                          ThresholdSet(targets=(0.90, 0.95), values=(0.95, UNREACHABLE)))
        lines = format_report(report).splitlines()
        assert lines[3].endswith("retained  95% lower bound")
        # one-sided 95% Clopper-Pearson: the 5% quantile of Beta(15, 2)
        assert lines[4].split() == ["none", "0.000000", "0.9375", "1.0000", "16", "0.736"]
        assert lines[5].split()[-2:] == ["0", "n/a"]
        assert lines[6].split()[-2:] == ["0", "n/a"]
