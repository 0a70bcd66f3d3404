import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.aggregation import SpecimenResult
from wsitriage.classifier import init_params
from wsitriage.confidence import (UNREACHABLE, ThresholdSet, calibrate_thresholds,
                                  load_thresholds, mc_predict, save_thresholds,
                                  score, validate_matrix)
from wsitriage.evaluation import evaluate, format_report
from wsitriage.manifest import ClassLabel
from wsitriage.parallel import pmap


def brute_force_threshold(pairs, target):
    """Exhaustive scan over candidate thresholds, minimality included."""
    candidates = sorted({0.0} | {s for s, _ in pairs})
    feasible = []
    for cand in candidates:
        kept = [ok for s, ok in pairs if s >= cand]
        if kept and sum(kept) / len(kept) >= target:
            feasible.append(cand)
    return min(feasible) if feasible else UNREACHABLE


class TestMcPredict:
    def test_keep_prob_one_rows_identical(self):
        from wsitriage.classifier import predict
        params = init_params(0)
        emb = np.random.default_rng(1).random(64)
        matrix = mc_predict(emb, params, t=5, keep_prob=1.0, seed=3)
        base = predict(emb, params)
        assert all(np.array_equal(row, base) for row in matrix)

    def test_single_repetition(self):
        params = init_params(0)
        emb = np.random.default_rng(2).random(64)
        matrix = mc_predict(emb, params, t=1, keep_prob=0.3, seed=4)
        assert matrix.shape == (1, 4)

    def test_deterministic(self):
        params = init_params(0)
        emb = np.random.default_rng(3).random(64)
        a = mc_predict(emb, params, t=30, keep_prob=0.3, seed=9)
        b = mc_predict(emb, params, t=30, keep_prob=0.3, seed=9)
        assert np.array_equal(a, b)

    def test_default_shape(self):
        matrix = mc_predict(np.zeros(64), init_params(1), seed=0)
        assert matrix.shape == (30, 4)
        assert np.all((matrix > 0) & (matrix < 1))

    def test_bad_t(self):
        with pytest.raises(ValueError):
            mc_predict(np.zeros(64), init_params(0), t=0)

    @pytest.mark.parametrize("seed,t,keep_prob", [(0, 30, 0.3), (5, 7, 0.5), (9, 1, 1.0),
                                                   (12, 50, 0.05)])
    def test_rows_match_one_draw_of_32_uniforms_each(self, seed, t, keep_prob):
        from wsitriage.classifier import predict
        params = init_params(seed)
        emb = np.random.default_rng(seed + 100).random(64)
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(t):
            keep = rng.random(32) < keep_prob
            rows.append(predict(emb, params, keep.astype(np.float64) / keep_prob))
        matrix = mc_predict(emb, params, t=t, keep_prob=keep_prob, seed=seed)
        assert np.array_equal(matrix, np.stack(rows))

    @pytest.mark.parametrize("keep_prob", [0.0, -0.1, 1.5])
    def test_bad_keep_prob(self, keep_prob):
        with pytest.raises(ValueError, match="keep_prob"):
            mc_predict(np.zeros(64), init_params(0), keep_prob=keep_prob)


class TestScore:
    def test_two_row_oracle(self):
        matrix = np.array([[0.6, 0.2, 0.1, 0.1],
                           [0.8, 0.4, 0.3, 0.1]])
        out = score(matrix)
        assert out.value == pytest.approx(0.7, abs=1e-15)
        assert out.argmax_class is ClassLabel.BASALOID

    def test_uniform_ties_break_canonically(self):
        out = score(np.full((3, 4), 0.5))
        assert out.value == 0.5
        assert out.argmax_class is ClassLabel.BASALOID

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0.01, 0.99, size=(30, 4))
        shuffled = matrix[rng.permutation(30)]
        assert score(matrix) == score(shuffled)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 40))
    def test_matches_brute_force(self, seed, t):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(1e-6, 1 - 1e-6, size=(t, 4))
        out = score(matrix)
        means = [sum(matrix[i, c] for i in range(t)) / t for c in range(4)]
        best = max(range(4), key=lambda c: (means[c], -c))
        assert abs(out.value - means[best]) < 1e-12
        assert int(out.argmax_class) == best

    def test_validation(self):
        with pytest.raises(ValueError):
            validate_matrix(np.array([[0.5, 0.5, 0.5]]))
        with pytest.raises(ValueError):
            validate_matrix(np.array([[0.0, 0.5, 0.5, 0.5]]))
        with pytest.raises(ValueError):
            validate_matrix(np.ones((3, 4)))


class TestCalibrate:
    def test_worked_example(self):
        pairs = list(zip((0.2, 0.4, 0.6, 0.8, 0.9), (False, True, False, True, True)))
        out = calibrate_thresholds(pairs, targets=(0.90,))
        assert out.value(1) == pytest.approx(0.8)

    def test_all_correct_threshold_zero(self):
        pairs = [(0.3, True), (0.7, True), (0.9, True)]
        out = calibrate_thresholds(pairs)
        assert all(out.value(lv) == 0.0 for lv in out.levels)

    def test_all_wrong_unreachable(self):
        pairs = [(0.3, False), (0.7, False)]
        out = calibrate_thresholds(pairs)
        assert all(out.value(lv) is UNREACHABLE for lv in out.levels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_thresholds([])

    def test_thresholds_non_decreasing(self):
        rng = np.random.default_rng(0)
        pairs = [(float(s), bool(ok)) for s, ok in
                 zip(rng.random(50), rng.random(50) < 0.8)]
        out = calibrate_thresholds(pairs)
        reachable = [out.value(lv) for lv in out.levels
                     if out.value(lv) is not UNREACHABLE]
        assert reachable == sorted(reachable)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 60))
    def test_matches_exhaustive_scan(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(n), 2)   # rounding forces ties
        correct = rng.random(n) < 0.75
        pairs = list(zip(scores.tolist(), correct.tolist()))
        out = calibrate_thresholds(pairs, targets=(0.90, 0.95, 0.98))
        for level, target in zip(out.levels, (0.90, 0.95, 0.98)):
            expected = brute_force_threshold(pairs, target)
            got = out.value(level)
            if expected is UNREACHABLE:
                assert got is UNREACHABLE
            else:
                assert got == pytest.approx(expected, abs=0)

    def test_retained_accuracy_meets_target_definitionally(self):
        rng = np.random.default_rng(7)
        pairs = [(float(s), bool(ok)) for s, ok in
                 zip(rng.random(80), rng.random(80) < 0.85)]
        out = calibrate_thresholds(pairs)
        for level, target in zip(out.levels, out.targets):
            value = out.value(level)
            if value is UNREACHABLE:
                continue
            kept = [ok for s, ok in pairs if s >= value]
            assert sum(kept) / len(kept) >= target


class TestEvidence:
    """What each level's threshold rests on, as format_report prints it:
    retained specimens, their accuracy and its one-sided 95%
    Clopper-Pearson lower bound."""

    @staticmethod
    def level_rows(pairs, thresholds):
        """format_report's table rows, split into fields, for one specimen
        per (score, correct) pair; level 0 first."""
        specimens = [SpecimenResult(f"sp{i}", ClassLabel.OTHER, s, f"s{i}", None)
                     for i, (s, _) in enumerate(pairs)]
        truths = {spec.specimen_id: ClassLabel.OTHER if ok else ClassLabel.BASALOID
                  for spec, (_, ok) in zip(specimens, pairs)}
        lines = format_report(evaluate(specimens, truths, thresholds)).splitlines()
        return [line.split() for line in lines[4:5 + len(thresholds.levels)]]

    def test_fifteen_of_fifteen_clopper_pearson_bound(self):
        pairs = [(0.9, True)] * 15
        rows = self.level_rows(pairs, calibrate_thresholds(pairs))
        assert len(rows) == 4
        bound = 0.05 ** (1 / 15)   # one-sided 95% Clopper-Pearson, k = n
        assert f"{bound:.3f}" == "0.819"
        for name, row in zip(("none", "1", "2", "3"), rows):
            assert row == [name, "0.000000", "1.0000", "1.0000", "15", f"{bound:.3f}"]

    def test_nothing_retained_is_na(self):
        thresholds = ThresholdSet(targets=(0.9, 0.95), values=(0.5, UNREACHABLE))
        rows = self.level_rows([(0.4, True), (0.6, False)], thresholds)
        assert rows[1] == ["1", "0.500000", "0.0000", "0.5000", "1", "0.000"]
        assert rows[2] == ["2", "unreachable", "n/a", "0.0000", "0", "n/a"]


class TestApplyThreshold:
    """ThresholdSet.level, the one rule for whether a score attains a level."""

    def test_inclusive_boundary(self):
        thresholds = ThresholdSet(targets=(0.9,), values=(0.33,))
        assert thresholds.level(0.33) == 1
        assert thresholds.level(0.329) == 0

    def test_unreachable_never_classifies(self):
        assert ThresholdSet(targets=(0.9,), values=(UNREACHABLE,)).level(0.999) == 0

    def test_bad_threshold(self):
        for bad in (1.5, float("nan")):
            with pytest.raises(ValueError, match="threshold must be in"):
                ThresholdSet(targets=(0.9,), values=(bad,))


class TestThresholdSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSet(targets=(0.95, 0.90), values=(0.1, 0.2))
        with pytest.raises(ValueError):
            ThresholdSet(targets=(0.90, 0.95), values=(0.5, 0.2))
        with pytest.raises(ValueError):
            ThresholdSet(targets=(0.90, 0.95), values=(UNREACHABLE, 0.2))

    def test_round_trip(self, tmp_path):
        ts = ThresholdSet(targets=(0.90, 0.95, 0.98),
                          values=(0.2, 0.7, UNREACHABLE))
        path = tmp_path / "t.txt"
        save_thresholds(ts, path)
        loaded = load_thresholds(path)
        assert loaded.targets == ts.targets
        assert loaded.values == ts.values

    def test_unreachable_stays_the_sentinel_through_pickle_copy_and_pmap(self):
        ts = ThresholdSet(targets=(0.90, 0.95, 0.98), values=(0.2, UNREACHABLE, UNREACHABLE))
        copies = [pickle.loads(pickle.dumps(ts, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(ts)] + pmap(copy.copy, [ts, ts], workers=2)
        for other in copies:
            assert other == ts
            assert other.value(1) == 0.2
            assert other.value(2) is UNREACHABLE and other.value(3) is UNREACHABLE
            assert repr(other.value(3)) == "UNREACHABLE"

    def test_unreachable_sorts_after_every_threshold(self):
        assert sorted([UNREACHABLE, 1.0, 0.0, 0.5]) == [0.0, 0.5, 1.0, UNREACHABLE]
        assert sorted([UNREACHABLE, 1.0])[-1] is UNREACHABLE
        assert not 1.0 >= UNREACHABLE
