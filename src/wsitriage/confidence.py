"""Monte-Carlo confidence scoring and a-priori threshold calibration.

Prediction is repeated T times with independent stochastic hidden masks;
the confidence score of a slide is the maximum over classes of the
per-class mean sigmoid across repetitions, and the class attaining that
maximum is the predicted class.  Thresholds for the three confidence
levels are fixed ahead of any test run by scanning a calibration
validation set for the smallest threshold whose retained accuracy meets
each target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import KEEP_PROB, N_HIDDEN, NetParams, dropout_scale, predict
from .manifest import N_CLASSES, ClassLabel
from .tables import TableError, read_table, write_table

DEFAULT_T = 30
DEFAULT_TARGETS = (0.90, 0.95, 0.98)

THRESHOLDS_HEAD = ("wsi-triage-thresholds v2", "level,target,threshold")


class _Unreachable:
    """Sentinel for a target accuracy no threshold can achieve."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()


@dataclass(frozen=True)
class ConfidenceScore:
    value: float
    argmax_class: ClassLabel


def mc_predict(embedding: np.ndarray, params: NetParams, t: int = DEFAULT_T,
               keep_prob: float = KEEP_PROB, seed: int = 0) -> np.ndarray:
    """(T, 4) matrix of repeated masked predictions; row i is repetition i."""
    if t < 1:
        raise ValueError(f"need at least one repetition, got {t}")
    scales = dropout_scale(np.random.default_rng(seed), (t, N_HIDDEN), keep_prob)
    # one forward pass per row: a batched (T, 32) @ (32, 4) product rounds
    # differently from T vector products, and the scores would move
    return np.stack([predict(embedding, params, s) for s in scales])


def validate_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != N_CLASSES or matrix.shape[0] < 1:
        raise ValueError(f"expected a (T, {N_CLASSES}) matrix, got shape {matrix.shape}")
    if np.any(matrix <= 0.0) or np.any(matrix >= 1.0):
        raise ValueError("prediction matrix entries must lie strictly in (0, 1)")
    return matrix


def score(matrix: np.ndarray) -> ConfidenceScore:
    """Max over classes of the column means; argmax ties break to the
    canonical class order.

    Column means use exactly-rounded summation, so the score is invariant
    to row permutation down to the last bit.
    """
    matrix = validate_matrix(matrix)
    t = matrix.shape[0]
    means = np.array([math.fsum(matrix[:, c]) / t for c in range(N_CLASSES)])
    idx = int(np.argmax(means))
    return ConfidenceScore(value=float(means[idx]), argmax_class=ClassLabel(idx))


@dataclass(frozen=True)
class ThresholdSet:
    """Per-level sigmoid thresholds; a level is UNREACHABLE when no
    threshold attains its target on the calibration data."""

    targets: tuple
    values: tuple     # floats or UNREACHABLE, parallel to targets

    def __post_init__(self):
        if len(self.targets) != len(self.values):
            raise ValueError("targets and values must have equal length")
        for t in self.targets:
            _target(t)
        if list(self.targets) != sorted(self.targets):
            raise ValueError("targets must be non-decreasing")
        last = -np.inf
        seen_unreachable = False
        for v in self.values:
            if v is UNREACHABLE:
                seen_unreachable = True
                continue
            if seen_unreachable:
                raise ValueError("a reachable level cannot follow an unreachable one")
            if v < last:
                raise ValueError("thresholds must be non-decreasing in level")
            last = v

    @property
    def levels(self) -> tuple:
        return tuple(range(1, len(self.targets) + 1))

    def value(self, level: int):
        return self.values[level - 1]

    def target(self, level: int) -> float:
        return self.targets[level - 1]


def calibrate_thresholds(results, targets=DEFAULT_TARGETS) -> ThresholdSet:
    """Smallest threshold per target such that accuracy over results with
    score >= threshold meets the target.

    Candidates are 0 plus the observed scores: the retained-accuracy curve
    is a step function with steps only at data points.
    """
    results = list(results)
    if not results:
        raise ValueError("cannot calibrate thresholds on empty validation results")
    scores = np.array([s for s, _ in results], dtype=np.float64)
    correct = np.array([bool(c) for _, c in results])

    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    c_sorted = correct[order]
    # suffix_correct[i] / suffix_n[i]: accuracy over items with the i-th
    # smallest score or greater
    suffix_correct = np.cumsum(c_sorted[::-1])[::-1]
    n = len(results)

    candidates = [0.0] + sorted(set(s_sorted.tolist()))
    values = []
    for target in targets:
        chosen = UNREACHABLE
        for cand in candidates:
            first = int(np.searchsorted(s_sorted, cand, side="left"))
            kept = n - first
            if kept == 0:
                continue
            if suffix_correct[first] / kept >= target:
                chosen = cand
                break
        values.append(chosen)
    return ThresholdSet(targets=tuple(targets), values=tuple(values))


def apply_threshold(s, threshold) -> bool:
    """True when the score clears the threshold (inclusive boundary);
    an UNREACHABLE threshold never classifies."""
    if threshold is UNREACHABLE:
        return False
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    value = s.value if isinstance(s, ConfidenceScore) else float(s)
    return value >= threshold


def _lower_bound(k: int, n: int) -> str:
    """The one-sided 95% Clopper-Pearson lower bound on an accuracy of k
    correct in n, to three places; n/a when n is 0."""
    if not n:
        return "n/a"
    from scipy.stats import beta   # here, not at the top: a 0.7 s import
    return f"{beta.ppf(0.05, k, n - k + 1) if k else 0.0:.3f}"


def format_evidence(results, thresholds: ThresholdSet) -> str:
    """One line per level: the (score, correct) results its threshold
    retains, their accuracy and its one-sided 95% Clopper-Pearson lower
    bound, n/a when nothing is retained."""
    lines = []
    for level, target, value in zip(thresholds.levels, thresholds.targets,
                                    thresholds.values):
        kept = [bool(ok) for s, ok in results if apply_threshold(s, value)]
        n, k = len(kept), sum(kept)
        acc = f"{k / n:.3f}" if n else "n/a"
        lines.append(f"level {level} (target {target}): threshold {value!r}, "
                     f"{n} retained, accuracy {acc}, 95% lower bound {_lower_bound(k, n)}")
    return "\n".join(lines)


def save_thresholds(thresholds: ThresholdSet, path) -> None:
    write_table(path, THRESHOLDS_HEAD, (
        (level, float(target), "unreachable" if v is UNREACHABLE else float(v))
        for level, target, v in zip(thresholds.levels, thresholds.targets,
                                    thresholds.values)))


def _target(value) -> float:
    value = float(value)
    if not 0.0 < value <= 1.0:   # NaN too
        raise ValueError(f"target must be in (0, 1], got {value}")
    return value


def _threshold(text):
    if text == "unreachable":
        return UNREACHABLE
    value = float(text)
    if not 0.0 <= value <= 1.0:   # NaN too
        raise ValueError(f"threshold must be in [0, 1], got {text}")
    return value


def load_thresholds(path) -> ThresholdSet:
    targets, values = [], []
    columns = (str, _target, _threshold)
    for lineno, (level, target, value) in read_table(path, THRESHOLDS_HEAD, columns):
        if level != str(len(targets) + 1):
            raise TableError(f"{path}:{lineno}: expected level {len(targets) + 1}, "
                             f"got {level!r}")
        targets.append(target)
        values.append(value)
    return ThresholdSet(targets=tuple(targets), values=tuple(values))
