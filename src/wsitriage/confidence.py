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
from .tables import TableError, interval, read_table, write_table

DEFAULT_T = 30
DEFAULT_TARGETS = (0.90, 0.95, 0.98)

THRESHOLDS_HEAD = ("wsi-triage-thresholds v2", "level,target,threshold")


class _Unreachable(float):
    """+inf for a target accuracy no threshold can achieve: no score clears
    it, and it sorts after every threshold.  UNREACHABLE is its one
    instance, and pickling and copying return it too."""

    __slots__ = ()

    def __new__(cls):
        return UNREACHABLE

    def __reduce__(self):
        return "UNREACHABLE"   # the module global, at every pickle protocol

    def __repr__(self):
        return "UNREACHABLE"


UNREACHABLE = float.__new__(_Unreachable, math.inf)


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
    return predict(embedding, params, scales)


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
        check_targets(self.targets)
        values = [_threshold(v) for v in self.values]
        if values != sorted(values):
            raise ValueError("thresholds must be non-decreasing in level")

    @property
    def levels(self) -> tuple:
        return tuple(range(1, len(self.targets) + 1))

    def value(self, level: int):
        return self.values[level - 1]

    def target(self, level: int) -> float:
        return self.targets[level - 1]

    def level(self, score: float) -> int:
        """The highest level whose threshold the score clears, inclusive of
        the threshold; 0 when it clears none.  The thresholds do not
        decrease, so the cleared levels are the first ones, and an
        UNREACHABLE threshold is never cleared."""
        return int(sum(score >= v for v in self.values))


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
    candidates = [0.0] + sorted(set(scores.tolist()))

    def meets(target, cand):
        kept = scores >= cand
        return correct[kept].sum() / kept.sum() >= target

    return ThresholdSet(targets=tuple(targets), values=tuple(
        next((c for c in candidates if meets(target, c)), UNREACHABLE)
        for target in targets))


def save_thresholds(thresholds: ThresholdSet, path) -> None:
    write_table(path, THRESHOLDS_HEAD, (
        (level, float(target), "unreachable" if v is UNREACHABLE else float(v))
        for level, target, v in zip(thresholds.levels, thresholds.targets,
                                    thresholds.values)))


_target = interval(0, 1, "target", open_low=True)


def check_targets(targets) -> tuple:
    """The accuracy targets of levels 1, 2, ...: each in (0, 1], and
    non-decreasing."""
    targets = tuple(_target(t) for t in targets)
    if list(targets) != sorted(targets):
        raise ValueError(f"targets must be non-decreasing, got {targets}")
    return targets


def _threshold(value):
    """A threshold: UNREACHABLE (`unreachable` in a file) or a number in [0, 1]."""
    if value is UNREACHABLE or value == "unreachable":
        return UNREACHABLE
    return interval(0, 1, "threshold")(value)


def load_thresholds(path) -> ThresholdSet:
    targets, values = [], []
    columns = (str, _target, _threshold)
    for lineno, (level, target, value) in read_table(path, THRESHOLDS_HEAD, columns):
        if level != str(len(targets) + 1):
            raise TableError(f"{path}:{lineno}: expected level {len(targets) + 1}, "
                             f"got {level!r}")
        targets.append(target)
        values.append(value)
    try:
        return ThresholdSet(targets=tuple(targets), values=tuple(values))
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from None
