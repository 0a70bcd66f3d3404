"""Selective-classification evaluation: retained accuracy and coverage per
confidence level, one-vs-rest ROC/AUC per class, confusion flows with
unclassified columns, and a scalar domain-gap metric over tile features.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .aggregation import FinalOutcome, finalize
from .confidence import UNREACHABLE, ThresholdSet, _lower_bound
from .manifest import N_CLASSES, ClassLabel
from .tables import write_table

# confusion columns: the four predicted classes, then the two unclassified flows
CONFUSION_COLS = tuple(c.token for c in ClassLabel) + ("BelowThreshold", "NoROI")

LEVEL_NONE = 0


@dataclass(frozen=True)
class ROCCurve:
    points: tuple     # ((fpr, tpr), ...) from (0, 0) to (1, 1)
    auc: float


def roc_auc(scores, truths) -> ROCCurve:
    """ROC by threshold sweep over the unique scores; AUC by trapezoid
    rule, which equals the Mann-Whitney pairwise statistic with ties
    counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=bool)
    if scores.shape != truths.shape or scores.ndim != 1:
        raise ValueError("scores and truths must be parallel 1-d arrays")
    n_pos = int(truths.sum())
    n_neg = len(truths) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need both positive and negative examples")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truths[order]
    # group equal scores so ties contribute a single diagonal segment
    boundaries = np.flatnonzero(np.diff(s)) + 1
    tp = np.concatenate([[0], np.cumsum(t)[np.append(boundaries - 1, len(s) - 1)]])
    fp = np.concatenate([[0], np.cumsum(~t)[np.append(boundaries - 1, len(s) - 1)]])
    tpr = tp / n_pos
    fpr = fp / n_neg
    auc = float(np.trapezoid(tpr, fpr))
    return ROCCurve(points=tuple(zip(fpr.tolist(), tpr.tolist())), auc=auc)


@dataclass(frozen=True)
class LevelMetrics:
    level: int                 # 0 = no threshold, 1..3 = confidence levels
    threshold: object          # float or UNREACHABLE (0.0 at level 0)
    accuracy: float            # over retained specimens; nan when none retained
    coverage: float            # retained / total
    n_retained: int
    curves: tuple              # per-class ROCCurve or None when undefined
    confusion: np.ndarray      # (4, 6) counts, rows = truth class

    @property
    def auc(self) -> np.ndarray:
        return np.array([np.nan if c is None else c.auc for c in self.curves])


@dataclass(frozen=True)
class EvalReport:
    levels: dict               # level number -> LevelMetrics
    n_specimens: int


def _level_metrics(level, threshold, specimens, truths) -> LevelMetrics:
    finals = [finalize(s, threshold) for s in specimens]
    confusion = np.zeros((N_CLASSES, N_CLASSES + 2), dtype=int)
    retained = []
    for spec in finals:
        row = int(truths[spec.specimen_id])
        if spec.final is FinalOutcome.NO_ROI:
            confusion[row, N_CLASSES + 1] += 1
        elif spec.final is FinalOutcome.BELOW_THRESHOLD:
            confusion[row, N_CLASSES] += 1
        else:
            confusion[row, int(spec.predicted)] += 1
            retained.append(spec)

    n = len(specimens)
    coverage = len(retained) / n if n else 0.0
    # the retained specimens predicted right are the confusion diagonal
    accuracy = int(np.trace(confusion)) / len(retained) if retained else float("nan")

    curves = []
    scored = [s for s in retained if s.class_means is not None]
    for c in range(N_CLASSES):
        if not scored:
            curves.append(None)
            continue
        scores = np.array([s.class_means[c] for s in scored])
        labels = np.array([int(truths[s.specimen_id]) == c for s in scored])
        try:
            curves.append(roc_auc(scores, labels))
        except ValueError:
            curves.append(None)
    return LevelMetrics(level=level, threshold=threshold, accuracy=accuracy,
                        coverage=coverage, n_retained=len(retained),
                        curves=tuple(curves), confusion=confusion)


def evaluate(specimens, truths: dict, thresholds: ThresholdSet) -> EvalReport:
    """Metrics at level 0 (no threshold) and at each calibrated level.

    `specimens` are aggregated, unthresholded specimen results; `truths`
    maps every specimen_id to its ground-truth class.
    """
    specimens = list(specimens)
    unknown = [s.specimen_id for s in specimens if s.specimen_id not in truths]
    if unknown:
        raise ValueError(f"specimens without ground truth: {unknown[:5]}")

    levels = {LEVEL_NONE: _level_metrics(LEVEL_NONE, 0.0, specimens, truths)}
    for lv in thresholds.levels:
        levels[lv] = _level_metrics(lv, thresholds.value(lv), specimens, truths)
    return EvalReport(levels=levels, n_specimens=len(specimens))


def domain_gap(features: np.ndarray, lab_labels) -> float:
    """Mean silhouette coefficient of the lab grouping over tile features.

    Near 0 means labs are indistinguishable in feature space; near 1 means
    tiles cluster strongly by lab.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(lab_labels)
    if features.ndim != 2 or len(features) != len(labels):
        raise ValueError("features must be (N, D) with one lab label per row")
    uniq, counts = np.unique(labels, return_counts=True)
    if len(uniq) < 2:
        raise ValueError("domain gap needs at least two labs")
    if counts.min() < 2:
        raise ValueError("domain gap needs at least two tiles per lab")

    dist = cdist(features, features)
    sil = np.empty(len(features))
    for i in range(len(features)):
        same = labels == labels[i]
        a = dist[i, same].sum() / (same.sum() - 1)
        b = min(dist[i, labels == lab].mean() for lab in uniq if lab != labels[i])
        denom = max(a, b)
        sil[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(sil.mean())


def format_report(report: EvalReport, title: str = "evaluation") -> str:
    lines = [f"# {title}", f"specimens: {report.n_specimens}", ""]
    lines.append("level  threshold    accuracy  coverage  retained  95% lower bound")
    for lv, m in sorted(report.levels.items()):
        thr = "unreachable" if m.threshold is UNREACHABLE else f"{float(m.threshold):.6f}"
        acc = "n/a" if np.isnan(m.accuracy) else f"{m.accuracy:.4f}"
        name = "none" if lv == LEVEL_NONE else str(lv)
        bound = _lower_bound(int(np.trace(m.confusion)), m.n_retained)
        lines.append(f"{name:<6} {thr:<12} {acc:<9} {m.coverage:<9.4f} "
                     f"{m.n_retained:<9} {bound}")
    lines.append("")
    for lv, m in sorted(report.levels.items()):
        name = "none" if lv == LEVEL_NONE else f"level {lv}"
        aucs = " ".join("n/a" if np.isnan(a) else f"{a:.4f}" for a in m.auc)
        lines.append(f"auc ({name}): {aucs}")
    lines.append("")
    for lv, m in sorted(report.levels.items()):
        name = "none" if lv == LEVEL_NONE else f"level {lv}"
        lines.append(f"confusion ({name}); rows = truth, cols = " + ", ".join(CONFUSION_COLS))
        for c in ClassLabel:
            counts = " ".join(f"{v:5d}" for v in m.confusion[int(c)])
            lines.append(f"  {c.token:<12} {counts}")
        lines.append("")
    return "\n".join(lines)


def write_report(report: EvalReport, out_dir, title: str = "evaluation") -> None:
    """Text report plus CSV tables suitable for external plotting."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_report(report, title) + "\n")

    levels = sorted(report.levels.items())
    write_table(os.path.join(out_dir, "accuracy_coverage.csv"),
                ["level,threshold,accuracy,coverage,n_retained"],
                ((lv, "unreachable" if m.threshold is UNREACHABLE else float(m.threshold),
                  "" if np.isnan(m.accuracy) else float(m.accuracy),
                  float(m.coverage), m.n_retained)
                 for lv, m in levels))
    write_table(os.path.join(out_dir, "confusion.csv"),
                ["level,truth," + ",".join(CONFUSION_COLS)],
                ((lv, c.token, *m.confusion[int(c)].tolist())
                 for lv, m in levels for c in ClassLabel))
    write_table(os.path.join(out_dir, "roc_points.csv"), ["level,class,fpr,tpr"],
                ((lv, c.token, fpr, tpr)
                 for lv, m in levels
                 for c, curve in zip(ClassLabel, m.curves) if curve is not None
                 for fpr, tpr in curve.points))
