"""Specimen-level aggregation of per-slide outcomes.

Diagnosis is reported per specimen, which may span several slides; the
specimen takes the maximum-confidence prediction of its slides.  Slides
without any detected region of interest carry no prediction, and a
specimen whose slides all lack ROIs stays unclassified as no-ROI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .confidence import ThresholdSet
from .manifest import ClassLabel
from .tables import TableError, at_least, interval, optional, read_table, write_table

RESULTS_HEAD = ("wsi-triage-specimen-results v1",
                "specimen_id,final,class,score,level,source_slide")
SLIDE_RESULTS_HEAD = ("wsi-triage-slide-results v1",
                      "slide_id,specimen_id,outcome,class,score,error")
CLASS_SCORES_HEAD = ("wsi-triage-class-scores v1",
                     "specimen_id,basaloid,squamous,melanocytic,other")

REPORT_LEVEL = 1   # specimen results' `final` is the outcome at this level

SLIDE_OUTCOMES = ("Classified", "NoROI", "Error")


class FinalOutcome(enum.Enum):
    CLASSIFIED = "Classified"
    BELOW_THRESHOLD = "BelowThreshold"
    NO_ROI = "NoROI"


@dataclass(frozen=True)
class SlideResult:
    slide_id: str
    specimen_id: str
    predicted: ClassLabel | None = None   # None when no ROI was detected
    score: float | None = None
    matrix: np.ndarray | None = None      # (T, 4) repetition matrix
    error: str | None = None

    @property
    def classified(self) -> bool:
        return self.predicted is not None and self.error is None

    @property
    def outcome(self) -> str:
        """Classified, NoROI or Error (SLIDE_OUTCOMES)."""
        if self.error is not None:
            return "Error"
        return "Classified" if self.classified else "NoROI"

    @property
    def class_means(self) -> np.ndarray | None:
        return None if self.matrix is None else self.matrix.mean(axis=0)


@dataclass(frozen=True)
class SpecimenResult:
    specimen_id: str
    predicted: ClassLabel | None          # None when every slide was no-ROI
    score: float | None
    source_slide_id: str | None
    class_means: np.ndarray | None

    @property
    def classified(self) -> bool:
        return self.predicted is not None


def aggregate(slide_results) -> SpecimenResult:
    """Maximum-confidence slide becomes the specimen prediction; score
    ties break to the lowest slide_id."""
    slide_results = list(slide_results)
    if not slide_results:
        raise ValueError("no slide results to aggregate")
    specimen_ids = {r.specimen_id for r in slide_results}
    if len(specimen_ids) != 1:
        raise ValueError(f"mixed specimen ids in one aggregate: {sorted(specimen_ids)}")
    specimen_id = slide_results[0].specimen_id

    candidates = [r for r in slide_results if r.classified]
    if not candidates:
        return SpecimenResult(specimen_id, None, None, None, None)
    best = min(candidates, key=lambda r: (-r.score, r.slide_id))
    return SpecimenResult(specimen_id, best.predicted, best.score,
                          best.slide_id, best.class_means)


def final_outcome(specimen: SpecimenResult, thresholds: ThresholdSet,
                  level: int) -> FinalOutcome:
    """The specimen's outcome at a confidence level: no-ROI specimens stay
    no-ROI, others are classified iff their score attains the level, and
    level 0 classifies every one."""
    if not specimen.classified:
        return FinalOutcome.NO_ROI
    if thresholds.level(specimen.score) >= level:
        return FinalOutcome.CLASSIFIED
    return FinalOutcome.BELOW_THRESHOLD


def save_specimen_results(specimens, thresholds: ThresholdSet, path) -> None:
    """One row per specimen: specimen_id,final,class,score,level,source_slide.

    `final` is the outcome at REPORT_LEVEL (level 0 for a set without
    levels); `level` is the highest level the specimen's score attains.
    """
    report_level = REPORT_LEVEL if thresholds.levels else 0
    rows = []
    for spec in sorted(specimens, key=lambda s: s.specimen_id):
        final = final_outcome(spec, thresholds, report_level)
        if final is FinalOutcome.NO_ROI:
            rows.append((spec.specimen_id, final.value, "", "", "", ""))
        else:
            rows.append((spec.specimen_id, final.value, spec.predicted.token,
                         float(spec.score), thresholds.level(spec.score),
                         spec.source_slide_id))
    write_table(path, RESULTS_HEAD, rows)


def save_slide_results(results, path) -> None:
    rows = []
    for r in sorted(results, key=lambda r: r.slide_id):
        cls, s = (r.predicted.token, float(r.score)) if r.classified else ("", "")
        rows.append((r.slide_id, r.specimen_id, r.outcome, cls, s, r.error or ""))
    write_table(path, SLIDE_RESULTS_HEAD, rows)


def save_class_scores(specimens, path) -> None:
    """Per-class mean sigmoid of each classified specimen's winning slide,
    the score swept for the one-vs-rest ROC curves."""
    write_table(path, CLASS_SCORES_HEAD, (
        (spec.specimen_id, *(float(v) for v in spec.class_means))
        for spec in sorted(specimens, key=lambda s: s.specimen_id)
        if spec.class_means is not None))


_score = interval(0, 1, "score")   # a score or class mean: a mean of sigmoids


def load_specimen_results(results_path, class_scores_path) -> list[SpecimenResult]:
    """Rebuild specimen results from the results file and the class-score
    table that per-class ROC evaluation sweeps.  A specimen may have one row
    in each file, and one with a class needs its class scores: evaluate
    would count a repeated row twice and leave a specimen without class
    scores out of every ROC curve.  A class-score row of a specimen that
    the results file does not list with a class is rejected at its line."""
    columns = (str, FinalOutcome, optional(ClassLabel.from_token),
               optional(_score), optional(at_least(0)), str)
    out = {}
    for lineno, (specimen_id, final, cls, s, _, source) in read_table(
            results_path, RESULTS_HEAD, columns):
        if final is FinalOutcome.NO_ROI:
            out[specimen_id] = SpecimenResult(specimen_id, None, None, None, None)
        elif cls is None or s is None:
            raise TableError(f"{results_path}:{lineno}: {final.value} row without "
                             f"a class and a score")
        else:
            out[specimen_id] = SpecimenResult(specimen_id, cls, s, source, None)

    for lineno, (specimen_id, *means) in read_table(
            class_scores_path, CLASS_SCORES_HEAD, (str,) + (_score,) * 4):
        spec = out.get(specimen_id)
        if spec is None or not spec.classified:
            raise TableError(f"{class_scores_path}:{lineno}: class scores for specimen "
                             f"{specimen_id!r}, which {results_path} lists without a class")
        out[specimen_id] = replace(spec, class_means=np.array(means))
    unscored = [spec.specimen_id for spec in out.values()
                if spec.classified and spec.class_means is None]
    if unscored:
        raise TableError(f"{class_scores_path}: no class scores for specimen "
                         f"{unscored[0]!r}")
    return list(out.values())
