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

from .confidence import ThresholdSet, apply_threshold
from .manifest import ClassLabel
from .tables import TableError, optional, read_table, write_table

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
    final: FinalOutcome | None = None     # set by finalize()

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


def finalize(specimen: SpecimenResult, threshold) -> SpecimenResult:
    """Apply a confidence threshold: no-ROI specimens stay no-ROI, others
    are classified iff their score clears the threshold."""
    if not specimen.classified:
        return replace(specimen, final=FinalOutcome.NO_ROI)
    if apply_threshold(specimen.score, threshold):
        return replace(specimen, final=FinalOutcome.CLASSIFIED)
    return replace(specimen, final=FinalOutcome.BELOW_THRESHOLD)


def attained_level(specimen: SpecimenResult, thresholds: ThresholdSet) -> int:
    """Highest confidence level whose threshold the specimen clears (0 if none)."""
    level = 0
    if not specimen.classified:
        return level
    for lv in thresholds.levels:
        if apply_threshold(specimen.score, thresholds.value(lv)):
            level = lv
    return level


def save_specimen_results(specimens, thresholds: ThresholdSet, path) -> None:
    """One row per specimen: specimen_id,final,class,score,level,source_slide.

    `final` is the outcome at REPORT_LEVEL's threshold; `level` is the
    highest level the specimen's score attains.
    """
    threshold = thresholds.value(REPORT_LEVEL) if thresholds.levels else 0.0
    rows = []
    for spec in sorted(specimens, key=lambda s: s.specimen_id):
        final = finalize(spec, threshold).final
        if final is FinalOutcome.NO_ROI:
            rows.append((spec.specimen_id, final.value, "", "", "", ""))
        else:
            rows.append((spec.specimen_id, final.value, spec.predicted.token,
                         float(spec.score), attained_level(spec, thresholds),
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


def load_specimen_results(results_path, class_scores_path=None) -> list[SpecimenResult]:
    """Rebuild specimen results from the results file (and the class-score
    table when per-class ROC evaluation is wanted)."""
    means_by_id = {}
    if class_scores_path is not None:
        for _, (specimen_id, *means) in read_table(class_scores_path, CLASS_SCORES_HEAD,
                                                   (str,) + (float,) * 4):
            means_by_id[specimen_id] = np.array(means)

    columns = (str, FinalOutcome, optional(ClassLabel.from_token), optional(float), str, str)
    out = []
    for lineno, (specimen_id, final, cls, s, _, source) in read_table(
            results_path, RESULTS_HEAD, columns):
        if final is FinalOutcome.NO_ROI:
            out.append(SpecimenResult(specimen_id, None, None, None, None))
        elif cls is None or s is None:
            raise TableError(f"{results_path}:{lineno}: {final.value} row without "
                             f"a class and a score")
        else:
            out.append(SpecimenResult(specimen_id, cls, s, source,
                                      means_by_id.get(specimen_id)))
    return out
