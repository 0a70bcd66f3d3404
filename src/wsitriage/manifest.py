"""Slide records, dataset manifests, and specimen-grouped split construction.

A manifest lists every slide of a corpus together with its specimen, lab,
ground-truth class and raster location.  Splits are always assigned at the
specimen level: all slides of a specimen land in the same split.
"""

from __future__ import annotations

import enum
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .tables import optional, read_table, write_table

MANIFEST_HEADER = "wsi-triage-manifest v1"

N_CLASSES = 4


class ClassLabel(enum.IntEnum):
    """The four target classes, in canonical (tie-breaking) order."""

    BASALOID = 0
    SQUAMOUS = 1
    MELANOCYTIC = 2
    OTHER = 3

    @property
    def token(self) -> str:
        return _LABEL_TOKENS[self]

    @classmethod
    def from_token(cls, token: str) -> "ClassLabel":
        try:
            return _TOKEN_LABELS[token]
        except KeyError:
            raise ValueError(f"unknown class label {token!r}") from None


_LABEL_TOKENS = {
    ClassLabel.BASALOID: "Basaloid",
    ClassLabel.SQUAMOUS: "Squamous",
    ClassLabel.MELANOCYTIC: "Melanocytic",
    ClassLabel.OTHER: "Other",
}
_TOKEN_LABELS = {v: k for k, v in _LABEL_TOKENS.items()}


class Split(enum.Enum):
    TRAIN = "Train"
    VALIDATION = "Validation"
    TEST = "Test"
    CALIB_FINETUNE = "CalibFinetune"
    CALIB_VALIDATION = "CalibValidation"


DEV_SPLITS = (Split.TRAIN, Split.VALIDATION, Split.TEST)


@dataclass(frozen=True)
class SlideRecord:
    slide_id: str
    specimen_id: str
    lab_id: str
    truth: ClassLabel
    raster_path: str


@dataclass
class DatasetManifest:
    """Immutable-by-convention collection of slide records plus split map."""

    records: list[SlideRecord]
    splits: dict[str, Split] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.slide_id in seen:
                raise ValueError(f"duplicate slide_id {rec.slide_id!r}")
            seen.add(rec.slide_id)
        for sid in self.splits:
            if sid not in seen:
                raise ValueError(f"split assigned to unknown slide_id {sid!r}")

    def records_in(self, split: Split) -> list[SlideRecord]:
        return [r for r in self.records if self.splits.get(r.slide_id) is split]

    def lab_ids(self) -> list[str]:
        out, seen = [], set()
        for rec in self.records:
            if rec.lab_id not in seen:
                seen.add(rec.lab_id)
                out.append(rec.lab_id)
        return out

    def truth_by_specimen(self) -> dict[str, ClassLabel]:
        return {rec.specimen_id: rec.truth for rec in self.records}


def stable_seed(*parts) -> int:
    """Platform-independent 64-bit seed derived from the given parts.

    Used everywhere a per-item RNG stream is derived from (global seed, id),
    so results do not depend on process hashing or scheduling.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def check_ratios(ratios) -> None:
    """Raise ValueError unless ratios are three non-negative reals summing
    to 1, the split fractions build_splits takes."""
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be three non-negative reals, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios!r}")


def build_splits(
    manifest: DatasetManifest,
    ratios: tuple[float, float, float],
    seed: int,
    splits: tuple[Split, Split, Split] = DEV_SPLITS,
) -> DatasetManifest:
    """Assign every specimen (hence all its slides) to one of three splits.

    Specimens are shuffled with a seeded RNG and partitioned at the floored
    cumulative ratio boundaries, so counts are within one specimen of the
    exact ratio split.  Pure function of (specimen id set, ratios, seed):
    record ordering in the manifest does not matter.
    """
    if not manifest.records:
        raise ValueError("cannot split an empty manifest")
    check_ratios(ratios)

    specimens = sorted(set(r.specimen_id for r in manifest.records))
    rng = np.random.default_rng(stable_seed("split", seed))
    order = rng.permutation(len(specimens))
    shuffled = [specimens[i] for i in order]

    n = len(shuffled)
    b1 = int(np.floor(n * ratios[0]))
    b2 = int(np.floor(n * (ratios[0] + ratios[1])))
    assignment: dict[str, Split] = {}
    for i, spec in enumerate(shuffled):
        if i < b1:
            assignment[spec] = splits[0]
        elif i < b2:
            assignment[spec] = splits[1]
        else:
            assignment[spec] = splits[2]

    split_map = {rec.slide_id: assignment[rec.specimen_id] for rec in manifest.records}
    return DatasetManifest(records=list(manifest.records), splits=split_map)


def save_manifest(manifest: DatasetManifest, path) -> None:
    """One record per row: slide_id,specimen_id,lab_id,truth,split,raster_path."""
    rows = []
    for rec in manifest.records:
        split = manifest.splits.get(rec.slide_id)
        token = split.value if split is not None else ""
        rows.append((rec.slide_id, rec.specimen_id, rec.lab_id, rec.truth.token,
                     token, rec.raster_path))
    write_table(path, [MANIFEST_HEADER], rows)


def load_manifest(path) -> DatasetManifest:
    """The manifest in path; a relative raster_path is taken relative to
    the manifest file's directory, so the records hold absolute paths
    whatever the working directory."""
    base = os.path.dirname(os.path.abspath(path))

    def raster(text):
        if not text:
            raise ValueError("empty raster_path")
        return os.path.join(base, text)

    records: list[SlideRecord] = []
    splits: dict[str, Split] = {}
    columns = (str, str, str, ClassLabel.from_token, optional(Split), raster)
    for _, row in read_table(path, [MANIFEST_HEADER], columns):
        slide_id, specimen_id, lab_id, label, split, raster_path = row
        records.append(SlideRecord(slide_id, specimen_id, lab_id, label, raster_path))
        if split is not None:
            splits[slide_id] = split
    return DatasetManifest(records=records, splits=splits)
