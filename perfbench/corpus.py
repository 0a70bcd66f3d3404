"""Corpus plans and workload inputs, all derived from the benchmark seed.

Every corpus has two labs, the reference lab and the shifted lab `lab_a`
with their default artifact rates, and exactly two slides per specimen.
lab_a's calibration slides and its Test batch are two generate_corpus
calls, so that lab_onboarding writes no slide it does not read.
A fixed slide count per specimen keeps the work in a round the same for
every seed; only the slide contents change.  The shifted lab makes the
generator's colour transform a real matrix product and keeps the
frozen run's adaptation stage on its costly path (the reference lab's
identity adapter short-circuits to a copy).
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass

import numpy as np

from wsitriage.config import Config
from wsitriage.manifest import (DEV_SPLITS, ClassLabel, DatasetManifest, Split,
                                build_splits, stable_seed)
from wsitriage.synthesis import default_lab_profiles, generate_corpus
from wsitriage.training import calibrate_lab, calibrate_reference, train_models

# the CPUs this process may run on, as `nproc` counts them
NPROC = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
GLOBAL_SEED = 2024          # inference seed of every frozen run
CONFIG = Config()
LAB_IDS = ("reference", "lab_a")
SLIDES_PER_SPECIMEN = 2

# corpus_synthesis: one round writes this many specimens per lab
SYNTH_SPECIMENS_PER_LAB = 6
# ... and renders this many slides per lab again in process
SYNTH_INPROC_PER_LAB = 6

# lab_onboarding and triage_run share one corpus per seed; triage_run
# adds lab_a's Test batch
REF_SPECIMENS = 12
LAB_SPECIMENS = 18
TEST_SPECIMENS = 15
REF_RATIOS = (0.75, 0.25, 0.0)          # Train, Validation, (no Test)
LAB_RATIOS = (0.67, 0.33, 0.0)          # CalibFinetune, CalibValidation, (no Test)
TEST_RATIOS = (0.0, 0.0, 1.0)
LAB_SPLITS = (Split.CALIB_FINETUNE, Split.CALIB_VALIDATION, Split.TEST)


def lab_profiles():
    profiles = {p.lab_id: p for p in default_lab_profiles()}
    return [profiles[lab] for lab in LAB_IDS]


@dataclass(frozen=True)
class SlideSpec:
    label: ClassLabel
    profile: object
    slide_seed: int
    slide_id: str
    specimen_id: str
    raster_path: str
    no_lesion: bool


def slide_specs(n_specimens_per_lab: int, labs, seed: int, out_dir: str,
                other_no_lesion_fraction: float = 0.25,
                extra_slide_no_lesion_fraction: float = 0.15) -> list[SlideSpec]:
    """The per-slide plan `generate_corpus` derives from (seed, lab, slide_id)
    with `slides_per_specimen_range=(2, 2)` and its default no-lesion
    fractions, re-derived here so that single slides can be rendered again
    in process and compared with the pool-written files."""
    specs = []
    for profile in labs:
        rng = np.random.default_rng(stable_seed("corpus", seed, profile.lab_id))
        classes = [ClassLabel(i % 4) for i in range(n_specimens_per_lab)]
        rng.shuffle(classes)
        for idx, label in enumerate(classes):
            specimen_id = f"{profile.lab_id}-s{idx:04d}"
            n_slides = int(rng.integers(SLIDES_PER_SPECIMEN, SLIDES_PER_SPECIMEN + 1))
            for j in range(n_slides):
                slide_id = f"{specimen_id}-{j}"
                if label is ClassLabel.OTHER:
                    no_lesion = rng.random() < other_no_lesion_fraction
                else:
                    no_lesion = j > 0 and rng.random() < extra_slide_no_lesion_fraction
                specs.append(SlideSpec(label, profile, stable_seed(seed, slide_id),
                                       slide_id, specimen_id,
                                       os.path.join(out_dir, f"{slide_id}.ppm"),
                                       no_lesion))
    return specs


def synth_seed(seed: int) -> int:
    """The generate_corpus seed of every corpus_synthesis round: rounds
    write the same slides, so a run's medians do not depend on how many
    rounds fitted into it."""
    return stable_seed("perfbench-synth", seed)


@dataclass
class Corpus:
    """The corpus of lab_onboarding and triage_run, split."""

    ref: DatasetManifest        # Train / Validation
    lab: DatasetManifest        # CalibFinetune / CalibValidation
    test: DatasetManifest | None    # lab_a's Test batch (triage_run and traced runs)
    manifest_paths: dict        # "ref", "lab", "test" -> manifest.txt
    split_seeds: dict           # "ref", "lab", "test" -> the seed build_splits was given
    generate_s: float           # wall clock of the generate_corpus calls
    n_slides: int


def make_corpus(seed: int, work_dir: str, with_test: bool,
                workers: int = NPROC) -> Corpus:
    """Write the seed's corpus under work_dir (absolute raster paths),
    with lab_a's Test batch if asked, and split each manifest by specimen."""
    work_dir = os.path.abspath(work_dir)
    ref_profile, lab_profile = lab_profiles()
    plans = [("ref", ref_profile, REF_SPECIMENS, seed, REF_RATIOS, DEV_SPLITS),
             ("lab", lab_profile, LAB_SPECIMENS, seed, LAB_RATIOS, LAB_SPLITS)]
    if with_test:
        plans.append(("test", lab_profile, TEST_SPECIMENS, batch_seed(seed),
                      TEST_RATIOS, LAB_SPLITS))
    manifests, paths, split_seeds = {}, {}, {}
    t0 = time.perf_counter()
    for key, profile, n_specimens, corpus_seed, _, _ in plans:
        out_dir = os.path.join(work_dir, key)
        manifests[key] = generate_corpus(n_specimens, [profile],
                                         (SLIDES_PER_SPECIMEN, SLIDES_PER_SPECIMEN),
                                         seed=corpus_seed, out_dir=out_dir, workers=workers)
        paths[key] = os.path.join(out_dir, "manifest.txt")
    generate_s = time.perf_counter() - t0
    for key, _, _, _, ratios, splits in plans:
        if key == "test":
            manifests[key] = build_splits(manifests[key], ratios, seed=seed, splits=splits)
            split_seeds[key] = seed
        else:
            manifests[key], split_seeds[key] = split_fitting_every_class(
                manifests[key], ratios, splits, seed)
    return Corpus(manifests["ref"], manifests["lab"], manifests.get("test"), paths,
                  split_seeds, generate_s, sum(len(m.records) for m in manifests.values()))


def batch_seed(seed: int) -> int:
    """The generate_corpus seed of lab_a's Test batch: the same lab as the
    calibration slides, other slides."""
    return stable_seed("perfbench-test", seed)


def split_fitting_every_class(manifest, ratios, splits, seed):
    """build_splits with `seed`, or else with the first
    stable_seed("perfbench-split", seed, k), k = 1, 2, ..., whose first
    split (the one models are fitted on: Train or CalibFinetune) holds
    every class; returns the split manifest and the seed it took.

    build_splits does not stratify by class, and a model fitted without a
    class never predicts it: on about 3% of seeds a fitting split lacks a
    class and frozen-run accuracy falls to 0.5-0.73 (a fault recorded in
    CHANGES.md).  Such runs are left out rather than failed on some seeds.
    """
    for k in itertools.count():
        split_seed = seed if k == 0 else stable_seed("perfbench-split", seed, k)
        split = build_splits(manifest, ratios, seed=split_seed, splits=splits)
        if {r.truth for r in split.records_in(splits[0])} == set(ClassLabel):
            return split, split_seed


def onboarded_slide_count(corpus: Corpus) -> int:
    """Slides an onboarding reads through the slide pipeline."""
    return (len(corpus.ref.records_in(Split.TRAIN))
            + len(corpus.ref.records_in(Split.VALIDATION))
            + len(corpus.lab.records_in(Split.CALIB_FINETUNE))
            + len(corpus.lab.records_in(Split.CALIB_VALIDATION)))


@dataclass
class Onboarded:
    trained: object             # training.TrainedModels
    ref_thresholds: object      # confidence.ThresholdSet of the reference lab
    calibration: object         # training.LabCalibration of the shifted lab


def onboard_reference(corpus: Corpus, workers: int = NPROC):
    trained = train_models(corpus.ref, CONFIG, workers=workers)
    thresholds = calibrate_reference(corpus.ref, trained, CONFIG, workers=workers,
                                     global_seed=GLOBAL_SEED)
    return trained, thresholds


def onboard_lab(corpus: Corpus, trained, workers: int = NPROC):
    return calibrate_lab(corpus.lab, trained, CONFIG, workers=workers,
                         global_seed=GLOBAL_SEED)


def onboard(corpus: Corpus, workers: int = NPROC) -> Onboarded:
    trained, thresholds = onboard_reference(corpus, workers)
    return Onboarded(trained, thresholds, onboard_lab(corpus, trained, workers))
