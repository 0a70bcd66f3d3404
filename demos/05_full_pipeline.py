"""End to end on one shifted lab: calibrate, freeze, run, evaluate, profile.

Mirrors the deployment story: everything is developed on the reference
lab; for a new lab only its color statistics, a fine-tuned classifier,
and its confidence thresholds are fit (on calibration splits), after
which the system runs once on the lab's test split.  calibrate_lab returns
the lab's run-ready model set.

Run:  python demos/05_full_pipeline.py       (takes a minute or two)
"""

import os
import tempfile

from wsitriage.config import Config
from wsitriage.evaluation import evaluate, format_report
from wsitriage.manifest import Split, build_splits
from wsitriage.pipeline import format_profile, profile, run_corpus
from wsitriage.synthesis import default_lab_profiles, generate_corpus
from wsitriage.training import calibrate_lab, train_models

root = os.path.join(tempfile.gettempdir(), "wsitriage-demo-e2e")
profiles = {p.lab_id: p for p in default_lab_profiles()}
config = Config()
workers = 2

print("generating reference corpus and one shifted lab ...")
ref = generate_corpus(24, [profiles["reference"]], (1, 2), seed=3,
                      out_dir=os.path.join(root, "reference"), workers=workers)
ref = build_splits(ref, (0.7, 0.15, 0.15), seed=1)
lab = generate_corpus(40, [profiles["lab_c"]], (1, 2), seed=3,
                      out_dir=os.path.join(root, "lab_c"), workers=workers)
lab = build_splits(lab, (0.4, 0.1, 0.5), seed=1,
                   splits=(Split.CALIB_FINETUNE, Split.CALIB_VALIDATION, Split.TEST))

print("training reference models ...")
trained = train_models(ref, config, workers=workers)
print(f"  training accuracy {trained.train_accuracy:.3f}")

print("calibrating lab_c (stats, fine-tune, thresholds) ...")
cal = calibrate_lab(lab, trained, config, workers=workers, global_seed=9)
print(f"  lab validation accuracy {cal.validation.levels[0].accuracy:.3f}")
print(format_report(cal.validation, title="lab_c CalibValidation split"))

print("frozen run on the lab_c test split ...")
run = run_corpus(lab, cal, config, workers=workers, global_seed=9,
                 split=Split.TEST)

report = evaluate(run.specimens, lab.truth_by_specimen(), cal.thresholds)
print()
print(format_report(report, title="lab_c test split"))
print(format_profile(profile(run.timings, wall_ms=run.wall_ms)))
