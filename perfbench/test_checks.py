"""Self-tests of the benchmark's checkers: each accepts a correct input and
rejects a corrupted one, so that no check passes vacuously.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from corpus import lab_profiles, slide_specs  # noqa: E402
from wsitriage.adaptation import to_decorrelated  # noqa: E402
from wsitriage.aggregation import SlideResult, aggregate  # noqa: E402
from wsitriage.confidence import (UNREACHABLE, ThresholdSet,  # noqa: E402
                                  calibrate_thresholds, score)
from wsitriage.evaluation import evaluate  # noqa: E402
from wsitriage.manifest import ClassLabel, SlideRecord  # noqa: E402
from wsitriage.pnm import write_pgm, write_ppm  # noqa: E402

T = 30


# ---------------------------------------------------------------- rasters

@pytest.fixture
def ppm(tmp_path):
    rgb = np.random.default_rng(0).integers(0, 256, size=(8, 6, 3), dtype=np.uint8)
    path = str(tmp_path / "a.ppm")
    write_ppm(path, rgb)
    return path, rgb


def test_raster_file_accepts_the_program_s_files(ppm, tmp_path):
    path, rgb = ppm
    checks.check_raster_file(path, (8, 6), 3)
    assert np.array_equal(checks.read_ppm_pixels(path), rgb)
    mask = str(tmp_path / "a_mask.pgm")
    write_pgm(mask, np.zeros((8, 6), dtype=np.uint8))
    checks.check_raster_file(mask, (8, 6), 1)


def test_raster_file_rejects_wrong_shape_magic_and_truncation(ppm):
    path, _ = ppm
    with pytest.raises(CheckError, match="shape"):
        checks.check_raster_file(path, (6, 8), 3)
    with pytest.raises(CheckError, match="magic"):
        checks.check_raster_file(path, (8, 6), 1)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 1)
    with pytest.raises(CheckError, match="bytes"):
        checks.check_raster_file(path, (8, 6), 3)


def test_header_reader_skips_comments(tmp_path):
    path = str(tmp_path / "c.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n# scanner 7\n6 8\n255\n" + bytes(6 * 8 * 3))
    assert checks.read_pnm_header(path)[:4] == (b"P6", 6, 8, 255)
    checks.check_raster_file(path, (8, 6), 3)


def test_same_bytes_rejects_a_flipped_raster_byte(ppm, tmp_path):
    path, _ = ppm
    copy = str(tmp_path / "b.ppm")
    shutil.copyfile(path, copy)
    checks.check_same_bytes(path, copy)
    with open(copy, "r+b") as fh:
        fh.seek(os.path.getsize(copy) - 5)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 1]))
    with pytest.raises(CheckError, match="differ from byte"):
        checks.check_same_bytes(path, copy)


def _records(specs):
    return [SlideRecord(s.slide_id, s.specimen_id, s.profile.lab_id, s.label, s.raster_path)
            for s in specs]


def test_plan_and_balance_reject_a_changed_truth(tmp_path):
    specs = slide_specs(6, lab_profiles(), seed=3, out_dir=str(tmp_path))
    records = _records(specs)
    checks.check_plan(records, specs)
    checks.check_class_balance(records, 2)

    other = ClassLabel((int(records[0].truth) + 1) % 4)
    changed = [replace(r, truth=other) if r.specimen_id == records[0].specimen_id else r
               for r in records]
    with pytest.raises(CheckError, match="differs from the plan"):
        checks.check_plan(changed, specs)
    # 6 specimens hold classes 2,2,1,1 in some order: moving one specimen
    # from a singly held class to a doubly held one unbalances the lab
    lab = records[0].lab_id
    per_class = {}
    for r in records:
        if r.lab_id == lab:
            per_class.setdefault(int(r.truth), set()).add(r.specimen_id)
    single = next(c for c, s in per_class.items() if len(s) == 1)
    double = next(c for c, s in per_class.items() if len(s) == 2)
    moved = next(iter(per_class[single]))
    unbalanced = [replace(r, truth=ClassLabel(double)) if r.specimen_id == moved else r
                  for r in records]
    with pytest.raises(CheckError, match="not balanced"):
        checks.check_class_balance(unbalanced, 2)
    with pytest.raises(CheckError, match="without 2 slides"):
        checks.check_class_balance(records[1:], 2)


def test_plan_rejects_relative_raster_paths():
    specs = slide_specs(2, lab_profiles()[:1], seed=3, out_dir="corpus")
    with pytest.raises(CheckError, match="relative"):
        checks.check_plan(_records(specs), specs)


# ------------------------------------------------------------ slide results

def _slide(slide_id, specimen_id, rng, noroi=False):
    if noroi:
        return SlideResult(slide_id, specimen_id)
    matrix = rng.uniform(0.01, 0.99, size=(T, 4))
    conf = score(matrix)
    return SlideResult(slide_id, specimen_id, predicted=conf.argmax_class,
                       score=conf.value, matrix=matrix)


@pytest.fixture
def slides():
    rng = np.random.default_rng(1)
    out = []
    for i in range(8):
        out += [_slide(f"s{i}-0", f"s{i}", rng), _slide(f"s{i}-1", f"s{i}", rng, noroi=i == 3)]
    out.append(_slide("s8-0", "s8", rng, noroi=True))
    # s9: two slides with the same score; the lower slide_id must win
    twin = _slide("s9-1", "s9", rng)
    out += [twin, replace(twin, slide_id="s9-0", matrix=twin.matrix[::-1].copy())]
    return out


def _specimens(slides):
    groups = {}
    for r in slides:
        groups.setdefault(r.specimen_id, []).append(r)
    return [aggregate(g) for _, g in sorted(groups.items())]


def test_scores_reject_an_altered_score_or_class(slides):
    checks.check_scores(slides, T)
    i = next(i for i, r in enumerate(slides) if r.score is not None)
    bumped = list(slides)
    bumped[i] = replace(slides[i], score=float(np.nextafter(slides[i].score, 1.0)))
    with pytest.raises(CheckError, match="score"):
        checks.check_scores(bumped, T)
    swapped = list(slides)
    swapped[i] = replace(slides[i], predicted=ClassLabel((int(slides[i].predicted) + 1) % 4))
    with pytest.raises(CheckError, match="class"):
        checks.check_scores(swapped, T)


def test_same_results_rejects_one_flipped_bit(slides):
    checks.check_same_results(slides, list(reversed(slides)), "copy")
    i = next(i for i, r in enumerate(slides) if r.matrix is not None)
    flipped = slides[i].matrix.copy()
    flipped.view(np.uint64)[0, 0] ^= 1
    changed = list(slides)
    changed[i] = replace(slides[i], matrix=flipped)
    with pytest.raises(CheckError, match="differs"):
        checks.check_same_results(slides, changed, "copy")


def test_aggregation_keeps_lowest_slide_id_on_ties(slides):
    assert checks.brute_force_specimens(slides)["s9"][2] == "s9-0"
    assert checks.brute_force_specimens(slides)["s8"] is None


def test_aggregation_rejects_a_swapped_winner(slides):
    specimens = _specimens(slides)
    checks.check_aggregation(slides, specimens)
    i = next(i for i, s in enumerate(specimens) if s.specimen_id == "s0")
    loser = next(r for r in slides if r.specimen_id == "s0" and r.slide_id != specimens[i].source_slide_id)
    swapped = list(specimens)
    swapped[i] = replace(specimens[i], predicted=loser.predicted, score=loser.score,
                         source_slide_id=loser.slide_id, class_means=loser.matrix.mean(axis=0))
    with pytest.raises(CheckError, match="brute force"):
        checks.check_aggregation(slides, swapped)


def test_levels_accept_the_program_s_report_and_reject_tampering(slides):
    specimens = _specimens(slides)
    truths = {s.specimen_id: (s.predicted if s.predicted is not None else ClassLabel.OTHER)
              for s in specimens}
    truths["s1"] = ClassLabel((int(truths["s1"]) + 1) % 4)     # one wrong specimen
    scored = sorted(s.score for s in specimens if s.predicted is not None)
    thresholds = ThresholdSet((0.5, 0.9, 0.99), (0.0, scored[2], UNREACHABLE))
    report = evaluate(specimens, truths, thresholds)
    checks.check_levels(specimens, truths, thresholds, report, accuracy_floor=0.8)

    with pytest.raises(CheckError, match="below floor"):
        checks.check_levels(specimens, truths, thresholds, report, accuracy_floor=0.95)
    bad = report.levels[1].confusion.copy()
    bad[0, 0] += 1
    tampered = replace(report, levels={**report.levels,
                                       1: replace(report.levels[1], confusion=bad)})
    with pytest.raises(CheckError, match="confusion row"):
        checks.check_levels(specimens, truths, thresholds, tampered, accuracy_floor=0.8)
    # level 1 keeps only the top-scored specimen, the one wrong prediction
    top = max((s for s in specimens if s.predicted is not None), key=lambda s: s.score)
    falls = ThresholdSet((0.5,), (top.score,))
    truths_falls = {s.specimen_id: truths[s.specimen_id] for s in specimens}
    truths_falls["s1"] = specimens[1].predicted
    truths_falls[top.specimen_id] = ClassLabel((int(top.predicted) + 1) % 4)
    with pytest.raises(CheckError, match="accuracy fell"):
        checks.check_levels(specimens, truths_falls, falls,
                            evaluate(specimens, truths_falls, falls), accuracy_floor=0.0)


# -------------------------------------------------------------- thresholds

class _Levels:
    """A threshold set that ThresholdSet itself would refuse."""

    def __init__(self, targets, values):
        self.targets, self.values = targets, values
        self.levels = tuple(range(1, len(targets) + 1))

    def value(self, level):
        return self.values[level - 1]

    def target(self, level):
        return self.targets[level - 1]


@pytest.fixture
def scored():
    rng = np.random.default_rng(2)
    s = rng.uniform(0.3, 1.0, size=40)
    return [(float(v), bool(v > 0.55 or rng.random() < 0.3)) for v in s]


def test_thresholds_accept_the_calibrated_set(scored):
    checks.check_thresholds(scored, calibrate_thresholds(scored, (0.8, 0.9, 0.98)))


def test_thresholds_accept_a_calibrated_unreachable_level(scored):
    # the top score is wrong, so no threshold keeps an accuracy of 1
    top_wrong = scored + [(0.9999, False)]
    calibrated = calibrate_thresholds(top_wrong, (0.8, 0.9, 1.0))
    assert calibrated.value(3) is UNREACHABLE
    checks.check_thresholds(top_wrong, calibrated)


def test_thresholds_reject_one_that_misses_its_target(scored):
    good = calibrate_thresholds(scored, (0.8, 0.9, 0.98))
    below = max(s for s, _ in scored if s < good.value(2))
    missed = ThresholdSet(good.targets, (good.value(1), below, good.value(3)))
    with pytest.raises(CheckError, match="< target"):
        checks.check_thresholds(scored, missed)


def test_thresholds_reject_a_larger_than_smallest_threshold(scored):
    good = calibrate_thresholds(scored, (0.8, 0.9, 0.98))
    above = min(s for s, _ in scored if s > good.value(1))
    with pytest.raises(CheckError, match="smallest"):
        checks.check_thresholds(scored, ThresholdSet(good.targets,
                                                     (above,) + good.values[1:]))


def test_thresholds_reject_decreasing_or_false_unreachable(scored):
    good = calibrate_thresholds(scored, (0.8, 0.9, 0.98))
    with pytest.raises(CheckError, match="decrease"):
        checks.check_thresholds(scored, _Levels(good.targets, (good.value(2), good.value(1),
                                                               good.value(3))))
    with pytest.raises(CheckError, match="unreachable"):
        checks.check_thresholds(scored, ThresholdSet(good.targets,
                                                     (good.value(1), UNREACHABLE, UNREACHABLE)))


# -------------------------------------------------------------- adaptation

def test_decorrelated_mean_matches_the_definition():
    px = np.random.default_rng(3).integers(0, 256, size=(500, 3)).astype(np.float64)
    acc = checks.DecorrelatedMean()
    acc.add(px[:200])
    acc.add(px[200:])
    assert np.allclose(acc.mean, to_decorrelated(px).mean(axis=0), rtol=0, atol=1e-12)


def test_tissue_pixels_keep_saturated_or_dark_pixels():
    px = np.array([[[235, 235, 235], [200, 120, 150], [90, 90, 90]]], dtype=np.uint8)
    kept = checks.tissue_pixels(px, s_min=0.08, l_max=0.82)
    assert kept.tolist() == [[200.0, 120.0, 150.0], [90.0, 90.0, 90.0]]


def test_adaptation_check_rejects_a_farther_adapted_mean():
    ref = np.zeros(3)
    checks.check_adaptation_closer(ref, np.array([0.3, 0.0, 0.0]), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(CheckError, match="adapted mean"):
        checks.check_adaptation_closer(ref, np.array([0.1, 0.0, 0.0]),
                                       np.array([0.3, 0.0, 0.0]))
