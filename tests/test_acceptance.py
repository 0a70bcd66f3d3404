"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The end-to-end criteria share one synthetic multi-lab experiment:
a reference lab for development plus three shifted labs, each calibrated
a priori on its calibration splits and then frozen for a single test run.
"""

import math
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from wsitriage.aggregation import SlideResult, aggregate
from wsitriage.classifier import init_params, loss_and_grad, one_hot
from wsitriage.config import Config
from wsitriage.confidence import (UNREACHABLE, calibrate_thresholds, score)
from wsitriage.evaluation import domain_gap, evaluate, roc_auc
from wsitriage.manifest import ClassLabel, Split, build_splits
from wsitriage.pipeline import profile, run_corpus
from wsitriage.pnm import read_ppm
from wsitriage.synthesis import default_lab_profiles, generate_corpus
from wsitriage.tiling import segment_tissue, tile
from wsitriage.training import calibrate_lab, train_models
from wsitriage.classifier import featurize_tiles
from wsitriage.adaptation import adapt_tiles

WORKERS = max(1, min(2, os.cpu_count() or 1))
GLOBAL_SEED = 2024

CONFIG = Config()
TARGETS = (0.90, 0.95, 0.98)


def report(criterion, message):
    print(f"[ACCEPTANCE] criterion {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# the shared end-to-end experiment (criteria 3, 7, 8, 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    phases = {}
    profiles = {p.lab_id: p for p in default_lab_profiles()}
    test_labs = ["lab_a", "lab_b", "lab_c"]

    t0 = time.perf_counter()
    ref_manifest = generate_corpus(
        40, [profiles["reference"]], slides_per_specimen_range=(1, 2),
        seed=GLOBAL_SEED, out_dir=str(root / "reference"), workers=WORKERS)
    ref_manifest = build_splits(ref_manifest, (0.7, 0.15, 0.15), seed=1)

    lab_manifests = {}
    for lab in test_labs:
        manifest = generate_corpus(
            150, [profiles[lab]], slides_per_specimen_range=(1, 2),
            seed=GLOBAL_SEED, out_dir=str(root / lab), workers=WORKERS)
        lab_manifests[lab] = build_splits(
            manifest, (0.4, 0.1, 0.5), seed=1,
            splits=(Split.CALIB_FINETUNE, Split.CALIB_VALIDATION, Split.TEST))
    phases["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    trained = train_models(ref_manifest, CONFIG, workers=WORKERS)
    phases["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    calibrations, runs, reports = {}, {}, {}
    for lab in test_labs:
        cal = calibrate_lab(lab_manifests[lab], trained, CONFIG,
                            workers=WORKERS, global_seed=GLOBAL_SEED)
        run = run_corpus(lab_manifests[lab], cal, CONFIG, workers=WORKERS,
                         global_seed=GLOBAL_SEED, split=Split.TEST)
        truths = lab_manifests[lab].truth_by_specimen()
        calibrations[lab] = cal
        runs[lab] = run
        reports[lab] = evaluate(run.specimens, truths, cal.thresholds)
    phases["calibrate_and_run"] = time.perf_counter() - t0

    return {
        "root": root, "labs": test_labs, "profiles": profiles,
        "ref_manifest": ref_manifest, "lab_manifests": lab_manifests,
        "trained": trained, "calibrations": calibrations,
        "runs": runs, "reports": reports, "phases": phases,
    }


@pytest.fixture(scope="module")
def no_adaptation_arm(experiment):
    """Paired no-adaptation run: same corpus and base models, the lab's
    adapter the identity."""
    trained = experiment["trained"]
    runs, reports = {}, {}
    for lab in experiment["labs"]:
        manifest = experiment["lab_manifests"][lab]
        cal = calibrate_lab(manifest, trained, CONFIG, workers=WORKERS,
                            global_seed=GLOBAL_SEED, with_adaptation=False)
        run = run_corpus(manifest, cal, CONFIG, workers=WORKERS,
                         global_seed=GLOBAL_SEED, split=Split.TEST)
        runs[lab] = run
        reports[lab] = evaluate(run.specimens, manifest.truth_by_specimen(),
                                cal.thresholds)
    return {"runs": runs, "reports": reports}


# ---------------------------------------------------------------------------
# criterion 1: Eq.-2 score oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_score_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 60))
        matrix = rng.uniform(1e-9, 1 - 1e-9, size=(t, 4))
        got = score(matrix)
        means = [sum(matrix[i, c] for i in range(t)) / t for c in range(4)]
        best = 0
        for c in range(1, 4):
            if means[c] > means[best]:
                best = c
        worst = max(worst, abs(got.value - means[best]))
        assert int(got.argmax_class) == best
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    report(1, f"1000 matrices, max deviation {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: threshold calibration matches exhaustive scan, minimally
# ---------------------------------------------------------------------------

def test_criterion_02_threshold_oracle():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 80))
        scores = np.round(rng.random(n), 2)
        correct = rng.random(n) < rng.uniform(0.3, 0.95)
        pairs = list(zip(scores.tolist(), correct.tolist()))
        result = calibrate_thresholds(pairs, targets=TARGETS)
        for level, target in zip(result.levels, TARGETS):
            candidates = sorted({0.0} | set(scores.tolist()))
            feasible = []
            for cand in candidates:
                kept = [ok for s, ok in pairs if s >= cand]
                if kept and sum(kept) / len(kept) >= target:
                    feasible.append(cand)
            expected = min(feasible) if feasible else UNREACHABLE
            got = result.value(level)
            if expected is UNREACHABLE:
                assert got is UNREACHABLE
            else:
                assert got == expected
                for cand in candidates:   # minimality: all lower candidates fail
                    if cand >= expected:
                        break
                    kept = [ok for s, ok in pairs if s >= cand]
                    assert not kept or sum(kept) / len(kept) < target
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"200 calibration sets ({checked} level checks), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: retained accuracy on calibration validation >= target
# ---------------------------------------------------------------------------

def test_criterion_03_calibration_guarantee(experiment):
    checked = 0
    for lab in experiment["labs"]:
        cal = experiment["calibrations"][lab]
        manifest = experiment["lab_manifests"][lab]
        cv_run = run_corpus(manifest, cal, CONFIG, workers=WORKERS,
                            global_seed=GLOBAL_SEED,
                            split=Split.CALIB_VALIDATION)
        truths = manifest.truth_by_specimen()
        scored = [(s.score, s.predicted == truths[s.specimen_id])
                  for s in cv_run.specimens if s.classified]
        for level in cal.thresholds.levels:
            value = cal.thresholds.value(level)
            target = cal.thresholds.target(level)
            if value is UNREACHABLE:
                continue
            kept = [ok for s, ok in scored if s >= value]
            assert kept, f"{lab} level {level}: nothing retained"
            assert sum(kept) / len(kept) >= target
            checked += 1
    assert checked > 0
    report(3, f"{checked} (lab, level) guarantees hold exactly")


# ---------------------------------------------------------------------------
# criterion 4: aggregation matches brute force with the tie rule
# ---------------------------------------------------------------------------

def test_criterion_04_aggregation_oracle():
    rng = np.random.default_rng(4)
    for case in range(1000):
        n = int(rng.integers(1, 7))
        results = []
        for i in range(n):
            slide_id = f"s{rng.integers(0, 100):03d}-{i}"
            if rng.random() < 0.25:
                results.append(SlideResult(slide_id, "sp"))
            else:
                matrix = rng.uniform(0.01, 0.99, size=(3, 4))
                results.append(SlideResult(
                    slide_id, "sp", predicted=ClassLabel(int(rng.integers(0, 4))),
                    score=float(rng.integers(0, 11)) / 10.0,   # coarse: forces ties
                    matrix=matrix))
        got = aggregate(results)

        best = None
        for r in results:
            if not r.classified:
                continue
            if best is None or r.score > best.score or \
                    (r.score == best.score and r.slide_id < best.slide_id):
                best = r
        if best is None:
            assert not got.classified
        else:
            assert got.source_slide_id == best.slide_id
            assert got.predicted is best.predicted
            assert got.score == best.score
    report(4, "1000 random specimens match brute-force argmax with tie rule")


# ---------------------------------------------------------------------------
# criterion 5: trapezoid AUC equals the Mann-Whitney pairwise statistic
# ---------------------------------------------------------------------------

def test_criterion_05_auc_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 80))
        scores = np.round(rng.random(n), 1)    # heavy ties
        truths = rng.random(n) < rng.uniform(0.2, 0.8)
        if truths.all() or not truths.any():
            truths[0] = not truths[0]
        curve = roc_auc(scores, truths)
        pos = scores[truths]
        neg = scores[~truths]
        wins = sum(1 for p in pos for q in neg if p > q)
        ties = sum(1 for p in pos for q in neg if p == q)
        expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
        worst = max(worst, abs(curve.auc - expected))
    assert worst < 1e-9
    report(5, f"100 score sets with ties, max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_06_gradient_check():
    rng = np.random.default_rng(6)
    worst = 0.0
    for instance in range(10):
        params = init_params(instance)
        x = rng.random((8, 64))
        y = one_hot(rng.integers(0, 4, size=8))
        scale = (rng.random((8, 32)) < 0.3) / 0.3
        _, grads = loss_and_grad(params, x, y, scale)
        arrays = {"w1": params.w1, "b1": params.b1,
                  "w2": params.w2, "b2": params.b2}
        for _ in range(10):
            name = ("w1", "b1", "w2", "b2")[rng.integers(0, 4)]
            arr = arrays[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            eps = 1e-6
            arr[idx] += eps
            up, _ = loss_and_grad(params, x, y, scale)
            arr[idx] -= 2 * eps
            down, _ = loss_and_grad(params, x, y, scale)
            arr[idx] += eps
            fd = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4
    report(6, f"10 instances x 10 coordinates, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: synthetic end-to-end experiment
# ---------------------------------------------------------------------------

def test_criterion_07_end_to_end(experiment):
    details = []
    for lab in experiment["labs"]:
        rep = experiment["reports"][lab]
        none = rep.levels[0]
        assert none.accuracy >= 0.90, f"{lab}: accuracy {none.accuracy:.3f}"

        accuracies = [none.accuracy]
        coverages = [none.coverage]
        for level in (1, 2, 3):
            m = rep.levels[level]
            coverages.append(m.coverage)
            if not math.isnan(m.accuracy):
                accuracies.append(m.accuracy)
        assert all(b >= a - 1e-12 for a, b in zip(accuracies, accuracies[1:])), \
            f"{lab}: accuracy not monotone {accuracies}"
        assert all(b <= a + 1e-12 for a, b in zip(coverages, coverages[1:])), \
            f"{lab}: coverage not monotone {coverages}"

        for c in ClassLabel:
            auc = none.curves[int(c)].auc
            assert auc >= 0.90, f"{lab}/{c.token}: AUC {auc:.3f}"
        details.append(f"{lab} acc {none.accuracy:.3f} cov {none.coverage:.2f}")

    elapsed = sum(experiment["phases"].values())
    assert elapsed < 300.0, \
        f"experiment took {elapsed:.0f}s ({experiment['phases']})"
    report(7, "; ".join(details) + f"; runtime {elapsed:.0f}s "
           f"({experiment['phases']})")


# ---------------------------------------------------------------------------
# criterion 8: domain-gap reduction and paired accuracy
# ---------------------------------------------------------------------------

def sample_lab_tiles(experiment, lab, n_slides=6):
    manifest = experiment["lab_manifests"][lab]
    records = sorted(manifest.records_in(Split.TEST),
                     key=lambda r: r.slide_id)[:n_slides]
    tiles = []
    for rec in records:
        raster = read_ppm(rec.raster_path)
        mask = segment_tissue(raster)
        tiles.extend(tile(raster, mask, rec.slide_id))
    return tiles


def test_criterion_08_domain_gap(experiment, no_adaptation_arm):
    feats_raw, feats_adapted, labels = [], [], []
    for lab in experiment["labs"]:
        tiles = sample_lab_tiles(experiment, lab)
        adapter = experiment["calibrations"][lab].adapter
        feats_raw.append(featurize_tiles(tiles))
        feats_adapted.append(featurize_tiles(adapt_tiles(tiles, adapter)))
        labels.extend([lab] * len(tiles))
    gap_before = domain_gap(np.concatenate(feats_raw), labels)
    gap_after = domain_gap(np.concatenate(feats_adapted), labels)
    assert gap_after < gap_before, \
        f"domain gap did not decrease: {gap_before:.4f} -> {gap_after:.4f}"

    pairs = []
    for lab in experiment["labs"]:
        with_adapt = experiment["reports"][lab].levels[0].accuracy
        without = no_adaptation_arm["reports"][lab].levels[0].accuracy
        assert with_adapt >= without, \
            f"{lab}: adapted {with_adapt:.3f} < unadapted {without:.3f}"
        pairs.append(f"{lab} {with_adapt:.3f}>={without:.3f}")
    report(8, f"silhouette {gap_before:.3f} -> {gap_after:.3f}; " + "; ".join(pairs))


# ---------------------------------------------------------------------------
# criterion 9: determinism across worker counts, and parallel speedup
# ---------------------------------------------------------------------------

def _cpu_probe(n):
    rng = np.random.default_rng(n)
    a = rng.random((1200, 1200), dtype=np.float32)
    total = 0.0
    for _ in range(8):
        total += float(np.power(10.0, np.log10(np.maximum(a, 1e-6)) * 0.5).sum())
    return total


def host_parallel_speedup(workers=4, tasks=8):
    """Best-case process-pool speedup of this host on pure numpy work."""
    t0 = time.perf_counter()
    for i in range(tasks):
        _cpu_probe(i)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    with mp.get_context("fork").Pool(workers) as pool:
        pool.map(_cpu_probe, range(tasks))
    parallel = time.perf_counter() - t0
    return serial / parallel


def slide_results_identical(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.slide_id, x.specimen_id, x.predicted, x.score, x.error) != \
                (y.slide_id, y.specimen_id, y.predicted, y.score, y.error):
            return False
        if (x.matrix is None) != (y.matrix is None):
            return False
        if x.matrix is not None and not np.array_equal(x.matrix, y.matrix):
            return False
    return True


def test_criterion_09_determinism_and_speedup(experiment):
    lab = "lab_a"
    manifest = experiment["lab_manifests"][lab]
    assert len(manifest.records) >= 200, "corpus for this criterion is >= 200 slides"
    cal = experiment["calibrations"][lab]

    runs = {}
    walls = {}
    for workers in (1, 4, 8):
        t0 = time.perf_counter()
        runs[workers] = run_corpus(manifest, cal, CONFIG, workers=workers,
                                   global_seed=GLOBAL_SEED)
        walls[workers] = time.perf_counter() - t0
    assert slide_results_identical(runs[1].slide_results, runs[4].slide_results)
    assert slide_results_identical(runs[1].slide_results, runs[8].slide_results)

    capacity = host_parallel_speedup()
    if capacity < 1.5:
        report(9, f"bit-identical at workers 1/4/8 over {len(manifest.records)} "
                  f"slides; speedup assertion skipped: host pure-CPU process "
                  f"pool reaches only {capacity:.2f}x at 4 workers")
        pytest.skip(f"host cannot express >1.5x parallelism "
                    f"(pure-numpy 4-worker speedup {capacity:.2f}x)")
    speedup = walls[1] / walls[4]
    assert speedup > 1.5, f"speedup {speedup:.2f}x"
    report(9, f"bit-identical at workers 1/4/8; speedup {speedup:.2f}x")


# ---------------------------------------------------------------------------
# criterion 10: flow conservation per truth class at every level
# ---------------------------------------------------------------------------

def test_criterion_10_flow_conservation(experiment):
    checked = 0
    for lab in experiment["labs"]:
        manifest = experiment["lab_manifests"][lab]
        truths = manifest.truth_by_specimen()
        test_specimens = {r.specimen_id for r in manifest.records_in(Split.TEST)}
        class_totals = {c: sum(1 for sp in test_specimens if truths[sp] is c)
                        for c in ClassLabel}
        for level, metrics in experiment["reports"][lab].levels.items():
            for c in ClassLabel:
                assert metrics.confusion[int(c)].sum() == class_totals[c], \
                    f"{lab} level {level} class {c.token}"
                checked += 1
    report(10, f"{checked} (lab, level, class) flows conserve specimen counts")


# ---------------------------------------------------------------------------
# criterion 11: profiler self-consistency
# ---------------------------------------------------------------------------

def test_criterion_11_profiler(experiment):
    lab = "lab_b"
    run = experiment["runs"][lab]
    for t in run.timings:
        assert t.stage_sum() <= t.total_ms * 1.05 + 0.1, t
    summary = profile(run.timings, wall_ms=run.wall_ms)
    expected = len(run.timings) / (run.wall_ms / 3_600_000.0)
    assert summary.throughput_per_hour == pytest.approx(expected, rel=1e-9)
    assert summary.median_total_ms > 0
    report(11, f"{len(run.timings)} slides: stage sums within 5% of totals; "
               f"throughput {summary.throughput_per_hour:.0f} slides/hour")
