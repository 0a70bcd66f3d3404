"""Output checks of the benchmark, computed apart from the program.

Each check raises CheckError with a message naming what differs.  The
raster header reader, the score recomputation, the specimen aggregation,
the per-level accuracy table, the threshold rule and the log-LMS
transform are written here from their definitions; none calls the code
it checks.
"""

from __future__ import annotations

import math
import os
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from wsitriage.confidence import UNREACHABLE


class CheckError(Exception):
    """An output of the program is not what the method requires."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- rasters

def read_pnm_header(path):
    """(magic, width, height, maxval, data offset) of a binary PPM/PGM."""
    with open(path, "rb") as fh:
        head = fh.read(256)
    magic, pos, fields = head[:2], 2, []
    while len(fields) < 3:
        while pos < len(head) and head[pos:pos + 1].isspace():
            pos += 1
        if head[pos:pos + 1] == b"#":
            while pos < len(head) and head[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(head) and head[pos:pos + 1].isdigit():
            pos += 1
        _require(pos > start, f"{path}: malformed header {head[:32]!r}")
        fields.append(int(head[start:pos]))
    _require(head[pos:pos + 1].isspace(), f"{path}: no whitespace after maxval")
    return magic, fields[0], fields[1], fields[2], pos + 1


def check_raster_file(path, shape, channels):
    """The file is a binary PPM (3 channels) or PGM (1 channel) of the
    given (height, width), 8-bit, with exactly its pixel bytes."""
    magic, w, h, maxval, offset = read_pnm_header(path)
    want = b"P6" if channels == 3 else b"P5"
    _require(magic == want, f"{path}: magic {magic!r}, expected {want!r}")
    _require((h, w) == tuple(shape), f"{path}: shape {(h, w)}, expected {tuple(shape)}")
    _require(maxval == 255, f"{path}: maxval {maxval}")
    size = os.path.getsize(path)
    _require(size == offset + h * w * channels,
             f"{path}: {size} bytes, expected {offset + h * w * channels}")


def read_ppm_pixels(path) -> np.ndarray:
    """(H, W, 3) uint8 pixels of a binary PPM."""
    _, w, h, _, offset = read_pnm_header(path)
    check_raster_file(path, (h, w), 3)
    with open(path, "rb") as fh:
        fh.seek(offset)
        return np.frombuffer(fh.read(), dtype=np.uint8).reshape(h, w, 3)


def check_same_bytes(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a != b:
        n = min(len(a), len(b))
        diff = next((i for i in range(n) if a[i] != b[i]), n)
        raise CheckError(f"{path_a} and {path_b} differ from byte {diff} "
                         f"({len(a)} vs {len(b)} bytes)")


def check_plan(records, specs):
    """Manifest records are the planned slides, with absolute raster paths."""
    got = [(r.slide_id, r.specimen_id, r.lab_id, int(r.truth), r.raster_path)
           for r in records]
    want = [(s.slide_id, s.specimen_id, s.profile.lab_id, int(s.label), s.raster_path)
            for s in specs]
    if got != want:
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        raise CheckError(f"manifest differs from the plan at record {i}: "
                         f"{got[i:i + 1]} vs {want[i:i + 1]} ({len(got)} vs {len(want)} records)")
    for r in records:
        _require(os.path.isabs(r.raster_path), f"{r.slide_id}: relative raster path")


def check_class_balance(records, slides_per_specimen):
    """Per lab, class counts over specimens differ by at most one, and
    every specimen has the planned number of slides."""
    slides = Counter(r.specimen_id for r in records)
    bad = {s: n for s, n in slides.items() if n != slides_per_specimen}
    _require(not bad, f"specimens without {slides_per_specimen} slides: {bad}")
    classes = defaultdict(Counter)
    for r in records:
        classes[r.lab_id][(r.specimen_id, int(r.truth))] = 1
    for lab, seen in classes.items():
        counts = Counter(label for _, label in seen)
        per_class = [counts.get(c, 0) for c in range(4)]
        _require(max(per_class) - min(per_class) <= 1,
                 f"{lab}: specimens per class {per_class} are not balanced")


# ------------------------------------------------------------ slide results

def _same_result(a, b) -> bool:
    if (a.slide_id, a.specimen_id, a.predicted, a.error) != \
            (b.slide_id, b.specimen_id, b.predicted, b.error):
        return False
    if (a.score is None) != (b.score is None) or (a.matrix is None) != (b.matrix is None):
        return False
    if a.score is not None and np.float64(a.score).tobytes() != np.float64(b.score).tobytes():
        return False
    if a.matrix is not None and (a.matrix.shape != b.matrix.shape
                                 or a.matrix.tobytes() != b.matrix.tobytes()):
        return False
    return True


def check_same_results(expected, got, what):
    """Two lists of slide results are equal bit for bit, in slide_id order."""
    expected = sorted(expected, key=lambda r: r.slide_id)
    got = sorted(got, key=lambda r: r.slide_id)
    _require([r.slide_id for r in expected] == [r.slide_id for r in got],
             f"{what}: different slides")
    for a, b in zip(expected, got):
        _require(_same_result(a, b), f"{what}: {a.slide_id} differs ({a!r} vs {b!r})")


def recompute_score(matrix):
    """(max column mean, its first column) with exact column sums."""
    t = matrix.shape[0]
    means = [float(sum(Fraction(float(v)) for v in matrix[:, c])) / t
             for c in range(matrix.shape[1])]
    best = max(means)
    return best, means.index(best)


def check_scores(results, t, n_classes=4):
    """Each score is the maximum column mean of its (T, 4) matrix, and the
    predicted class is the column attaining it."""
    for r in results:
        if r.error is not None or r.predicted is None:
            _require(r.score is None and r.matrix is None,
                     f"{r.slide_id}: unclassified slide carries a score")
            continue
        m = r.matrix
        _require(m is not None and m.shape == (t, n_classes),
                 f"{r.slide_id}: matrix shape {None if m is None else m.shape}")
        _require(bool(np.all((m > 0.0) & (m < 1.0))), f"{r.slide_id}: entries outside (0, 1)")
        value, cls = recompute_score(m)
        _require(r.score == value, f"{r.slide_id}: score {r.score!r}, recomputed {value!r}")
        _require(int(r.predicted) == cls, f"{r.slide_id}: class {int(r.predicted)}, recomputed {cls}")


def brute_force_specimens(results):
    """specimen_id -> (class, score, source slide) by maximum confidence;
    equal scores go to the lowest slide_id; None when no slide scored."""
    out = {}
    for r in results:
        out.setdefault(r.specimen_id, None)
        if r.error is not None or r.predicted is None:
            continue
        best = out[r.specimen_id]
        if best is None or r.score > best[1] or (r.score == best[1] and r.slide_id < best[2]):
            out[r.specimen_id] = (int(r.predicted), r.score, r.slide_id)
    return out


def check_aggregation(results, specimens):
    expected = brute_force_specimens(results)
    by_slide = {r.slide_id: r for r in results}
    _require(sorted(expected) == sorted(s.specimen_id for s in specimens),
             "specimen sets differ")
    for s in specimens:
        want = expected[s.specimen_id]
        got = None if s.predicted is None else (int(s.predicted), s.score, s.source_slide_id)
        _require(got == want, f"{s.specimen_id}: aggregated {got}, brute force {want}")
        if want is not None:
            means = by_slide[want[2]].matrix.mean(axis=0)
            _require(s.class_means is not None and np.array_equal(s.class_means, means),
                     f"{s.specimen_id}: class means are not its source slide's")


def level_table(specimens, truths, thresholds):
    """level -> (n_retained, n_correct); level 0 keeps every scored specimen."""
    levels = [(0, 0.0)] + [(lv, thresholds.value(lv)) for lv in thresholds.levels]
    table = {}
    for lv, thr in levels:
        kept = [s for s in specimens if s.predicted is not None
                and thr is not UNREACHABLE and s.score >= thr]
        correct = sum(int(s.predicted) == int(truths[s.specimen_id]) for s in kept)
        table[lv] = (len(kept), correct)
    return table


def check_levels(specimens, truths, thresholds, report, accuracy_floor):
    """Level-0 accuracy meets the floor; from level to level accuracy does
    not fall and coverage does not rise; the program's report agrees with
    the recomputed table; confusion rows sum to the class totals."""
    table = level_table(specimens, truths, thresholds)
    n = len(specimens)
    class_totals = Counter(int(truths[s.specimen_id]) for s in specimens)
    prev = None
    for lv in sorted(table):
        kept, correct = table[lv]
        acc = correct / kept if kept else None
        if lv == 0:
            _require(acc is not None and acc >= accuracy_floor,
                     f"level 0 accuracy {acc} below floor {accuracy_floor}")
        if prev is not None:
            _require(kept <= prev[0], f"level {lv}: coverage rose ({prev[0]} -> {kept})")
            if acc is not None and prev[1] is not None:
                _require(acc >= prev[1], f"level {lv}: accuracy fell ({prev[1]} -> {acc})")
        prev = (kept, acc)
        m = report.levels[lv]
        _require(m.n_retained == kept, f"level {lv}: report retains {m.n_retained}, recomputed {kept}")
        _require(m.coverage == (kept / n if n else 0.0), f"level {lv}: coverage {m.coverage}")
        _require((acc is None and math.isnan(m.accuracy)) or m.accuracy == acc,
                 f"level {lv}: report accuracy {m.accuracy}, recomputed {acc}")
        for c in range(m.confusion.shape[0]):
            _require(int(m.confusion[c].sum()) == class_totals.get(c, 0),
                     f"level {lv}: confusion row {c} sums to {int(m.confusion[c].sum())}, "
                     f"class total {class_totals.get(c, 0)}")


# -------------------------------------------------------------- thresholds

def check_thresholds(scored, thresholds):
    """On (score, correct) pairs: thresholds do not decrease by level; each
    reachable threshold keeps an accuracy that meets its target and is the
    smallest candidate (0 or an observed score) that does; an unreachable
    level has no such candidate."""
    _require(len(scored) > 0, "no scored specimens")
    values = [thresholds.value(lv) for lv in thresholds.levels]
    reachable = [v for v in values if v is not UNREACHABLE]
    _require(values[:len(reachable)] == reachable, "a reachable level follows an unreachable one")
    _require(all(a <= b for a, b in zip(reachable, reachable[1:])),
             f"thresholds decrease by level: {reachable}")

    def accuracy(thr):
        kept = [c for s, c in scored if s >= thr]
        return sum(kept) / len(kept) if kept else None

    candidates = [0.0] + sorted({s for s, _ in scored})
    for lv, value in zip(thresholds.levels, values):
        target = thresholds.target(lv)
        meets = [c for c in candidates if (a := accuracy(c)) is not None and a >= target]
        if value is UNREACHABLE:
            if meets:
                raise CheckError(f"level {lv}: unreachable, yet {meets[0]} meets {target}")
            continue
        acc = accuracy(value)
        _require(acc is not None and acc >= target,
                 f"level {lv}: threshold {value} keeps accuracy {acc} < target {target}")
        _require(meets[0] == value, f"level {lv}: threshold {value}, smallest is {meets[0]}")


# -------------------------------------------------------------- adaptation

# Reinhard et al. 2001, "Color Transfer between Images": RGB -> LMS, and
# the rotation of log-LMS onto decorrelated axes.
RGB_TO_LMS = np.array([[0.3811, 0.5783, 0.0402],
                       [0.1967, 0.7244, 0.0782],
                       [0.0241, 0.1288, 0.8444]])
LOG_LMS_TO_DECORRELATED = np.array([
    [1.0 / math.sqrt(3.0)] * 3,
    [1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0)],
    [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0],
])
LMS_FLOOR = 1e-6


def tissue_pixels(rgb, s_min, l_max):
    """(N, 3) float64 pixels that are saturated or dark enough to be tissue."""
    px = np.asarray(rgb).reshape(-1, 3)
    r, g, b = (px[:, c].astype(np.float64) for c in range(3))
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    saturation = (mx - mn) / np.maximum(mx, 1e-12)
    luma = 0.299 * r + 0.587 * g + 0.114 * b
    return px[(saturation >= s_min) | (luma <= l_max * 255.0)].astype(np.float64)


class DecorrelatedMean:
    """Running mean of pixels in decorrelated log-LMS space, in float64."""

    def __init__(self):
        self.total = np.zeros(3)
        self.count = 0

    def add(self, pixels):
        lms = np.maximum((pixels / 255.0) @ RGB_TO_LMS.T, LMS_FLOOR)
        self.total += (np.log10(lms) @ LOG_LMS_TO_DECORRELATED.T).sum(axis=0)
        self.count += len(pixels)

    @property
    def mean(self):
        _require(self.count > 0, "no tissue pixels")
        return self.total / self.count


def check_adaptation_closer(reference_mean, unadapted_mean, adapted_mean):
    before = float(np.linalg.norm(unadapted_mean - reference_mean))
    after = float(np.linalg.norm(adapted_mean - reference_mean))
    _require(after < before, f"adapted mean lies {after:.5f} from the reference, "
                             f"unadapted {before:.5f}")
    return before, after
