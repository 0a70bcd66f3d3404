"""Benchmark of the wsitriage program: corpus synthesis, lab onboarding and
frozen triage, timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload triage_run --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from its
sources under src/.  Inputs are made from --seed; the timed phase runs in
a freshly started process that uses at most `nproc` pool workers through
the program's own `workers` argument.  Every output is checked; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  Exit code 2 when the checkout holds no program
sources under src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOADS = ("corpus_synthesis", "lab_onboarding", "triage_run")
STARTS = 3                  # timed-process start-ups per run; setup_s uses the median
ACCURACY_FLOOR = 0.5        # level-0 specimen accuracy of a frozen triage run: twice chance


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_timed_process():
    """Start a timed process; return it and the seconds from start to ready
    (interpreter and imports of the program)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "phases.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    kind, _ = pickle.load(proc.stdout)
    if kind != "ready":
        raise RuntimeError(f"timed process sent {kind!r} before ready")
    return proc, time.perf_counter() - t0


def send(proc, message):
    pickle.dump(message, proc.stdin)
    proc.stdin.flush()


def start_timed_processes():
    """Start the timed process STARTS times and keep the last one.

    This happens before the set-up builds any input: a process started
    from a parent reports the parent's memory high-water mark as its own
    peak, so a later start would report the set-up's peak.  Returns the
    median start-up seconds and the process."""
    startups = []
    for i in range(STARTS):
        proc, startup_s = start_timed_process()
        startups.append(startup_s)
        if i < STARTS - 1:
            send(proc, None)
            stop(proc)
    return statistics.median(startups), proc


def stop(proc):
    for stream in (proc.stdin, proc.stdout):
        stream.close()
    proc.wait()


def run_phase(proc, job):
    """Send the job to the waiting timed process; return its result."""
    send(proc, job)
    kind, payload = pickle.load(proc.stdout)
    if kind != "result":
        raise RuntimeError(f"timed phase failed:\n{payload}")
    return payload


def _check(problems, fn, *args):
    from checks import CheckError

    try:
        return fn(*args)
    except CheckError as exc:
        problems.append(str(exc))
        return None


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def fastest_median_ms(passes):
    """Median over slides of each slide's fastest time, in ms.  `passes`
    holds one list of (slide key, seconds or None when it failed) per pass
    over the same slides; a slide that failed in any pass is left out."""
    fastest, failed = {}, set()
    for timed in passes:
        for key, seconds in timed:
            if seconds is None:
                failed.add(key)
            else:
                fastest[key] = min(fastest.get(key, seconds), seconds)
    return statistics.median(t * 1000.0 for k, t in fastest.items() if k not in failed)


# ------------------------------------------------------------ summaries

def check_synth_round(rnd, problems):
    """Check one synthesis round; return (slides attempted, slides failed)."""
    import checks
    from corpus import SLIDES_PER_SPECIMEN, SYNTH_SPECIMENS_PER_LAB, lab_profiles, slide_specs
    from wsitriage.synthesis import SLIDE_H, SLIDE_W, mask_path_for

    specs = slide_specs(SYNTH_SPECIMENS_PER_LAB, lab_profiles(), rnd["seed"], rnd["dir"])
    failed = sum(error is not None for *_, error in rnd["inproc"])
    if rnd["error"] is not None:
        print(f"OPERATION FAILED: generate_corpus\n{rnd['error']}")
        return len(specs) + len(rnd["inproc"]), failed + len(specs)
    records = rnd["records"]
    _check(problems, checks.check_plan, records, specs)
    _check(problems, checks.check_class_balance, records, SLIDES_PER_SPECIMEN)
    for rec in records:
        _check(problems, checks.check_raster_file, rec.raster_path, (SLIDE_H, SLIDE_W), 3)
        _check(problems, checks.check_raster_file, mask_path_for(rec.raster_path),
               (SLIDE_H, SLIDE_W), 1)
    for pool_path, inproc_path, _, error in rnd["inproc"]:
        if error is None:
            _check(problems, checks.check_same_bytes, pool_path, inproc_path)
            _check(problems, checks.check_same_bytes, mask_path_for(pool_path),
                   mask_path_for(inproc_path))
    return len(specs) + len(rnd["inproc"]), failed


def summarize_synthesis(job, result, problems):
    attempted = failed = 0
    rates, pool_s, passes = [], [], []
    for rnd in result["rounds"]:
        a, f = check_synth_round(rnd, problems)
        attempted, failed = attempted + a, failed + f
        if rnd["error"] is None:
            pool_s.append(rnd["pool_s"])
            rates.append(len(rnd["records"]) / rnd["pool_s"])
        passes.append([(os.path.basename(path), None if error else t)
                       for path, _, t, error in rnd["inproc"]])
    return attempted, failed, {
        "round_s": statistics.median(pool_s),
        "slides_per_s": statistics.median(rates),
        "slide_ms_p50": fastest_median_ms(passes),
    }


def check_onboarding(corpus, trained, ref_thresholds, cal, problems):
    """Thresholds against the recomputed rule on the scored validation
    specimens, and the adapted lab's tissue mean against the reference's."""
    import checks
    import numpy as np
    from corpus import CONFIG, GLOBAL_SEED, NPROC
    from wsitriage import tiling
    from wsitriage.adaptation import AdapterModel, adapt_pixels
    from wsitriage.manifest import Split
    from wsitriage.pipeline import Models, run_corpus

    identity = AdapterModel(trained.reference_stats, trained.reference_stats)
    for manifest, split, models, thresholds in (
            (corpus.ref, Split.VALIDATION,
             Models(trained.segmenter, trained.classifier, identity), ref_thresholds),
            (corpus.lab, Split.CALIB_VALIDATION,
             Models(trained.segmenter, cal.classifier, cal.adapter), cal.thresholds)):
        run = run_corpus(manifest, models, CONFIG, workers=NPROC,
                         global_seed=GLOBAL_SEED, split=split)
        truths = manifest.truth_by_specimen()
        scored = [(s.score, s.predicted == truths[s.specimen_id])
                  for s in run.specimens if s.predicted is not None]
        _check(problems, checks.check_thresholds, scored, thresholds)

    # The means are taken over the tiles the adapter was fitted on (those
    # sample_tiles draws), so that the class mix of the two samples is the
    # one the fit saw; only the tile cutting is the program's.  Every 8th
    # pixel row of each tile is enough for a mean.
    tcfg = CONFIG.tiling
    means = {k: checks.DecorrelatedMean() for k in ("reference", "unadapted", "adapted")}
    for manifest, split, keys in ((corpus.ref, Split.TRAIN, ("reference",)),
                                  (corpus.lab, Split.CALIB_FINETUNE, ("unadapted", "adapted"))):
        for rec in sorted(manifest.records_in(split), key=lambda r: r.slide_id)[:24]:
            raster = checks.read_ppm_pixels(rec.raster_path)
            tiles = tiling.tile(raster, tiling.segment_tissue(raster, tcfg), rec.slide_id, tcfg)
            if not tiles:
                continue
            rows = np.stack([t.pixels for t in tiles])[:, ::8]
            for key in keys:
                pixels = adapt_pixels(rows, cal.adapter, tcfg) if key == "adapted" else rows
                means[key].add(checks.tissue_pixels(pixels, tcfg.s_min, tcfg.l_max))
    return _check(problems, lambda: checks.check_adaptation_closer(
        means["reference"].mean, means["unadapted"].mean, means["adapted"].mean))


def onboarding_outputs(trained, ref_thresholds, cal):
    """The fitted models and thresholds of one onboarding, by name."""
    return {"reference_stats": trained.reference_stats, "segmenter": trained.segmenter,
            "classifier": trained.classifier, "reference_thresholds": ref_thresholds,
            "adapter": cal.adapter, "tuned": cal.classifier, "thresholds": cal.thresholds}


def same_onboarding(a, b):
    """Equal onboarding outputs, model arrays bit for bit."""
    import numpy as np

    def flat(value):
        if hasattr(value, "__dataclass_fields__"):
            return [flat(getattr(value, f)) for f in value.__dataclass_fields__]
        return value.tobytes() if isinstance(value, np.ndarray) else value

    return all(flat(a[k]) == flat(b[k]) for k in a)


def summarize_onboarding(job, result, problems):
    from corpus import onboarded_slide_count

    corpus = job["corpus"]
    attempted = failed = 0
    onboard_s, passes, first = [], [], None
    for rnd in result["rounds"]:
        attempted += 2 + result["embed_sample"]
        done = (rnd["reference"] is not None) + (rnd["calibration"] is not None)
        failed += 2 - done + result["embed_sample"] - len(rnd["embed"])
        failed += sum(error is not None for _, error in rnd["embed"])
        for error in rnd["errors"]:
            print(f"OPERATION FAILED: onboarding\n{error}")
        if done < 2:
            continue
        onboard_s.append(rnd["onboard_s"])
        passes.append([(i, None if error else t) for i, (t, error) in enumerate(rnd["embed"])])
        outcome = onboarding_outputs(*rnd["reference"], rnd["calibration"])
        if first is None:
            first = rnd
        elif not same_onboarding(onboarding_outputs(*first["reference"], first["calibration"]),
                                 outcome):
            problems.append("onboarding rounds on the same inputs differ")
    if first is not None:
        (trained, ref_thresholds), cal = first["reference"], first["calibration"]
        distances = check_onboarding(corpus, trained, ref_thresholds, cal, problems)
        if distances:
            print(f"adaptation: tissue mean distance to reference {distances[0]:.5f} "
                  f"unadapted, {distances[1]:.5f} adapted")
        print(f"thresholds: reference {ref_thresholds.values}, {cal.lab_id} {cal.thresholds.values}")
    n_slides = onboarded_slide_count(corpus)
    return attempted, failed, {
        "round_s": statistics.median(onboard_s),
        "slides_per_s": statistics.median(n_slides / t for t in onboard_s),
        "slide_ms_p50": fastest_median_ms(passes),
    }


def check_triage(job, run, per_slide_results, report, problems):
    """Worker-count equality, scores, aggregation and per-level metrics of
    one frozen run."""
    import checks
    from corpus import CONFIG

    corpus, onboarded = job["corpus"], job["onboarded"]
    _check(problems, checks.check_same_results, per_slide_results, run.slide_results,
           "run_slide at 1 worker vs run_corpus at nproc")
    _check(problems, checks.check_scores, run.slide_results, CONFIG["confidence.T"])
    _check(problems, checks.check_aggregation, run.slide_results, run.specimens)
    _check(problems, checks.check_levels, run.specimens, corpus.test.truth_by_specimen(),
           onboarded.calibration.thresholds, report, ACCURACY_FLOOR)


def write_digest(run, out_dir, name):
    """Write the slide-result and class-score tables with the program's
    writers; return the SHA-256 over both files."""
    from wsitriage.aggregation import save_class_scores, save_slide_results

    digest = hashlib.sha256()
    for table, save, rows in (("slide_results.txt", save_slide_results, run.slide_results),
                              ("class_scores.txt", save_class_scores, run.specimens)):
        path = os.path.join(out_dir, f"{name}-{table}")
        save(rows, path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def summarize_triage(job, result, problems):
    import checks

    n = result["n_slides"]
    passes = result["per_slide"]
    per_slide = [r for r, _ in passes[0]]
    attempted = len(passes) * n
    failed = sum(r.error is not None for timed in passes for r, _ in timed)
    _check(problems, checks.check_same_results, per_slide, [r for r, _ in passes[1]],
           "run_slide in process before and after the pooled rounds")
    slide_ms = fastest_median_ms([[(r.slide_id, None if r.error else t) for r, t in timed]
                                  for timed in passes])
    round_s, rates, first = [], [], None
    for rnd in result["rounds"]:
        attempted += n
        run = rnd["run"]
        if rnd["error"] is not None:
            failed += n
            print(f"OPERATION FAILED: run_corpus + evaluate\n{rnd['error']}")
            continue
        errors = sum(r.error is not None for r in run.slide_results)
        failed += errors
        round_s.append(rnd["round_s"])
        rates.append((len(run.slide_results) - errors) / rnd["pool_s"])
        if first is None:
            first = run
            check_triage(job, run, per_slide, rnd["report"], problems)
            digest = write_digest(run, job["out"], f"triage_run-seed{job['seed']}")
            print(f"digest {digest}  (slide results and class scores, seed {job['seed']})")
            print("levels: " + ", ".join(
                f"{lv}: acc {m.accuracy:.3f} cov {m.coverage:.3f}"
                for lv, m in sorted(rnd["report"].levels.items())))
        else:
            _check(problems, checks.check_same_results, first.slide_results,
                   run.slide_results, "frozen runs on the same inputs")
    return attempted, failed, {
        "round_s": statistics.median(round_s),
        "slides_per_s": statistics.median(rates),
        "slide_ms_p50": slide_ms,
    }


def summarize_traced(job, result, problems):
    """Checks of the traced run: its stage-by-stage results, onboarding
    and synthesis equal the program's own; returns the layer metrics."""
    import checks

    corpus, onboarded = job["corpus"], job["onboarded"]
    attempted, failed = check_synth_round(result["synth"], problems)

    manifests = result["manifests"]
    if (manifests["ref"], manifests["lab"], manifests["test"]) != (corpus.ref, corpus.lab,
                                                                   corpus.test):
        problems.append("manifests loaded and split again differ from the set-up's")

    attempted += 2
    expected = onboarding_outputs(onboarded.trained, onboarded.ref_thresholds,
                                  onboarded.calibration)
    if not same_onboarding(expected, result["onboarding"]):
        problems.append("the traced onboarding differs from train_models/calibrate_lab")

    n = len(result["staged"])
    attempted += 3 * n
    failed += sum(r.error is not None for r in result["run"].slide_results)
    failed += sum(r.error is not None for r in result["run_slide"])
    _check(problems, checks.check_same_results, result["run"].slide_results,
           result["staged"], "traced stages vs run_corpus")
    check_triage(job, result["run"], result["run_slide"], result["report"], problems)
    _check(problems, checks.check_aggregation, result["staged"], result["specimens"])
    layers = result["layers"]
    print(f"spans: {result['n_spans']} written to {os.path.relpath(result['spans_path'], ROOT)}")
    print(f"tracing overhead: {layers['trace.overhead_ms']['value']:.3f} ms per slide "
          f"(traced stages vs untraced run_slide, medians)")
    return attempted, failed, layers


SUMMARIES = {"corpus_synthesis": summarize_synthesis, "lab_onboarding": summarize_onboarding,
             "triage_run": summarize_triage}
UNITS = {"setup_s": "s", "round_s": "s", "slides_per_s": "slides/s",
         "slide_ms_p50": "ms", "peak_rss_mb": "MB"}


def run_workload(args, work, out_dir):
    import corpus

    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "work": work, "out": out_dir}
    startup_s, proc = start_timed_processes()
    try:
        t0 = time.perf_counter()
        if args.trace or args.workload != "corpus_synthesis":
            job["corpus"] = corpus.make_corpus(
                args.seed, os.path.join(work, "corpus"),
                with_test=bool(args.trace) or args.workload == "triage_run")
            print(f"inputs: {job['corpus'].n_slides} slides generated in "
                  f"{job['corpus'].generate_s:.3f} s")
            if args.trace or args.workload == "triage_run":
                t1 = time.perf_counter()
                job["onboarded"] = corpus.onboard(job["corpus"])
                print(f"inputs: onboarded in {time.perf_counter() - t1:.3f} s")
        build_s = time.perf_counter() - t0
        result = run_phase(proc, job)
    except BaseException:
        proc.terminate()            # it may still wait for a job that never comes
        raise
    finally:
        stop(proc)

    problems = []
    t0 = time.perf_counter()
    if args.trace:
        attempted, failed, metrics = summarize_traced(job, result, problems)
    else:
        attempted, failed, values = SUMMARIES[args.workload](job, result, problems)
        values["setup_s"] = build_s + startup_s
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: metric(values[name], UNITS[name]) for name in UNITS}
        print(f"setup: inputs {build_s:.3f} s + timed-process start-up {startup_s:.3f} s "
              f"(median of {STARTS})")
    print(f"checks: {time.perf_counter() - t0:.3f} s")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wsitriage", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/wsitriage", file=sys.stderr)
        return 2
    import wsitriage

    if not os.path.abspath(wsitriage.__file__).startswith(SRC + os.sep):
        print(f"perfbench: wsitriage imported from {wsitriage.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work")
    out_dir = os.path.join(HERE, "_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        summary = run_workload(args, work, out_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
