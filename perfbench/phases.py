"""The timed phase of each workload, and the traced run.

They run in a freshly started process (`python3 phases.py`, started by
run.py with the program's sources on PYTHONPATH), so that the peak
resident memory it reports covers the timed phase and its pool workers
and nothing of the set-up.  A phase repeats whole rounds of the same
operations until the rounds have taken the requested seconds; checks
run afterwards, in the parent, off the clock.
"""

from __future__ import annotations

import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

from wsitriage.adaptation import AdapterModel, adapt_tiles, fit_stats
from wsitriage.aggregation import SlideResult, aggregate
from wsitriage.classifier import featurize_tiles, fine_tune, pool, train
from wsitriage.confidence import calibrate_thresholds, mc_predict, score
from wsitriage.evaluation import evaluate
from wsitriage.manifest import Split, build_splits, load_manifest, stable_seed
from wsitriage.pipeline import Models, embed_record, run_corpus, run_slide
from wsitriage.pnm import read_ppm, write_pgm, write_ppm
from wsitriage.roi import segment_tiles, select, train_segmenter
from wsitriage.synthesis import generate_corpus, generate_slide, mask_path_for
from wsitriage import tiling
from wsitriage.training import sample_tiles, segmenter_pairs

from corpus import (CONFIG, GLOBAL_SEED, LAB_RATIOS, LAB_SPLITS,
                    NPROC, REF_RATIOS, SLIDES_PER_SPECIMEN, TEST_RATIOS,
                    SYNTH_INPROC_PER_LAB, SYNTH_SPECIMENS_PER_LAB, lab_profiles,
                    onboard_lab, onboard_reference, slide_specs,
                    synth_seed)
from tracing import Tracer, per_slide_self_ms, total_self_ms

now = time.perf_counter


def _span(tracer, name, slide=None):
    return nullcontext() if tracer is None else tracer.span(name, slide)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest peak RSS
    of any pool worker it has reaped.  Pages a worker shares with this
    process count once per worker, so this bounds the footprint from above."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * worker) / 1024.0


def inproc_sample(specs):
    """The first SYNTH_INPROC_PER_LAB planned slides of each lab."""
    taken, out = {}, []
    for spec in specs:
        lab = spec.profile.lab_id
        if taken.get(lab, 0) < SYNTH_INPROC_PER_LAB:
            taken[lab] = taken.get(lab, 0) + 1
            out.append(spec)
    return out


def render_and_write(spec, path, tracer=None):
    """Render one planned slide in process and write its raster and mask
    the way generate_corpus's workers do."""
    with _span(tracer, "synthesis.render", spec.slide_id):
        slide = generate_slide(spec.label, spec.profile, spec.slide_seed,
                               slide_id=spec.slide_id, specimen_id=spec.specimen_id,
                               raster_path=path, no_lesion=spec.no_lesion)
    with _span(tracer, "pnm.write_ppm", spec.slide_id):
        write_ppm(path, slide.raster)
    with _span(tracer, "pnm.write_pgm", spec.slide_id):
        write_pgm(mask_path_for(path), slide.roi_mask.astype(np.uint8) * 255)


def synth_round(seed, round_index, work, sample_of=inproc_sample, tracer=None):
    """generate_corpus at NPROC workers, then the sampled slides again in
    process, each timed."""
    rseed = synth_seed(seed)
    out = os.path.join(work, f"synth-{round_index}")
    inproc_dir = os.path.join(out, "inproc")
    os.makedirs(inproc_dir)
    specs = slide_specs(SYNTH_SPECIMENS_PER_LAB, lab_profiles(), rseed, out)
    rnd = {"seed": rseed, "dir": out, "records": None, "error": None, "inproc": []}
    t0 = now()
    try:
        with _span(tracer, "parallel.synth_pool"):
            manifest = generate_corpus(SYNTH_SPECIMENS_PER_LAB, lab_profiles(),
                                       (SLIDES_PER_SPECIMEN, SLIDES_PER_SPECIMEN),
                                       seed=rseed, out_dir=out, workers=NPROC)
        rnd["records"] = manifest.records
    except Exception:
        rnd["error"] = traceback.format_exc()
    rnd["pool_s"] = now() - t0
    for spec in sample_of(specs):
        path = os.path.join(inproc_dir, os.path.basename(spec.raster_path))
        t0 = now()
        try:
            with _span(tracer, "synthesis.slide", spec.slide_id):
                render_and_write(spec, path, tracer)
            error = None
        except Exception:
            error = traceback.format_exc()
        rnd["inproc"].append((spec.raster_path, path, now() - t0, error))
    rnd["measured_s"] = rnd["pool_s"] + sum(t for _, _, t, _ in rnd["inproc"])
    return rnd


def _rounds(job, one_round):
    """Whole rounds until they have taken job['seconds'] (at least one)."""
    rounds, measured = [], 0.0
    while not rounds or measured < job["seconds"]:
        rnd = one_round(len(rounds))
        measured += rnd["measured_s"]
        rounds.append(rnd)
    return rounds


def synth_phase(job):
    return {"rounds": _rounds(job, lambda r: synth_round(job["seed"], r, job["work"]))}


def onboard_phase(job):
    corpus = job["corpus"]
    # embed_record is timed in process on every lab_a calibration slide
    sample = sorted(corpus.lab.records, key=lambda r: r.slide_id)

    def one_round(_):
        rnd = {"reference": None, "calibration": None, "errors": [], "embed": []}
        t0 = now()
        try:
            rnd["reference"] = onboard_reference(corpus)
            rnd["calibration"] = onboard_lab(corpus, rnd["reference"][0])
        except Exception:
            rnd["errors"].append(traceback.format_exc())
        rnd["onboard_s"] = now() - t0
        if rnd["calibration"] is not None:
            models = Models(segmenter=rnd["reference"][0].segmenter,
                            adapter=rnd["calibration"].adapter)
            for rec in sample:
                t0 = now()
                try:
                    embed_record(rec, models, CONFIG)
                    error = None
                except Exception:
                    error = traceback.format_exc()
                rnd["embed"].append((now() - t0, error))
        rnd["measured_s"] = rnd["onboard_s"] + sum(t for t, _ in rnd["embed"])
        return rnd

    return {"rounds": _rounds(job, one_round), "embed_sample": len(sample)}


def frozen_models(onboarded) -> Models:
    cal = onboarded.calibration
    return Models(segmenter=onboarded.trained.segmenter, classifier=cal.classifier,
                  adapter=cal.adapter)


def _run_slide_or_error(rec, models):
    try:
        return run_slide(rec, models, CONFIG, GLOBAL_SEED)[0]
    except Exception as exc:
        return SlideResult(rec.slide_id, rec.specimen_id, error=repr(exc))


def triage_phase(job):
    corpus, onboarded = job["corpus"], job["onboarded"]
    models = frozen_models(onboarded)
    records = sorted(corpus.test.records_in(Split.TEST), key=lambda r: r.slide_id)
    truths = corpus.test.truth_by_specimen()

    def one_round(_):
        rnd = {"run": None, "report": None, "error": None}
        t0 = now()
        try:
            rnd["run"] = run_corpus(corpus.test, models, CONFIG, workers=NPROC,
                                    global_seed=GLOBAL_SEED, split=Split.TEST)
            rnd["pool_s"] = now() - t0
            rnd["report"] = evaluate(rnd["run"].specimens, truths,
                                     onboarded.calibration.thresholds)
        except Exception:
            rnd["error"] = traceback.format_exc()
            rnd.setdefault("pool_s", now() - t0)
        rnd["round_s"] = rnd["measured_s"] = now() - t0
        return rnd

    def in_process_pass():
        timed = []
        for rec in records:
            t0 = now()
            result = _run_slide_or_error(rec, models)
            timed.append((result, now() - t0))
        return timed

    # The pool's wall time varies with how its last chunks fall, so the
    # pooled run is repeated in whole rounds.  run_slide is timed in process
    # once before the rounds and once after them: a slide counts its faster
    # time, so that a burst of load from outside that covers one pass does
    # not set the per-slide median.
    before = in_process_pass()
    rounds = _rounds(job, one_round)
    return {"rounds": rounds, "per_slide": [before, in_process_pass()],
            "n_slides": len(records)}


# ------------------------------------------------------------ traced run

def traced_slide(rec, models, tracer):
    """run_slide's stages, in its order, each in its own span; returns the
    slide result and (tissue tiles, ROI tiles)."""
    sid = rec.slide_id
    with tracer.span("pipeline.slide", sid):
        with tracer.span("pnm.read", sid):
            raster = read_ppm(rec.raster_path)
        with tracer.span("tiling.segment", sid):
            mask = tiling.segment_tissue(raster, CONFIG.tiling)
        with tracer.span("tiling.tile", sid):
            tiles = tiling.tile(raster, mask, sid, CONFIG.tiling)
        with tracer.span("adaptation.adapt", sid):
            tiles = adapt_tiles(tiles, models.adapter)
        with tracer.span("roi.segment", sid):
            segmaps = segment_tiles(tiles, models.segmenter)
        with tracer.span("roi.select", sid):
            selection = select(tiles, segmaps, theta=CONFIG["roi.theta"])
        counts = (len(tiles), len(selection))
        if selection.empty:
            return SlideResult(sid, rec.specimen_id), counts
        with tracer.span("classifier.featurize", sid):
            features = featurize_tiles(selection.selected, CONFIG.tiling)
        with tracer.span("classifier.pool", sid):
            embedding = pool(features)
        with tracer.span("confidence.mc_predict", sid):
            matrix = mc_predict(embedding, models.classifier, t=CONFIG["confidence.T"],
                                keep_prob=CONFIG["confidence.keep_prob"],
                                seed=stable_seed("mc", GLOBAL_SEED, sid))
        with tracer.span("confidence.score", sid):
            conf = score(matrix)
    return SlideResult(sid, rec.specimen_id, predicted=conf.argmax_class,
                       score=conf.value, matrix=matrix), counts


def _traced_embeddings(records, models, tracer):
    xs, labels = [], []
    for rec in sorted(records, key=lambda r: r.slide_id):
        with tracer.span("training.embed", rec.slide_id):
            emb = embed_record(rec, models, CONFIG)
        if emb is not None:
            xs.append(emb)
            labels.append(int(rec.truth))
    return np.stack(xs), np.array(labels, dtype=int)


def _scored(run, manifest):
    truths = manifest.truth_by_specimen()
    return [(s.score, s.predicted == truths[s.specimen_id])
            for s in run.specimens if s.classified]


def traced_onboarding(corpus, tracer):
    """train_models, calibrate_reference and calibrate_lab, call by call,
    each call into a layer in its own span."""
    targets = CONFIG["confidence.targets"]
    train_records = corpus.ref.records_in(Split.TRAIN)
    with tracer.span("training.sample_tiles"):
        tiles = sample_tiles(train_records, CONFIG)
    with tracer.span("adaptation.fit"):
        ref_stats = fit_stats(tiles, CONFIG.tiling)
    del tiles
    identity = AdapterModel(ref_stats, ref_stats)
    with tracer.span("training.segmenter_pairs"):
        pairs = segmenter_pairs(train_records, identity, CONFIG)
    with tracer.span("roi.train"):
        segmenter = train_segmenter(pairs, seed=CONFIG["classifier.seed"])
    del pairs
    x, labels = _traced_embeddings(train_records, Models(segmenter, adapter=identity), tracer)
    with tracer.span("classifier.train"):
        params = train(x, labels, CONFIG.train)
    with tracer.span("pipeline.run_corpus"):
        val = run_corpus(corpus.ref, Models(segmenter, params, identity), CONFIG,
                         workers=NPROC, global_seed=GLOBAL_SEED, split=Split.VALIDATION)
    with tracer.span("confidence.calibrate"):
        ref_thresholds = calibrate_thresholds(_scored(val, corpus.ref), targets=targets)

    cf_records = corpus.lab.records_in(Split.CALIB_FINETUNE)
    with tracer.span("training.sample_tiles"):
        tiles = sample_tiles(cf_records, CONFIG)
    with tracer.span("adaptation.fit"):
        lab_stats = fit_stats(tiles, CONFIG.tiling)
    del tiles
    adapter = AdapterModel(source=lab_stats, target=ref_stats)
    x, labels = _traced_embeddings(cf_records, Models(segmenter, adapter=adapter), tracer)
    with tracer.span("classifier.finetune"):
        tuned = fine_tune(params, x, labels, CONFIG.train)
    with tracer.span("pipeline.run_corpus"):
        cv = run_corpus(corpus.lab, Models(segmenter, tuned, adapter), CONFIG,
                        workers=NPROC, global_seed=GLOBAL_SEED,
                        split=Split.CALIB_VALIDATION)
    with tracer.span("confidence.calibrate"):
        thresholds = calibrate_thresholds(_scored(cv, corpus.lab), targets=targets)
    return {"reference_stats": ref_stats, "segmenter": segmenter, "classifier": params,
            "reference_thresholds": ref_thresholds, "adapter": adapter,
            "tuned": tuned, "thresholds": thresholds}


def traced_phase(job):
    """One traced pass over the whole system: a synthesis round, the
    manifests, an onboarding and a frozen run.  Every traced run makes
    the same pass, whatever the workload, so that each reports every
    per-layer metric from the phase where that layer does its work."""
    tracer = Tracer()
    corpus, onboarded = job["corpus"], job["onboarded"]
    out = {}

    out["synth"] = synth_round(job["seed"], 0, job["work"], sample_of=list, tracer=tracer)

    with tracer.span("manifest.load"):
        loaded = {key: load_manifest(path) for key, path in corpus.manifest_paths.items()}
    with tracer.span("manifest.split"):
        seeds = corpus.split_seeds
        out["manifests"] = {
            "ref": build_splits(loaded["ref"], REF_RATIOS, seed=seeds["ref"]),
            "lab": build_splits(loaded["lab"], LAB_RATIOS, seed=seeds["lab"], splits=LAB_SPLITS),
            "test": build_splits(loaded["test"], TEST_RATIOS, seed=seeds["test"],
                                 splits=LAB_SPLITS),
        }

    out["onboarding"] = traced_onboarding(corpus, tracer)

    models = frozen_models(onboarded)
    records = sorted(corpus.test.records_in(Split.TEST), key=lambda r: r.slide_id)
    with tracer.span("parallel.triage_pool"):
        out["run"] = run_corpus(corpus.test, models, CONFIG, workers=NPROC,
                                global_seed=GLOBAL_SEED, split=Split.TEST)
    # run_slide and the traced stages alternate slide by slide, so that the
    # per-slide difference between them (overhead) compares like with like
    out["run_slide"], out["staged"], counts = [], [], []
    for rec in records:
        with tracer.span("pipeline.run_slide", rec.slide_id):
            out["run_slide"].append(_run_slide_or_error(rec, models))
        result, count = traced_slide(rec, models, tracer)
        out["staged"].append(result)
        counts.append(count)
    groups = {}
    for r in out["staged"]:
        groups.setdefault(r.specimen_id, []).append(r)
    specimens = []
    for specimen_id in sorted(groups):
        with tracer.span("aggregation.aggregate"):
            specimens.append(aggregate(groups[specimen_id]))
    out["specimens"] = specimens
    with tracer.span("evaluation.evaluate"):
        out["report"] = evaluate(specimens, corpus.test.truth_by_specimen(),
                                 onboarded.calibration.thresholds)

    out["layers"] = layer_metrics(tracer, counts)
    out["spans_path"] = os.path.join(job["out"], f"spans-{job['workload']}-seed{job['seed']}.jsonl")
    tracer.write(out["spans_path"])
    out["n_spans"] = len(tracer.spans)
    return out


def layer_metrics(tracer, counts):
    """Per-layer metrics of a traced run (see README.md for each one)."""
    med = statistics.median

    def per_slide(*names):
        return med(per_slide_self_ms(tracer, names).values())

    durations = {}
    for s in tracer.spans:
        durations.setdefault(s.name, []).append(s)
    run_slide_ms = {s.slide: s.duration * 1000.0 for s in durations["pipeline.run_slide"]}
    staged_ms = {s.slide: s.duration * 1000.0 for s in durations["pipeline.slide"]}
    layers_ms = {}
    for s in tracer.spans:
        if s.parent is not None and tracer.spans[s.parent].name == "pipeline.slide":
            layers_ms[s.slide] = layers_ms.get(s.slide, 0.0) + s.duration * 1000.0

    def parallel(pool_name, serial_name):
        pool_s = durations[pool_name][0].duration
        serial_s = sum(s.duration for s in durations[serial_name])
        return serial_s / (NPROC * pool_s), NPROC * pool_s - serial_s

    triage_eff, triage_idle = parallel("parallel.triage_pool", "pipeline.run_slide")
    synth_eff, synth_idle = parallel("parallel.synth_pool", "synthesis.slide")
    metrics = {
        "pnm.read_ms": (per_slide("pnm.read"), "ms"),
        "pnm.write_ms": (per_slide("pnm.write_ppm", "pnm.write_pgm"), "ms"),
        "synthesis.render_ms": (per_slide("synthesis.render"), "ms"),
        "tiling.segment_ms": (per_slide("tiling.segment"), "ms"),
        "tiling.tile_ms": (per_slide("tiling.tile"), "ms"),
        "tiling.tiles_per_slide": (med(n for n, _ in counts), "count"),
        "adaptation.adapt_ms": (per_slide("adaptation.adapt"), "ms"),
        "adaptation.fit_ms": (total_self_ms(tracer, ["adaptation.fit"]), "ms"),
        "roi.segment_ms": (per_slide("roi.segment", "roi.select"), "ms"),
        "roi.tile_yield": (sum(k for _, k in counts) / sum(n for n, _ in counts), "ratio"),
        "roi.train_ms": (total_self_ms(tracer, ["roi.train"]), "ms"),
        "classifier.featurize_ms": (per_slide("classifier.featurize", "classifier.pool"), "ms"),
        "classifier.train_ms": (total_self_ms(tracer, ["classifier.train"]), "ms"),
        "classifier.finetune_ms": (total_self_ms(tracer, ["classifier.finetune"]), "ms"),
        "confidence.mc_predict_ms": (per_slide("confidence.mc_predict"), "ms"),
        "confidence.score_ms": (per_slide("confidence.score"), "ms"),
        "confidence.calibrate_ms": (total_self_ms(tracer, ["confidence.calibrate"]), "ms"),
        "training.sample_tiles_ms": (total_self_ms(tracer, ["training.sample_tiles"]), "ms"),
        "training.segmenter_pairs_ms": (total_self_ms(tracer, ["training.segmenter_pairs"]), "ms"),
        "training.embed_ms": (per_slide("training.embed"), "ms"),
        "aggregation.aggregate_ms": (total_self_ms(tracer, ["aggregation.aggregate"]), "ms"),
        "evaluation.evaluate_ms": (total_self_ms(tracer, ["evaluation.evaluate"]), "ms"),
        "manifest.load_ms": (total_self_ms(tracer, ["manifest.load"]), "ms"),
        "manifest.split_ms": (total_self_ms(tracer, ["manifest.split"]), "ms"),
        "pipeline.overhead_ms": (med(run_slide_ms[k] - layers_ms[k] for k in run_slide_ms), "ms"),
        "parallel.efficiency": (triage_eff, "ratio"),
        "parallel.idle_s": (triage_idle, "s"),
        "parallel.synth_efficiency": (synth_eff, "ratio"),
        "parallel.synth_idle_s": (synth_idle, "s"),
        "trace.overhead_ms": (med(staged_ms.values()) - med(run_slide_ms.values()), "ms"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


PHASES = {"corpus_synthesis": synth_phase, "lab_onboarding": onboard_phase,
          "triage_run": triage_phase}


def child_main():
    """Entry point of the timed process.  It talks to its parent in pickles
    over stdin and stdout: it reports ready once the program is imported,
    runs the job it is sent (None means exit) and sends back the result."""
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr         # stdout carries the pickles alone

    def send(message):
        pickle.dump(message, out)
        out.flush()

    send(("ready", None))
    job = pickle.load(inp)
    if job is None:
        return
    try:
        phase = traced_phase if job["trace"] else PHASES[job["workload"]]
        result = phase(job)
        result["peak_rss_mb"] = peak_rss_mb(NPROC)
        send(("result", result))
    except Exception:
        send(("error", traceback.format_exc()))


if __name__ == "__main__":
    child_main()
