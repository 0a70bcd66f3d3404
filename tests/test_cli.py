import dataclasses
import hashlib
import os
import re
import shutil

import numpy as np
import pytest
import scipy

from wsitriage.adaptation import load_adapter
from wsitriage.aggregation import (SLIDE_OUTCOMES, SLIDE_RESULTS_HEAD,
                                   save_class_scores, save_slide_results)
from wsitriage.classifier import load_params
from wsitriage.cli import main
from wsitriage.config import Config
from wsitriage.confidence import load_thresholds
from wsitriage.manifest import Split, load_manifest, save_manifest
from wsitriage.parallel import blas_config, blas_core, host_facts
from wsitriage.pipeline import load_models, load_run_manifest, model_paths, run_corpus
from wsitriage.tables import read_table
from wsitriage.training import calibrate_lab, train_models


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """Full synth -> split -> train -> calibrate -> run workflow artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    models = str(root / "models")
    run_dir = str(root / "run")

    assert main(["synth", "--out", corpus, "--labs", "reference,lab_a",
                 "--specimens", "12", "--slides-min", "1", "--slides-max", "2",
                 "--seed", "3", "--workers", "2"]) == 0

    ref_manifest = str(root / "reference.manifest")
    lab_manifest = str(root / "lab_a.manifest")
    assert main(["split", "--manifest", os.path.join(corpus, "manifest.txt"),
                 "--lab", "reference", "--ratios", "0.7,0.15,0.15",
                 "--seed", "1", "--out", ref_manifest]) == 0
    assert main(["split", "--manifest", os.path.join(corpus, "manifest.txt"),
                 "--lab", "lab_a", "--ratios", "0.4,0.2,0.4",
                 "--names", "CalibFinetune,CalibValidation,Test",
                 "--seed", "1", "--out", lab_manifest]) == 0

    assert main(["train", "--manifest", ref_manifest, "--models", models,
                 "--workers", "2"]) == 0
    assert main(["calibrate", "--manifest", lab_manifest, "--models", models,
                 "--workers", "2", "--seed", "5"]) == 0
    assert main(["run", "--manifest", lab_manifest, "--models", models,
                 "--lab", "lab_a", "--split", "Test", "--out", run_dir,
                 "--workers", "2", "--seed", "5"]) == 0
    return {"root": root, "corpus": corpus, "models": models, "run": run_dir,
            "ref_manifest": ref_manifest, "lab_manifest": lab_manifest}


def digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()[:16]


class TestWorkflow:
    def test_run_outputs_exist(self, workflow):
        for name in ("slide_results.csv", "specimen_results.csv",
                     "class_scores.csv", "timings.csv", "thresholds.txt",
                     "run_manifest.txt"):
            assert os.path.exists(os.path.join(workflow["run"], name))

    def test_calibration_artifacts_exist(self, workflow):
        for name in ("segmenter.txt", "classifier.txt", "reference.adapter",
                     "lab_a.adapter", "lab_a.classifier.txt", "lab_a.thresholds"):
            assert os.path.exists(os.path.join(workflow["models"], name))

    def test_evaluate_stdout_and_files(self, workflow, capsys, tmp_path):
        assert main(["evaluate", "--run", workflow["run"],
                     "--manifest", workflow["lab_manifest"]]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out

        report_dir = str(tmp_path / "report")
        assert main(["evaluate", "--run", workflow["run"],
                     "--manifest", workflow["lab_manifest"],
                     "--out", report_dir]) == 0
        assert os.path.exists(os.path.join(report_dir, "report.txt"))

    @pytest.mark.parametrize("name", ["class_scores.csv", "thresholds.txt"])
    def test_evaluate_needs_class_scores_and_thresholds(self, workflow, tmp_path,
                                                         capsys, name):
        run = str(tmp_path / "run")
        shutil.copytree(workflow["run"], run)
        os.remove(os.path.join(run, name))
        assert main(["evaluate", "--run", run,
                     "--manifest", workflow["lab_manifest"]]) == 2
        assert os.path.join(run, name) in capsys.readouterr().err

    def test_profile_output(self, workflow, capsys):
        assert main(["profile", "--run", workflow["run"]]) == 0
        out = capsys.readouterr().out
        assert "median" in out
        assert "throughput" in out

    def test_rerun_is_bit_identical(self, workflow, tmp_path):
        rerun = str(tmp_path / "rerun")
        assert main(["run", "--manifest", workflow["lab_manifest"],
                     "--models", workflow["models"], "--lab", "lab_a",
                     "--split", "Test", "--out", rerun,
                     "--workers", "1", "--seed", "5"]) == 0
        for name in ("slide_results.csv", "specimen_results.csv",
                     "class_scores.csv"):
            a = open(os.path.join(workflow["run"], name), "rb").read()
            b = open(os.path.join(rerun, name), "rb").read()
            assert a == b


    def test_seed_and_workers_options_in_config_snapshot(self, workflow):
        fields = load_run_manifest(os.path.join(workflow["run"], "run_manifest.txt"))
        assert (fields["global_seed"], fields["worker_count"]) == (5, 2)
        assert (fields["config.seed"], fields["config.workers"]) == ("5", "2")
        assert fields["input_manifest"] == os.path.abspath(workflow["lab_manifest"])

    def test_run_manifest_records_the_blas_core(self, workflow):
        fields = load_run_manifest(os.path.join(workflow["run"], "run_manifest.txt"))
        assert fields["blas_core"] == blas_core()

    def test_run_manifest_records_the_blas_config_and_outcome_counts(self, workflow):
        fields = load_run_manifest(os.path.join(workflow["run"], "run_manifest.txt"))
        assert fields["blas_config"] == blas_config()
        assert fields["blas_config"] == "unknown" or fields["blas_config"].startswith("OpenBLAS")
        outcomes = [row[2] for _, row in read_table(
            os.path.join(workflow["run"], "slide_results.csv"), SLIDE_RESULTS_HEAD, (str,) * 6)]
        counts = {o: int(fields[f"slides_{o.lower()}"]) for o in SLIDE_OUTCOMES}
        assert counts == {o: outcomes.count(o) for o in SLIDE_OUTCOMES}
        assert counts["Classified"] >= 1 and sum(counts.values()) == len(outcomes)

    def test_run_manifest_records_the_host_facts(self, workflow):
        fields = load_run_manifest(os.path.join(workflow["run"], "run_manifest.txt"))
        facts = {key: str(value) for key, value in host_facts()}
        assert {key: fields[key] for key in facts} == facts
        assert int(fields["cpus_usable"]) >= 1
        assert (fields["numpy"], fields["scipy"]) == (np.__version__, scipy.__version__)
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:
            assert fields["numpy_dispatch"] == "unknown"
        else:
            assert set(fields["numpy_dispatch"].split()) <= {*__cpu_dispatch__, "none"}

    def test_run_manifest_digests_the_labs_model_set(self, workflow):
        fields = load_run_manifest(os.path.join(workflow["run"], "run_manifest.txt"))
        models = workflow["models"]
        for kind, name in (("adapter", "lab_a.adapter"), ("segmenter", "segmenter.txt"),
                           ("classifier", "lab_a.classifier.txt"),
                           ("thresholds", "lab_a.thresholds")):
            assert fields[f"model.{kind}"] == digest(os.path.join(models, name))

    def test_calibrate_without_adaptation_writes_identity_adapter(self, workflow,
                                                                  tmp_path, capsys):
        models = str(tmp_path / "models")
        os.makedirs(models)
        # calibration reads no reference thresholds
        for name in ("reference.adapter", "segmenter.txt", "classifier.txt"):
            shutil.copy(os.path.join(workflow["models"], name), models)
        assert main(["calibrate", "--manifest", workflow["lab_manifest"],
                     "--models", models, "--workers", "2", "--seed", "5",
                     "--no-adaptation"]) == 0
        assert load_adapter(os.path.join(models, "lab_a.adapter")).is_identity
        lines = capsys.readouterr().out.splitlines()
        # the evidence each threshold rests on, one table row per level
        header = lines.index("level  threshold    accuracy  coverage  retained  "
                             "95% lower bound")
        assert [line.split()[0] for line in lines[header + 1:header + 5]] == \
            ["none", "1", "2", "3"]

    def test_profile_rejects_v1_run_manifest(self, workflow, tmp_path, capsys):
        run = str(tmp_path / "run")
        shutil.copytree(workflow["run"], run)
        rm_path = os.path.join(run, "run_manifest.txt")
        with open(rm_path, "w", encoding="utf-8") as fh:
            fh.write("wsi-triage-run v1\nrun_id=run\nwall_ms=1.0\n")
        assert main(["profile", "--run", run]) == 2
        assert f"{rm_path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["run_manifest.txt", "timings.csv"])
    def test_profile_needs_timings_and_run_manifest(self, workflow, tmp_path, capsys,
                                                    name):
        run = str(tmp_path / "run")
        shutil.copytree(workflow["run"], run)
        os.remove(os.path.join(run, name))
        assert main(["profile", "--run", run]) == 2
        assert os.path.join(run, name) in capsys.readouterr().err


@pytest.fixture(scope="module")
def reference_sets(workflow):
    """The reference set `train` wrote, read back as `calibrate` reads it,
    and the same set trained in memory."""
    paths = model_paths(workflow["models"])
    del paths["thresholds"]
    loaded = load_models(paths)
    trained = train_models(load_manifest(workflow["ref_manifest"]), Config(), workers=2)
    return loaded, trained


class TestCalibrateLab:
    def test_from_model_files_equals_in_memory(self, workflow, reference_sets):
        lab = load_manifest(workflow["lab_manifest"])
        from_files, in_memory = (calibrate_lab(lab, base, Config(), workers=2,
                                               global_seed=5)
                                 for base in reference_sets)
        assert from_files.adapter == in_memory.adapter
        assert from_files.thresholds == in_memory.thresholds
        # and `calibrate` wrote the same set
        models = workflow["models"]
        written = load_params(os.path.join(models, "lab_a.classifier.txt"))
        for name in ("w1", "b1", "w2", "b2"):
            for other in (in_memory.classifier, written):
                assert np.array_equal(getattr(from_files.classifier, name),
                                      getattr(other, name))
        assert load_adapter(os.path.join(models, "lab_a.adapter")) == from_files.adapter
        assert (load_thresholds(os.path.join(models, "lab_a.thresholds"))
                == from_files.thresholds)

    def test_without_adaptation_keeps_identity_adapter(self, workflow, reference_sets,
                                                       tmp_path):
        lab = load_manifest(workflow["lab_manifest"])
        cal = calibrate_lab(lab, reference_sets[0], Config(), workers=2,
                            global_seed=5, with_adaptation=False)
        assert cal.adapter.is_identity
        # the identity adapter changes no output of a run
        for name, models in (("identity", cal),
                             ("none", dataclasses.replace(cal, adapter=None))):
            run = run_corpus(lab, models, Config(), workers=2, global_seed=5,
                             split=Split.TEST)
            save_slide_results(run.slide_results, tmp_path / f"{name}.slides")
            save_class_scores(run.specimens, tmp_path / f"{name}.scores")
        for kind in ("slides", "scores"):
            assert ((tmp_path / f"identity.{kind}").read_bytes()
                    == (tmp_path / f"none.{kind}").read_bytes())


class TestErrors:
    def test_missing_manifest_is_data_error(self, tmp_path):
        code = main(["split", "--manifest", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out.txt")])
        assert code == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("tiling.nope=3\n")
        code = main(["synth", "--out", str(tmp_path / "c"), "--specimens", "1",
                     "--config", str(config)])
        assert code == 1
        assert "tiling.nope" in capsys.readouterr().err

    def test_missing_input_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.manifest")
        code = main(["train", "--manifest", missing,
                     "--models", str(tmp_path / "m")])
        assert code == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("targets", ["0.9,1.5", "0.95,0.9"])
    def test_bad_targets_are_usage_error_before_training(self, workflow, tmp_path,
                                                         capsys, targets):
        config = tmp_path / "c.cfg"
        config.write_text(f"confidence.targets={targets}\n")
        models = str(tmp_path / "m")
        assert main(["train", "--manifest", workflow["ref_manifest"],
                     "--models", models, "--config", str(config)]) == 1
        assert "confidence.targets" in capsys.readouterr().err
        assert not os.path.exists(models)

    @pytest.mark.parametrize("line", ["tiling.tile_px=0", "tiling.tile_px=-128",
                                      "classifier.batch_size=0", "confidence.keep_prob=0",
                                      "confidence.T=0", "classifier.epochs=-5",
                                      "workers=0", "roi.theta=2", "roi.theta=-1",
                                      "tiling.l_max=-5", "tiling.s_min=40",
                                      "tiling.min_tissue_fraction=7",
                                      "classifier.learning_rate=-0.8",
                                      "classifier.finetune_lr_scale=-1"])
    def test_out_of_range_value_is_usage_error_before_training(self, workflow, tmp_path,
                                                               capsys, line):
        config = tmp_path / "c.cfg"
        config.write_text(line + "\n")
        models = str(tmp_path / "m")
        assert main(["train", "--manifest", workflow["ref_manifest"],
                     "--models", models, "--config", str(config)]) == 1
        key = line.split("=")[0]
        assert f"error: {config}:1: bad value for '{key}'" in capsys.readouterr().err
        assert not os.path.exists(models)

    def test_usage_error_exit_code(self, capsys):
        assert main(["split"]) == 1   # missing required arguments

    def test_unknown_lab_profile(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--labs", "lab_zz", "--specimens", "1"]) == 1

    def test_zero_workers_is_usage_error(self, tmp_path, capsys, workflow):
        message = "error: bad value for 'workers': must be at least 1, got 0"
        assert main(["synth", "--out", str(tmp_path / "c"), "--labs", "reference",
                     "--specimens", "1", "--workers", "0"]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")
        # rejected before any slide is read or model written
        models = str(tmp_path / "m")
        assert main(["train", "--manifest", workflow["ref_manifest"],
                     "--models", models, "--workers", "0"]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(models)

    def test_repeated_lab_profile_is_usage_error_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "dup"
        assert main(["synth", "--out", str(out), "--labs", "lab_a,lab_a",
                     "--specimens", "1"]) == 1
        assert "repeated lab profiles: ['lab_a']" in capsys.readouterr().err
        assert not out.exists()

    def test_run_of_a_split_with_no_slide_is_data_error(self, workflow, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--manifest", os.path.join(workflow["corpus"], "manifest.txt"),
                     "--models", workflow["models"], "--split", "Test",
                     "--out", str(out), "--workers", "1"]) == 2
        assert "split Test" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ratio_values(self, tmp_path, workflow):
        code = main(["split", "--manifest", workflow["ref_manifest"],
                     "--ratios", "a,b,c", "--out", str(tmp_path / "x.manifest")])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["split", "--ratios", "0.5,0.5,0.5"],
        ["split", "--ratios=-0.2,0.6,0.6"],
        ["split", "--ratios", "0.5,0.5"],
        ["synth", "--specimens", "0"],
        ["synth", "--slides-min", "3", "--slides-max", "2"],
        ["synth", "--slides-min", "0"],
    ])
    def test_bad_option_value_is_usage_error_before_any_work(self, tmp_path, capsys,
                                                             argv):
        out = tmp_path / "out"
        if argv[0] == "split":   # the manifest is missing: the options are checked first
            argv = argv + ["--manifest", str(tmp_path / "missing.manifest"),
                           "--out", str(out)]
        else:
            argv = argv + ["--labs", "reference", "--out", str(out)]
        assert main(argv) == 1
        assert "bad --" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_split_name(self, workflow, tmp_path):
        code = main(["run", "--manifest", workflow["lab_manifest"],
                     "--models", workflow["models"], "--lab", "lab_a",
                     "--split", "Holdout", "--out", str(tmp_path / "r")])
        assert code == 1

    def test_manifest_without_needed_split_is_data_error(self, tmp_path, workflow):
        # a manifest with no Train split cannot train
        unsplit = tmp_path / "unsplit.manifest"
        text = open(workflow["ref_manifest"]).read().splitlines()
        rewritten = [text[0]] + [",".join(
            line.split(",")[:4] + ["", line.split(",")[5]])
            for line in text[1:] if line]
        unsplit.write_text("\n".join(rewritten) + "\n")
        code = main(["train", "--manifest", str(unsplit),
                     "--models", str(tmp_path / "m")])
        assert code == 2

    def test_run_on_empty_manifest_is_data_error(self, tmp_path, workflow, capsys):
        empty = tmp_path / "empty.manifest"
        empty.write_text("wsi-triage-manifest v1\n")
        out = str(tmp_path / "runout")
        code = main(["run", "--manifest", str(empty),
                     "--models", workflow["models"], "--out", out,
                     "--workers", "1"])
        assert code == 2
        assert "the manifest holds no slide" in capsys.readouterr().err
        assert not os.path.exists(out)


    def test_uncalibrated_lab_is_data_error(self, workflow, tmp_path, capsys):
        out = str(tmp_path / "r")
        code = main(["run", "--manifest", workflow["lab_manifest"],
                     "--models", workflow["models"], "--lab", "lab_zz",
                     "--split", "Test", "--out", out, "--workers", "1"])
        assert code == 2
        assert os.path.join(workflow["models"], "lab_zz.") in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_run_without_adaptation_is_usage_error(self, workflow, tmp_path):
        out = str(tmp_path / "r")
        assert main(["run", "--manifest", workflow["lab_manifest"],
                     "--models", workflow["models"], "--lab", "lab_a",
                     "--split", "Test", "--out", out, "--no-adaptation"]) == 1
        assert not os.path.exists(out)

    def test_out_of_range_threshold_is_data_error_before_run(self, workflow, tmp_path,
                                                              capsys):
        models = str(tmp_path / "models")
        shutil.copytree(workflow["models"], models)
        path = os.path.join(models, "lab_a.thresholds")
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[3] = "2,0.95,1.5"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = str(tmp_path / "r")
        assert main(["run", "--manifest", workflow["lab_manifest"],
                     "--models", models, "--lab", "lab_a", "--split", "Test",
                     "--out", out, "--workers", "1"]) == 2
        assert f"{path}:4: threshold must be in [0, 1], got 1.5" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_error_slide_exits_2_after_writing_outputs(self, workflow, tmp_path,
                                                      capsys):
        manifest = load_manifest(workflow["lab_manifest"])
        broken = manifest.records_in(Split.TEST)[0]
        manifest.records[manifest.records.index(broken)] = dataclasses.replace(
            broken, raster_path=str(tmp_path / "gone.ppm"))
        path = str(tmp_path / "broken.manifest")
        save_manifest(manifest, path)
        out = str(tmp_path / "r")
        code = main(["run", "--manifest", path, "--models", workflow["models"],
                     "--lab", "lab_a", "--split", "Test", "--out", out,
                     "--workers", "1", "--seed", "5"])
        assert code == 2
        assert broken.slide_id in capsys.readouterr().err
        rows = {row[0]: row for _, row in read_table(
            os.path.join(out, "slide_results.csv"), SLIDE_RESULTS_HEAD, (str,) * 6)}
        assert rows[broken.slide_id][2] == "Error"
        assert "gone.ppm" in rows[broken.slide_id][5]
        for name in ("specimen_results.csv", "class_scores.csv", "timings.csv",
                     "thresholds.txt", "run_manifest.txt"):
            assert os.path.exists(os.path.join(out, name))
        assert main(["profile", "--run", out]) == 0
        assert "(Error: 1, left out below)" in capsys.readouterr().out


class TestConfigFile:
    def test_config_values_respected(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("# comment line\nseed=9\nconfidence.T=5\n")
        from wsitriage.config import load_config
        cfg = load_config(config)
        assert cfg["seed"] == 9
        assert cfg["confidence.T"] == 5
        assert cfg["confidence.targets"] == (0.90, 0.95, 0.98)

    def test_malformed_line(self, tmp_path):
        from wsitriage.config import ConfigError, load_config
        config = tmp_path / "c.cfg"
        config.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(config)

    @pytest.mark.parametrize("text, line, message", [
        ("seed=1\n# comment\nbogus=3\n", 3, "unknown config key 'bogus'"),
        ("seed=1\ntiling.s_min=high\n", 2, "bad value for 'tiling.s_min'"),
        ("seed=1\n\nseed=2\n", 3, "repeated config key 'seed'"),
    ], ids=["unknown_key", "bad_value", "repeated_key"])
    def test_rejected_at_path_line(self, tmp_path, capsys, text, line, message):
        from wsitriage.config import ConfigError, load_config
        config = tmp_path / "c.cfg"
        config.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{config}:{line}: {message}")):
            load_config(config)
        code = main(["synth", "--out", str(tmp_path / "c"), "--specimens", "1",
                     "--config", str(config)])
        assert code == 1
        assert f"{config}:{line}: {message}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "c")
