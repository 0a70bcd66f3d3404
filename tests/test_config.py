from pathlib import Path

import pytest

from wsitriage.classifier import KEEP_PROB, TrainConfig
from wsitriage.config import CONFIG_KEYS, Config, ConfigError, load_config
from wsitriage.confidence import DEFAULT_T, DEFAULT_TARGETS
from wsitriage.roi import THETA_ROI
from wsitriage.tiling import TilingConfig


def test_defaults_agree_with_their_declarations():
    config = Config()
    assert config.tiling == TilingConfig()
    assert config.train == TrainConfig()
    assert config["roi.theta"] == THETA_ROI
    assert config["confidence.T"] == DEFAULT_T
    assert config["confidence.targets"] == DEFAULT_TARGETS
    assert config["confidence.keep_prob"] == KEEP_PROB


def test_readme_configuration_table_matches_config_keys():
    """The README's Configuration table lists every key, in CONFIG_KEYS
    order, with the default its parser reads as the declared one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| key ")]
    table = {key.strip(): default.strip() for key, default in rows}
    assert list(table) == list(CONFIG_KEYS)
    for key, text in table.items():
        parse, default, _ = CONFIG_KEYS[key]
        assert parse(text) == default, key


@pytest.mark.parametrize("targets", ["0.9,1.5", "nan", "0", "0.95,0.9"])
def test_bad_targets_rejected_by_name(targets):
    with pytest.raises(ConfigError, match="confidence.targets"):
        Config({"confidence.targets": targets})


@pytest.mark.parametrize("key, value, message", [
    ("tiling.tile_px", "0", "must be at least 1, got 0"),
    ("tiling.tile_px", "-128", "must be at least 1, got -128"),
    ("confidence.T", "0", "must be at least 1, got 0"),
    ("classifier.batch_size", "0", "must be at least 1, got 0"),
    ("classifier.epochs", "-5", "must be at least 0, got -5"),
    ("classifier.finetune_epochs", "-1", "must be at least 0, got -1"),
    ("confidence.keep_prob", "0", r"must be in \(0, 1\], got 0.0"),
    ("confidence.keep_prob", "1.5", r"must be in \(0, 1\], got 1.5"),
    ("workers", "0", "must be at least 1, got 0"),
    ("roi.theta", "2", r"must be in \[0, 1\], got 2.0"),
    ("roi.theta", "-1", r"must be in \[0, 1\], got -1.0"),
    ("tiling.l_max", "-5", r"must be in \[0, 1\], got -5.0"),
    ("tiling.s_min", "40", r"must be in \[0, 1\], got 40.0"),
    ("tiling.min_tissue_fraction", "7", r"must be in \[0, 1\], got 7.0"),
    ("classifier.learning_rate", "-0.8", r"must be in \[0, inf\), got -0.8"),
    ("classifier.finetune_lr_scale", "-1", r"must be in \[0, inf\), got -1.0"),
], ids=["tile_px-0", "tile_px-negative", "T-0", "batch_size-0", "epochs-negative",
        "finetune_epochs-negative", "keep_prob-0", "keep_prob-above-1", "workers-0",
        "theta-above-1", "theta-negative", "l_max-negative", "s_min-above-1",
        "min_tissue_fraction-above-1", "learning_rate-negative",
        "finetune_lr_scale-negative"])
def test_value_out_of_range_rejected_at_path_line(tmp_path, key, value, message):
    path = tmp_path / "c.cfg"
    path.write_text(f"seed=1\n{key}={value}\n")
    with pytest.raises(ConfigError, match=f"^{path}:2: bad value for '{key}': {message}$"):
        load_config(path)
    with pytest.raises(ConfigError, match=f"^bad value for '{key}'"):
        Config({key: value})


@pytest.mark.parametrize("key, value", [
    ("tiling.tile_px", 1), ("confidence.T", 1), ("classifier.batch_size", 1),
    ("classifier.epochs", 0), ("classifier.finetune_epochs", 0),
    ("confidence.keep_prob", 1.0), ("workers", 1), ("roi.theta", 0.0), ("roi.theta", 1.0),
    ("tiling.s_min", 0.0), ("tiling.l_max", 1.0), ("tiling.min_tissue_fraction", 1.0),
    ("classifier.learning_rate", 0.0), ("classifier.finetune_lr_scale", 0.0),
])
def test_range_bounds_accepted(key, value):
    assert Config({key: str(value)})[key] == value


def test_overrides_go_through_their_keys_parser(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed=1\nworkers=2\n")
    config = load_config(path, {"seed": 7, "workers": "3"})
    assert (config["seed"], config["workers"]) == (7, 3)
    with pytest.raises(ConfigError, match="^bad value for 'workers': must be at least 1, got 0$"):
        load_config(path, {"workers": 0})
