from pathlib import Path

import pytest

from wsitriage.classifier import KEEP_PROB, TrainConfig
from wsitriage.config import CONFIG_KEYS, Config, ConfigError
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
