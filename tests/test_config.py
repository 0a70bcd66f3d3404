import pytest

from wsitriage.classifier import KEEP_PROB, TrainConfig
from wsitriage.config import Config, ConfigError
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


@pytest.mark.parametrize("targets", ["0.9,1.5", "nan", "0", "0.95,0.9"])
def test_bad_targets_rejected_by_name(targets):
    with pytest.raises(ConfigError, match="confidence.targets"):
        Config({"confidence.targets": targets})
