from wsitriage.classifier import KEEP_PROB, TrainConfig
from wsitriage.config import Config
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
