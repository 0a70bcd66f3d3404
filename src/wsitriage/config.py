"""Flat key=value configuration with documented defaults.

Every key a config file may set is declared here; its default is the one
declared by the module that consumes it.  Unknown keys are rejected by
name, and a config file's errors at path:line.  Section dots group keys
by that module (tiling.*, roi.*, confidence.*, classifier.*).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields

from .classifier import TrainConfig
from .confidence import DEFAULT_T, DEFAULT_TARGETS, check_targets
from .roi import THETA_ROI
from .tables import TableError, at_least, interval, read_text
from .tiling import TilingConfig

_TILING = TilingConfig()
_TRAIN = TrainConfig()


class ConfigError(ValueError):
    """Raised for unknown or repeated keys, or unparseable or out-of-range
    values."""


def _parse_targets(text: str) -> tuple:
    return check_targets(v for v in str(text).split(",") if v != "")


_UNIT = interval(0, 1)
_NON_NEGATIVE = interval(0, math.inf)


# key -> (parser, default, help)
CONFIG_KEYS = {
    "seed": (int, 0, "global seed for corpus generation and inference"),
    "workers": (at_least(1), 1, "worker processes for corpus generation and runs"),
    "paths.workdir": (str, "triage-work", "default base directory for outputs"),
    "tiling.s_min": (_UNIT, _TILING.s_min, "tissue saturation floor"),
    "tiling.l_max": (_UNIT, _TILING.l_max, "tissue luminance ceiling"),
    "tiling.min_tissue_fraction": (_UNIT, _TILING.min_tissue_fraction,
                                   "minimum tissue fraction to keep a tile"),
    "tiling.tile_px": (at_least(1), _TILING.tile_px, "tile edge length in pixels"),
    "roi.theta": (_UNIT, THETA_ROI, "positive fraction needed to select a tile"),
    "confidence.T": (at_least(1), DEFAULT_T, "prediction repetitions per slide"),
    "confidence.keep_prob": (interval(0, 1, open_low=True), _TRAIN.keep_prob,
                             "hidden-unit keep probability"),
    "confidence.targets": (_parse_targets, DEFAULT_TARGETS,
                           "accuracy targets for confidence levels"),
    "classifier.epochs": (at_least(0), _TRAIN.epochs, "training epochs"),
    "classifier.learning_rate": (_NON_NEGATIVE, _TRAIN.learning_rate,
                                 "training learning rate"),
    "classifier.batch_size": (at_least(1), _TRAIN.batch_size, "training minibatch size"),
    "classifier.seed": (int, _TRAIN.seed, "training seed"),
    "classifier.finetune_lr_scale": (_NON_NEGATIVE, _TRAIN.finetune_lr_scale,
                                     "fine-tuning learning-rate factor"),
    "classifier.finetune_epochs": (at_least(0), _TRAIN.finetune_epochs, "fine-tuning epochs"),
}


def _parse(key: str, value):
    """The value of a declared key, parsed by the key's parser."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return CONFIG_KEYS[key][0](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


@dataclass
class Config:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
        for key, value in self.values.items():
            merged[key] = _parse(key, value)
        self.values = merged

    def __getitem__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None

    @property
    def tiling(self) -> TilingConfig:
        return TilingConfig(**{f.name: self[f"tiling.{f.name}"] for f in fields(TilingConfig)})

    @property
    def train(self) -> TrainConfig:
        """classifier.<field> for each field, but confidence.keep_prob."""
        return TrainConfig(**{f.name: self[f"confidence.{f.name}" if f.name == "keep_prob"
                                           else f"classifier.{f.name}"]
                              for f in fields(TrainConfig)})

    def snapshot(self):
        """(config.<key>, value text) for every key, in key order."""
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            yield f"config.{key}", str(value)


def load_config(path, overrides=None) -> Config:
    """The config a key=value UTF-8 file sets, with overrides (key -> value,
    each through its key's parser) applied over it; a byte that is not
    UTF-8, a malformed line, an unknown or repeated key and a bad value (a
    number that is NaN or infinite among them) are rejected at path:line."""
    try:
        text = read_text(path)
    except TableError as exc:   # a byte that is not UTF-8
        raise ConfigError(str(exc)) from None
    values = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        try:
            _parse(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        values[key] = value
    return Config({**values, **(overrides or {})})
