"""Flat key=value configuration with documented defaults.

Every key a config file may set is declared here; its default is the one
declared by the module that consumes it.  Unknown keys are rejected by
name, and a config file's errors at path:line.  Section dots group keys
by that module (tiling.*, roi.*, confidence.*, classifier.*).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .classifier import TrainConfig
from .confidence import DEFAULT_T, DEFAULT_TARGETS, _target
from .roi import THETA_ROI
from .tables import TableError, finite, read_text
from .tiling import TilingConfig

_TILING = TilingConfig()
_TRAIN = TrainConfig()


class ConfigError(ValueError):
    """Raised for unknown or repeated keys, or unparseable or out-of-range
    values."""


def _parse_targets(text: str) -> tuple:
    targets = tuple(_target(v) for v in str(text).split(",") if v != "")
    if list(targets) != sorted(targets):
        raise ValueError(f"targets must be non-decreasing, got {text}")
    return targets


def _at_least(low: int):
    """Parser of an integer key whose values start at low."""
    def parse(text) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return parse


def _probability(text) -> float:
    """A number in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:   # NaN too
        raise ValueError(f"must be in (0, 1], got {value}")
    return value


# key -> (parser, default, help)
CONFIG_KEYS = {
    "seed": (int, 0, "global seed for corpus generation and inference"),
    "workers": (_at_least(1), 1, "worker processes for corpus generation and runs"),
    "paths.workdir": (str, "triage-work", "default base directory for outputs"),
    "tiling.s_min": (finite, _TILING.s_min, "tissue saturation floor"),
    "tiling.l_max": (finite, _TILING.l_max, "tissue luminance ceiling"),
    "tiling.min_tissue_fraction": (finite, _TILING.min_tissue_fraction,
                                   "minimum tissue fraction to keep a tile"),
    "tiling.tile_px": (_at_least(1), _TILING.tile_px, "tile edge length in pixels"),
    "roi.theta": (finite, THETA_ROI, "positive fraction needed to select a tile"),
    "confidence.T": (_at_least(1), DEFAULT_T, "prediction repetitions per slide"),
    "confidence.keep_prob": (_probability, _TRAIN.keep_prob, "hidden-unit keep probability"),
    "confidence.targets": (_parse_targets, DEFAULT_TARGETS,
                           "accuracy targets for confidence levels"),
    "classifier.epochs": (_at_least(0), _TRAIN.epochs, "training epochs"),
    "classifier.learning_rate": (finite, _TRAIN.learning_rate, "training learning rate"),
    "classifier.batch_size": (_at_least(1), _TRAIN.batch_size, "training minibatch size"),
    "classifier.seed": (int, _TRAIN.seed, "training seed"),
    "classifier.finetune_lr_scale": (finite, _TRAIN.finetune_lr_scale,
                                     "fine-tuning learning-rate factor"),
    "classifier.finetune_epochs": (_at_least(0), _TRAIN.finetune_epochs, "fine-tuning epochs"),
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
        return TilingConfig(
            s_min=self["tiling.s_min"],
            l_max=self["tiling.l_max"],
            min_tissue_fraction=self["tiling.min_tissue_fraction"],
            tile_px=self["tiling.tile_px"],
        )

    @property
    def train(self) -> TrainConfig:
        return TrainConfig(
            epochs=self["classifier.epochs"],
            learning_rate=self["classifier.learning_rate"],
            batch_size=self["classifier.batch_size"],
            seed=self["classifier.seed"],
            keep_prob=self["confidence.keep_prob"],
            finetune_lr_scale=self["classifier.finetune_lr_scale"],
            finetune_epochs=self["classifier.finetune_epochs"],
        )

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
