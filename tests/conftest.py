"""Shared fixtures: a small on-disk reference corpus and models trained on
it, built once per session."""

import os

import pytest

from wsitriage.config import Config
from wsitriage.manifest import build_splits
from wsitriage.synthesis import default_lab_profiles, generate_corpus
from wsitriage.training import train_models

N_WORKERS = max(1, min(2, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """16-specimen single-lab reference corpus with dev splits."""
    out = tmp_path_factory.mktemp("small-corpus")
    manifest = generate_corpus(16, [default_lab_profiles()[0]],
                               slides_per_specimen_range=(1, 2), seed=11,
                               out_dir=str(out), workers=N_WORKERS)
    return build_splits(manifest, (0.7, 0.15, 0.15), seed=5)


@pytest.fixture(scope="session")
def small_models(small_corpus):
    """The run-ready reference model set trained on the small corpus."""
    return train_models(small_corpus, Config(), workers=N_WORKERS)

