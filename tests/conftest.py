"""Shared fixtures: a small on-disk reference corpus and models trained on
it, built once per session, a runner of code under a named OpenBLAS kernel
and the kernels this CPU can run."""

import os
import subprocess
import sys

import pytest

import wsitriage

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


@pytest.fixture
def run_under_blas_kernel():
    """run(code, coretype): the stdout of Python code run in a fresh
    interpreter whose OpenBLAS runs the named kernel (OPENBLAS_CORETYPE;
    None: the kernel OpenBLAS picks for this CPU)."""
    def run(code, coretype):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        src = os.path.dirname(os.path.dirname(os.path.abspath(wsitriage.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.strip()
    return run


@pytest.fixture
def blas_kernels():
    """The OPENBLAS_CORETYPE values to compare: the kernel OpenBLAS picks
    (None), Prescott, and Haswell where the CPU has what it runs on."""
    kernels = [None, "Prescott"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:
        cpu = {"AVX2": True, "FMA3": True}
    if cpu.get("AVX2") and cpu.get("FMA3"):
        kernels.append("Haswell")
    return kernels
