"""Deterministic ordered parallel map over a worker pool.

Work is distributed across processes (fork) but results are returned in
input order, so any function whose per-item output is a pure function of
the item produces identical results at every worker count.  It runs in
process when workers == 1 or there is at most one item.  An error raised
by fn in a worker, or a pool that cannot start, propagates to the caller;
no item is ever run a second time.

The package calls no BLAS routine (every sum runs in a fixed order, see
tiling.ordered_sum), so a forked worker needs no BLAS thread setting.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import scipy


_WORKER_FN = None


def host_facts() -> list[tuple[str, object]]:
    """(key, value) facts about this host that can move a run's speed or,
    through NumPy's SIMD paths for log10, tanh and exp, its bits: the CPUs
    this process may run on, the NumPy and SciPy versions, and the SIMD
    targets NumPy dispatches to on this CPU ("unknown" where NumPy does
    not say)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        dispatch = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    except ImportError:
        dispatch = "unknown"
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return [("cpus_usable", cpus), ("numpy", np.__version__), ("scipy", scipy.__version__),
            ("numpy_dispatch", dispatch)]


def _init_worker(fn):
    global _WORKER_FN
    _WORKER_FN = fn


def _call_worker(item):
    return _WORKER_FN(item)


def pmap(fn, items, workers: int = 1):
    """Map fn over items, preserving order.  When workers > 1 the items and
    results are pickled; fn is not, as the forked workers inherit it with
    whatever it holds."""
    items = list(items)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_init_worker, initargs=(fn,)) as pool:
        # one item per task: items are whole slides, so dispatch costs
        # little and no worker is left holding a long last chunk
        return pool.map(_call_worker, items, chunksize=1)
