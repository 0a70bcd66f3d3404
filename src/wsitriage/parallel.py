"""Deterministic ordered parallel map over a worker pool.

Work is distributed across processes (fork) but results are returned in
input order, so any function whose per-item output is a pure function of
the item produces identical results at every worker count.  It runs in
process when workers == 1 or there is at most one item.  An error raised
by fn in a worker, or a pool that cannot start, propagates to the caller;
no item is ever run a second time.

Each worker process runs BLAS single-threaded: a forked worker inherits the
parent's multi-threaded OpenBLAS, and N workers each running one BLAS
thread per CPU would start N times more busy threads than there are CPUs.
The in-process path leaves the caller's BLAS threading as it is.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os


_WORKER_FN = None

# (setter, getter) of the thread count exported by each OpenBLAS build:
# upstream OpenBLAS, numpy's 64-bit-integer bundle and scipy's bundle.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def openblas_thread_controls() -> list[tuple[str, object, object]]:
    """(path, set_num_threads, get_num_threads) for each OpenBLAS loaded in
    this process, found through /proc/self/maps; empty where that file does
    not exist.  Only libraries already mapped are opened, so this never
    loads a BLAS that numpy or scipy did not."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        if not path.startswith("/") or "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((path, setter, getter))
            break
    return controls


def _init_worker(fn):
    global _WORKER_FN
    _WORKER_FN = fn
    for _, set_num_threads, _ in openblas_thread_controls():
        set_num_threads(1)


def _call_worker(item):
    return _WORKER_FN(item)


def pmap(fn, items, workers: int = 1):
    """Map fn over items, preserving order; fn and items must be picklable
    when workers > 1."""
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
