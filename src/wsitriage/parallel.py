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

import numpy as np
import scipy


_WORKER_FN = None

# (setter, getter) of the thread count exported by each OpenBLAS build:
# upstream OpenBLAS, numpy's 64-bit-integer bundle and scipy's bundle.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


_OPENBLAS_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_",
                              "scipy_openblas_get_corename", "openblas_get_corename")
_OPENBLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                            "openblas_get_config")


def _openblas_libraries() -> list[tuple[str, ctypes.CDLL]]:
    """(path, library) for each OpenBLAS loaded in this process, found
    through /proc/self/maps; empty where that file does not exist.  Only
    libraries already mapped are opened, so this never loads a BLAS that
    numpy or scipy did not."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        if not path.startswith("/") or "openblas" not in os.path.basename(path).lower():
            continue
        try:
            libraries.append((path, ctypes.CDLL(path)))
        except OSError:
            continue
    return libraries


def openblas_thread_controls() -> list[tuple[str, object, object]]:
    """(path, set_num_threads, get_num_threads) for each OpenBLAS loaded in
    this process."""
    controls = []
    for path, lib in _openblas_libraries():
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


def _openblas_strings(symbols) -> list[str]:
    """The distinct strings that the first of symbols each loaded OpenBLAS
    exports returns, in library order."""
    strings = []
    for _, lib in _openblas_libraries():
        for name in symbols:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                value = getter()
                if value:
                    strings.append(value.decode("ascii", "replace").strip())
                break
    return list(dict.fromkeys(strings))


def blas_core() -> str:
    """The kernel (core) name of each OpenBLAS loaded in this process, such
    as "SkylakeX", or "Katmai" under OPENBLAS_CORETYPE=Prescott; distinct
    names joined by a space, "unknown" when no OpenBLAS reports one."""
    return " ".join(_openblas_strings(_OPENBLAS_CORENAME_SYMBOLS)) or "unknown"


def blas_config() -> str:
    """The build string of each OpenBLAS loaded in this process, such as
    "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64";
    distinct strings joined by "; ", "unknown" when no OpenBLAS reports one."""
    return "; ".join(_openblas_strings(_OPENBLAS_CONFIG_SYMBOLS)) or "unknown"


def host_facts() -> list[tuple[str, object]]:
    """(key, value) facts about this host that can move a run's bits or
    its speed: the OpenBLAS kernel (blas_core) and build (blas_config),
    which training's products still run on, the CPUs this process may
    run on, the NumPy and SciPy versions, and the SIMD targets NumPy
    dispatches to on this CPU ("unknown" where NumPy does not say)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        dispatch = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    except ImportError:
        dispatch = "unknown"
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return [("blas_core", blas_core()), ("blas_config", blas_config()),
            ("cpus_usable", cpus), ("numpy", np.__version__), ("scipy", scipy.__version__),
            ("numpy_dispatch", dispatch)]


def _init_worker(fn):
    global _WORKER_FN
    _WORKER_FN = fn
    for _, set_num_threads, _ in openblas_thread_controls():
        set_num_threads(1)


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
