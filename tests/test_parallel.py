import functools
import os

import numpy  # noqa: F401  (maps numpy's OpenBLAS into the process)
import pytest

from wsitriage.parallel import blas_core, openblas_thread_controls, pmap


def blas_threads(_item=None):
    """Thread count of each loaded OpenBLAS, as the calling process sees it."""
    return {path: get() for path, _, get in openblas_thread_controls()}


@pytest.mark.skipif(not blas_threads(),
                    reason="no OpenBLAS with a thread setter is loaded")
class TestBlasThreads:
    def test_workers_run_blas_single_threaded(self):
        before = blas_threads()
        seen = pmap(blas_threads, range(4), workers=2)
        assert seen == [{path: 1 for path in before}] * 4
        assert blas_threads() == before

    def test_serial_path_keeps_caller_threads(self):
        before = blas_threads()
        assert pmap(blas_threads, range(4), workers=1) == [before] * 4
        assert blas_threads() == before

    def test_blas_core_named(self):
        assert blas_core() != "unknown"


PARENT_CALLS = []


def fail_third_in_workers(item, parent_pid):
    if os.getpid() == parent_pid:
        PARENT_CALLS.append(item)
    elif item == 3:
        raise FileNotFoundError(f"item {item}")
    return item


class TestErrors:
    def test_worker_error_propagates_without_rerun(self):
        PARENT_CALLS.clear()
        fn = functools.partial(fail_third_in_workers, parent_pid=os.getpid())
        with pytest.raises(FileNotFoundError, match="item 3"):
            pmap(fn, range(6), workers=2)
        assert PARENT_CALLS == []
