import functools
import os

import pytest

from wsitriage.parallel import pmap


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
