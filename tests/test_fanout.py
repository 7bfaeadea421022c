import mmap
import os

import numpy as np
import pytest

from hsmc import NumericalValidationError
from hsmc.fanout import fan_out


@pytest.mark.parametrize("cpus, n, m", [(1, 5, 1), (3, 5, 3), (3, 2, 2), (3, 0, 1)])
def test_every_worker_runs_once_and_knows_the_count(monkeypatch, cpus, n, m):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = np.frombuffer(mmap.mmap(-1, 8 * 4), dtype=np.int64)

    def work(w, count):
        calls[w] += 1
        calls[3] = count

    fan_out(work, n, "worker", needs_blas=False)
    assert calls.tolist() == [1] * m + [0] * (3 - m) + [m]


@pytest.mark.parametrize("kind", [NumericalValidationError, MemoryError, IsADirectoryError])
def test_a_failed_child_keeps_the_class_of_its_exception(monkeypatch, kind):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def work(w, m):
        if w == 2:
            raise kind("boom")

    with pytest.raises(kind, match=r"^workers \[2\] of 3 failed: boom$"):
        fan_out(work, 3, "worker", needs_blas=False)


def test_a_child_that_leaves_no_report_is_an_oserror(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def work(w, m):
        if w == 1:
            os._exit(7)

    with pytest.raises(OSError, match=r"workers \[1\] of 2 failed: exit code 7"):
        fan_out(work, 2, "worker", needs_blas=False)
