import os

import numpy as np
import pytest

from hsmc import NumericalValidationError, fanout
from hsmc.fanout import dsterf, fan_out, one_blas_thread, qr, shared_array

needs_threads = pytest.mark.skipif(fanout._blas_threads() is None,
                                   reason="fan_out runs one worker without BLAS thread control")
needs_qr = pytest.mark.skipif(None in map(fanout._lapack, ("zgeqrf", "zungqr", "dsterf")),
                              reason="numpy's BLAS exports no zgeqrf, zungqr or dsterf")


@needs_threads
@pytest.mark.parametrize("cpus, n, m", [(1, 5, 1), (3, 5, 3), (3, 2, 2), (3, 0, 1)])
def test_every_worker_runs_once_and_knows_the_count(monkeypatch, cpus, n, m):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = shared_array(4, "counts", np.int64)

    def work(w, count):
        calls[w] += 1
        calls[3] = count

    fan_out(work, n, "worker")
    assert calls.tolist() == [1] * m + [0] * (3 - m) + [m]


@needs_threads
@pytest.mark.parametrize("kind", [NumericalValidationError, MemoryError, IsADirectoryError])
def test_a_failed_child_keeps_the_class_of_its_exception(monkeypatch, kind):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def work(w, m):
        if w == 2:
            raise kind("boom")

    with pytest.raises(kind, match=r"^workers \[2\] of 3 failed: boom$"):
        fan_out(work, 3, "worker")


@needs_threads
def test_a_child_that_leaves_no_report_is_an_oserror(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def work(w, m):
        if w == 1:
            os._exit(7)

    with pytest.raises(OSError, match=r"workers \[1\] of 2 failed: exit code 7"):
        fan_out(work, 2, "worker")


@needs_threads
def test_a_shared_array_starts_zeroed_and_shows_what_forked_workers_write(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    shared = shared_array(6, "values", np.int64)
    assert shared.dtype == np.int64 and shared.tolist() == [0] * 6

    def work(w, m):
        shared[2 * w:2 * w + 2] = w + 1

    fan_out(work, 3, "worker")
    assert shared.tolist() == [1, 1, 2, 2, 3, 3]


def test_an_empty_shared_array_maps_nothing():
    # an anonymous mmap of 0 bytes is refused, so this was a MemoryError
    empty = shared_array(0, "values", np.int64)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_one_blas_thread_sets_the_count_only_where_it_is_not_1(monkeypatch):
    counts = [2]
    monkeypatch.setattr(fanout, "_blas_threads", lambda: (lambda: counts[-1], counts.append))
    with one_blas_thread():
        assert counts == [2, 1]
        with one_blas_thread():  # nested, as gas_purity_entropy inside evolve
            pass
        assert counts == [2, 1]
    assert counts == [2, 1, 2]


def test_every_symbol_resolves_where_numpy_runs_on_scipy_openblas():
    # a silent fallback to numpy's allocating qr and eigvalsh would keep every other
    # test green; where numpy's LAPACK is scipy-openblas none may happen
    lapack = np.show_config(mode="dicts")["Build Dependencies"].get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack.get('name')!r}, not scipy-openblas")
    assert fanout._blas_threads() is not None
    for name in fanout._ARGUMENTS:
        assert fanout._lapack(name) is not None, name


@needs_qr
def test_the_in_place_calls_refuse_what_lapack_cannot_take():
    with pytest.raises(ValueError, match="n complex"):
        qr(np.eye(3, dtype=complex), np.empty(2, complex))
    with pytest.raises(ValueError, match="n - 1"):
        dsterf(np.empty(3), np.empty(3))
    with pytest.raises(ValueError, match="writable C-ordered"):
        qr(np.eye(3, dtype=complex)[:, ::-1], np.empty(3, complex))
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        dsterf(np.full(3, np.nan), np.full(2, np.nan))


@needs_qr
def test_an_illegal_argument_is_named_as_lapack_numbers_it():
    # LAPACK's INFO = -i names the i-th argument of _ARGUMENTS, here zgeqrf's M = -1
    with pytest.raises(ValueError, match=r"^zgeqrf: argument 1 \(M\) had an illegal value$"):
        fanout._call("zgeqrf", -1, 3, np.eye(3, dtype=complex), 3, np.empty(3, complex))
