"""One job split over forked worker processes, one per CPU (internal).

:func:`fan_out` runs ``work(w, m)`` for w = 0 .. m-1: the calling process runs
w = 0 and forked children the rest.  While they run, OpenBLAS uses one thread
in every worker, so m workers do not start 2m or more BLAS threads on m CPUs.
"""

from __future__ import annotations

from collections.abc import Callable
import contextlib
import ctypes
import functools
import mmap
import os
import pickle
import sys

import numpy as np

# A child's report, the class and text of the exception that ended it, is cut
# to this many characters so that it fits in the pipe without blocking.
_REPORT_CHARS = 1000


@functools.cache
def _blas_threads():
    """The (get, set) thread-count calls of the OpenBLAS numpy runs on, or None.

    The symbols are looked up through numpy's linear-algebra extension, whose
    dependencies include the BLAS library; builds differ in prefix and suffix.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def shared_array(count: int, what: str, dtype=np.float64) -> np.ndarray:
    """``count`` zeros of ``dtype`` in memory that forked workers write into and the
    caller reads; a MemoryError naming ``what`` if they cannot be mapped."""
    try:
        return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype)
    except (OverflowError, OSError) as exc:  # more bytes than addresses, or ENOMEM
        raise MemoryError(f"cannot map {count} {what}: {exc}") from exc


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block, where the thread count
    can be set; the count it had comes back afterwards."""
    get_threads, set_threads = _blas_threads() or (lambda: 1, lambda threads: None)
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def fan_out(work: Callable[[int, int], None], n: int, name: str) -> None:
    """Run ``work(w, m)`` for w = 0 .. m-1 over m workers, one per CPU and at most ``n``.

    The calling process runs w = 0 and forked children the others, each on one
    OpenBLAS thread, a lone worker too: a gemv's last bits follow the thread
    count.  m is 1 where ``os.fork`` is missing or the thread count cannot be
    set.  Every child is reaped, also when ``work`` fails here.  A failed child
    ends in an exception of the class that ended it, naming ``name``, e.g.
    "sample workers [1] of 2 failed: ..."; one that leaves no report (it was
    killed, say) counts as an OSError.
    """
    m = 1
    if _blas_threads() is not None and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        m = max(1, min(n, len(os.sched_getaffinity(0))))
    sys.stdout.flush()
    sys.stderr.flush()
    children, failed = {}, {}
    with one_blas_thread():  # forked children inherit the count
        try:
            for w in range(1, m):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    try:
                        work(w, m)
                        os._exit(0)
                    except BaseException as exc:
                        os.write(write_end, pickle.dumps((type(exc), str(exc)[:_REPORT_CHARS])))
                    finally:
                        os._exit(1)
                os.close(write_end)
                children[pid] = (w, read_end)
            work(0, m)
        finally:
            for pid, (w, read_end) in children.items():
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                with os.fdopen(read_end, "rb") as fh:
                    report = fh.read()
                if code != 0:
                    failed[w] = pickle.loads(report) if report else (OSError, f"exit code {code}")
    if failed:
        kind, text = next(iter(failed.values()))
        raise kind(f"{name}s {sorted(failed)} of {m} failed: {text}")
