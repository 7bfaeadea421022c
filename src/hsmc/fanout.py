"""One job split over forked worker processes, one per CPU (internal).

:func:`fan_out` runs ``work(w, m)`` for w = 0 .. m-1: the calling process runs
w = 0 and forked children the rest.  While they run, OpenBLAS uses one thread
in every worker, so m workers do not start 2m or more BLAS threads on m CPUs.

:func:`qr` and :func:`dsterf` call LAPACK from the library that holds that thread
count, through ctypes, so that a worker can factor a matrix in the array where its
result is to stay: numpy's ``qr`` has no ``out`` and copies its input and result.
Symbols are looked up lazily, on first use, not at import.
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
def _library():
    """numpy's linear-algebra extension, whose dependencies include its BLAS and
    LAPACK, as a ctypes library; None where it cannot be loaded."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


def _symbol(name: str):
    """(function, whether its integers are 64-bit) for ``name`` in numpy's BLAS, or
    None.  Builds differ in prefix (``scipy_`` or none) and suffix (``64_`` or none)."""
    lib = _library()
    if lib is None:
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            function = getattr(lib, f"{prefix}{name}{suffix}", None)
            if function is not None:
                return function, suffix == "64_"
    return None


@functools.cache
def _blas_threads():
    """The (get, set) thread-count calls of the OpenBLAS numpy runs on, or None."""
    found = [_symbol(f"openblas_{verb}_num_threads") for verb in ("get", "set")]
    if None in found:
        return None
    (get, _), (put, _) = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_ARGUMENTS = {  # the Fortran arguments of the LAPACK routines bound here, in order
    "zgeqrf": "M N A LDA TAU WORK LWORK INFO".split(),
    "zungqr": "M N K A LDA TAU WORK LWORK INFO".split(),
    "dsterf": "N D E INFO".split(),
}


@functools.cache
def _lapack(name: str):
    """(LAPACK's ``name`` from numpy's BLAS, its Fortran integer type), or None."""
    if (found := _symbol(f"{name}_")) is None:
        return None
    arguments, (function, wide) = _ARGUMENTS[name], found
    function.argtypes, function.restype = [ctypes.c_void_p] * len(arguments), None
    return function, ctypes.c_int64 if wide else ctypes.c_int32


def _call(name: str, *arguments) -> bool:
    """LAPACK's ``name`` on ``arguments`` (ints, writable C-ordered arrays), then, where
    it takes WORK, a complex workspace sized by a query first, and INFO; False where it
    is missing.  INFO > 0 raises LinAlgError, < 0 ValueError."""
    if (found := _lapack(name)) is None:
        return False
    function, integer = found
    if not all(a.flags.c_contiguous and a.flags.writeable
               for a in arguments if isinstance(a, np.ndarray)):
        raise ValueError(f"{name} needs writable C-ordered arrays")
    head = [a.ctypes.data if isinstance(a, np.ndarray) else ctypes.byref(integer(a))
            for a in arguments]
    work = np.empty(1, complex) if "WORK" in _ARGUMENTS[name] else None
    info = integer(0)
    for query in (True, False)[work is None:]:  # a size query first where it takes WORK
        space = () if work is None else (work.ctypes.data,
                                         ctypes.byref(integer(-1 if query else len(work))))
        function(*head, *space, ctypes.byref(info))
        if info.value > 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if info.value < 0:
            raise ValueError(f"{name}: argument {-info.value} "
                             f"({_ARGUMENTS[name][-info.value - 1]}) had an illegal value")
        if query:
            work = np.empty(int(work[0].real), complex)
    return True


def qr(a: np.ndarray, r: np.ndarray) -> bool:
    """A = QR in place by zgeqrf then zungqr, called as ``np.linalg.qr`` calls them, for the
    (n, n) complex A that the C-ordered ``a`` holds read column-major: ``a`` ends as Q^T
    and R's diagonal goes into the n complex ``r`` in between.  False, with nothing done,
    where numpy's BLAS lacks either.  Call it only on one OpenBLAS thread (inside
    :func:`fan_out`): the last bits follow the count."""
    if not (a.shape == (n := len(a), n) and a.dtype == r.dtype == complex and r.shape == (n,)):
        raise ValueError("qr needs a writable C-ordered (n, n) complex array and n complex")
    if _lapack("zungqr") is None or not _call("zgeqrf", n, n, a, max(n, 1),
                                              tau := np.empty(n, complex)):
        return False
    r[:] = a.diagonal()
    return _call("zungqr", n, n, n, a, max(n, 1), tau)


def dsterf(d: np.ndarray, e: np.ndarray) -> bool:
    """The eigenvalues of the real symmetric tridiagonal matrix with diagonal ``d`` (n
    floats) and off-diagonal ``e`` (n - 1) into ``d``, ascending, by dsterf, as
    ``np.linalg.eigvalsh`` of that matrix ends; False where numpy's BLAS has none."""
    if not (d.dtype == e.dtype == np.float64 and d.ndim == 1 and e.shape == (max(len(d) - 1, 0),)):
        raise ValueError("dsterf needs n and n - 1 writable C-ordered floats")
    return _call("dsterf", len(d), d, e)


def shared_array(count: int, what: str, dtype=np.float64) -> np.ndarray:
    """``count`` zeros of ``dtype`` in memory that forked workers write into and the
    caller reads; a MemoryError naming ``what`` if they cannot be mapped."""
    try:  # at least 1 byte: an anonymous mmap of 0 bytes is refused
        return np.frombuffer(mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize)), dtype, count)
    except (OverflowError, OSError) as exc:  # more bytes than addresses, or ENOMEM
        raise MemoryError(f"cannot map {count} {what}: {exc}") from exc


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block, where the thread count
    can be set; the count it had comes back afterwards."""
    get_threads, set_threads = _blas_threads() or (lambda: 1, lambda threads: None)
    threads = get_threads()
    if threads != 1:  # nested, or in a worker, the count is left as it is
        set_threads(1)
    try:
        yield
    finally:
        if threads != 1:
            set_threads(threads)


def workers(n: int) -> int:
    """The m of :func:`fan_out` for at most ``n``: one per CPU, at least 1, and 1 where
    ``os.fork`` is missing or the OpenBLAS thread count cannot be set."""
    if _blas_threads() is not None and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return max(1, min(n, len(os.sched_getaffinity(0))))
    return 1


def fan_out(work: Callable[[int, int], None], n: int, name: str) -> None:
    """Run ``work(w, m)`` for w = 0 .. m-1 over m workers, one per CPU and at most ``n``.

    The calling process runs w = 0 and forked children the others, each on one
    OpenBLAS thread, a lone worker too: a gemv's last bits follow the thread
    count.  m is ``workers(n)``.  Every child is reaped, also when ``work``
    fails here.  A failed child ends in an exception of the class that ended it,
    naming ``name``, e.g. "sample workers [1] of 2 failed: ..."; one that leaves
    no report (it was killed, say) counts as an OSError.
    """
    m = workers(n)
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
