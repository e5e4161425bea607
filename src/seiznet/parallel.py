"""Work split across two processes, and OpenBLAS's thread count.

`forked` is the one fork helper: the split CSV parse
(`dataset._parse_split`), the split scoring pass (`model.predict_probs`)
and two-process training (`optim.train`) all run their second half in a
child it forks, and talk to the child through a pipe each way.

`halved` is the one thread policy of the BLAS-bound splits, scoring and
training: their two processes, or the one left when no child is forked or
it fails, run at half of OpenBLAS's threads, as the count moves a GEMM's
bits on some kernels. `openblas_threads` reads and sets it through ctypes.
"""

import contextlib
import ctypes
import functools
import glob
import os
import signal
import threading

import numpy as np

# OpenBLAS's thread-count functions, "{}" being get or set: the scipy-openblas
# wheels of NumPy 2, the ILP64 build of NumPy 1, and a plain build
THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                  "openblas_{}_num_threads")


def can_fork() -> bool:
    """Whether os.fork exists and no other thread runs, which a forked
    child could find holding a lock."""
    return hasattr(os, "fork") and threading.active_count() == 1


@contextlib.contextmanager
def halved():
    """Yield True with OpenBLAS at half its threads for the block, when it
    reports at least 2, restoring the count on a return or a raise; else
    change nothing and yield False. Whether a child can be forked is
    `forked`'s to say."""
    blas = openblas_threads()
    threads = 0 if blas is None else blas[0]()
    if threads < 2:
        yield False
        return
    blas[1](threads // 2)
    try:
        yield True
    finally:
        blas[1](threads)


@contextlib.contextmanager
def forked(child):
    """Fork a child that calls child(inp, out), `inp` a binary stream that
    reads what this process writes and `out` one into a pipe this process
    reads, and yield this process's ends, (read stream, write stream);
    yield None when no process can be forked: `can_fork` is false, or
    os.fork fails. However child(inp, out) ends, the child leaves through
    os._exit(0), with no stdio flush and no atexit, and never returns into
    the caller; a child that raised or died shows as a read stream that
    ends short, and a write to it raises BrokenPipeError. The child is
    killed and reaped when the block ends, on a return or a raise, before
    the streams are closed."""
    if not can_fork():
        yield None
        return
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_r, up_w, down_r, down_w):
            os.close(fd)
        yield None
        return
    if pid == 0:
        try:
            os.close(up_r)
            os.close(down_w)
            with open(down_r, "rb") as inp, open(up_w, "wb") as out:
                child(inp, out)
        finally:
            os._exit(0)
    os.close(up_w)
    os.close(down_r)
    inp, out = open(up_r, "rb"), open(down_w, "wb")
    try:
        yield inp, out
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        inp.close()
        out.close()


@functools.cache
def openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count: get() returns it
    and set(n) sets it, for this process. None when numpy's bundled
    OpenBLAS cannot be found or lacks either function."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in THREAD_SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            set_ = getattr(lib, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None
