"""Work split across two processes, and OpenBLAS's thread count.

`forked` is the one fork helper: the split CSV parse
(`dataset._parse_split`) and the split scoring pass
(`model.predict_probs`) both run their second half in a child it forks,
and read the child's result through a pipe. `openblas_threads` reads and
sets the thread count of the OpenBLAS numpy loaded, through ctypes, with
the library lookup and symbol list of `perfbench/envstamp.py`.
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
def forked(child):
    """Fork a child that calls child(out), `out` a binary stream into a
    pipe, and yield the pipe's read end as a binary stream; yield None when
    no process can be forked. However child(out) ends, the child leaves
    through os._exit(0), with no stdio flush and no atexit, and never
    returns into the caller; a child that raised or died shows as a stream
    that ends short. The child is killed and reaped when the block ends,
    on a return or a raise."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        yield None
        return
    if pid == 0:
        try:
            os.close(rfd)
            with open(wfd, "wb") as out:
                child(out)
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            yield pipe
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


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
