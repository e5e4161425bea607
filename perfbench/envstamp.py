"""The environment stamp every benchmark result carries.

Two results may be compared only when their stamps agree on everything but
the code's identity (`git_commit`, `source_sha256`), which is what a
comparison between two versions is meant to vary.
"""

import ctypes
import glob
import hashlib
import os
import platform

import numpy as np

CODE_KEYS = ("git_commit", "source_sha256")


def _blas():
    """(name, version, thread count) of the BLAS numpy was built with. The
    thread count is read from the loaded OpenBLAS; None when that fails."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        name, version = "unknown", "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, version, threads


def _git_commit(root):
    """HEAD of a git checkout at root, read from .git without running git;
    "none" when root is not a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "none"


def _source_sha256(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "seiznet", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def stamp(root, kernels_module):
    name, version, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": threads,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "use_numba": bool(getattr(kernels_module, "USE_NUMBA", False)),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }


def mismatches(a, b):
    """Environment keys on which two stamps differ (code identity excluded)."""
    keys = (set(a) | set(b)) - set(CODE_KEYS)
    return sorted(k for k in keys if a.get(k) != b.get(k))
