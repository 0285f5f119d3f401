"""Build and load the C Louvain kernel (``_louvain.c``) on first use.

The shared library is compiled once into ``$XDG_CACHE_HOME/polarimeter/``
(default ``~/.cache/polarimeter/``), under a name keyed by the source hash,
the Python ABI and the compiler flags, and loaded with ctypes. A build
writes to a temporary name and then renames it into place, so processes
that build at the same time never load a partial file. When the kernel
cannot be had (no ``gcc``/``cc`` on PATH, a failed build, an unwritable
cache, an unknown ``random`` state layout), one warning is logged and
callers use the pure-Python path, which gives identical results.
"""

from __future__ import annotations

import functools
import logging
import os
import random
from pathlib import Path

import numpy as np

# ctypes and the build's modules are imported on first use, not here, so
# importing the package does not pay for them

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_louvain.c")
COMPILERS = ("gcc", "cc")
# no fast-math and no FMA contraction: every float operation rounds as it
# does in CPython, which keeps partitions bit-identical to the Python path
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# the kernel draws random.shuffle's numbers from single 32-bit MT19937
# outputs, which covers graphs of fewer nodes than this
NODE_LIMIT = 2**31
# room for per-pass records; a run with more passes runs again with more
PASS_RECORDS = 256
# a local-move pass or a level gaining no more modularity than this ends it
MIN_GAIN = 1e-7


@functools.cache
def louvain_kernel():
    """A function running Louvain's whole level loop in C, or None after one
    warning when the kernel cannot be built or loaded. Cached for the life
    of the process. The function's arguments and results are those of the
    pure-Python oracle, ``community._louvain_python``.
    """
    import ctypes

    try:
        if random.Random(0).getstate()[0] != 3:
            raise RuntimeError("unknown random.Random state version")
        function = ctypes.CDLL(str(_library())).louvain_levels
    except (OSError, RuntimeError) as exc:
        logger.warning("C Louvain kernel unavailable, using pure Python: %s", exc)
        return None
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    function.argtypes = [
        ctypes.c_int64,  # n
        i64,  # indptr
        i64,  # indices
        f64,  # weights
        ctypes.c_double,  # m
        ctypes.c_double,  # min_gain
        np.ctypeslib.ndpointer(np.uint32, shape=(624,), flags="C_CONTIGUOUS"),
        ctypes.c_int64,  # MT19937 index
        i64,  # assignment (out)
        ctypes.c_int64,  # record capacity
        np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),  # levels (out)
        f64,  # modularity per pass (out)
        i64,  # pass count (out, one entry)
    ]
    function.restype = ctypes.c_int64
    return functools.partial(_run, function)


def _run(function, adjacency, m, seed):
    """One kernel call on a ctypes ``function`` with declared argtypes."""
    n = len(adjacency[0]) - 1
    _, state, _ = random.Random(seed).getstate()
    mt = np.array(state[:-1], dtype=np.uint32)
    assignment = np.empty(n, dtype=np.int64)
    passes = np.zeros(1, dtype=np.int64)
    capacity = PASS_RECORDS
    while True:
        levels = np.empty(capacity, dtype=np.int32)
        qs = np.empty(capacity, dtype=np.float64)
        k = function(
            n,
            *adjacency,
            m,
            MIN_GAIN,
            mt,
            state[-1],
            assignment,
            capacity,
            levels,
            qs,
            passes,
        )
        if k < 0:
            raise MemoryError("C Louvain kernel ran out of memory")
        count = int(passes[0])
        if count <= capacity:
            break
        capacity = count  # the same seed repeats the same passes
    return assignment, k, list(zip(levels[:count].tolist(), qs[:count].tolist()))


def _library() -> Path:
    """Path of the built library, compiling it first if the cache lacks it."""
    import hashlib
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    soabi = sysconfig.get_config_var("SOABI") or "unknown"
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), soabi.encode(), " ".join(FLAGS).encode()])
    ).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    target = cache / "polarimeter" / f"_louvain-{soabi}-{key}.so"
    if target.exists():
        return target
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise RuntimeError(f"no C compiler ({' or '.join(COMPILERS)}) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        build = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if build.returncode != 0:
            raise RuntimeError(
                f"{compiler} exited {build.returncode}: {build.stderr.strip()[-500:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target
