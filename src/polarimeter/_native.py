"""Build and load the C kernels on first use: Louvain (``_louvain.c``) and
the stance-archive tally (``_archive.c``), compiled into one library.

The library is compiled once into ``$XDG_CACHE_HOME/polarimeter/`` (default
``~/.cache/polarimeter/``), under a name keyed by the CRC-32 and Adler-32
checksums of the sources, the Python ABI and the compiler flags, and loaded
with ctypes. A build writes to a temporary name and then renames it into
place, so processes that build at the same time never load a partial file;
it then deletes the builds for the same ABI beyond the `KEPT_BUILDS` most
recent. When the library cannot be had (no ``gcc``/``cc`` on PATH, a failed
build, an unwritable cache, an unknown ``random`` state layout), one warning
is logged, every kernel is None and callers use the pure-Python paths, which
give identical results. When the library loads, the Louvain kernel runs
every graph: its draws equal ``random.shuffle``'s for any int64 node count.
Importing this module builds and loads nothing.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import random
from pathlib import Path

import numpy as np

# ctypes and the build's modules are imported on first use, not here, so
# importing the package does not pay for them

logger = logging.getLogger(__name__)

SOURCES = tuple(Path(__file__).with_name(name) for name in ("_louvain.c", "_archive.c"))
COMPILERS = ("gcc", "cc")
# no fast-math and no FMA contraction: every float operation rounds as it
# does in CPython, which keeps partitions bit-identical to the Python path
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# the most recent builds for one ABI that a new build leaves in the cache:
# two versions timed side by side, and mutants built beside them, each load
# their own library, and none may delete another's, which would recompile
# inside a timed run
KEPT_BUILDS = 4
# room for per-pass records; a run with more passes runs again with more
PASS_RECORDS = 256
# a local-move pass or a level gaining no more modularity than this ends it
MIN_GAIN = 1e-7


@functools.cache
def _kernels():
    """The two kernel functions, Louvain's and the archive tally's, from the
    one library, or (None, None) after one warning when it cannot be built
    or loaded. Cached for the life of the process."""
    import ctypes

    try:
        if random.Random(0).getstate()[0] != 3:
            raise RuntimeError("unknown random.Random state version")
        library = ctypes.CDLL(str(_library()))
    except (OSError, RuntimeError) as exc:
        logger.warning("C kernels unavailable, using pure Python: %s", exc)
        return None, None
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    library.louvain_levels.argtypes = [
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
    library.louvain_levels.restype = ctypes.c_int64
    library.archive_new.argtypes = []
    library.archive_new.restype = ctypes.c_void_p
    library.archive_free.argtypes = [ctypes.c_void_p]
    library.archive_free.restype = None
    library.archive_feed.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int64]
    library.archive_feed.restype = ctypes.c_int64
    library.archive_sizes.argtypes = [ctypes.c_void_p, i64]
    library.archive_sizes.restype = None
    library.archive_result.argtypes = [
        ctypes.c_void_p,
        np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS"),  # ids (out)
        i64,  # counts (out)
        i64,  # ends (out)
    ]
    library.archive_result.restype = None
    return (
        functools.partial(_run, library.louvain_levels),
        functools.partial(_tally_blocks, library),
    )


def louvain_kernel():
    """A function running Louvain's whole level loop in C, or None when the
    library cannot be had. Its arguments and results are those of the
    pure-Python oracle, ``community._louvain_python``."""
    return _kernels()[0]


def archive_kernel():
    """A function tallying an archive from its blocks of whole lines in C,
    or None when the library cannot be had. It returns what ``stance._tally``
    returns for the archive's rows, or None at the first line that is not a
    plain record (see ``_archive.c``)."""
    return _kernels()[1]


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


def _tally_blocks(library, blocks):
    """One tally of the ``blocks`` (bytes) on a loaded archive ``library``."""
    state = library.archive_new()
    if not state:
        raise MemoryError("C archive kernel ran out of memory")
    try:
        for block in blocks:
            status = library.archive_feed(state, block, len(block))
            if status < 0:
                raise MemoryError("C archive kernel ran out of memory")
            if status == 0:
                return None
        sizes = np.empty(4, dtype=np.int64)
        library.archive_sizes(state, sizes)
        n, size, nends, self_retweets = sizes.tolist()
        ids = np.empty(size, dtype=np.uint8)
        counts = np.empty((n, 3), dtype=np.int64)
        ends = np.empty(nends, dtype=np.int64)
        library.archive_result(state, ids, counts, ends)
    finally:
        library.archive_free(state)
    users = ids.tobytes().decode("ascii").split("\n")
    users.pop()  # the empty text after the last "\n"
    return users, counts, ends, self_retweets


def _library() -> Path:
    """Path of the library built from `SOURCES`, compiling it first if the
    cache lacks it."""
    import sysconfig
    import zlib  # numpy has imported it; hashlib would load OpenSSL's libcrypto

    soabi = sysconfig.get_config_var("SOABI") or "unknown"
    data = b"\0".join(
        [*(s.read_bytes() for s in SOURCES), soabi.encode(), " ".join(FLAGS).encode()]
    )
    key = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    prefix = f"_kernels-{soabi}-"
    target = cache / "polarimeter" / f"{prefix}{key}.so"
    if target.exists():
        return target
    # the build's modules, imported only when there is something to build
    import shutil
    import subprocess
    import tempfile

    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise RuntimeError(f"no C compiler ({' or '.join(COMPILERS)}) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        build = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, *map(str, SOURCES), "-lm"],
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
    # another process may prune at the same time: then this one stops
    with contextlib.suppress(OSError):
        builds = sorted(target.parent.glob(f"{prefix}{'?' * len(key)}.so"), key=os.path.getmtime)
        for old in builds[:-KEPT_BUILDS]:
            old.unlink()
    return target
