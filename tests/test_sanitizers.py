"""The C kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

The one library is built with the sanitizers into a temporary cache, and a
child Python process loads it with libasan preloaded. The child runs the
Louvain kernel against the Python oracle on karate and on a small block
model, reads a plain archive through the archive kernel and one that the
kernel refuses near its end, and has the Louvain kernel run out of memory:
its allocator refuses any one allocation over 2 MB, which a run on the
20x250 block model needs (its block is 3.3 MB) and no array the child
makes before it does. That run must raise the kernel's MemoryError, and a
karate ``analyze`` after it must give the report it gives without the cap.
Any memory error or undefined behaviour in a kernel aborts the child.

ASan guards only the ends of each allocation. A Louvain run carves all its
arrays from one block, so a write past one array into the next inside that
block goes unseen here; the kernel-vs-oracle parity tests in
``test_louvain_kernel.py`` are the ones to catch such an overlap.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from polarimeter import LouvainConfig, _native, analyze, load_karate
from test_archive_kernel import perfbench_archive

SRC = os.path.dirname(os.path.dirname(_native.__file__))
SANITIZE = ("-fsanitize=address,undefined", "-fno-omit-frame-pointer",
            "-fno-sanitize-recover=all")
# one line the kernel refuses (an escape) but the row loop reads as "a"
REFUSED = '{"tweet_id": "refused", "author": "\\u0061", "stance": "favor", "retweeters": ["b"]}'

CHILD = """
import sys

import numpy as np

from polarimeter import (LouvainConfig, SbmConfig, _native, analyze, build_retweet_network,
                         community, generate_sbm, io, load_karate, louvain, read_stance_records)
from polarimeter.stance import read_retweet_network

plain, refused, *flags = sys.argv[1:]
_native.FLAGS = tuple(flags)  # the key of the sanitized build in the cache
assert _native.louvain_kernel() is not None


def check_kernel(graph, seed):
    args = (graph.adjacency(), graph.total_weight, seed)
    got, k, records = _native.louvain_kernel()(*args)
    want, want_k, want_records = community._louvain_python(*args)
    assert np.array_equal(got, want) and (k, records) == (want_k, want_records)


for seed in range(5):
    check_kernel(load_karate(), seed)
small = generate_sbm(SbmConfig(4, 50, 0.2, 0.01, seed=3))[0]
for seed in range(3):
    check_kernel(small, seed)


def layout(graph):
    return graph.nodes, [a.tolist() for a in graph.edge_arrays()], graph.opinion_array().tolist()


for path, taken in ((plain, True), (refused, False)):
    tally = _native.archive_kernel()(io._blocks(path))
    assert (tally is not None) == taken, path
    want = build_retweet_network(read_stance_records(path))
    assert layout(read_retweet_network(path)) == layout(want), path

big = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=7))[0]
try:
    louvain(big, LouvainConfig(seed=1))
except MemoryError as exc:
    assert str(exc) == "C Louvain kernel ran out of memory", exc
else:
    raise AssertionError("a run over the allocation cap raised no MemoryError")
print(repr(analyze(load_karate(), LouvainConfig(seed=5), runs=20)))
"""


def sanitizer_runtime(compiler):
    """Path of the compiler's libasan, or None when it has none."""
    found = subprocess.run([compiler, "-print-file-name=libasan.so"],
                           capture_output=True, text=True).stdout.strip()
    return found if os.path.isabs(found) and os.path.exists(found) else None


def test_kernels_run_clean_under_asan_and_ubsan(monkeypatch, tmp_path):
    compiler = next(filter(None, map(shutil.which, _native.COMPILERS)), None)
    if compiler is None:
        pytest.skip("no C compiler")
    libasan = sanitizer_runtime(compiler)
    if libasan is None:
        pytest.skip(f"{compiler} has no libasan.so")
    # the report without the sanitizers or the cap, made before this process
    # could find the sanitized build, which it cannot load
    want = repr(analyze(load_karate(), LouvainConfig(seed=5), runs=20)) + "\n"
    flags = _native.FLAGS + SANITIZE
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(_native, "FLAGS", flags)
    try:
        _native._library()
    except RuntimeError as exc:
        pytest.skip(f"cannot build with -fsanitize=address: {exc}")

    plain, refused = tmp_path / "plain.jsonl", tmp_path / "refused.jsonl"
    perfbench_archive(plain)
    lines = plain.read_text().splitlines(keepends=True)
    refused.write_text("".join(lines[:-1]) + REFUSED + "\n" + lines[-1])
    (tmp_path / "bin").mkdir()
    env = dict(
        os.environ,
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0:allocator_may_return_null=1:max_allocation_size_mb=2",
        XDG_CACHE_HOME=str(cache),
        PATH=str(tmp_path / "bin"),  # no compiler: only the sanitized build can load
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    )
    # sys.executable, not a launcher script, whose own processes trip ASan
    child = subprocess.run([sys.executable, "-c", CHILD, str(plain), str(refused), *flags],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-4000:]
    assert child.stdout == want
