"""The C Louvain kernel: it builds and loads here, it matches the pure-Python
oracle bit for bit (partitions and every pass record) under the same call,
its random draws equal CPython's for any int64 bound, two threads can run it
at once, and when it cannot be had, one warning is logged and Python gives
the same results, with the runs kept serial. The stance-archive kernel is
built into the same library: a warm cache loads it without building, when
the library cannot be had build-network warns once and writes the same
files, and a build deletes the older builds beyond the few most recent.
The library's sources are every C file of the package, and they compile
with every common warning made an error."""

from __future__ import annotations

import logging
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    SbmConfig,
    analyze,
    generate_sbm,
    load_karate,
    louvain,
)
from polarimeter import _native, build_retweet_network, community, read_stance_records
from polarimeter.cli import main
from oracles import random_graph_spec
from test_archive_kernel import perfbench_fixtures
from test_golden import write_archive
from test_metric import RecordingPool

# the child processes import the same package as this process, installed or not
SRC = os.path.dirname(os.path.dirname(_native.__file__))


def assert_same_partitions(graph, got, want):
    """Each partition in ``got`` has the ``k`` and the community array of the
    one at its place in ``want``."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.k == b.k
        assert np.array_equal(a.array(graph), b.array(graph))


def test_kernel_builds_and_loads_here(kernel_cache):
    assert _native.louvain_kernel() is not None
    assert _native.archive_kernel() is not None
    built = sorted(p.name for p in (kernel_cache / "polarimeter").iterdir())
    soabi = sysconfig.get_config_var("SOABI")
    # the key is 16 lowercase hex digits, which the prune's glob counts
    assert len(built) == 1, built
    assert re.fullmatch(rf"_kernels-{re.escape(soabi)}-[0-9a-f]{{16}}\.so", built[0]), built


def test_kernel_sources_are_every_c_file_of_the_package():
    """So the build, the strict-warnings build and the sanitizer test cover
    every C file, and none is left unbuilt."""
    package = os.path.dirname(_native.__file__)
    assert sorted(_native.SOURCES) == sorted(Path(package).glob("*.c"))


def test_kernel_sources_compile_without_warnings(tmp_path):
    compiler = next(filter(None, map(shutil.which, _native.COMPILERS)), None)
    if compiler is None:
        pytest.skip("no C compiler")
    build = subprocess.run(
        [compiler, *_native.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), *map(str, _native.SOURCES), "-lm"],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr[-4000:]


def assert_second_process_loads_the_cache(kernel_cache, tmp_path, kernel):
    """A fresh process finds the library of ``_native.<kernel>``, built
    here, in the cache, and loads it without building anything, and without
    importing hashlib, which would load OpenSSL's libcrypto."""
    assert getattr(_native, kernel)() is not None
    cached = sorted((kernel_cache / "polarimeter").iterdir())
    built_at = [p.stat().st_mtime_ns for p in cached]
    python_path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(kernel_cache),
        PATH=str(tmp_path),  # no compiler: only the cached library can load
        PYTHONPATH=python_path,
    )
    # and a cached kernel loads without the build's imports or hashlib's
    code = (
        f"import sys; from polarimeter._native import {kernel} as k; "
        "assert k() is not None; assert 'subprocess' not in sys.modules; "
        "assert not {'hashlib', '_hashlib'} & sys.modules.keys(), 'hashlib imported'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert sorted((kernel_cache / "polarimeter").iterdir()) == cached
    assert [p.stat().st_mtime_ns for p in cached] == built_at


def test_second_process_loads_the_cache_without_building(kernel_cache, tmp_path):
    assert_second_process_loads_the_cache(kernel_cache, tmp_path, "louvain_kernel")


def test_second_process_loads_the_archive_kernel_without_building(kernel_cache, tmp_path):
    assert_second_process_loads_the_cache(kernel_cache, tmp_path, "archive_kernel")
    assert len(list((kernel_cache / "polarimeter").glob("_kernels-*.so"))) == 1


def test_importing_the_cli_builds_and_loads_no_kernel(tmp_path):
    python_path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=python_path)
    code = (
        "import polarimeter.cli; from polarimeter import _native; "
        "assert _native._kernels.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert list(tmp_path.iterdir()) == []


def bridged_cliques():
    edges = [(b + i, b + j, 1.0) for b in (0, 5) for i in range(5) for j in range(i + 1, 5)]
    return LabeledGraph.from_edges(edges + [(4, 5, 1.0)], {i: 0 for i in range(10)}, num_opinions=2)


def criterion_8_random_graphs():
    """The random graphs and seeds of test_criterion_8, drawn the same way."""
    rng = random.Random(808)
    for _ in range(40):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=8)
        yield LabeledGraph.from_edges(edges, opinions, num_opinions=k), rng.randrange(10_000)
        for _ in nodes:  # the draws criterion 8 makes for its random partition
            rng.randrange(2)


def retweet_network():
    """The build output of the benchmark's stance archive at seed 7 with
    6,000 records: 8,084 nodes, 6,080 edges and 572 isolated nodes, which no
    other case has."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = os.path.join(tmp, "archive.jsonl")
        perfbench_fixtures().write_stance_fixture(archive, 7, records=6_000)
        graph = build_retweet_network(read_stance_records(archive))
    iu, iv, _ = graph.edge_arrays()
    degree = np.bincount(np.concatenate([iu, iv]), minlength=graph.node_count)
    assert (graph.node_count, graph.edge_count, int((degree == 0).sum())) == (8084, 6080, 572)
    return ((graph, s) for s in range(5))


CASES = {
    "karate": lambda: ((load_karate(), s) for s in range(100)),
    "golden-sbm": lambda: (
        (generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=7))[0], s)
        for s in (42, 43, 44)
    ),
    "bridged-cliques": lambda: ((bridged_cliques(), s) for s in range(100)),
    "criterion-8-random": criterion_8_random_graphs,
    "retweet-network": retweet_network,
}


def assert_kernel_matches_python(graph, seed):
    args = (graph.adjacency(), graph.total_weight, seed)
    got, k, records = _native.louvain_kernel()(*args)
    want, want_k, want_records = community._louvain_python(*args)
    # the int64 assignment, community count and every (level, q) record all ==
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert (k, records) == (want_k, want_records)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_the_python_oracle(kernel_cache, case):
    assert _native.louvain_kernel() is not None
    for graph, seed in CASES[case]():
        assert_kernel_matches_python(graph, seed)


# bounds on either side of one 32-bit word's reach, and up to the largest int64
DRAW_BOUNDS = (2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
               2**40 + 3, 2**62 + 5, 2**63 - 1)
DRAWS_PER_BOUND = 200
# a program around the kernel's own source: it reads an MT19937 state, then
# "n count" pairs, and prints count draws of randbelow(n) for each, one stream
DRAW_HARNESS = r"""
#include <inttypes.h>
#include <stdio.h>
#include "_louvain.c"

int main(void)
{
    mt19937 mt;
    int64_t n, count;
    for (int i = 0; i < MT_N; i++)
        if (scanf("%" SCNu32, &mt.state[i]) != 1)
            return 2;
    if (scanf("%" SCNd64, &mt.index) != 1)
        return 2;
    while (scanf("%" SCNd64 " %" SCNd64, &n, &count) == 2)
        while (count-- > 0)
            printf("%" PRId64 "\n", randbelow(&mt, n));
    return 0;
}
"""
UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


def test_kernel_draws_equal_cpythons_for_any_int64_bound(tmp_path):
    """The kernel's ``randbelow``, seeded from ``random.Random(seed)``, makes
    the draws of ``random.Random(seed)._randbelow`` in one stream over every
    bound in ``DRAW_BOUNDS``, so a shuffle of any int64 node count matches
    Python's. The harness is built with UBSan where the compiler takes it,
    so a 32-bit word shifted by 32 bits or more aborts the run."""
    compiler = next(filter(None, map(shutil.which, _native.COMPILERS)), None)
    if compiler is None:
        pytest.skip("no C compiler")
    source, program = tmp_path / "draws.c", tmp_path / "draws"
    source.write_text(DRAW_HARNESS)

    def build(*flags):
        return subprocess.run(
            [compiler, "-O2", *flags, "-I", os.path.dirname(_native.__file__),
             "-o", str(program), str(source), "-lm"],
            capture_output=True, text=True,
        )

    if build(*UBSAN).returncode != 0:
        plain = build()
        assert plain.returncode == 0, plain.stderr[-4000:]
    requests = "".join(f"{n} {DRAWS_PER_BOUND}\n" for n in DRAW_BOUNDS)
    for seed in (0, 1, 2026):
        _, state, _ = random.Random(seed).getstate()
        words = " ".join(map(str, state)) + "\n"
        child = subprocess.run([str(program)], input=words + requests,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr[-4000:]
        rng = random.Random(seed)
        want = [rng._randbelow(n) for n in DRAW_BOUNDS for _ in range(DRAWS_PER_BOUND)]
        assert list(map(int, child.stdout.split())) == want, seed


def test_records_beyond_the_first_buffer_are_kept(kernel_cache, monkeypatch):
    assert _native.louvain_kernel() is not None
    monkeypatch.setattr(_native, "PASS_RECORDS", 1)
    assert_kernel_matches_python(load_karate(), 3)


def unwritable_cache(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))


FAILURES = {
    "no compiler": lambda mp, tmp: mp.setattr(_native, "COMPILERS", ("polarimeter-no-cc",)),
    "failed build": lambda mp, tmp: mp.setattr(_native, "FLAGS", _native.FLAGS + ("-fno-such-flag",)),
    "unwritable cache": unwritable_cache,
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_unavailable_kernel_warns_once_and_gives_the_same_results(
    kernel_cache, forget_kernel_after, monkeypatch, tmp_path, caplog, failure
):
    graph = load_karate()
    configs = [LouvainConfig(seed=s) for s in range(5)]
    assert _native.louvain_kernel() is not None
    expected = [louvain(graph, c) for c in configs]

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty cache
    FAILURES[failure](monkeypatch, tmp_path)
    _native._kernels.cache_clear()
    with caplog.at_level(logging.WARNING, logger="polarimeter"):
        got = [louvain(graph, c) for c in configs]

    assert _native.louvain_kernel() is None
    assert _native.archive_kernel() is None
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "C kernels unavailable" in caplog.records[0].getMessage()
    assert_same_partitions(graph, got, expected)
    assert not list(tmp_path.glob("polarimeter/*"))  # no library, no temp file left


def build_network(archive, directory, monkeypatch, capsys):
    """Exit code, stdout and the three files of build-network on ``archive``,
    run in ``directory``."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(["build-network", "--records", str(archive), "--out", "net"])
    files = [(directory / f"net.{s}").read_bytes() for s in ("edges.tsv", "labels.tsv", "names.json")]
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_unavailable_archive_kernel_warns_once_and_writes_the_same_files(
    kernel_cache, forget_kernel_after, monkeypatch, tmp_path, capsys, caplog, failure
):
    archive = tmp_path / "archive.jsonl"
    write_archive(archive)
    assert _native.archive_kernel() is not None
    with caplog.at_level(logging.WARNING, logger="polarimeter"):
        expected = build_network(archive, tmp_path / "kernel", monkeypatch, capsys)
    expected_warnings = [r.getMessage() for r in caplog.records]
    caplog.clear()

    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))  # an empty cache
    FAILURES[failure](monkeypatch, cache)
    _native._kernels.cache_clear()
    with caplog.at_level(logging.WARNING, logger="polarimeter"):
        got = build_network(archive, tmp_path / "python", monkeypatch, capsys)

    assert _native.archive_kernel() is None
    assert _native.louvain_kernel() is None
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings[0].startswith("C kernels unavailable, using pure Python: ")
    assert warnings[1:] == expected_warnings == ["dropped 171 self-retweet event(s)"]
    assert got == expected
    assert expected[0] == 0
    assert not list(cache.glob("polarimeter/*"))  # no library, no temp file left


def test_a_build_keeps_only_the_newest_builds_for_its_abi(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "FLAGS", _native.FLAGS + ("-DPOLARIMETER_PRUNE_TEST",))
    cache = tmp_path / "polarimeter"
    cache.mkdir()
    soabi = sysconfig.get_config_var("SOABI")
    older = [cache / f"_kernels-{soabi}-{i:016x}.so" for i in range(_native.KEPT_BUILDS + 2)]
    # another ABI, the stems of the two libraries built before, a temp file
    others = [cache / f"_kernels-other-abi-{0:016x}.so", cache / f"_louvain-{soabi}-{0:016x}.so",
              cache / f"_archive-{soabi}-{0:016x}.so", cache / f"_kernels-{soabi}-{0:016x}.so1.tmp"]
    now = time.time_ns()
    for age, path in enumerate(older + others, start=1):  # older[0] is the newest
        path.write_bytes(b"")
        os.utime(path, ns=(now - age * 10**12, now - age * 10**12))

    target = _native._library()
    kept = [target, *older[: _native.KEPT_BUILDS - 1], *others]
    assert sorted(cache.iterdir()) == sorted(kept)


def test_runs_on_two_threads_equal_the_serial_runs(kernel_cache, monkeypatch):
    assert _native.louvain_kernel() is not None
    monkeypatch.setattr(community.os, "cpu_count", lambda: 2)  # two threads here too
    graph = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=11))[0]
    config = LouvainConfig(seed=5)
    serial = list(community.louvain_runs(graph, config, 4))
    assert_same_partitions(
        graph, list(community.louvain_runs(graph, config, 4, threads=2)), serial
    )


def test_without_the_kernel_runs_stay_serial(monkeypatch):
    graph = load_karate()
    expected = analyze(graph, LouvainConfig(seed=5), runs=4)
    monkeypatch.setattr(community, "louvain_kernel", lambda: None)
    monkeypatch.setattr(community, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(community.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(RecordingPool, "created", [])
    assert analyze(graph, LouvainConfig(seed=5), runs=4, threads=4) == expected
    assert RecordingPool.created == []
