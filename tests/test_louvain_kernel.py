"""The C Louvain kernel: it builds and loads here, it matches the pure-Python
oracle bit for bit (partitions and every pass record) under the same call,
two threads can run it at once, and when it cannot be had or the graph is
beyond it, one warning is logged and Python gives the same results, with the
runs kept serial."""

from __future__ import annotations

import logging
import os
import random
import subprocess
import sys

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
from polarimeter import _native, community
from oracles import random_graph_spec
from test_metric import RecordingPool


@pytest.fixture(scope="module")
def kernel_cache(tmp_path_factory):
    """A cache directory the kernel is built into, in use for this module."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        _native.louvain_kernel.cache_clear()
        yield cache
    _native.louvain_kernel.cache_clear()


@pytest.fixture
def forget_kernel_after():
    """Forget the kernel this test loads (or fails to) when it ends."""
    yield
    _native.louvain_kernel.cache_clear()


def test_kernel_builds_and_loads_here(kernel_cache):
    assert _native.louvain_kernel() is not None
    built = sorted(p.name for p in (kernel_cache / "polarimeter").iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_second_process_loads_the_cache_without_building(kernel_cache, tmp_path):
    assert _native.louvain_kernel() is not None
    (library,) = (kernel_cache / "polarimeter").iterdir()
    built_at = library.stat().st_mtime_ns
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(_native.__file__))
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(kernel_cache),
        PATH=str(tmp_path),  # no compiler: only the cached library can load
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    code = "from polarimeter._native import louvain_kernel as k; assert k() is not None"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert list((kernel_cache / "polarimeter").iterdir()) == [library]
    assert library.stat().st_mtime_ns == built_at


def bridged_cliques():
    edges = [(b + i, b + j, 1.0) for b in (0, 5) for i in range(5) for j in range(i + 1, 5)]
    return LabeledGraph(edges + [(4, 5, 1.0)], {i: 0 for i in range(10)}, num_opinions=2)


def criterion_8_random_graphs():
    """The random graphs and seeds of test_criterion_8, drawn the same way."""
    rng = random.Random(808)
    for _ in range(40):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=8)
        yield LabeledGraph(edges, opinions, num_opinions=k), rng.randrange(10_000)
        for _ in nodes:  # the draws criterion 8 makes for its random partition
            rng.randrange(2)


CASES = {
    "karate": lambda: ((load_karate(), s) for s in range(100)),
    "golden-sbm": lambda: (
        (generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=7))[0], s)
        for s in (42, 43, 44)
    ),
    "bridged-cliques": lambda: ((bridged_cliques(), s) for s in range(100)),
    "criterion-8-random": criterion_8_random_graphs,
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
    _native.louvain_kernel.cache_clear()
    with caplog.at_level(logging.WARNING, logger="polarimeter"):
        got = [louvain(graph, c) for c in configs]

    assert _native.louvain_kernel() is None
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "C Louvain kernel unavailable" in caplog.records[0].getMessage()
    assert got == expected
    assert not list(tmp_path.glob("polarimeter/*"))  # no library, no temp file left


def test_graph_beyond_the_kernel_runs_in_python(kernel_cache, monkeypatch, caplog):
    graph = load_karate()
    assert _native.louvain_kernel() is not None
    expected = louvain(graph, LouvainConfig(seed=1))
    monkeypatch.setattr(community, "NODE_LIMIT", graph.node_count)
    with caplog.at_level(logging.WARNING, logger="polarimeter"):
        got = louvain(graph, LouvainConfig(seed=1))
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert got == expected


def test_runs_beyond_the_kernel_stay_serial_and_warn_once(
    kernel_cache, monkeypatch, caplog
):
    graph = load_karate()
    assert _native.louvain_kernel() is not None
    monkeypatch.setattr(community, "NODE_LIMIT", graph.node_count)
    monkeypatch.setattr(community, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(community.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(RecordingPool, "created", [])
    serial = list(community.louvain_runs(graph, LouvainConfig(seed=1), 4))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="polarimeter"):
        got = list(community.louvain_runs(graph, LouvainConfig(seed=1), 4, threads=2))
    assert RecordingPool.created == []
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert got == serial


def test_runs_on_two_threads_equal_the_serial_runs(kernel_cache, monkeypatch):
    assert _native.louvain_kernel() is not None
    monkeypatch.setattr(community.os, "cpu_count", lambda: 2)  # two threads here too
    graph = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=11))[0]
    config = LouvainConfig(seed=5)
    serial = list(community.louvain_runs(graph, config, 4))
    assert list(community.louvain_runs(graph, config, 4, threads=2)) == serial


def test_without_the_kernel_runs_stay_serial(monkeypatch):
    graph = load_karate()
    expected = analyze(graph, LouvainConfig(seed=5), runs=4)
    monkeypatch.setattr(community, "louvain_kernel", lambda: None)
    monkeypatch.setattr(community, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(community.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(RecordingPool, "created", [])
    assert analyze(graph, LouvainConfig(seed=5), runs=4, threads=4) == expected
    assert RecordingPool.created == []
