"""The C block-model kernel: it draws the numpy loop's edges, in the same
order, for every shape, probability and seed width, and both paths refuse a
draw without edges alike; it keeps every edge when the first buffer is too
small, draws no cross pair when p_out is 0, runs in a process that never
imports ``numpy.random``, and holds its memory to the edges drawn."""

from __future__ import annotations

import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarimeter import SbmConfig, _native, generate_sbm, synthetic

# the child process imports the same package as this process, installed or not
SRC = os.path.dirname(os.path.dirname(_native.__file__))
SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 5)


def kernel_ends(config):
    draw = _native.sbm_kernel()
    assert draw is not None
    return draw(config.blocks, config.nodes_per_block, config.p_in, config.p_out, config.seed)


def assert_kernel_draws_the_numpy_loop(config):
    got, want = kernel_ends(config), synthetic._sbm_ends(config)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), config


# the shapes, then every seed width, then the edge probabilities
CASES = [
    *(SbmConfig(b, n, 0.05, 0.001, seed=12345) for b, n in ((20, 250), (1, 300), (300, 1), (1000, 1))),
    *(SbmConfig(6, 40, 0.1, 0.01, seed=seed) for seed in SEEDS),
    *(SbmConfig(4, 25, p_in, p_out, seed=seed)
      for p_in, p_out in ((1.0, 0.0), (0.3, 0.0), (1.0, 0.5)) for seed in (0, 2**64 + 3)),
]


@pytest.mark.parametrize(
    "config", CASES,
    ids=lambda c: f"{c.blocks}x{c.nodes_per_block}-{c.p_in}-{c.p_out}-seed{c.seed}",
)
def test_kernel_draws_the_numpy_loop(kernel_cache, config):
    assert_kernel_draws_the_numpy_loop(config)


# edge probabilities at the ends of [0, 1], dyadic and not, and any float
P_IN = st.sampled_from([1.0, 0.5, 0.1, 1 / 3]) | st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def block_models(draw):
    p_in = draw(P_IN)
    p_out = draw(st.sampled_from([0.0, p_in / 3]) | st.floats(0.0, p_in, exclude_max=True))
    return SbmConfig(draw(st.integers(1, 8)), draw(st.integers(1, 30)), p_in, p_out,
                     seed=draw(st.integers(0, 2**200)))


@settings(max_examples=150, deadline=None)
@given(block_models())
@example(SbmConfig(8, 30, 1.0, 0.0, seed=2**200))
@example(SbmConfig(1, 1, 1.0, 0.0, seed=0))  # one node: no pair to draw
def test_kernel_draws_the_numpy_loop_on_drawn_block_models(kernel_cache, config):
    """Every drawn shape, probability and seed; a draw without edges is
    refused alike by both paths of `generate_sbm`."""
    assert_kernel_draws_the_numpy_loop(config)
    if synthetic._sbm_ends(config).size == 0:
        with pytest.raises(ValueError) as kernel:
            generate_sbm(config)
        with mock.patch.object(synthetic, "sbm_kernel", lambda: None), \
                pytest.raises(ValueError) as fallback:
            generate_sbm(config)
        assert str(kernel.value) == str(fallback.value)


@pytest.mark.parametrize("blocks, p_out", [(1, 0.001), (2, 0.001), (40, 0.0)])
@pytest.mark.parametrize("seed", SEEDS)
def test_both_paths_refuse_a_draw_without_edges_alike(kernel_cache, monkeypatch, blocks, p_out, seed):
    config = SbmConfig(blocks, 1, 0.05, p_out, seed=seed)
    with pytest.raises(ValueError) as kernel:
        generate_sbm(config)
    monkeypatch.setattr(synthetic, "sbm_kernel", lambda: None)
    with pytest.raises(ValueError) as fallback:
        generate_sbm(config)
    assert str(kernel.value) == str(fallback.value) == "graph has no edges"


def test_edges_beyond_the_first_buffer_are_kept(kernel_cache, monkeypatch):
    monkeypatch.setattr(_native, "_edge_capacity", lambda expected: 1)
    assert_kernel_draws_the_numpy_loop(SbmConfig(20, 250, 0.05, 0.001, seed=12345))
    assert_kernel_draws_the_numpy_loop(SbmConfig(3, 3, 0.5, 0.2, seed=2**64 - 1))


def test_no_cross_pair_is_drawn_when_p_out_is_0(kernel_cache):
    """1000 blocks of 100 nodes hold 4.95 M pairs within blocks and about
    5e9 across them: drawing those would take seconds, not milliseconds."""
    config = SbmConfig(1000, 100, 0.01, 0.0, seed=1)
    kernel_ends(config)  # the library is loaded before the clock starts
    start = time.perf_counter()
    ends = kernel_ends(config)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(ends, synthetic._sbm_ends(config))


def test_a_block_model_draw_leaves_numpy_random_unloaded(kernel_cache, tmp_path):
    """Like the kernel load without hashlib: a fresh process that finds the
    library in the cache draws a block model without numpy.random."""
    assert _native.sbm_kernel() is not None
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(kernel_cache),
        PATH=str(tmp_path),  # no compiler: only the cached library can load
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    )
    code = (
        "import sys; from polarimeter import SbmConfig, _native, generate_sbm; "
        "graph, _ = generate_sbm(SbmConfig(4, 25, 0.3, 0.05, seed=1)); "
        "assert _native.sbm_kernel() is not None and graph.edge_count; "
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


# tracemalloc's peak for SbmConfig(1, 3000, 0.05, 0.001, seed=1), 225,317
# edges: 16.5 MB through the kernel, 108 MB through the numpy loop, whose
# pair indices and uniforms take 16 and 8 bytes for each of 4.5 M pairs
SBM_TRACED_PEAK_MB = 20


def traced_peak_mb(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_block_model_memory_grows_with_the_edges_drawn(kernel_cache):
    if _native.sbm_kernel() is None:
        pytest.skip("C kernels unavailable")
    peak = traced_peak_mb(generate_sbm, SbmConfig(1, 3000, 0.05, 0.001, seed=1))
    assert peak < SBM_TRACED_PEAK_MB
