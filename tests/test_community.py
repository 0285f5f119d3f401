"""Seeded modularity optimization: correctness, determinism, instrumentation."""

from __future__ import annotations

import collections
import dataclasses
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    Partition,
    SyntheticLabelConfig,
    census,
    load_karate,
    louvain,
    modularity,
    relabel,
    scale_weights,
    score_partition,
)
from polarimeter import community
from oracles import (
    all_partitions,
    brute_force_modularity,
    communities_of,
    random_graph_spec,
)


def two_cliques(size=5):
    """Two cliques joined by a single bridge edge, nodes 0..2*size-1."""
    edges = []
    for base in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, 1.0))
    edges.append((size - 1, size, 1.0))
    labels = {i: 0 for i in range(2 * size)}
    return LabeledGraph.from_edges(edges, labels, num_opinions=2)


def ring_of_cliques(cliques=4, size=4):
    edges = []
    n = cliques * size
    for c in range(cliques):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, 1.0))
        edges.append((base + size - 1, ((c + 1) * size) % n, 1.0))
    return LabeledGraph.from_edges(edges, {i: 0 for i in range(n)}, num_opinions=2)


def as_dict_partition(graph, blocks):
    assignment = {}
    for cid, block in enumerate(blocks):
        for node in block:
            assignment[node] = cid
    return Partition(assignment=assignment, k=len(blocks))


def test_config_holds_only_the_seed():
    assert [f.name for f in dataclasses.fields(LouvainConfig)] == ["seed"]
    assert LouvainConfig.min_modularity_gain == 1e-7
    assert LouvainConfig(seed=3).min_modularity_gain == 1e-7
    with pytest.raises(TypeError):
        LouvainConfig(resolution=2.0)
    with pytest.raises(TypeError):
        LouvainConfig(min_modularity_gain=1e-3)


def test_a_negative_seed_is_refused():
    """random.Random(-s) seeds as Random(s), so the schedule seed + r at
    seed -2 ran seeds 2, 1, 0, 1, 2: five runs that were three."""
    assert random.Random(-3).random() == random.Random(3).random()
    LouvainConfig(seed=0)
    for seed in (-1, -2):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            LouvainConfig(seed=seed)


def test_partition_validate():
    """A mapping partition is checked where it is built: its ids must be
    exactly 0..k-1, and it must cover the graph it is used on."""
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("c", "d", 1.0)],
                     {"a": 0, "b": 0, "c": 0, "d": 0})
    p = Partition(assignment={"a": 0, "b": 0, "c": 1, "d": 1}, k=2)
    assert communities_of(g, p) == {"a": 0, "b": 0, "c": 1, "d": 1}
    with pytest.raises(ValueError, match="missing from partition"):
        Partition(assignment={"a": 0}, k=1).array(g)
    for ids, k in [((0, 0, 2, 2), 2), ((0, 0, 1, 1), 3), ((-1, 0, 1, 1), 2),
                   ((1, 1, 2, 2), 2), ((0, 0, 1, 1), 0)]:
        with pytest.raises(ValueError, match=f"not contiguous 0..{k - 1}"):
            Partition(assignment=dict(zip("abcd", ids)), k=k)


def test_a_k_beyond_the_nodes_is_refused_before_any_array_of_k():
    """``np.arange(10**15)`` asked for 7.11 PiB, a MemoryError."""
    with pytest.raises(ValueError, match=f"not contiguous 0..{10**15 - 1}"):
        Partition(assignment={"a": 0, "b": 1}, k=10**15)


def test_community_ids_must_be_integers():
    """np.fromiter(..., np.int64) read 0.7 as 0 and "0" as 0, so these maps
    built: the first as [0, 1, 0, 1], which scores -0.5 on a-b-c-d."""
    cases = [((0.7, 1.2, 0.1, 1.9), "0.7 of node 'a' is not an integer"),
             ((0, 0, 1, 1.0), "1.0 of node 'd' is not"),
             (("0", "0", 1, 1), "'0' of node 'a' is not"),
             ((0, None, 1, 1), "None of node 'b' is not"),
             ((0, 0, 1, 2**64), f"{2**64} of node 'd' does not fit in int64")]
    for ids, message in cases:
        with pytest.raises(ValueError, match=f"community {message}"):
            Partition(assignment=dict(zip("abcd", ids)), k=2)
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
                                {u: 0 for u in "abcd"})
    for ids in [(True, True, False, False), tuple(np.array([1, 1, 0, 0]))]:
        p = Partition(assignment=dict(zip("abcd", ids)), k=2)
        assert p.array(g).tolist() == [1, 1, 0, 0]


def test_a_sequence_beside_integer_community_ids_is_named_by_its_node():
    """numpy refuses [[0], 1] as ragged, and its message named no node."""
    with pytest.raises(ValueError, match=r"^community \[0\] of node 'a' is not an integer$"):
        Partition(assignment={"a": [0], "b": 1}, k=2)


def test_a_gap_in_community_ids_is_refused_before_it_is_scored():
    """Ids {0, 2} at k=2 used to build, and modularity then dropped
    community 2 from its sum: 0.0833 on the path a-b-c-d, where the same
    split numbered 0/1 scores 0.1667."""
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
                                {u: 0 for u in "abcd"})
    split = Partition(assignment={"a": 0, "b": 0, "c": 1, "d": 1}, k=2)
    assert modularity(g, split) == pytest.approx(1 / 6)
    with pytest.raises(ValueError, match="not contiguous 0..1"):
        Partition(assignment={"a": 0, "b": 0, "c": 2, "d": 2}, k=2)


def test_partition_array_is_read_only():
    g = two_cliques(3)
    for p in (louvain(g, LouvainConfig(seed=1)),
              Partition(assignment={u: 0 for u in g.nodes}, k=1),
              Partition(assignment={u: 0 for u in reversed(g.nodes)}, k=1)):
        with pytest.raises(ValueError):
            p.array(g)[0] = 1


def test_mapping_partition_in_any_key_order_equals_the_array_partition():
    base = ring_of_cliques()
    g = relabel(base, louvain(base, LouvainConfig(seed=4)),
                SyntheticLabelConfig(dom_ratio=0.7, num_opinions=3, seed=5))
    found = louvain(g, LouvainConfig(seed=6))
    items = list(communities_of(g, found).items())
    random.Random(8).shuffle(items)
    mapped = Partition(assignment=dict(items), k=found.k)
    assert mapped.array(g).tolist() == found.array(g).tolist()
    assert modularity(g, mapped) == modularity(g, found)
    scaled = scale_weights(g, census(g))
    assert score_partition(g, scaled, mapped) == score_partition(g, scaled, found)


def test_partition_array_follows_graph_node_order():
    g = LabeledGraph.from_edges([("b", "a", 1.0), ("c", "d", 1.0)],
                     {"a": 0, "b": 0, "c": 0, "d": 0})
    p = Partition(assignment={"d": 0, "c": 0, "b": 1, "a": 1}, k=2)
    assert p.array(g).tolist() == [1, 1, 0, 0]
    # keys equal to the graph's int nodes, of other types, in either order;
    # numpy ints once sorted by string form, after the ints, and were refused
    ints = LabeledGraph.from_edges([(2, 10, 1.0)], {2: 0, 10: 1})
    for assignment in ({np.int64(2): 0, np.int64(10): 1}, {2.0: 0, 10.0: 1},
                       {np.int64(10): 1, 2.0: 0}):
        p = Partition(assignment=assignment, k=2)
        assert p.array(ints).tolist() == [0, 1]
        assert modularity(ints, p) == -0.5
    for assignment, message in [
        ({"a": 0, "b": 0, "d": 0}, "node 'c' missing from partition"),
        ({"a": 0, "b": 0, "c": 0, "d": 0, "e": 0},
         "partition holds nodes that are not in the graph"),
    ]:
        with pytest.raises(ValueError, match=message):
            Partition(assignment=assignment, k=1).array(g)


def test_modularity_two_disjoint_triangles_is_half():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    g = LabeledGraph.from_edges(edges, {i: 0 for i in range(6)}, num_opinions=2)
    p = Partition(assignment={0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}, k=2)
    assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)


def test_modularity_single_community_is_zero():
    g = LabeledGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], {i: 0 for i in range(3)})
    p = Partition(assignment={0: 0, 1: 0, 2: 0}, k=1)
    assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)


def test_modularity_matches_brute_force_on_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        nodes, edges, opinions, k = random_graph_spec(rng)
        g = LabeledGraph.from_edges(edges, opinions, num_opinions=k)
        assignment = {u: rng.randrange(3) for u in nodes}
        cids = sorted(set(assignment.values()))
        remap = {c: i for i, c in enumerate(cids)}
        p = Partition(assignment={u: remap[c] for u, c in assignment.items()},
                      k=len(cids))
        assert modularity(g, p) == pytest.approx(
            brute_force_modularity(nodes, edges, communities_of(g, p)), abs=1e-9
        )


def test_modularity_requires_full_coverage():
    g = LabeledGraph.from_edges([(0, 1, 1.0)], {0: 0, 1: 0})
    with pytest.raises(ValueError):
        modularity(g, Partition(assignment={0: 0}, k=1))


def test_louvain_recovers_two_cliques():
    g = two_cliques(5)
    for seed in range(20):
        p = louvain(g, LouvainConfig(seed=seed))
        assert p.k == 2
        c = communities_of(g, p)
        left = {c[i] for i in range(5)}
        right = {c[i] for i in range(5, 10)}
        assert len(left) == 1 and len(right) == 1 and left != right


def test_louvain_is_deterministic_per_seed():
    g = ring_of_cliques()
    a = louvain(g, LouvainConfig(seed=9))
    b = louvain(g, LouvainConfig(seed=9))
    assert communities_of(g, a) == communities_of(g, b)
    assert a.k == b.k


def test_louvain_partition_is_valid_and_densely_numbered():
    rng = random.Random(23)
    for _ in range(30):
        nodes, edges, opinions, k = random_graph_spec(rng)
        g = LabeledGraph.from_edges(edges, opinions, num_opinions=k)
        p = louvain(g, LouvainConfig(seed=rng.randrange(1000)))
        comm = p.array(g)
        assert comm.dtype == np.int64 and len(comm) == g.node_count
        assert np.array_equal(np.unique(comm), np.arange(p.k))


def test_louvain_never_beats_exhaustive_search_and_matches_scorer():
    rng = random.Random(5)
    for _ in range(8):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=7)
        g = LabeledGraph.from_edges(edges, opinions, num_opinions=k)
        p = louvain(g, LouvainConfig(seed=1))
        q_found = modularity(g, p)
        assert q_found == pytest.approx(
            brute_force_modularity(nodes, edges, communities_of(g, p)), abs=1e-9
        )
        best = max(
            modularity(g, as_dict_partition(g, blocks))
            for blocks in all_partitions(nodes)
        )
        assert q_found <= best + 1e-9


def test_isolated_nodes_end_up_in_singleton_communities():
    g = LabeledGraph.from_edges([(0, 1, 1.0)], {0: 0, 1: 0, 2: 0, 3: 0})
    p = louvain(g, LouvainConfig(seed=0))
    c = communities_of(g, p)
    assert c[2] != c[3]
    assert {c[2], c[3]} & {c[0], c[1]} == set()


def test_pass_hook_reports_monotone_modularity():
    g = ring_of_cliques(cliques=5, size=4)
    trace = []
    louvain(g, LouvainConfig(seed=3), pass_hook=lambda level, i, q: trace.append((level, i, q)))
    assert trace, "hook never fired"
    levels = sorted({lvl for lvl, _, _ in trace})
    assert levels == list(range(len(levels)))
    for lvl in levels:
        qs = [q for l, _, q in trace if l == lvl]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        # passes are numbered from 0 within each level
        assert [i for l, i, _ in trace if l == lvl] == list(range(len(qs)))


@pytest.mark.parametrize("path", ["kernel", "python"])
def test_louvain_replays_the_oracle_records_of_its_one_run(monkeypatch, path):
    """``louvain`` is the first run of ``louvain_runs``: same array, and the
    oracle's (level, q) records numbered from 0 within each level."""
    g = ring_of_cliques(cliques=6, size=5)
    config = LouvainConfig(seed=17)
    _, _, records = community._louvain_python(g.adjacency(), g.total_weight, 17)
    expected, index = [], collections.Counter()
    for level, q in records:
        expected.append((level, index[level], q))
        index[level] += 1
    assert len(index) > 1, "the case should aggregate at least once"
    if path == "python":
        monkeypatch.setattr(community, "louvain_kernel", lambda: None)
    else:
        assert community.louvain_kernel() is not None
    trace = []
    p = louvain(g, config, pass_hook=lambda *record: trace.append(record))
    assert trace == expected
    assert np.array_equal(p.array(g), next(community.louvain_runs(g, config, 1)).array(g))


def test_final_internal_q_matches_public_scorer():
    # Multi-level aggregation must preserve modularity bookkeeping exactly.
    g = ring_of_cliques(cliques=6, size=5)
    trace = []
    p = louvain(g, LouvainConfig(seed=17), pass_hook=lambda l, i, q: trace.append(q))
    assert trace[-1] == pytest.approx(modularity(g, p), abs=1e-9)


def test_weights_steer_the_partition():
    # Star weights pull node 4 into whichever side holds the heavy edge.
    edges = [(0, 1, 10.0), (2, 3, 10.0), (1, 2, 1.0), (3, 4, 10.0), (0, 4, 0.1)]
    g = LabeledGraph.from_edges(edges, {i: 0 for i in range(5)})
    p = louvain(g, LouvainConfig(seed=0))
    c = communities_of(g, p)
    assert c[3] == c[4]


@pytest.mark.parametrize("threads", [1, 2])
def test_louvain_runs_lay_out_the_csr_once_per_call(monkeypatch, threads):
    graph = load_karate()
    config = LouvainConfig(seed=4)
    expected = [p.array(graph) for p in community.louvain_runs(graph, config, 5)]
    calls = []
    layout = graph.adjacency
    monkeypatch.setattr(graph, "adjacency", lambda: calls.append(1) or layout())
    got = list(community.louvain_runs(graph, config, 5, threads))
    assert len(calls) == 1
    assert all(np.array_equal(p.array(graph), e) for p, e in zip(got, expected))


def test_threaded_runs_submit_a_bounded_window_ahead(monkeypatch):
    """Executor.map would submit all 50 runs before the first is yielded;
    here run 0 blocks until released, and the runs submitted by then stay
    within the window."""
    submitted, workers = [], []
    release = threading.Event()

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, *args):
            submitted.append(args)
            return super().submit(fn, *args)

    def kernel(adjacency, m, seed):  # one pass record naming its seed
        if seed == 0:
            assert release.wait(timeout=10)
        return np.zeros(len(adjacency[0]) - 1, dtype=np.int64), 1, [(0, float(seed))]

    monkeypatch.setattr(community, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(community, "louvain_kernel", lambda: kernel)
    monkeypatch.setattr(community.os, "cpu_count", lambda: 2)
    runs = community.louvain_runs(load_karate(), LouvainConfig(seed=0), 50, threads=2)
    timer = threading.Timer(0.2, release.set)
    timer.start()
    try:
        assert next(runs)._passes == ((0, 0.0),)
        assert workers == [2]
        assert len(submitted) <= community._WINDOW * 2
        assert [p._passes for p in runs] == [((0, float(s)),) for s in range(1, 50)]
    finally:
        release.set()
        timer.cancel()
    assert len(submitted) == 50
