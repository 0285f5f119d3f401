"""The polarization score: scaling, accumulation, components, averaging."""

from __future__ import annotations

import dataclasses
import random
import statistics
from concurrent.futures import Future

import numpy as np
import pytest

from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    Partition,
    accumulate,
    analyze,
    census,
    load_karate,
    polarization_component,
    scale_weights,
    score_partition,
)
from polarimeter.community import louvain_runs
from oracles import (
    edge_triples,
    label_permutation_null,
    naive_polarization,
    permuted_labelings,
    random_graph_spec,
)


def make_graph(edges, opinions, k=None):
    return LabeledGraph.from_edges(edges, opinions, num_opinions=k)


def partition_of(mapping):
    """The partition of ``mapping``'s communities, renumbered 0..k-1 in order
    of first appearance: the score reads only which nodes share one."""
    dense = {}
    return Partition(assignment={u: dense.setdefault(c, len(dense)) for u, c in mapping.items()},
                     k=len(set(mapping.values())))


def test_a_label_far_beyond_the_nodes_is_scored_as_the_labels_present():
    """`census` of this graph asks for 10**15 + 1 counts, 7.11 PiB: the
    score reads only the labels present, so the report is that of labels
    {0, 1} but for its count of opinions."""
    rows = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 0.5)]
    huge = analyze(make_graph(rows, {"a": 0, "b": 10**15, "c": 0}), LouvainConfig(seed=3), 4)
    small = analyze(make_graph(rows, {"a": 0, "b": 1, "c": 0}), LouvainConfig(seed=3), 4)
    assert huge.num_opinions == 10**15 + 1
    assert dataclasses.replace(huge, num_opinions=small.num_opinions) == small


# -- weight scaling ----------------------------------------------------------


def test_scaled_weight_uses_average_opinion_fraction():
    # 22 nodes: 13 with opinion 0, 9 with opinion 1, unit weights.
    opinions = {i: (0 if i < 13 else 1) for i in range(22)}
    edges = [(0, 1, 1.0), (0, 13, 1.0), (13, 14, 1.0)]
    extra = [(i, i + 1, 1.0) for i in range(1, 12)] + [
        (i, i + 1, 1.0) for i in range(14, 21)
    ]
    g = make_graph(edges + extra, opinions)
    scaled = scale_weights(g, census(g))
    by_pair = {((u, v)): s for (u, v, _), s in zip(edge_triples(g), scaled)}
    assert by_pair[(0, 1)] == pytest.approx(13 / 22)
    assert by_pair[(0, 13)] == pytest.approx(11 / 22)
    assert by_pair[(13, 14)] == pytest.approx(9 / 22)


def test_single_opinion_population_keeps_raw_weights():
    g = make_graph([(0, 1, 2.5), (1, 2, 0.5)], {0: 0, 1: 0, 2: 0})
    scaled = scale_weights(g, census(g))
    assert scaled == pytest.approx([2.5, 0.5])
    assert scaled.sum() == pytest.approx(3.0)


def test_scaled_weights_never_exceed_raw():
    rng = random.Random(2)
    for _ in range(30):
        nodes, edges, opinions, k = random_graph_spec(rng)
        g = make_graph(edges, opinions, k)
        scaled = scale_weights(g, census(g))
        raw = np.array([w for _, _, w in edge_triples(g)])
        assert np.all(scaled > 0)
        assert np.all(scaled <= raw + 1e-12)


# -- accumulation ------------------------------------------------------------
#
# The paper's within and between frequency matrices (F_W, F_B) enter the score
# only through their same-opinion and cross-opinion mass, so ``accumulate``
# keeps just those four numbers: [between/same, between/cross, within/same,
# within/cross].

BETWEEN_SAME, BETWEEN_CROSS, WITHIN_SAME, WITHIN_CROSS = range(4)


def test_same_community_edge_lands_in_within_matrix():
    g = make_graph([(0, 1, 1.0)], {0: 0, 1: 0})
    masses = accumulate(g, scale_weights(g, census(g)), partition_of({0: 0, 1: 0}))
    assert masses.tolist() == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_cross_community_cross_opinion_edge_is_counted_once():
    g = make_graph([(0, 1, 1.0)], {0: 0, 1: 1})
    masses = accumulate(g, scale_weights(g, census(g)), partition_of({0: 0, 1: 1}))
    assert masses.tolist() == pytest.approx([0.0, 0.5, 0.0, 0.0])


def test_four_path_hand_accumulation():
    # a0-b0, b0-c1, c1-d1 with communities {a,b} and {c,d}.
    g = make_graph(
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
        {"a": 0, "b": 0, "c": 1, "d": 1},
    )
    uniform = make_graph(edge_triples(g), {"a": 0, "b": 0, "c": 0, "d": 0})
    ones = scale_weights(uniform, census(uniform))
    masses = accumulate(g, ones, partition_of({"a": 0, "b": 0, "c": 1, "d": 1}))
    assert masses[WITHIN_SAME] == pytest.approx(2.0)
    assert masses[WITHIN_CROSS] == 0.0
    assert masses[BETWEEN_SAME] == 0.0
    assert masses[BETWEEN_CROSS] == pytest.approx(1.0)


def test_accumulate_requires_partition_coverage():
    g = make_graph([(0, 1, 1.0)], {0: 0, 1: 0})
    with pytest.raises(ValueError, match="partition"):
        accumulate(g, scale_weights(g, census(g)), Partition(assignment={0: 0}, k=1))


# -- component and combination ----------------------------------------------


def test_component_fully_segregated_is_one():
    assert polarization_component(1.0, 0.0) == 1.0


def test_component_hits_zero_at_half_cross_mass():
    assert polarization_component(0.5, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_component_beyond_half_stays_zero():
    assert polarization_component(0.2, 0.8) == 0.0


def test_component_linear_below_the_cap():
    assert polarization_component(0.9, 0.1) == pytest.approx(1 - 2 * 0.1, abs=1e-12)


def test_component_empty_matrix_is_zero():
    assert polarization_component(0.0, 0.0) == 0.0


def test_component_rejects_negative_entries():
    with pytest.raises(ValueError):
        polarization_component(0.5, -0.1)
    with pytest.raises(ValueError):
        polarization_component(-0.5, 0.1)


def two_edge_graph():
    # edge (0, 1) same-opinion inside community 0, edge (1, 2) cross-opinion
    # between communities 0 and 1
    return make_graph([(0, 1, 1.0), (1, 2, 1.0)], {0: 0, 1: 0, 2: 1})


def test_combine_weights_components_by_matrix_mass():
    # within mass 1.0 scores 1, between mass 0.5 scores 0: P = 2/3
    scaled = np.array([1.0, 0.5])
    p_w, p_b, p = score_partition(
        two_edge_graph(), scaled, partition_of({0: 0, 1: 0, 2: 1})
    )
    assert (p_w, p_b) == (1.0, 0.0)
    assert p == pytest.approx(2 / 3, abs=1e-12)


def test_combine_single_community_equals_within_score():
    g = make_graph([(0, 1, 1.0), (1, 2, 1.0)], {0: 0, 1: 0, 2: 1})
    scaled = np.array([0.9, 0.1])
    p_w, p_b, p = score_partition(g, scaled, partition_of({0: 0, 1: 0, 2: 0}))
    assert p_b == 0.0
    assert p_w == pytest.approx(0.8, abs=1e-12)
    assert p == p_w


def test_combine_rejects_empty_matrices():
    g = two_edge_graph()
    with pytest.raises(ValueError):
        score_partition(g, np.zeros(2), partition_of({0: 0, 1: 0, 2: 1}))


def test_three_community_walkthrough_scores():
    # View masses in ratio 30:7 with cross shares 0.16 and 0.345 give the
    # component pair (0.68, 0.31) and a combined score of 0.61. Same-opinion
    # mass is the diagonal 25.2 and 4.585; cross-opinion mass is the strict
    # upper triangle 2.4 + 2.4 and 1.2075 + 1.2075.
    p_w = polarization_component(25.2, 4.8)
    p_b = polarization_component(4.585, 2.415)
    assert p_w == pytest.approx(0.68, abs=1e-12)
    assert p_b == pytest.approx(0.31, abs=1e-12)
    # one edge per mass: a0-b0 and a0-c1 inside community 0, a0-d0 and
    # a0-e1 between communities
    g = make_graph(
        [("a", "b", 1.0), ("a", "c", 1.0), ("a", "d", 1.0), ("a", "e", 1.0)],
        {"a": 0, "b": 0, "c": 1, "d": 0, "e": 1},
    )
    scaled = np.array([25.2, 4.8, 4.585, 2.415])
    part = partition_of({"a": 0, "b": 0, "c": 0, "d": 1, "e": 2})
    assert score_partition(g, scaled, part) == pytest.approx(
        (0.68, 0.31, 0.61), abs=1e-12
    )


# -- full scoring against the naive oracle ------------------------------------


def test_score_partition_matches_naive_oracle_on_random_inputs():
    rng = random.Random(99)
    for _ in range(150):
        nodes, edges, opinions, k = random_graph_spec(rng)
        g = make_graph(edges, opinions, k)
        part = {u: rng.randrange(1, 4) for u in nodes}
        p_w, p_b, p = score_partition(
            g, scale_weights(g, census(g)), partition_of(part)
        )
        e_w, e_b, e_p = naive_polarization(nodes, edge_triples(g), opinions, k, part)
        assert p_w == pytest.approx(e_w, abs=1e-9)
        assert p_b == pytest.approx(e_b, abs=1e-9)
        assert p == pytest.approx(e_p, abs=1e-9)


def test_opinion_relabeling_leaves_scores_unchanged():
    rng = random.Random(17)
    for _ in range(20):
        nodes, edges, opinions, k = random_graph_spec(rng)
        g = make_graph(edges, opinions, k)
        perm = list(range(k))
        rng.shuffle(perm)
        g2 = make_graph(edges, {u: perm[o] for u, o in opinions.items()}, k)
        part = partition_of({u: rng.randrange(2) for u in nodes})
        s1 = score_partition(g, scale_weights(g, census(g)), part)
        s2 = score_partition(g2, scale_weights(g2, census(g2)), part)
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_uniform_weight_rescaling_leaves_scores_unchanged():
    rng = random.Random(18)
    for _ in range(20):
        nodes, edges, opinions, k = random_graph_spec(rng)
        g = make_graph(edges, opinions, k)
        g2 = make_graph([(u, v, w * 7.5) for u, v, w in edges], opinions, k)
        part = partition_of({u: rng.randrange(2) for u in nodes})
        s1 = score_partition(g, scale_weights(g, census(g)), part)
        s2 = score_partition(g2, scale_weights(g2, census(g2)), part)
        assert s1 == pytest.approx(s2, abs=1e-12)


# -- multi-run protocol --------------------------------------------------------


def demo_graph():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)]
    return make_graph(edges, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})


def test_analyze_runs_use_consecutive_seeds():
    g = demo_graph()
    bundled = analyze(g, LouvainConfig(seed=40), runs=3)
    singles = [analyze(g, LouvainConfig(seed=40 + r), runs=1) for r in range(3)]
    assert bundled.polarization_runs == tuple(
        s.polarization_runs[0] for s in singles
    )
    assert bundled.communities_per_run == tuple(
        s.communities_per_run[0] for s in singles
    )


def test_analyze_is_deterministic():
    g = demo_graph()
    a = analyze(g, LouvainConfig(seed=1), runs=5)
    b = analyze(g, LouvainConfig(seed=1), runs=5)
    assert a == b


def test_analyze_thread_count_does_not_change_results():
    g = demo_graph()
    serial = analyze(g, LouvainConfig(seed=3), runs=6, threads=1)
    parallel = analyze(g, LouvainConfig(seed=3), runs=6, threads=3)
    assert serial == parallel


class RecordingPool:
    """Serial stand-in for ThreadPoolExecutor that records max_workers."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_louvain_runs_never_ask_for_more_workers_than_cpus(monkeypatch):
    import polarimeter.community as community

    monkeypatch.setattr(community, "ThreadPoolExecutor", RecordingPool)
    # the pool starts only when the kernel loads; the Python oracle shares
    # its contract, so it stands in for a loaded one
    monkeypatch.setattr(community, "louvain_kernel", lambda: community._louvain_python)
    monkeypatch.setattr(community.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(RecordingPool, "created", [])
    g = demo_graph()
    pooled = analyze(g, LouvainConfig(seed=3), runs=6, threads=64)
    assert RecordingPool.created == [2]
    analyze(g, LouvainConfig(seed=3), runs=6, threads=1)
    analyze(g, LouvainConfig(seed=3), runs=1, threads=64)
    assert RecordingPool.created == [2]
    assert pooled == analyze(g, LouvainConfig(seed=3), runs=6)


def test_analyze_rejects_zero_runs():
    with pytest.raises(ValueError):
        analyze(demo_graph(), LouvainConfig(seed=1), runs=0)


def test_all_same_opinion_graph_scores_one_every_run():
    g = make_graph([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)],
                   {0: 1, 1: 1, 2: 1, 3: 1}, k=3)
    report = analyze(g, LouvainConfig(seed=8), runs=10)
    assert report.polarization_runs == tuple([1.0] * 10)
    assert report.polarization_mean == 1.0
    assert report.polarization_std == 0.0


def test_every_edge_cross_opinion_scores_zero():
    g = make_graph([(0, 1, 1.0), (2, 3, 2.0), (0, 3, 1.0)],
                   {0: 0, 1: 1, 2: 0, 3: 1})
    report = analyze(g, LouvainConfig(seed=8), runs=5)
    assert report.polarization_mean == 0.0


def test_report_statistics_match_statistics_module():
    g = demo_graph()
    report = analyze(g, LouvainConfig(seed=0), runs=20)
    runs = report.polarization_runs
    assert report.polarization_mean == pytest.approx(statistics.fmean(runs), abs=1e-12)
    assert report.polarization_std == pytest.approx(statistics.pstdev(runs), abs=1e-12)
    assert report.polarization_min == min(runs)
    assert report.polarization_max == max(runs)


def test_combined_score_sits_between_components_each_run():
    rng = random.Random(31)
    for _ in range(15):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=10)
        g = make_graph(edges, opinions, k)
        report = analyze(g, LouvainConfig(seed=rng.randrange(100)), runs=4)
        for p_w, p_b, p in zip(
            report.p_within_runs, report.p_between_runs, report.polarization_runs
        ):
            assert min(p_w, p_b) - 1e-12 <= p <= max(p_w, p_b) + 1e-12


def test_report_dict_round_trips_schema():
    report = analyze(demo_graph(), LouvainConfig(seed=4), runs=3)
    d = report.to_dict()
    assert d["runs"] == 3
    assert d["seed"] == 4
    assert d["graph"]["nodes"] == 6
    assert 0.0 <= d["polarization"]["mean"] <= 1.0


# Karate's P less the 99th percentile of its null (200 permutations of the
# labels, against 20 Louvain runs), with Louvain at seeds s..s+19 and the
# null at seed s: over s = 0-14 it lay in [0.410, 0.545] (0.451 at s = 0),
# while P stayed 0.717949 and the percentile lay in [0.173, 0.308].
MIN_KARATE_MARGIN_OVER_CHANCE = 0.30


def test_karate_scores_far_above_its_label_permutation_null():
    """Karate's P against the chance level of its own census: the labels
    shuffled over the nodes, scored against the same partitions. Over seeds
    0-14 the null's mean lay in [0.038, 0.049], and 2-12 of the 200
    permutations had no capped view in any run (11 at seed 0); each of
    those scores 1 - 2C/S of its labeling, whatever the partition."""
    graph = load_karate()
    partitions = list(louvain_runs(graph, LouvainConfig(seed=0), 20))
    p = analyze(graph, LouvainConfig(seed=0), runs=20).polarization_mean
    null = label_permutation_null(graph, partitions, 200, seed=0)
    assert p - float(np.percentile(null, 99)) >= MIN_KARATE_MARGIN_OVER_CHANCE, (p, null)

    counts, uncapped = census(graph), 0
    for view, null_p in zip(permuted_labelings(graph, 200, seed=0), null):
        scaled = scale_weights(view, counts)
        masses = [accumulate(view, scaled, q).tolist() for q in partitions]
        if all(c < (same + c) / 2 for b_same, c_b, w_same, c_w in masses
               for same, c in ((b_same, c_b), (w_same, c_w)) if same + c):
            eu, ev, _ = view.edge_arrays()
            labels = view.opinion_array()
            cross = scaled[labels[eu] != labels[ev]].sum()
            assert abs(null_p - (1 - 2 * cross / scaled.sum())) <= 1e-12
            uncapped += 1
    assert uncapped > 0
