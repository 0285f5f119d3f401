"""Synthetic relabeling, block-model generation, and the grid sweep."""

from __future__ import annotations

import random
import statistics
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import communities_of, edge_triples, expected_dominance_score, naive_relabel
from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    Partition,
    SbmConfig,
    SyntheticLabelConfig,
    analyze,
    census,
    generate_sbm,
    load_karate,
    louvain,
    relabel,
    scale_weights,
    score_partition,
    sweep,
)
from polarimeter.synthetic import _round_half_up


def chain_graph(n):
    return LabeledGraph.from_edges(
        [(i, i + 1, 1.0) for i in range(n - 1)], {i: 0 for i in range(n)}
    )


def blocks_partition(sizes):
    assignment = {}
    node = 0
    for cid, size in enumerate(sizes):
        for _ in range(size):
            assignment[node] = cid
            node += 1
    return Partition(assignment=assignment, k=len(sizes))


def blocks_of(g, part):
    """Node ids of graph ``g`` grouped by community id."""
    blocks = [[] for _ in range(part.k)]
    for node, cid in communities_of(g, part).items():
        blocks[cid].append(node)
    return blocks


def test_round_half_up_is_not_bankers_rounding():
    assert _round_half_up(0.5) == 1
    assert _round_half_up(1.5) == 2
    assert _round_half_up(2.5) == 3
    assert _round_half_up(2.4) == 2
    assert _round_half_up(7.5) == 8


def test_label_config_validation():
    with pytest.raises(ValueError):
        SyntheticLabelConfig(dom_ratio=0.0, num_opinions=2)
    with pytest.raises(ValueError):
        SyntheticLabelConfig(dom_ratio=1.1, num_opinions=2)
    with pytest.raises(ValueError):
        SyntheticLabelConfig(dom_ratio=0.5, num_opinions=1)


def test_sbm_config_validation():
    with pytest.raises(ValueError):
        SbmConfig(blocks=2, nodes_per_block=5, p_in=0.1, p_out=0.2)
    with pytest.raises(ValueError):
        SbmConfig(blocks=2, nodes_per_block=5, p_in=1.5, p_out=0.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SbmConfig(blocks=2, nodes_per_block=5, p_in=0.5, p_out=0.0, seed=-1)


def test_relabel_full_dominance_gives_uniform_communities():
    g = chain_graph(12)
    part = blocks_partition([6, 6])
    out = relabel(g, part, SyntheticLabelConfig(dom_ratio=1.0, num_opinions=4, seed=3))
    for block in blocks_of(g, part):
        labels = {out.opinions[u] for u in block}
        assert len(labels) == 1
    assert out.num_opinions == 4


def test_relabel_dominant_share_uses_round_half_up():
    g = chain_graph(10)
    part = blocks_partition([10])
    out = relabel(g, part, SyntheticLabelConfig(dom_ratio=0.75, num_opinions=3, seed=1))
    counts = Counter(out.opinions.values())
    assert counts.most_common(1)[0][1] == 8  # round_half_up(7.5)


def test_relabel_non_dominant_nodes_avoid_the_dominant_opinion():
    g = chain_graph(40)
    part = blocks_partition([40])
    out = relabel(g, part, SyntheticLabelConfig(dom_ratio=0.5, num_opinions=5, seed=9))
    counts = Counter(out.opinions.values())
    dominant, dom_count = counts.most_common(1)[0]
    assert dom_count == 20
    rest = sum(c for o, c in counts.items() if o != dominant)
    assert rest == 20


def test_relabel_singleton_community_gets_dominant_label():
    g = LabeledGraph.from_edges([(0, 1, 1.0)], {0: 0, 1: 0, 2: 0})
    part = Partition(assignment={0: 0, 1: 0, 2: 1}, k=2)
    for seed in range(10):
        out = relabel(g, part, SyntheticLabelConfig(0.4, num_opinions=3, seed=seed))
        assert 0 <= out.opinions[2] < 3


def relabel_case(raw, extra=(), louvain_seed=None):
    """A graph on ids "n0".."n{len(raw)-1}" (a chain plus ``extra`` index
    pairs; sorted as strings, so node order differs from index order) and
    either its Louvain partition at ``louvain_seed`` or the partition that
    puts node i in the first-appearance rank of ``raw[i]``."""
    nodes = [f"n{i}" for i in range(len(raw))]
    rows = [(i, i + 1) for i in range(len(raw) - 1)]
    rows += [(a, b) for a, b in extra if a != b]
    graph = LabeledGraph.from_edges([(nodes[a], nodes[b], 1.0) for a, b in rows],
                         {u: 0 for u in nodes})
    if louvain_seed is not None:
        return graph, louvain(graph, LouvainConfig(seed=louvain_seed))
    dense = {}
    for c in raw:
        dense.setdefault(c, len(dense))
    return graph, Partition(assignment={u: dense[c] for u, c in zip(nodes, raw)},
                            k=len(dense))


@st.composite
def relabel_cases(draw):
    n = draw(st.integers(2, 30))
    raw = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    louvain_seed = draw(st.none() | st.integers(0, 999))
    return relabel_case(raw, extra, louvain_seed)


def assert_relabel_matches_oracle(graph, partition, config):
    got = relabel(graph, partition, config).opinions
    want = naive_relabel(graph.nodes, communities_of(graph, partition), partition.k,
                         config.dom_ratio, config.num_opinions, config.seed)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(
    case=relabel_cases(),
    dom_ratio=st.floats(0.0, 1.0, exclude_min=True),
    num_opinions=st.integers(2, 10),
    seed=st.integers(0, 2**64),
)
@example(case=relabel_case([0] * 12), dom_ratio=0.5, num_opinions=3, seed=1)
@example(case=relabel_case(list(range(12))), dom_ratio=0.5, num_opinions=3, seed=1)
def test_relabel_matches_the_plain_loop_oracle(case, dom_ratio, num_opinions, seed):
    graph, partition = case
    assert_relabel_matches_oracle(
        graph, partition, SyntheticLabelConfig(dom_ratio, num_opinions, seed=seed)
    )


def test_relabel_matches_the_oracle_on_louvain_and_planted_partitions():
    karate = load_karate()
    sbm, planted = generate_sbm(SbmConfig(5, 40, 0.3, 0.01, seed=3))
    cases = [(karate, louvain(karate, LouvainConfig(seed=s))) for s in range(3)]
    cases += [(sbm, planted), (sbm, louvain(sbm, LouvainConfig(seed=0)))]
    for graph, partition in cases:
        for dom_ratio in (0.4, 0.8, 1.0):
            for num_opinions in (2, 5, 10):
                config = SyntheticLabelConfig(dom_ratio, num_opinions, seed=7)
                assert_relabel_matches_oracle(graph, partition, config)


def test_relabel_is_deterministic_per_seed():
    g = chain_graph(30)
    part = blocks_partition([10, 10, 10])
    cfg = SyntheticLabelConfig(dom_ratio=0.6, num_opinions=3, seed=7)
    assert relabel(g, part, cfg).opinions == relabel(g, part, cfg).opinions


def test_relabel_keeps_structure():
    g = chain_graph(8)
    part = blocks_partition([4, 4])
    out = relabel(g, part, SyntheticLabelConfig(dom_ratio=0.5, num_opinions=2, seed=2))
    assert edge_triples(out) == edge_triples(g)
    assert out.nodes == g.nodes


def test_sbm_dimensions_and_planted_partition():
    g, part = generate_sbm(SbmConfig(blocks=4, nodes_per_block=25, p_in=0.3,
                                     p_out=0.01, seed=11))
    assert g.node_count == 100
    assert part.k == 4
    assert communities_of(g, part) == {i: i // 25 for i in range(100)}
    assert g.num_opinions == 2
    assert set(g.opinions.values()) == {0}


def test_sbm_is_deterministic_per_seed():
    cfg = SbmConfig(blocks=3, nodes_per_block=20, p_in=0.3, p_out=0.02, seed=5)
    g1, _ = generate_sbm(cfg)
    g2, _ = generate_sbm(cfg)
    assert edge_triples(g1) == edge_triples(g2)


def test_sbm_zero_cross_probability_keeps_blocks_disconnected():
    g, part = generate_sbm(SbmConfig(blocks=3, nodes_per_block=15, p_in=0.5,
                                     p_out=0.0, seed=2))
    planted = communities_of(g, part)
    for u, v, _ in edge_triples(g):
        assert planted[u] == planted[v]


def test_sbm_density_tracks_probabilities():
    g, part = generate_sbm(SbmConfig(blocks=2, nodes_per_block=100, p_in=0.2,
                                     p_out=0.01, seed=13))
    planted = communities_of(g, part)
    intra = sum(1 for u, v, _ in edge_triples(g) if planted[u] == planted[v])
    inter = g.edge_count - intra
    assert intra == pytest.approx(2 * 0.2 * 100 * 99 / 2, rel=0.15)
    assert inter == pytest.approx(0.01 * 100 * 100, rel=0.5)


def test_louvain_recovers_planted_blocks():
    g, part = generate_sbm(SbmConfig(blocks=5, nodes_per_block=40, p_in=0.4,
                                     p_out=0.005, seed=21))
    found = louvain(g, LouvainConfig(seed=0))
    assert found.k == 5
    c = communities_of(g, found)
    for block in blocks_of(g, part):
        assert len({c[u] for u in block}) == 1


def sweep_fixture():
    g, part = generate_sbm(SbmConfig(blocks=3, nodes_per_block=20, p_in=0.4,
                                     p_out=0.02, seed=31))
    return g, part


def test_sweep_grid_is_row_major_and_complete():
    g, part = sweep_fixture()
    cells = sweep(g, dom_ratios=[0.4, 0.8], num_opinions_list=[2, 3],
                  runs=2, seed=0, partition=part)
    assert [(c.num_opinions, c.dom_ratio) for c in cells] == [
        (2, 0.4), (2, 0.8), (3, 0.4), (3, 0.8)
    ]
    assert all(c.runs == 2 for c in cells)
    assert all(0.0 <= c.mean_p <= 1.0 for c in cells)


def test_sweep_is_deterministic():
    g, part = sweep_fixture()
    kw = dict(dom_ratios=[0.5, 1.0], num_opinions_list=[2], runs=3, seed=4,
              partition=part)
    assert sweep(g, **kw) == sweep(g, **kw)


def test_sweep_thread_count_does_not_change_cells():
    g, part = sweep_fixture()
    kw = dict(dom_ratios=[0.5, 1.0], num_opinions_list=[2, 4], runs=2, seed=4,
              partition=part)
    assert sweep(g, threads=1, **kw) == sweep(g, threads=3, **kw)


def test_sweep_without_partition_detects_communities():
    g, _ = sweep_fixture()
    cells = sweep(g, dom_ratios=[1.0], num_opinions_list=[2], runs=2, seed=0)
    assert len(cells) == 1
    assert cells[0].mean_p > 0.5  # fully dominated labels on real communities


def test_sweep_cell_equals_analyze_on_its_relabeled_graph():
    # Louvain never reads labels, so a cell scored against the sweep's shared
    # partitions equals a full analyze of the relabeled graph at the seed.
    g, planted = sweep_fixture()
    seed, runs = 9, 3
    for given in (planted, None):
        cells = sweep(g, dom_ratios=[0.5, 1.0], num_opinions_list=[2, 3],
                      runs=runs, seed=seed, partition=given, threads=2)
        partition = given or louvain(g, LouvainConfig(seed=seed))
        master = random.Random(seed)
        for cell in cells:
            config = SyntheticLabelConfig(cell.dom_ratio, cell.num_opinions,
                                          seed=master.randrange(2**62))
            report = analyze(relabel(g, partition, config),
                             LouvainConfig(seed=seed), runs=runs)
            assert cell.mean_p == report.polarization_mean
            assert cell.std_p == report.polarization_std


def test_sweep_rejects_empty_grid():
    g, part = sweep_fixture()
    with pytest.raises(ValueError):
        sweep(g, dom_ratios=[], num_opinions_list=[2], runs=1, seed=0,
              partition=part)


def test_dominance_monotonicity_shows_up_at_small_scale():
    g, part = sweep_fixture()
    cells = sweep(g, dom_ratios=[0.3, 1.0], num_opinions_list=[2], runs=5,
                  seed=7, partition=part)
    low, high = cells[0].mean_p, cells[1].mean_p
    assert high > low + 0.2


def test_dominance_response_is_strict_above_the_mixing_point():
    # With two opinions a community mixes hardest at dom_ratio 0.5 (the
    # cross-opinion mass is 2d(1-d)), so growth is only guaranteed on the
    # upper half of the ratio axis.
    g, part = sweep_fixture()
    cells = sweep(g, dom_ratios=[0.5, 0.7, 0.9, 1.0], num_opinions_list=[2],
                  runs=10, seed=11, partition=part)
    means = [c.mean_p for c in cells]
    assert all(b > a for a, b in zip(means, means[1:])), means


def test_relabel_seed_streams_differ_across_cells():
    # Two different seeds should (almost surely) give different labelings.
    g = chain_graph(60)
    part = blocks_partition([20, 20, 20])
    a = relabel(g, part, SyntheticLabelConfig(dom_ratio=0.5, num_opinions=3, seed=1))
    b = relabel(g, part, SyntheticLabelConfig(dom_ratio=0.5, num_opinions=3, seed=2))
    assert a.opinions != b.opinions


def test_two_opinion_scores_agree_at_d_and_one_minus_d():
    # With two opinions the dominant one is drawn uniformly and every other
    # member gets the other opinion, so d and 1 - d give labelings with one
    # distribution when their dominant counts sum to the community size.
    # P does not change when opinions are renamed, so its expectation is
    # the same at d and 1 - d: the k=2 row of criterion 5 is a V by
    # construction. Scored on the planted partition of criterion 5's graph,
    # without Louvain.
    graph, planted = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=42))

    def mean_p(d):
        scores = []
        for seed in range(1000, 1040):
            g = relabel(graph, planted, SyntheticLabelConfig(d, 2, seed=seed))
            scores.append(score_partition(g, scale_weights(g, census(g)), planted)[2])
        return statistics.fmean(scores)

    for d in (0.3, 0.4):
        assert _round_half_up(d * 250) + _round_half_up((1 - d) * 250) == 250
    means = {d: mean_p(d) for d in (0.3, 0.7, 0.4, 0.6)}
    # measured: 0.1247 / 0.1255 and 0.0302 / 0.0281, differences 0.0008 and
    # 0.0021 against standard errors of the difference of 0.0034 and 0.0010
    bar = 0.005
    assert abs(means[0.3] - means[0.7]) < bar, means
    assert abs(means[0.4] - means[0.6]) < bar, means
    assert means[0.3] - means[0.4] > 10 * bar, means  # measured 0.0945


def test_dominance_sweep_follows_its_closed_form():
    """Criterion 5's sweep, cell by cell, against ``expected_dominance_score``:
    the 20x250 block model at seed 42, relabeled over its planted partition
    and scored against the Louvain runs of sweep seed 7, one sweep per
    opinion count as criterion 5 runs them, at 10 runs a cell.

    ``f_w``, the within-community share of edge weight in those runs, is
    0.723. Over 15 (graph seed, sweep seed) pairs (graph seed 42 with sweep
    seeds 7-16, and graph seeds 43-47 with sweep seed 7) the cells whose
    cross-opinion share c lies at least ``MARGIN`` = 0.05 from the 0.5 cap
    measured between 0.0102 below and 0.102 above the model; the pairs'
    largest misses have a median of 0.050, and this pair's is 0.052 (k=10,
    d=0.8). The model runs low: it leaves out the scaling that weighs
    minority opinions down, and for two opinions the between view's cross
    share, itself near the cap, can score above 0. Hence the window
    ``UNDER`` = 0.02 below and ``OVER`` = 0.11 above. Nearer the cap the
    cells miss by up to 0.101; the k=10, d=0.7 cell, at c = 0.5 exactly,
    scores 0.085 here where the model gives 0. With k >= 5 every cell at
    c >= 0.5 + ``MARGIN`` came out exactly 0 in all 15 pairs, as the cap
    predicts."""
    graph, planted = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=42))
    ratios, runs = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], 10
    cells = [cell for k in (2, 5, 10)
             for cell in sweep(graph, ratios, [k], runs=runs, seed=7, partition=planted)]
    iu, iv, w = graph.edge_arrays()
    shares = []
    for r in range(runs):  # the runs sweep scores against
        comm = louvain(graph, LouvainConfig(seed=7 + r)).array(graph)
        shares.append(w[comm[iu] == comm[iv]].sum() / w.sum())
    f_w = statistics.fmean(shares)
    assert f_w == pytest.approx(0.723, abs=0.001)

    MARGIN, UNDER, OVER = 0.05, 0.02, 0.11
    table = "\n".join(
        f"k={c.num_opinions} d={c.dom_ratio}: measured {c.mean_p:.4f}, "
        f"predicted {expected_dominance_score(c.dom_ratio, c.num_opinions, f_w):.4f}"
        for c in cells
    )
    for cell in cells:
        d, k = cell.dom_ratio, cell.num_opinions
        c = 1.0 - d * d - (1.0 - d) ** 2 / (k - 1)
        if abs(c - 0.5) >= MARGIN:
            miss = cell.mean_p - expected_dominance_score(d, k, f_w)
            assert -UNDER <= miss <= OVER, table
        if k >= 3 and c >= 0.5 + MARGIN:
            assert cell.mean_p == 0.0, table
