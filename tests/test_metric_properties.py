"""Property-based invariants of the four-mass score."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    Partition,
    analyze,
    census,
    report_json,
    scale_weights,
    score_partition,
)
from polarimeter.graph import MAX_WEIGHT, MIN_WEIGHT
from test_metric import masses as four_masses


@st.composite
def scored_inputs(draw):
    """(edge rows, opinions, num_opinions, partition) on up to 10 nodes."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    weights = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)
    # one row per node pair, so merging never adds weights in a new order
    edges = draw(
        st.lists(
            st.tuples(pairs, weights),
            min_size=1,
            max_size=25,
            unique_by=lambda e: frozenset(e[0]),
        )
    )
    rows = [(u, v, w) for (u, v), w in edges]
    opinions = {u: draw(st.integers(0, k - 1)) for u in range(n)}
    assignment = {u: draw(st.integers(0, 3)) for u in range(n)}
    used = sorted(set(assignment.values()))
    dense = {u: used.index(c) for u, c in assignment.items()}
    return rows, opinions, k, Partition(assignment=dense, k=len(used))


def score(rows, opinions, k, partition):
    g = LabeledGraph.from_edges(rows, opinions, num_opinions=k)
    return score_partition(g, scale_weights(g, census(g)), partition)


@settings(max_examples=200, deadline=None)
@given(scored_inputs())
def test_four_masses_sum_to_scaled_total(inputs):
    rows, opinions, k, partition = inputs
    g = LabeledGraph.from_edges(rows, opinions, num_opinions=k)
    scaled = scale_weights(g, census(g))
    masses = four_masses(g, scaled, partition)
    assert masses.shape == (4,)
    assert (masses >= 0).all()
    assert masses.sum() == pytest.approx(scaled.sum(), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(scored_inputs())
def test_scores_stay_in_the_unit_interval(inputs):
    p_w, p_b, p = score(*inputs)
    for value in (p_w, p_b, p):
        assert 0.0 <= value <= 1.0
    assert min(p_w, p_b) - 1e-12 <= p <= max(p_w, p_b) + 1e-12


@settings(max_examples=200, deadline=None)
@given(scored_inputs())
def test_polarization_depends_on_the_partition_only_through_the_cap(inputs):
    """Each view scores s·p = s - 2·min(c, s/2) from its scaled mass s and
    cross-opinion mass c, so the blend is P = 1 - 2C/S + (2/S)·[max(0,
    c_w - s_w/2) + max(0, c_b - s_b/2)] with C and S the graph's totals.
    Where neither view's cross share reaches 0.5, P = 1 - 2C/S, minus the
    E-I index of the scaled weights, whatever the partition."""
    rows, opinions, k, partition = inputs
    g = LabeledGraph.from_edges(rows, opinions, num_opinions=k)
    scaled = scale_weights(g, census(g))
    b_same, c_b, w_same, c_w = four_masses(g, scaled, partition).tolist()
    s_w, s_b = w_same + c_w, b_same + c_b
    capped = max(0.0, c_w - s_w / 2) + max(0.0, c_b - s_b / 2)
    p = score_partition(g, scaled, partition)[2]
    assert abs(p - (1 - 2 * (c_w + c_b) / (s_w + s_b) + 2 / (s_w + s_b) * capped)) <= 1e-12
    if all(c < s / 2 for c, s in ((c_w, s_w), (c_b, s_b)) if s):
        eu, ev, _ = g.edge_arrays()
        labels = g.opinion_array()
        cross = scaled[labels[eu] != labels[ev]].sum()
        assert abs(p - (1 - 2 * cross / scaled.sum())) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(scored_inputs(), st.randoms(use_true_random=False))
def test_scores_ignore_edge_row_order(inputs, rng):
    rows, opinions, k, partition = inputs
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert score(shuffled, opinions, k, partition) == score(rows, opinions, k, partition)


@settings(max_examples=100, deadline=None)
@given(scored_inputs())
def test_scores_ignore_duplicate_row_splitting(inputs):
    # halving is exact in binary floating point, so the merged graph is the same
    rows, opinions, k, partition = inputs
    split = [(u, v, w / 2) for u, v, w in rows] + [(v, u, w / 2) for u, v, w in rows]
    assert score(split, opinions, k, partition) == score(rows, opinions, k, partition)


@settings(max_examples=100, deadline=None)
@given(scored_inputs(), st.integers(-520, 520))
def test_reports_ignore_power_of_two_weight_scaling(inputs, exponent):
    # multiplying by 2**exponent is exact unless a weight, total or degree
    # product leaves the normal range, which the weight bounds rule out
    rows, opinions, k, _ = inputs
    scaled = [(u, v, w * 2.0**exponent) for u, v, w in rows]
    weights = [w for _, _, w in scaled]
    in_range = all(MIN_WEIGHT <= w <= MAX_WEIGHT for w in weights)
    if not (in_range and sum(weights) <= MAX_WEIGHT):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(scaled, opinions, num_opinions=k)
        return
    config = LouvainConfig(seed=abs(exponent))  # seeds must be non-negative
    want = analyze(LabeledGraph.from_edges(rows, opinions, num_opinions=k), config, runs=2)
    got = analyze(LabeledGraph.from_edges(scaled, opinions, num_opinions=k), config, runs=2)
    assert got == want
    assert report_json(got) == report_json(want)
