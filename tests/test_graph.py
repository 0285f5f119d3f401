"""LabeledGraph construction, canonicalization, and the opinion census."""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest

from polarimeter import LabeledGraph, census


def test_merges_duplicate_and_reversed_edges():
    g = LabeledGraph([("a", "b", 1.0), ("b", "a", 2.0)], {"a": 0, "b": 1})
    assert g.edge_count == 1
    assert g.edges == (("a", "b", 3.0),)


def test_merges_reversed_edges_between_a_bool_and_its_string_form():
    g = LabeledGraph([(True, "True", 1.0), ("True", True, 1.0)], {True: 0, "True": 1})
    assert g.edge_count == 1
    assert g.edges == ((True, "True", 2.0),)


def test_merges_reversed_edges_between_a_bool_and_the_int_it_equals():
    g = LabeledGraph([(True, 2, 1.0), (2, 1, 1.0)], {True: 0, 2: 1})
    assert g.edge_count == 1
    assert g.edges == ((True, 2, 2.0),)


@pytest.mark.parametrize("one", [1.0, np.int64(1)], ids=["float", "numpy-int"])
def test_merges_reversed_edges_between_an_int_equal_and_the_int(one):
    g = LabeledGraph([(one, 2, 1.0), (2, 1, 1.0)], {1: 0, 2: 1})
    assert g.edge_count == 1
    assert g.edges == ((1, 2, 2.0),)


def test_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph([("a", "a", 1.0)], {"a": 0, "b": 1})


def test_rejects_nonpositive_weights():
    for weight in (0.0, -1.0, math.nan, math.inf, -math.inf, 1e-200, 1e160):
        with pytest.raises(ValueError, match="weight"):
            LabeledGraph([("a", "b", weight)], {"a": 0, "b": 1})


def test_rejects_total_weight_above_the_bound():
    edges = [("a", "b", 1e150), ("b", "a", 1e150), ("b", "c", 1.0)]
    with pytest.raises(ValueError, match="total edge weight"):
        LabeledGraph(edges, {"a": 0, "b": 1, "c": 0})
    LabeledGraph([("a", "b", 1e150)], {"a": 0, "b": 1})
    LabeledGraph([("a", "b", 1e-150)], {"a": 0, "b": 1})


def test_rejects_empty_edge_set():
    with pytest.raises(ValueError):
        LabeledGraph([], {"a": 0})


def test_rejects_missing_label_naming_the_node():
    with pytest.raises(ValueError, match="b"):
        LabeledGraph([("a", "b", 1.0)], {"a": 0})


def test_rejects_opinion_out_of_range():
    with pytest.raises(ValueError):
        LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 2}, num_opinions=2)
    with pytest.raises(ValueError):
        LabeledGraph([("a", "b", 1.0)], {"a": -1, "b": 0})


def test_rejects_fewer_than_two_opinion_slots():
    with pytest.raises(ValueError):
        LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 0}, num_opinions=1)


def test_num_opinions_defaults_to_max_label_plus_one():
    g = LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 4})
    assert g.num_opinions == 5
    g2 = LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 0})
    assert g2.num_opinions == 2


def test_nodes_are_sorted_ints_before_strings():
    g = LabeledGraph(
        [("x", 2, 1.0), (10, 2, 1.0)], {"x": 0, 2: 1, 10: 0}
    )
    assert g.nodes == (2, 10, "x")


def test_label_only_nodes_become_isolated():
    g = LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 1, "c": 1})
    assert g.nodes == ("a", "b", "c")
    assert g.node_count == 3
    assert g.edge_count == 1


def test_edges_sorted_by_node_order():
    g = LabeledGraph(
        [("c", "d", 1.0), ("a", "d", 1.0), ("a", "b", 1.0)],
        {"a": 0, "b": 0, "c": 1, "d": 1},
    )
    assert [(u, v) for u, v, _ in g.edges] == [("a", "b"), ("a", "d"), ("c", "d")]


def test_total_weight_sums_merged_edges():
    g = LabeledGraph(
        [("a", "b", 1.5), ("b", "a", 0.5), ("b", "c", 2.0)],
        {"a": 0, "b": 0, "c": 1},
    )
    assert g.total_weight == pytest.approx(4.0)


def test_total_weight_is_the_edge_array_sum_bit_for_bit():
    rng = random.Random(9)
    pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(900)]
    edges = [(u, v, rng.random() + 0.1) for u, v in pairs if u != v]
    g = LabeledGraph(edges, {i: i % 3 for i in range(200)})
    assert g.total_weight == float(g.edge_arrays()[2].sum())


# SHA-256 of adjacency() bytes and repr(total_weight), fixed at a known-good
# commit. The weights are not dyadic, so summing a pair's duplicate and
# reversed rows in another order moves the bits and fails here.
ADJACENCY_DIGESTS = {
    0: "0f878c7e22013718ad44721d729fa890d13f4d6af735dc0f0b997213c9fcfdd5",
    1: "0b50d6b4454b2391ef1e0cd0206344d77ae77a1d442a916439570701cfd554e1",
    2: "0305d3bb678a04788a72c12f154b6e4a1ca79df86e49ced78d1d0b44ba1bbff4",
}


@pytest.mark.parametrize("seed", sorted(ADJACENCY_DIGESTS))
def test_merged_weights_are_bit_exact(seed):
    rng = random.Random(seed)
    weights = (0.1, 1 / 3, 1e-3, 0.7, 2.5)
    rows = []
    for _ in range(60):
        u, v = rng.sample(range(12), 2)
        rows.append((u, v, rng.choice(weights)))
        if rng.random() < 0.5:
            rows.append((v, u, rng.choice(weights)))
    g = LabeledGraph(rows, {u: u % 2 for u in range(12)})
    digest = hashlib.sha256()
    for array in g.adjacency():
        digest.update(array.tobytes())
    digest.update(repr(g.total_weight).encode())
    assert digest.hexdigest() == ADJACENCY_DIGESTS[seed]


def test_adjacency_is_symmetric_and_weighted():
    g = LabeledGraph([("b", "c", 3.0), ("a", "b", 2.0)], {"a": 0, "b": 0, "c": 1})
    indptr, indices, weights = g.adjacency()
    assert [a.dtype for a in g.adjacency()] == [np.int64, np.int64, np.float64]
    ia, ib, ic = (g.index_of(x) for x in "abc")

    def row(i):
        a, b = indptr[i], indptr[i + 1]
        return list(zip(indices[a:b].tolist(), weights[a:b].tolist()))

    assert row(ia) == [(ib, 2.0)]
    assert row(ib) == [(ia, 2.0), (ic, 3.0)]
    assert row(ic) == [(ib, 3.0)]


def test_edge_views_agree_with_the_csr_rows():
    rng = random.Random(5)
    pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(80)]
    edges = [(u, v, rng.random() + 0.5) for u, v in pairs if u != v]
    g = LabeledGraph(edges, {i: i % 2 for i in range(30)})
    indptr, indices, weights = g.adjacency()
    assert indptr[-1] == 2 * g.edge_count
    rows = np.repeat(np.arange(g.node_count), np.diff(indptr))
    entries = set(zip(rows.tolist(), indices.tolist(), weights.tolist()))
    assert entries == {(j, i, x) for i, j, x in entries}
    for i in range(g.node_count):
        assert np.all(np.diff(indices[indptr[i] : indptr[i + 1]]) > 0)
    iu, iv, w = g.edge_arrays()
    assert np.all(iu < iv)
    assert sorted(zip(iu.tolist(), iv.tolist())) == list(zip(iu.tolist(), iv.tolist()))
    triples = zip(iu.tolist(), iv.tolist(), w.tolist())
    assert g.edges == tuple((g.nodes[a], g.nodes[b], x) for a, b, x in triples)
    assert w.sum() * 2 == pytest.approx(weights.sum())


def test_replace_labels_keeps_structure():
    g = LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 1})
    g2 = g.replace_labels({"a": 2, "b": 2}, num_opinions=3)
    assert g2.edges == g.edges
    assert g2.opinions == {"a": 2, "b": 2}
    assert g2.num_opinions == 3
    assert g.opinions == {"a": 0, "b": 1}


def test_replace_labels_shares_the_structure():
    g = LabeledGraph([("a", "b", 1.0), ("b", "c", 2.0)], {"a": 0, "b": 1, "c": 1})
    g2 = g.replace_labels({"a": 1, "b": 1, "c": 0})
    assert g2.adjacency() is g.adjacency()
    for ours, theirs in zip(g2.adjacency(), g.adjacency()):
        assert ours is theirs
    assert g2.nodes is g.nodes
    assert g2.total_weight == g.total_weight
    assert g2.opinion_array().tolist() == [1, 1, 0]
    assert g.opinion_array().tolist() == [0, 1, 1]


def test_replace_labels_validates_like_the_constructor():
    g = LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 1})
    with pytest.raises(ValueError, match="'z'"):
        g.replace_labels({"a": 0, "b": 1, "z": 0})
    with pytest.raises(ValueError, match="'b'"):
        g.replace_labels({"a": 0})
    with pytest.raises(ValueError):
        g.replace_labels({"a": 0, "b": 2}, num_opinions=2)
    with pytest.raises(ValueError):
        g.replace_labels({"a": 0, "b": 0}, num_opinions=1)


def test_census_counts_include_isolated_nodes():
    g = LabeledGraph([("a", "b", 1.0)], {"a": 0, "b": 1, "c": 1, "d": 1})
    c = census(g)
    assert c.counts == (1, 3)
    assert c.total == 4
    assert c.fraction(1) == pytest.approx(0.75)


def test_census_degenerate_single_opinion():
    g = LabeledGraph([("a", "b", 1.0), ("b", "c", 1.0)], {"a": 0, "b": 0, "c": 0},
                     num_opinions=3)
    c = census(g)
    assert c.counts == (3, 0, 0)
    assert c.fractions == (1.0, 0.0, 0.0)


def test_census_fractions_sum_to_one_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 30)
        k = rng.randint(2, 5)
        opinions = {i: rng.randrange(k) for i in range(n)}
        edges = [(i, (i + 1) % n, 1.0) for i in range(n - 1)]
        g = LabeledGraph(edges, opinions, num_opinions=k)
        assert math.fsum(census(g).fractions) == pytest.approx(1.0, abs=1e-12)


def test_example_fractions_thirteen_and_nine_of_twenty_two():
    opinions = {i: (0 if i < 13 else 1) for i in range(22)}
    edges = [(i, i + 1, 1.0) for i in range(21)]
    g = LabeledGraph(edges, opinions)
    c = census(g)
    assert c.fraction(0) == pytest.approx(13 / 22)
    assert c.fraction(1) == pytest.approx(9 / 22)


def test_edge_input_order_never_matters():
    rng = random.Random(3)
    edges = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 0.5), ("a", "d", 1.5)]
    labels = {"a": 0, "b": 1, "c": 0, "d": 1}
    ref = LabeledGraph(edges, labels)
    for _ in range(10):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        flipped = [
            (v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in shuffled
        ]
        assert LabeledGraph(flipped, labels).edges == ref.edges
