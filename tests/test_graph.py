"""LabeledGraph construction, canonicalization, and the opinion census."""

from __future__ import annotations

import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import edge_triples
from polarimeter import (
    LabeledGraph,
    Partition,
    SyntheticLabelConfig,
    census,
    relabel,
    scale_weights,
)
from polarimeter.graph import _node_key, _node_order


def test_merges_duplicate_and_reversed_edges():
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("b", "a", 2.0)], {"a": 0, "b": 1})
    assert g.edge_count == 1
    assert edge_triples(g) == (("a", "b", 3.0),)


def test_merges_reversed_edges_between_a_bool_and_its_string_form():
    g = LabeledGraph.from_edges([(True, "True", 1.0), ("True", True, 1.0)], {True: 0, "True": 1})
    assert g.edge_count == 1
    assert edge_triples(g) == ((True, "True", 2.0),)


def test_merges_reversed_edges_between_a_bool_and_the_int_it_equals():
    g = LabeledGraph.from_edges([(True, 2, 1.0), (2, 1, 1.0)], {True: 0, 2: 1})
    assert g.edge_count == 1
    assert edge_triples(g) == ((True, 2, 2.0),)


@pytest.mark.parametrize("one", [1.0, np.int64(1)], ids=["float", "numpy-int"])
def test_merges_reversed_edges_between_an_int_equal_and_the_int(one):
    g = LabeledGraph.from_edges([(one, 2, 1.0), (2, 1, 1.0)], {1: 0, 2: 1})
    assert g.edge_count == 1
    assert edge_triples(g) == ((1, 2, 2.0),)


def test_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph.from_edges([("a", "a", 1.0)], {"a": 0, "b": 1})


def test_rejects_nonpositive_weights():
    for weight in (0.0, -1.0, math.nan, math.inf, -math.inf, 1e-200, 1e160):
        with pytest.raises(ValueError, match="weight"):
            LabeledGraph.from_edges([("a", "b", weight)], {"a": 0, "b": 1})


def test_rejects_total_weight_above_the_bound():
    edges = [("a", "b", 1e150), ("b", "a", 1e150), ("b", "c", 1.0)]
    with pytest.raises(ValueError, match="total edge weight"):
        LabeledGraph.from_edges(edges, {"a": 0, "b": 1, "c": 0})
    LabeledGraph.from_edges([("a", "b", 1e150)], {"a": 0, "b": 1})
    LabeledGraph.from_edges([("a", "b", 1e-150)], {"a": 0, "b": 1})


def test_rejects_empty_edge_set():
    with pytest.raises(ValueError):
        LabeledGraph.from_edges([], {"a": 0})


def test_rejects_missing_label_naming_the_node():
    with pytest.raises(ValueError, match="b"):
        LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0})


def test_rejects_opinion_out_of_range():
    with pytest.raises(ValueError):
        LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 2}, num_opinions=2)
    with pytest.raises(ValueError):
        LabeledGraph.from_edges([("a", "b", 1.0)], {"a": -1, "b": 0})


def test_rejects_fewer_than_two_opinion_slots():
    with pytest.raises(ValueError):
        LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 0}, num_opinions=1)


def test_num_opinions_defaults_to_max_label_plus_one():
    g = LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 4})
    assert g.num_opinions == 5
    g2 = LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 0})
    assert g2.num_opinions == 2


def test_nodes_are_sorted_ints_before_strings():
    g = LabeledGraph.from_edges(
        [("x", 2, 1.0), (10, 2, 1.0)], {"x": 0, 2: 1, 10: 0}
    )
    assert g.nodes == (2, 10, "x")


def test_numpy_ints_and_integral_floats_sort_by_string_after_the_ints():
    ten, two = np.int64(10), 2.0
    g = LabeledGraph.from_edges([(ten, two, 1.0), (two, 3, 1.0)], {ten: 0, two: 1, 3: 0})
    assert g.nodes == (3, ten, two)
    assert [type(u) for u in g.nodes] == [int, np.int64, float]
    assert _node_key(ten) == (1, "10", "int64") and _node_key(two) == (1, "2.0", "float")


def test_label_only_nodes_become_isolated():
    g = LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 1, "c": 1})
    assert g.nodes == ("a", "b", "c")
    assert g.node_count == 3
    assert g.edge_count == 1


def test_edges_sorted_by_node_order():
    g = LabeledGraph.from_edges(
        [("c", "d", 1.0), ("a", "d", 1.0), ("a", "b", 1.0)],
        {"a": 0, "b": 0, "c": 1, "d": 1},
    )
    assert [(u, v) for u, v, _ in edge_triples(g)] == [("a", "b"), ("a", "d"), ("c", "d")]


def test_total_weight_sums_merged_edges():
    g = LabeledGraph.from_edges(
        [("a", "b", 1.5), ("b", "a", 0.5), ("b", "c", 2.0)],
        {"a": 0, "b": 0, "c": 1},
    )
    assert g.total_weight == pytest.approx(4.0)


def test_total_weight_is_the_edge_array_sum_bit_for_bit():
    rng = random.Random(9)
    pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(900)]
    edges = [(u, v, rng.random() + 0.1) for u, v in pairs if u != v]
    g = LabeledGraph.from_edges(edges, {i: i % 3 for i in range(200)})
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
    g = LabeledGraph.from_edges(rows, {u: u % 2 for u in range(12)})
    digest = hashlib.sha256()
    for array in g.adjacency():
        digest.update(array.tobytes())
    digest.update(repr(g.total_weight).encode())
    assert digest.hexdigest() == ADJACENCY_DIGESTS[seed]


def test_adjacency_is_symmetric_and_weighted():
    g = LabeledGraph.from_edges([("b", "c", 3.0), ("a", "b", 2.0)], {"a": 0, "b": 0, "c": 1})
    indptr, indices, weights = g.adjacency()
    assert [a.dtype for a in g.adjacency()] == [np.int64, np.int64, np.float64]
    ia, ib, ic = (g.nodes.index(x) for x in "abc")

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
    g = LabeledGraph.from_edges(edges, {i: i % 2 for i in range(30)})
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
    assert w.sum() * 2 == pytest.approx(weights.sum())


def test_edge_arrays_are_stored_once_read_only_and_equal_the_csr_view():
    rng = random.Random(11)
    rows = [(*rng.sample(range(40), 2), rng.random() + 0.01) for _ in range(150)]
    g = LabeledGraph.from_edges(rows, {u: u % 3 for u in range(40)})
    arrays = g.edge_arrays()
    assert g.edge_arrays() is arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    # the per-edge view of the CSR rows, bit for bit
    indptr, indices, weights = g.adjacency()
    rows = np.repeat(np.arange(g.node_count, dtype=np.int64), np.diff(indptr))
    upper = indices > rows
    for stored, derived in zip(arrays, (rows[upper], indices[upper], weights[upper])):
        assert stored.dtype == derived.dtype
        assert stored.tobytes() == derived.tobytes()
    planted = Partition(assignment={u: u % 2 for u in range(40)}, k=2)
    assert relabel(g, planted, SyntheticLabelConfig(1.0, 2, 0)).edge_arrays() is arrays


def test_replace_labels_keeps_structure():
    g = LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 1})
    g2 = g._with_labels(np.array([2, 2]), 3)
    assert edge_triples(g2) == edge_triples(g)
    assert g2.opinions == {"a": 2, "b": 2}
    assert g2.num_opinions == 3
    assert g.opinions == {"a": 0, "b": 1}


def test_replace_labels_shares_the_structure():
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)], {"a": 0, "b": 1, "c": 1})
    g2 = g._with_labels(np.array([1, 1, 0]), 2)
    assert g2.edge_arrays() is g.edge_arrays()
    for ours, theirs in zip(g2.adjacency(), g.adjacency()):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    assert g2.nodes is g.nodes
    assert g2.total_weight == g.total_weight
    assert g2.opinion_array().tolist() == [1, 1, 0]
    assert g.opinion_array().tolist() == [0, 1, 1]


@pytest.mark.parametrize("build", ["from_edges"])
def test_label_beyond_int64_is_a_value_error_naming_the_node(build):
    opinions = {"a": 0, "b": 10**20}
    with pytest.raises(ValueError, match="'b'"):
        LabeledGraph.from_edges([("a", "b", 1.0)], opinions)


@pytest.mark.parametrize("label", [1.5, 1.0, None, "1"])
def test_from_edges_rejects_a_non_integer_label_naming_the_node(label):
    with pytest.raises(ValueError, match=f"opinion {label!r} of node 'b' is not an integer"):
        LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": label})


def test_a_sequence_beside_integer_labels_is_named_by_its_node():
    """numpy refuses [[0], 1] as ragged, and its message named no node. One
    sequence per node, [[0], [1]], was read as a (2, 1) array, and the count
    check on its shape said "2 labels for 2 nodes"."""
    for build in (
        lambda: LabeledGraph.from_edges([("a", "b", 1.0)], {"a": [0], "b": 1}),
        lambda: LabeledGraph.from_edges([("a", "b", 1.0)], {"a": [0], "b": [1]}),
        lambda: LabeledGraph(["a", "b"], [0, 1], [1.0], np.array([[0], [1]])),
    ):
        with pytest.raises(ValueError, match=r"^opinion \[0\] of node 'a' is not an integer$"):
            build()


@pytest.mark.parametrize("weight", ["x", None])
def test_from_edges_names_an_edge_whose_weight_is_not_a_number(weight):
    """``float()`` raised its own message, which named no edge."""
    with pytest.raises(ValueError, match=f"^weight {weight!r} on edge \\('a', 'b'\\) is not a number$"):
        LabeledGraph.from_edges([("a", "b", weight)], {"a": 0, "b": 1})


@pytest.mark.parametrize("weight", ["1.5", b"1.5", True, False, np.True_], ids=repr)
def test_from_edges_refuses_text_and_bool_weights(weight):
    """``float()`` read these as 1.5 and as 1.0 or 0.0, where a label of the
    same kinds is refused."""
    with pytest.raises(ValueError, match=f"^weight {re.escape(repr(weight))} on edge "):
        LabeledGraph.from_edges([("a", "b", weight)], {"a": 0, "b": 1})


@pytest.mark.parametrize("weight", [2, 1.5, np.float32(1.5), np.int64(2), np.uint8(2)])
def test_from_edges_takes_int_float_and_numpy_real_weights(weight):
    g = LabeledGraph.from_edges([("a", "b", weight)], {"a": 0, "b": 1})
    assert edge_triples(g) == (("a", "b", float(weight)),)


def test_integer_labels_of_any_integer_type_are_accepted():
    for labels in ([0, True], [np.int32(0), np.uint64(1)], np.array([0, 1], np.uint8)):
        g = LabeledGraph(["a", "b"], [0, 1], [1.0], labels)
        assert g.opinion_array().dtype == np.int64
        assert g.opinions == {"a": 0, "b": 1}


def test_array_constructor_puts_ids_in_node_order():
    g = LabeledGraph(["c", "a", "b"], np.array([0, 1, 2, 1]), [1.0, 2.0], [1, 0, 1])
    assert g.nodes == ("a", "b", "c")
    assert edge_triples(g) == (("a", "b", 2.0), ("a", "c", 1.0))
    assert g.opinions == {"a": 0, "b": 1, "c": 1}


# (ids, ends, weights, labels, num_opinions) -> the message each must raise
BAD_ARRAYS = {
    "self-loop": ((["a", "b"], [1, 1], [1.0], [0, 1], None), "self-loop on node 'b'"),
    "zero weight": ((["a", "b"], [0, 1], [0.0], [0, 1], None), "weight 0.0 on edge"),
    "nan weight": ((["a", "b"], [0, 1], [math.nan], [0, 1], None), "weight nan on"),
    "index past the end": ((["a", "b"], [0, 2], [1.0], [0, 1], None), "outside"),
    "negative index": ((["a", "b", "c"], [0, -1], [1.0], [0, 1, 0], None), "outside"),
    "uint64 index": (
        (["a", "b"], np.array([0, 2**64 - 1], np.uint64), [1.0], [0, 1], None),
        "outside",
    ),
    "index beyond int64": ((["a", "b"], [0, 2**70], [1.0], [0, 1], None), "integer"),
    "float indices": ((["a", "b"], [0.0, 1.0], [1.0], [0, 1], None), "integer"),
    "odd ends": ((["a", "b"], [0, 1, 0], [1.0], [0, 1], None), "two ends per weight"),
    "ends for two rows": ((["a", "b"], [0, 1, 1, 0], [1.0], [0, 1], None), "two ends"),
    "2-d ends": ((["a", "b"], [[0, 1]], [1.0], [0, 1], None), "two ends per weight"),
    "no edges": ((["a", "b"], [], [], [0, 1], None), "no edges"),
    "short labels": ((["a", "b"], [0, 1], [1.0], [0], None), "1 labels for 2 nodes"),
    "label too big": ((["a", "b"], [0, 1], [1.0], [0, 2], 2), "opinion 2 of node 'b'"),
    "negative label": ((["a", "b"], [0, 1], [1.0], [-1, 0], None), "node 'a'"),
    "label beyond int64": ((["a", "b"], [0, 1], [1.0], [0, 10**20], None), "node 'b'"),
    "fractional label": ((["a", "b"], [0, 1], [1.0], [0, 1.5], None), "node 'b'"),
    "float label": ((["a", "b"], [0, 1], [1.0], [0, 1.0], None), "1.0 of node 'b'"),
    "float label array": (
        (["a", "b"], [0, 1], [1.0], np.array([0.0, 1.0]), None),
        "0.0 of node 'a' is not an integer",
    ),
    "None label": ((["a", "b"], [0, 1], [1.0], [0, None], None), "None of node 'b'"),
    "str label": ((["a", "b"], [0, 1], [1.0], ["1", 0], None), "'1' of node 'a'"),
    "one opinion": ((["a", "b"], [0, 1], [1.0], [0, 0], 1), "num_opinions"),
    "repeated id": ((["a", "b", "a"], [0, 1], [1.0], [0, 1, 0], None), "not distinct"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARRAYS))
def test_array_constructor_rejects_bad_input_with_value_error(case):
    args, message = BAD_ARRAYS[case]
    try:
        LabeledGraph(*args)
    except ValueError as exc:
        assert message in str(exc)
    else:
        pytest.fail(f"{case}: no error")


def test_census_counts_include_isolated_nodes():
    g = LabeledGraph.from_edges([("a", "b", 1.0)], {"a": 0, "b": 1, "c": 1, "d": 1})
    c = census(g)
    assert c.dtype == np.int64 and len(c) == g.num_opinions
    assert c.tolist() == [1, 3]
    assert g.node_count == 4
    assert (c / g.node_count)[1] == pytest.approx(0.75)


def test_census_degenerate_single_opinion():
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)], {"a": 0, "b": 0, "c": 0},
                     num_opinions=3)
    c = census(g)
    assert c.dtype == np.int64 and len(c) == g.num_opinions
    assert c.tolist() == [3, 0, 0]
    assert (c / g.node_count).tolist() == [1.0, 0.0, 0.0]


def test_census_fractions_sum_to_one_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 30)
        k = rng.randint(2, 5)
        opinions = {i: rng.randrange(k) for i in range(n)}
        edges = [(i, (i + 1) % n, 1.0) for i in range(n - 1)]
        g = LabeledGraph.from_edges(edges, opinions, num_opinions=k)
        c = census(g)
        assert c.dtype == np.int64 and len(c) == k
        assert math.fsum((c / g.node_count).tolist()) == pytest.approx(1.0, abs=1e-12)


def test_scaled_weights_equal_a_plain_loop_over_the_edges():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 30)
        k = rng.randint(2, 5)
        opinions = {i: rng.randrange(k) for i in range(n)}
        rows = [(*rng.sample(range(n), 2), rng.random() + 0.01) for _ in range(2 * n)]
        g = LabeledGraph.from_edges(rows, opinions, num_opinions=k)
        counts = [0] * k
        for o in opinions.values():
            counts[o] += 1
        fraction = [count / n for count in counts]
        label = g.opinion_array().tolist()
        want = [
            0.5 * (fraction[label[u]] + fraction[label[v]]) * w
            for u, v, w in zip(*(a.tolist() for a in g.edge_arrays()))
        ]
        got = scale_weights(g, census(g)).tolist()
        assert len(got) == len(want)
        assert all(a == b for a, b in zip(got, want))


def test_example_fractions_thirteen_and_nine_of_twenty_two():
    opinions = {i: (0 if i < 13 else 1) for i in range(22)}
    edges = [(i, i + 1, 1.0) for i in range(21)]
    g = LabeledGraph.from_edges(edges, opinions)
    c = census(g)
    assert c.dtype == np.int64 and len(c) == g.num_opinions
    assert (c / g.node_count)[0] == pytest.approx(13 / 22)
    assert (c / g.node_count)[1] == pytest.approx(9 / 22)


def test_edge_input_order_never_matters():
    rng = random.Random(3)
    edges = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 0.5), ("a", "d", 1.5)]
    labels = {"a": 0, "b": 1, "c": 0, "d": 1}
    ref = LabeledGraph.from_edges(edges, labels)
    for _ in range(10):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        flipped = [
            (v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in shuffled
        ]
        assert edge_triples(LabeledGraph.from_edges(flipped, labels)) == edge_triples(ref)


NODE_IDS = st.one_of(
    st.sets(st.integers(-(10**20), 10**20)),
    st.sets(st.text(max_size=4)),
    st.sets(st.one_of(st.integers(-50, 50), st.text(max_size=3))),
    # values that are not plain ints or strs, or that equal an int
    st.sets(
        st.one_of(
            st.integers(-3, 3),
            st.text(max_size=2),
            st.sampled_from([True, False, 1.0, 2.5, 1.5, "1.5", np.int64(2), "True"]),
        )
    ),
)


@given(NODE_IDS)
@example({True, "True", 2})
@example({1.5, "1.5", np.int64(7), 3})
def test_node_order_is_the_node_key_order(ids):
    ids = list(ids)
    got = [ids[i] for i in _node_order(ids)]
    want = sorted(ids, key=_node_key)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


@given(
    st.one_of(
        st.lists(st.text(max_size=2), min_size=2),
        st.lists(st.integers(-5, 5), min_size=2),
        # equal values of other kinds: 1, 1.0 and True are equal, "1" is not
        st.lists(
            st.one_of(
                st.sampled_from([1, 1.0, True, "1"]), st.integers(-2, 2), st.text(max_size=1)
            ),
            min_size=2,
        ),
    )
)
@example([1, 1.0])
@example([True, 1])
@example(["b", "a", "c", "b"])  # the copies are not neighbours in the input
def test_ids_are_refused_exactly_when_they_are_not_distinct(ids):
    """Repeated ids are refused before any other fault is found: here every
    call also has a self-loop and too few labels."""
    with pytest.raises(ValueError) as refused:
        LabeledGraph(ids, [0, 0], [1.0], [0], 2)
    assert ("not distinct" in str(refused.value)) == (len(set(ids)) != len(ids))


# traced bytes a layout of 100,000 shuffled str ids and 240,000 edge ends may
# take, what it keeps included: measured at 8.7 MB (17.3 MB when every
# temporary lived to the end of the layout, and the ids were checked through
# a set); it keeps 4.5 MB
LAYOUT_PEAK = 10_000_000


def test_layout_memory_is_bounded():
    n, rows = 100_000, 120_000
    rng = np.random.default_rng(7)
    ids = [f"u{i}" for i in rng.permutation(n).tolist()]
    u = rng.integers(0, n, rows)
    ends = np.column_stack([u, (u + rng.integers(1, n, rows)) % n]).ravel()
    weights, labels = np.ones(rows), [i % 3 for i in range(n)]
    tracemalloc.start()
    try:
        LabeledGraph(ids, ends, weights, labels, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LAYOUT_PEAK, peak


@given(
    NODE_IDS.filter(lambda ids: len(ids) >= 2),
    st.lists(
        st.tuples(
            st.integers(0, 99), st.integers(0, 99), st.sampled_from([0.1, 1 / 3, 2.5])
        ),
        min_size=1,
        max_size=20,
    ),
    st.data(),
)
def test_array_constructor_equals_from_edges_for_any_id_order(ids, rows, data):
    ids = list(ids)
    n = len(ids)
    rows = [(a % n, b % n, w) for a, b, w in rows if a % n != b % n]
    assume(rows)
    labels = [i % 3 for i in range(n)]
    want = LabeledGraph.from_edges(
        [(ids[a], ids[b], w) for a, b, w in rows], dict(zip(ids, labels))
    )
    perm = data.draw(st.permutations(range(n)))
    position = {old: new for new, old in enumerate(perm)}
    got = LabeledGraph(
        [ids[i] for i in perm],
        np.array([position[x] for a, b, _ in rows for x in (a, b)], dtype=np.int64),
        [w for _, _, w in rows],
        [labels[i] for i in perm],
    )
    assert len(got.nodes) == len(want.nodes)
    assert all(a is b for a, b in zip(got.nodes, want.nodes))
    assert got.num_opinions == want.num_opinions
    for ours, theirs in zip(
        (*got.edge_arrays(), *got.adjacency(), got.opinion_array()),
        (*want.edge_arrays(), *want.adjacency(), want.opinion_array()),
    ):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
