"""Labeled weighted graph: the undirected opinion-labeled network under analysis.

The graph is immutable after construction and safe to share across analysis
workers. Node identifiers are kept as read from input (strings for file
loads, ints for generated graphs); internally nodes are numbered by a
canonical sort, so the same logical graph always produces the same in-memory
layout regardless of input row order. Repeated ids are found through a set
of the ids, before any other check and before the layout is built.

Edges are stored in one layout, built at construction over those node
indices: the read-only edge arrays ``(iu, iv, weight)``, one entry per edge.
The score reads them directly. Louvain reads the symmetric CSR triple that
``adjacency()`` lays out from them on each call: ``indptr`` (int64, one
offset per node plus one), ``indices`` (int64) and ``weights`` (float64),
each row's neighbours in ascending index order.
"""

from __future__ import annotations

import copy
import operator
from array import array
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

NodeId = Hashable

# Every weight, and the total, stays in this range, so degree products in
# Louvain and the score stay normal floats (no overflow, no underflow).
MIN_WEIGHT = 1e-150
MAX_WEIGHT = 1e150
# values ``float`` reads that are no weight: text, and truth values
_NOT_WEIGHTS = (str, bytes, bytearray, bool, np.bool_)


def _node_key(node: NodeId):
    # ints (bools included) sort numerically, everything else by string
    # form; mixed inputs stay deterministic because the type tag leads, and
    # the type name breaks ties between equal string forms (1.5 and "1.5")
    if isinstance(node, int):
        return (0, node)
    return (1, str(node), type(node).__name__)


def _node_order(ids: Sequence[NodeId]) -> list[int]:
    """Positions of the distinct ``ids`` in node order, the order of
    ``sorted(ids, key=_node_key)``. When every id is a plain int, or every id
    a plain str, plain comparisons give that order without building a key
    per id."""
    key = ids.__getitem__
    kinds = set(map(type, ids))
    if kinds <= {int} or kinds <= {str}:
        return sorted(range(len(ids)), key=key)
    return sorted(range(len(ids)), key=lambda i: _node_key(ids[i]))


def _int_array(nodes, values, what: str) -> np.ndarray:
    """``values``, one per node of ``nodes``, as a new int64 array. A value
    must be an integer, as ``operator.index`` takes it (an int, a bool, a
    numpy integer); the first that is not, or lies beyond int64, is a
    ValueError naming its node, and so is a count other than one per node."""
    if len(values) != len(nodes):
        raise ValueError(f"{len(values)} labels for {len(nodes)} nodes")
    try:
        given = np.asarray(values)
        if given.ndim == 1 and np.can_cast(given.dtype, np.int64):  # no per-value check
            return given.astype(np.int64)
    except ValueError:  # ragged (a sequence beside scalars): checked below
        pass
    ints = []  # a non-integer value, or an int beyond int64, is among them
    for u, o in zip(nodes, np.asarray(values, dtype=object).tolist()):
        try:
            o = operator.index(o)
        except TypeError:
            raise ValueError(f"{what} {o!r} of node {u!r} is not an integer") from None
        if not -(2**63) <= o < 2**63:
            raise ValueError(f"{what} {o} of node {u!r} does not fit in int64")
        ints.append(o)
    return np.array(ints, dtype=np.int64)


def _opinion_array(nodes, labels, num_opinions) -> tuple[np.ndarray, int]:
    """``labels`` as `_int_array` reads them, with the opinion count (the
    largest label plus one, at least 2, when None). A label outside [0,
    count) is a ValueError naming the first such node in ``nodes`` order."""
    labels = _int_array(nodes, labels, "opinion")
    if num_opinions is None:
        num_opinions = max(2, int(labels.max()) + 1)
    if num_opinions < 2:
        raise ValueError(f"num_opinions must be >= 2, got {num_opinions}")
    bad = np.flatnonzero((labels < 0) | (labels >= num_opinions))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"opinion {labels[i]} of node {nodes[i]!r} outside [0, {num_opinions})"
        )
    return labels, int(num_opinions)


class LabeledGraph:
    """Undirected weighted graph with one discrete opinion label per node.

    Construction merges duplicate and reversed edge rows by summing their
    weights. Self-loops, weights outside [MIN_WEIGHT, MAX_WEIGHT] (NaN and
    infinities included) and a total weight above MAX_WEIGHT are rejected;
    callers that need drop-with-warning semantics (file loaders, retweet
    ingestion) filter before constructing. Every node carries a label, so
    a node in no edge row is an isolated node. The graph stores its nodes,
    labels, edge arrays, total weight and opinion count, nothing more.
    """

    def __init__(
        self, ids: Sequence[NodeId], ends, weights, labels, num_opinions=None
    ):
        """The graph over the distinct node ``ids``, in any order: ``ends``
        holds each edge row's two integer indices into ``ids``, interleaved,
        ``weights`` one weight per row, and ``labels`` one opinion per id.
        The ids are put in node order here."""
        n = len(ids)
        if len(set(ids)) != n:
            raise ValueError("node ids are not distinct")
        ends = np.asarray(ends)
        weights = np.asarray(weights, dtype=np.float64)
        if ends.ndim != 1 or weights.ndim != 1 or ends.size != 2 * weights.size:
            raise ValueError(
                f"{ends.size} edge ends for {weights.size} weights; "
                "need two ends per weight"
            )
        if not weights.size:
            raise ValueError("graph has no edges")
        if ends.dtype.kind not in "iu":
            raise ValueError(f"edge ends must be integer indices, got {ends.dtype}")
        if ends.min() < 0 or ends.max() >= n:
            raise ValueError(f"edge end index outside [0, {n})")
        ends = ends.astype(np.int64, copy=False)
        loops = ends[0::2] == ends[1::2]
        in_range = (weights >= MIN_WEIGHT) & (weights <= MAX_WEIGHT)
        bad = np.flatnonzero(loops | ~in_range)
        if len(bad):
            j = int(bad[0])
            u, v = ids[ends[2 * j]], ids[ends[2 * j + 1]]
            if loops[j]:
                raise ValueError(f"self-loop on node {u!r}")
            raise ValueError(
                f"non-positive, non-finite or out-of-range weight {float(weights[j])} "
                f"on edge ({u!r}, {v!r}); weights must lie in "
                f"[{MIN_WEIGHT}, {MAX_WEIGHT}]"
            )
        labels, self.num_opinions = _opinion_array(ids, labels, num_opinions)

        order = _node_order(ids)
        self.nodes = tuple(map(ids.__getitem__, order))
        order = np.array(order, dtype=np.int64)  # and the list of ints is freed
        # each temporary is freed once used, which bounds the layout's peak
        rank = np.empty(n, dtype=np.int64)  # node position of each index
        rank[order] = np.arange(n)
        self._labels = labels.take(order)
        del order, labels
        # rows merge on their (low, high) index pair: bincount adds each
        # pair's weights in input order, and np.unique sorts the pairs into
        # edge_arrays() order, so the sum below is that view's sum
        pairs = rank.take(ends).reshape(-1, 2)
        del rank, ends
        pairs.sort(axis=1)
        key = pairs[:, 0] * n
        key += pairs[:, 1]
        del pairs
        upper, inverse = np.unique(key, return_inverse=True)
        del key
        w = np.bincount(inverse, weights=weights)
        del inverse
        self.total_weight = total = float(w.sum())
        if not total <= MAX_WEIGHT:
            raise ValueError(f"total edge weight {total} exceeds {MAX_WEIGHT}")
        iu, iv = upper // n, upper % n
        for array in (iu, iv, w):
            array.setflags(write=False)
        self._edges = (iu, iv, w)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId, float]],
        opinions: Mapping[NodeId, int],
        num_opinions: int | None = None,
    ) -> "LabeledGraph":
        """The graph of ``(u, v, weight)`` node-id rows with an opinion per
        node id. The nodes are the labeled ids: an edge end without a label
        is a ValueError naming the first in row order, and a label-only id
        is an isolated node. A weight is a real number (an int, a float, a
        numpy real); text and bools, which ``float`` would read, are a
        ValueError naming the edge."""
        index = dict(zip(opinions, range(len(opinions))))
        ends, weights = array("q"), array("d")
        for u, v, w in edges:
            for node in (u, v):
                if (i := index.get(node)) is None:
                    raise ValueError(f"node {node!r} has no opinion label")
                ends.append(i)
            try:
                if isinstance(w, _NOT_WEIGHTS):
                    raise TypeError
                weights.append(float(w))
            except (TypeError, ValueError):
                raise ValueError(f"weight {w!r} on edge ({u!r}, {v!r}) is not a number") from None
        return cls(list(opinions), ends, weights, list(opinions.values()), num_opinions)

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges[2])

    def _with_labels(self, labels: np.ndarray, num_opinions: int) -> "LabeledGraph":
        """Copy sharing this graph's structure, with valid node-order ``labels``."""
        relabeled = copy.copy(self)
        relabeled._labels, relabeled.num_opinions = labels, int(num_opinions)
        return relabeled

    # -- edge views --------------------------------------------------------

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric CSR triple ``(indptr, indices, weights)``, laid out
        from ``edge_arrays()`` on each call: the neighbours of node index i
        are ``indices[indptr[i]:indptr[i + 1]]`` in ascending order, with
        their weights alongside. Every edge appears in both endpoint rows."""
        iu, iv, w = self._edges
        n = len(self.nodes)
        # entry j is edge j as (u, v), entry j + len(w) its mirror (v, u);
        # sorting the row-major keys u * n + v lays out the CSR rows
        key = np.concatenate([iu * n + iv, iv * n + iu])
        order = np.argsort(key)
        key = key[order]
        indptr = np.searchsorted(key, np.arange(n + 1) * n)
        key %= n
        return indptr, key, w.take(order, mode="wrap")

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One entry per edge: ``(iu, iv, weight)`` with node indices
        ``iu < iv``, ordered by ``(iu, iv)``. Stored once, at construction,
        as read-only arrays."""
        return self._edges

    @property
    def opinions(self) -> dict[NodeId, int]:
        """Opinion per node id, in ``nodes`` order. Built on each access."""
        return dict(zip(self.nodes, self._labels.tolist()))

    def opinion_array(self) -> np.ndarray:
        """Opinion index per node, aligned with ``nodes`` order."""
        return self._labels

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"num_opinions={self.num_opinions})"
        )


def census(graph: LabeledGraph) -> np.ndarray:
    """Node count per opinion, isolated nodes included: an int64 array of
    length ``graph.num_opinions``."""
    return np.bincount(graph.opinion_array(), minlength=graph.num_opinions)
