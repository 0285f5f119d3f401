"""Labeled weighted graph: the undirected opinion-labeled network under analysis.

The graph is immutable after construction and safe to share across analysis
workers. Node identifiers are kept as read from input (strings for file
loads, ints for generated graphs); internally nodes are numbered by a
canonical sort, so the same logical graph always produces the same in-memory
layout regardless of input row order.

Edges are stored once, as a symmetric CSR triple over those node indices:
``indptr`` (int64, one offset per node plus one), ``indices`` (int64) and
``weights`` (float64), each row's neighbours in ascending index order. The
edge list view and the node-id edge triples are derived from it on request.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

NodeId = Hashable

# Every weight, and the total, stays in this range, so degree products in
# Louvain and the score stay normal floats (no overflow, no underflow).
MIN_WEIGHT = 1e-150
MAX_WEIGHT = 1e150


def _node_key(node: NodeId):
    # ints sort numerically, everything else by string form; mixed inputs
    # stay deterministic because the type tag leads, and the type name
    # breaks ties between equal string forms (1.5 and "1.5"). A value equal
    # to an int (a bool, a numpy integer, 1.0) keys as that int, because
    # Python takes it and the int as one node. Plain ints and strs, the
    # common ids, skip the slower abstract-type check.
    if isinstance(node, int) or not isinstance(node, str) and (
        isinstance(node, numbers.Integral)
        or isinstance(node, float) and node.is_integer()
    ):
        return (0, int(node))
    return (1, str(node), type(node).__name__)


class LabeledGraph:
    """Undirected weighted graph with one discrete opinion label per node.

    Construction merges duplicate and reversed edge entries by summing their
    weights. Self-loops, weights outside [MIN_WEIGHT, MAX_WEIGHT] (NaN and
    infinities included) and a total weight above MAX_WEIGHT are rejected;
    callers that need drop-with-warning semantics (file loaders, retweet
    ingestion) filter before constructing. Nodes are the union of edge
    endpoints and label keys, so label-only nodes survive as isolated nodes.
    """

    def __init__(
        self,
        edges: Iterable[tuple[NodeId, NodeId, float]],
        opinions: Mapping[NodeId, int],
        num_opinions: int | None = None,
    ):
        node_set = set(opinions)
        ends: list[NodeId] = []
        weights: list[float] = []
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            w = float(w)
            if not MIN_WEIGHT <= w <= MAX_WEIGHT:
                raise ValueError(
                    f"non-positive, non-finite or out-of-range weight {w} on "
                    f"edge ({u!r}, {v!r}); weights must lie in "
                    f"[{MIN_WEIGHT}, {MAX_WEIGHT}]"
                )
            ends += (u, v)
            weights.append(w)
        if not weights:
            raise ValueError("graph has no edges")
        node_set.update(ends)

        self.nodes: tuple[NodeId, ...] = tuple(sorted(node_set, key=_node_key))
        self._index: dict[NodeId, int] = {u: i for i, u in enumerate(self.nodes)}
        self._set_labels(opinions, num_opinions)

        # rows merge on their (low, high) index pair: bincount adds each
        # pair's weights in input order, and np.unique sorts the pairs into
        # edge_arrays() order, so the sum below is that view's sum
        n = len(self.nodes)
        ends = np.fromiter(map(self._index.__getitem__, ends), np.int64, len(ends))
        low, high = np.sort(ends.reshape(-1, 2), axis=1).T
        upper, inverse = np.unique(low * n + high, return_inverse=True)
        w = np.bincount(inverse, weights=weights)
        self.total_weight = total = float(w.sum())
        if not total <= MAX_WEIGHT:
            raise ValueError(f"total edge weight {total} exceeds {MAX_WEIGHT}")
        # entry j is edge j as (u, v), entry j + len(w) its mirror (v, u);
        # sorting the row-major keys u * n + v lays out the CSR rows
        key = np.concatenate([upper, upper % n * n + upper // n])
        order = np.argsort(key)
        key = key[order]
        indptr = np.searchsorted(key, np.arange(n + 1) * n)
        key %= n
        self._csr = (indptr, key, w.take(order, mode="wrap"))

    def _set_labels(
        self, opinions: Mapping[NodeId, int], num_opinions: int | None
    ) -> None:
        """Validate one label per node and store them in node order."""
        if num_opinions is None:
            top = max((int(o) for o in opinions.values()), default=0)
            num_opinions = max(2, top + 1)
        if num_opinions < 2:
            raise ValueError(f"num_opinions must be >= 2, got {num_opinions}")
        for u in opinions:
            if u not in self._index:
                raise ValueError(f"label for node {u!r}, which is not in the graph")

        self.opinions: dict[NodeId, int] = {}
        for u in self.nodes:
            if u not in opinions:
                raise ValueError(f"node {u!r} has no opinion label")
            o = int(opinions[u])
            if not 0 <= o < num_opinions:
                raise ValueError(
                    f"opinion {o} of node {u!r} outside [0, {num_opinions})"
                )
            self.opinions[u] = o
        self.num_opinions = int(num_opinions)
        self._labels = np.fromiter(self.opinions.values(), np.int64, len(self.nodes))

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._csr[1]) // 2

    def index_of(self, node: NodeId) -> int:
        return self._index[node]

    def replace_labels(
        self, opinions: Mapping[NodeId, int], num_opinions: int | None = None
    ) -> "LabeledGraph":
        """Copy with fresh opinion labels that shares this graph's structure.

        Nodes and the CSR edge arrays are shared, not copied; only the labels
        are new.
        """
        relabeled = copy.copy(self)
        relabeled._set_labels(opinions, num_opinions)
        return relabeled

    # -- edge views (the CSR triple is the only edge store) ----------------

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored CSR triple ``(indptr, indices, weights)``: the
        neighbours of node index i are ``indices[indptr[i]:indptr[i + 1]]``
        in ascending order, with their weights alongside. Every edge appears
        in both endpoint rows."""
        return self._csr

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One entry per edge: ``(iu, iv, weight)`` with node indices
        ``iu < iv``, ordered by ``(iu, iv)``. Built from the CSR triple on
        each call."""
        indptr, indices, weights = self._csr
        rows = np.repeat(np.arange(len(self.nodes), dtype=np.int64), np.diff(indptr))
        upper = indices > rows
        return rows[upper], indices[upper], weights[upper]

    @property
    def edges(self) -> tuple[tuple[NodeId, NodeId, float], ...]:
        """Edges as ``(u, v, weight)`` node-id triples, in ``edge_arrays``
        order. Built on each access."""
        iu, iv, w = (a.tolist() for a in self.edge_arrays())
        return tuple((self.nodes[a], self.nodes[b], x) for a, b, x in zip(iu, iv, w))

    def opinion_array(self) -> np.ndarray:
        """Opinion index per node, aligned with ``nodes`` order."""
        return self._labels

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"num_opinions={self.num_opinions})"
        )


@dataclass(frozen=True)
class OpinionCensus:
    """Node counts per opinion value, over the full node set."""

    counts: tuple[int, ...]
    total: int

    def fraction(self, opinion: int) -> float:
        return self.counts[opinion] / self.total

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


def census(graph: LabeledGraph) -> OpinionCensus:
    """Count nodes per opinion, isolated nodes included."""
    counts = np.bincount(graph.opinion_array(), minlength=graph.num_opinions)
    return OpinionCensus(counts=tuple(counts.tolist()), total=graph.node_count)
