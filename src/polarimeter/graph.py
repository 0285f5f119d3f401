"""Labeled weighted graph: the undirected opinion-labeled network under analysis.

The graph is immutable after construction and safe to share across analysis
workers. Node identifiers are kept as read from input (strings for file
loads, ints for generated graphs); internally every structure is ordered by a
canonical node sort so that the same logical graph always produces the same
in-memory layout regardless of input row order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

NodeId = Hashable


def _node_key(node: NodeId):
    # ints sort numerically, everything else by string form; mixed inputs
    # stay deterministic because the type tag leads.
    if isinstance(node, bool):
        return (1, str(node))
    if isinstance(node, int):
        return (0, node)
    return (1, str(node))


class LabeledGraph:
    """Undirected weighted graph with one discrete opinion label per node.

    Construction merges duplicate and reversed edge entries by summing their
    weights. Self-loops and non-positive or non-finite weights are rejected;
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
        merged: dict[tuple[NodeId, NodeId], float] = {}
        node_set = set(opinions)
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(
                    f"non-positive or non-finite weight {w} on edge ({u!r}, {v!r})"
                )
            key = (u, v) if _node_key(u) <= _node_key(v) else (v, u)
            merged[key] = merged.get(key, 0.0) + w
            node_set.add(u)
            node_set.add(v)
        if not merged:
            raise ValueError("graph has no edges")

        self.nodes: tuple[NodeId, ...] = tuple(sorted(node_set, key=_node_key))
        self._index: dict[NodeId, int] = {u: i for i, u in enumerate(self.nodes)}
        self._set_labels(opinions, num_opinions)

        self.edges: tuple[tuple[NodeId, NodeId, float], ...] = tuple(
            sorted(
                ((u, v, w) for (u, v), w in merged.items()),
                key=lambda e: (self._index[e[0]], self._index[e[1]]),
            )
        )

        self._adjacency: list[list[tuple[int, float]]] | None = None
        self._edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        self._opinion_array: np.ndarray | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> float:
        return float(self.edge_arrays()[2].sum())

    def index_of(self, node: NodeId) -> int:
        return self._index[node]

    def replace_labels(
        self, opinions: Mapping[NodeId, int], num_opinions: int | None = None
    ) -> "LabeledGraph":
        """Copy with fresh opinion labels that shares this graph's structure.

        Nodes, edges and the derived adjacency and edge arrays are built once
        here and shared, not copied; only the labels are new.
        """
        self.adjacency()
        self.edge_arrays()
        relabeled = copy.copy(self)
        relabeled._set_labels(opinions, num_opinions)
        return relabeled

    # -- derived structures (built once, cached; the graph is immutable) ----

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Neighbor lists as (node index, weight) pairs, in edge order."""
        if self._adjacency is None:
            adj: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
            for u, v, w in self.edges:
                iu, iv = self._index[u], self._index[v]
                adj[iu].append((iv, w))
                adj[iv].append((iu, w))
            self._adjacency = adj
        return self._adjacency

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoints as node-index arrays plus the weight array."""
        if self._edge_arrays is None:
            eu = np.fromiter(
                (self._index[u] for u, _, _ in self.edges), dtype=np.int64
            )
            ev = np.fromiter(
                (self._index[v] for _, v, _ in self.edges), dtype=np.int64
            )
            ew = np.fromiter((w for _, _, w in self.edges), dtype=np.float64)
            self._edge_arrays = (eu, ev, ew)
        return self._edge_arrays

    def opinion_array(self) -> np.ndarray:
        """Opinion index per node, aligned with ``nodes`` order."""
        if self._opinion_array is None:
            self._opinion_array = np.fromiter(
                (self.opinions[u] for u in self.nodes), dtype=np.int64
            )
        return self._opinion_array

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
    counts = [0] * graph.num_opinions
    for opinion in graph.opinions.values():
        counts[opinion] += 1
    return OpinionCensus(counts=tuple(counts), total=graph.node_count)
