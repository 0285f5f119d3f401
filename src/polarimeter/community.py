"""Community detection via Louvain modularity optimization.

The implementation follows the standard two-phase scheme: seeded local moves
until the pass gain drops below tolerance, then aggregation of communities
into super-nodes (summed weights, intra-community weight as self-loops),
repeated until a whole level stops improving modularity.

Determinism contract: for a fixed (graph, seed) the result is bit-stable.
Randomness enters only through the node visit order, which is reshuffled by
the seeded generator at the start of every pass. Ties in best-community
selection go to the lowest community id.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._native import NODE_LIMIT, louvain_kernel
from .graph import LabeledGraph, NodeId

logger = logging.getLogger(__name__)

PassHook = Callable[[int, int, float], None]


@dataclass(frozen=True)
class LouvainConfig:
    seed: int = 42
    resolution: float = 1.0
    min_modularity_gain: float = 1e-7

    def __post_init__(self):
        if self.resolution <= 0.0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.min_modularity_gain <= 0.0:
            raise ValueError(
                f"min_modularity_gain must be positive, got {self.min_modularity_gain}"
            )


@dataclass(frozen=True, eq=True)
class Partition:
    """Total assignment of nodes to communities 0..k-1, every id non-empty."""

    assignment: dict[NodeId, int] = field(compare=True)
    k: int = field(compare=True)

    def members(self) -> list[list[NodeId]]:
        """Nodes grouped by community id."""
        groups: list[list[NodeId]] = [[] for _ in range(self.k)]
        for node, cid in self.assignment.items():
            groups[cid].append(node)
        return groups

    def array(self, graph: LabeledGraph) -> np.ndarray:
        """Community id per node, aligned with ``graph.nodes``; a graph node
        missing from the assignment is a ValueError."""
        assignment = self.assignment
        try:
            return np.fromiter(
                (assignment[u] for u in graph.nodes), np.int64, graph.node_count
            )
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} missing from partition") from None

    def validate(self, graph: LabeledGraph) -> None:
        self.array(graph)
        seen = set(self.assignment.values())
        if seen != set(range(self.k)):
            raise ValueError(f"community ids not contiguous 0..{self.k - 1}: {seen}")


def modularity(
    graph: LabeledGraph, partition: Partition, resolution: float = 1.0
) -> float:
    """Newman-Girvan weighted modularity with a resolution parameter."""
    m = graph.total_weight
    comm = partition.array(graph)
    iu, iv, w = graph.edge_arrays()
    cu, cv = comm[iu], comm[iv]
    # bincount adds in input order: the interleaved (cu, cv) pairs give each
    # community total its edges in edge order, as a loop over the edges would
    ends = np.stack([cu, cv], axis=1).ravel()
    tot = np.bincount(ends, weights=np.repeat(w, 2), minlength=partition.k).tolist()
    same = cu == cv
    intra = np.bincount(cu[same], weights=w[same], minlength=partition.k).tolist()

    two_m = 2.0 * m
    q = 0.0
    for c in range(partition.k):
        q += intra[c] / m - resolution * (tot[c] / two_m) ** 2
    return q


def louvain(
    graph: LabeledGraph, config: LouvainConfig, pass_hook: PassHook | None = None
) -> Partition:
    """Detect communities; deterministic for a fixed (graph, config.seed).

    ``pass_hook(level, pass_index, q)`` is called after every local-move pass
    with the modularity reached, for instrumentation in tests. Isolated nodes
    end up as singleton communities.

    The work runs in the C kernel of ``_louvain.c`` when it can be built (see
    ``_native``), and otherwise in the pure-Python level loop below; both
    give bit-identical partitions and pass records.
    """
    kernel = louvain_kernel()
    if kernel is not None and graph.node_count >= NODE_LIMIT:
        logger.warning(
            "%d nodes is beyond the C Louvain kernel, using pure Python",
            graph.node_count,
        )
        kernel = None
    if kernel is None:
        dense, k = _louvain_python(graph, config, pass_hook)
    else:
        dense, k, records = kernel(graph.adjacency(), graph.total_weight, config)
        if pass_hook is not None:
            for record in records:
                pass_hook(*record)
    return Partition(assignment=dict(zip(graph.nodes, dense)), k=k)


def _louvain_python(graph, config, pass_hook):
    """The pure-Python level loop, kept as the oracle for the C kernel.
    Returns the dense assignment in node order and the community count."""
    rng = random.Random(config.seed)
    m = graph.total_weight
    resolution = config.resolution
    min_gain = config.min_modularity_gain

    # the CSR triple as Python lists: indptr, indices, weights
    adj = tuple(a.tolist() for a in graph.adjacency())
    loops = [0.0] * graph.node_count
    # assignment[i]: community of original node i at the current level
    assignment = list(range(graph.node_count))

    prev_q = 0.0  # modularity of the singleton partition
    for deg in _degrees(adj, loops):
        prev_q -= resolution * (deg / (2.0 * m)) ** 2
    level = 0
    while True:
        node2com, q = _one_level(
            adj, loops, m, resolution, min_gain, rng, pass_hook, level
        )
        node2com, n_comms = _renumber(node2com)
        assignment = [node2com[c] for c in assignment]
        if q - prev_q <= min_gain or n_comms == len(loops):
            break
        prev_q = q
        adj, loops = _aggregate(adj, loops, node2com, n_comms)
        level += 1

    return _renumber(assignment)


def _degrees(adj, loops) -> list[float]:
    """Weighted degree per node, self-loops counted twice."""
    indptr, _, weights = adj
    degree = []
    for u, loop in enumerate(loops):
        d = 2.0 * loop
        for w in weights[indptr[u] : indptr[u + 1]]:
            d += w
        degree.append(d)
    return degree


def _one_level(adj, loops, m, resolution, min_gain, rng, pass_hook, level):
    """Local moves until a pass yields no improvement above tolerance."""
    indptr, indices, weights = adj
    n = len(loops)
    two_m = 2.0 * m
    node2com = list(range(n))
    degree = _degrees(adj, loops)
    tot = degree[:]  # community total degree, indexed by community slot
    internal = [2.0 * loops[u] for u in range(n)]  # sum of A_ij inside community

    def current_q() -> float:
        q = 0.0
        for c in range(n):
            q += internal[c] / two_m - resolution * (tot[c] / two_m) ** 2
        return q

    q = current_q()
    pass_index = 0
    while True:
        order = list(range(n))
        rng.shuffle(order)
        moved = 0
        for u in order:
            cu = node2com[u]
            ku = degree[u]
            nbw: dict[int, float] = {}
            a, b = indptr[u], indptr[u + 1]
            for v, w in zip(indices[a:b], weights[a:b]):
                cv = node2com[v]
                nbw[cv] = nbw.get(cv, 0.0) + w
            wu_own = nbw.get(cu, 0.0)

            tot[cu] -= ku
            internal[cu] -= 2.0 * wu_own + 2.0 * loops[u]

            # candidates in ascending id order so the lowest id wins ties
            best_c = -1
            best_score = 0.0
            if cu not in nbw:
                nbw[cu] = 0.0
            for c in sorted(nbw):
                score = nbw[c] - resolution * tot[c] * ku / two_m
                if best_c < 0 or score > best_score:
                    best_c = c
                    best_score = score

            tot[best_c] += ku
            internal[best_c] += 2.0 * nbw[best_c] + 2.0 * loops[u]
            node2com[u] = best_c
            if best_c != cu:
                moved += 1

        new_q = current_q()
        if pass_hook is not None:
            pass_hook(level, pass_index, new_q)
        pass_index += 1
        gain = new_q - q
        q = new_q
        if moved == 0 or gain <= min_gain:
            return node2com, q


def _renumber(labels: list[int]) -> tuple[list[int], int]:
    """Relabel to dense 0..k-1 by order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for c in labels:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return out, len(mapping)


def _aggregate(adj, loops, node2com, n_comms):
    """Collapse communities into super-nodes; returns their CSR lists and loops."""
    indptr, indices, weights = adj
    new_loops = [0.0] * n_comms
    rows: list[dict[int, float]] = [{} for _ in range(n_comms)]
    for u, loop in enumerate(loops):
        cu = node2com[u]
        new_loops[cu] += loop
        a, b = indptr[u], indptr[u + 1]
        for v, w in zip(indices[a:b], weights[a:b]):
            cv = node2com[v]
            if cv == cu:
                if u < v:
                    new_loops[cu] += w
            else:
                rows[cu][cv] = rows[cu].get(cv, 0.0) + w
    new_indptr, new_indices, new_weights = [0], [], []
    for row in rows:
        for v, w in sorted(row.items()):
            new_indices.append(v)
            new_weights.append(w)
        new_indptr.append(len(new_indices))
    return (new_indptr, new_indices, new_weights), new_loops
