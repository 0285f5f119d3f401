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

import collections
import itertools
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Mapping

import numpy as np

from ._native import MIN_GAIN, louvain_kernel
from .graph import LabeledGraph, NodeId, _int_array

PassHook = Callable[[int, int, float], None]
# runs submitted per worker thread ahead of the run yielded next
_WINDOW = 2


@dataclass(frozen=True)
class LouvainConfig:
    """``seed`` >= 0: run r uses seed + r, and ``random.Random`` seeds -s as s."""

    seed: int = 42
    min_modularity_gain: ClassVar[float] = MIN_GAIN

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class Partition:
    """Total assignment of nodes to communities 0..k-1, every id non-empty:
    one read-only int64 array of community ids, plus ``k``. A node-id
    mapping keeps its key order; its ids must be integers, as
    ``operator.index`` takes them, and exactly 0..k-1 (a ValueError
    otherwise)."""

    def __init__(self, assignment: Mapping[NodeId, int], k: int):
        nodes = tuple(assignment)
        communities = _int_array(nodes, list(assignment.values()), "community")
        present = np.unique(communities)
        # the count first, so no array is sized by a k beyond the nodes
        if len(present) != k or not np.array_equal(present, np.arange(k)):
            raise ValueError(f"community ids not contiguous 0..{k - 1}")
        self._hold(nodes, communities, k)

    def _hold(self, nodes, communities: np.ndarray, k: int, passes=()) -> "Partition":
        """Keep ``communities`` (uncopied, now read-only) as ``nodes``' array,
        and the ``(level, q)`` pass records of the run that found it."""
        communities.setflags(write=False)
        # one attribute, so no reader sees a node tuple beside another's array
        self._aligned, self.k, self._passes = (nodes, communities), int(k), passes
        return self

    def array(self, graph: LabeledGraph) -> np.ndarray:
        """The array in ``graph.nodes`` order, each graph node matched to an
        equal partition node once and the result kept; a ValueError unless
        every graph node, and no other, has a match."""
        nodes, communities = self._aligned
        if nodes is graph.nodes or nodes == graph.nodes:
            return communities
        index = dict(zip(nodes, range(len(nodes))))
        try:
            positions = list(map(index.__getitem__, graph.nodes))
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} missing from partition") from None
        if len(index) != len(graph.nodes):
            raise ValueError("partition holds nodes that are not in the graph")
        self._hold(graph.nodes, communities[positions], self.k, self._passes)
        return self._aligned[1]


def modularity(graph: LabeledGraph, partition: Partition) -> float:
    """Newman-Girvan weighted modularity."""
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
        q += intra[c] / m - (tot[c] / two_m) ** 2
    return q


def louvain(
    graph: LabeledGraph, config: LouvainConfig, pass_hook: PassHook | None = None
) -> Partition:
    """Detect communities; deterministic for a fixed (graph, config.seed). It
    is the first run of ``louvain_runs(graph, config, 1)``, and it replays
    that run's pass records into ``pass_hook(level, pass_index, q)``, the
    passes of each level numbered from 0. Isolated nodes end up as singletons.
    """
    partition = next(louvain_runs(graph, config, 1))
    if pass_hook is not None:
        for level, records in itertools.groupby(partition._passes, key=lambda r: r[0]):
            for pass_index, (_, q) in enumerate(records):
                pass_hook(level, pass_index, q)
    return partition


def louvain_runs(
    graph: LabeledGraph, config: LouvainConfig, runs: int, threads: int = 1
) -> Iterator[Partition]:
    """Yield the partitions of ``runs`` Louvain runs at seeds config.seed + run
    index, in run order, each holding its run's ``(level, q)`` pass records.
    The runs go through the C kernel of ``_louvain.c`` when it can be built
    (see ``_native``), for a graph of any size, and otherwise through the
    pure-Python level loop below; both give bit-identical partitions and
    pass records.

    Louvain reads only the graph's structure, never its labels, so these
    partitions serve every labeling of that structure. The sequence is
    identical for any ``threads`` value: threads only run independent runs
    side by side, never more of them than CPUs, and at most ``_WINDOW`` runs
    per thread are submitted ahead of the one yielded next. They share the
    graph's CSR triple, laid out once per call, and the C kernel releases the
    GIL while it runs; the pure-Python fallback holds the GIL, so whenever it
    runs instead, the runs go serially.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    # the kernel and the CSR triple are made here, before any thread starts
    kernel = louvain_kernel()
    adjacency, m = graph.adjacency(), graph.total_weight

    def run(index: int) -> Partition:
        dense, k, passes = (kernel or _louvain_python)(adjacency, m, config.seed + index)
        return Partition.__new__(Partition)._hold(graph.nodes, dense, k, tuple(passes))

    if threads > 1 and runs > 1 and kernel is not None:
        workers = min(threads, runs, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from _in_order(pool, run, runs, _WINDOW * workers)
    else:
        yield from map(run, range(runs))


def _in_order(pool, fn, count: int, window: int) -> Iterator:
    """``fn(0)``, ..., ``fn(count - 1)`` run on ``pool`` and yielded in that
    order, with at most ``window`` of them submitted and not yet yielded, so
    a long run count holds a bounded number of futures and results."""
    pending: collections.deque = collections.deque()
    try:
        for index in range(count):
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, index))
        while pending:
            yield pending.popleft().result()
    finally:  # a consumer that stops early leaves no queued run behind
        for future in pending:
            future.cancel()


def _louvain_python(adjacency, m, seed):
    """The pure-Python level loop: the C kernel's oracle and fallback, with
    its contract. It takes the graph's CSR triple, its total weight and the
    run's seed, and returns the int64 dense assignment in node order, the
    community count and one ``(level, q)`` record per local-move pass."""
    rng = random.Random(seed)

    # the CSR triple as Python lists: indptr, indices, weights
    adj = tuple(a.tolist() for a in adjacency)
    loops = [0.0] * (len(adj[0]) - 1)
    # assignment[i]: community of original node i at the current level
    assignment = list(range(len(loops)))
    passes: list[tuple[int, float]] = []

    prev_q = 0.0  # modularity of the singleton partition
    for deg in _degrees(adj, loops):
        prev_q -= (deg / (2.0 * m)) ** 2
    for level in itertools.count():
        node2com, qs = _one_level(adj, loops, m, rng)
        passes += ((level, q) for q in qs)
        node2com, n_comms = _renumber(node2com)
        assignment = [node2com[c] for c in assignment]
        if qs[-1] - prev_q <= MIN_GAIN or n_comms == len(loops):
            break
        prev_q = qs[-1]
        adj, loops = _aggregate(adj, loops, node2com, n_comms)

    assignment, k = _renumber(assignment)
    return np.array(assignment, dtype=np.int64), k, passes


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


def _one_level(adj, loops, m, rng):
    """Local moves until a pass yields no improvement above tolerance.
    Returns the community slot per node and the modularity after each pass."""
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
            q += internal[c] / two_m - (tot[c] / two_m) ** 2
        return q

    qs = [current_q()]
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
                score = nbw[c] - tot[c] * ku / two_m
                if best_c < 0 or score > best_score:
                    best_c = c
                    best_score = score

            tot[best_c] += ku
            internal[best_c] += 2.0 * nbw[best_c] + 2.0 * loops[u]
            node2com[u] = best_c
            if best_c != cu:
                moved += 1

        qs.append(current_q())
        if moved == 0 or qs[-1] - qs[-2] <= MIN_GAIN:
            return node2com, qs[1:]


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
