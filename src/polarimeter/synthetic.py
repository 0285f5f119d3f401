"""Synthetic polarization experiments over a fixed community structure.

Opinion labelings are generated per community: a randomly chosen dominant
opinion covers a controlled share of the members (the dominance ratio), the
rest draw uniformly from the remaining opinions. A stochastic block model
generator provides a desk-scale surrogate network with planted communities,
and the sweep harness grids dominance ratio against opinion count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .community import LouvainConfig, Partition, louvain_runs
from .graph import LabeledGraph
from .metric import _score_runs


@dataclass(frozen=True)
class SyntheticLabelConfig:
    dom_ratio: float
    num_opinions: int
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.dom_ratio <= 1.0:
            raise ValueError(f"dom_ratio must be in (0, 1], got {self.dom_ratio}")
        if self.num_opinions < 2:
            raise ValueError(f"num_opinions must be >= 2, got {self.num_opinions}")


@dataclass(frozen=True)
class SbmConfig:
    blocks: int
    nodes_per_block: int
    p_in: float
    p_out: float
    seed: int = 42

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.nodes_per_block < 1:
            raise ValueError(
                f"nodes_per_block must be >= 1, got {self.nodes_per_block}"
            )
        if not 0.0 <= self.p_out < self.p_in <= 1.0:
            raise ValueError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def relabel(
    graph: LabeledGraph, partition: Partition, config: SyntheticLabelConfig
) -> LabeledGraph:
    """Assign fresh opinion labels community by community.

    Each community gets a uniformly drawn dominant opinion covering
    round(dom_ratio * size) members (all members for single-node
    communities); every remaining member draws uniformly from the other
    opinions. Node and edge structure is untouched.
    """
    rng = random.Random(config.seed)
    comm = partition.array(graph)
    order = np.argsort(comm, kind="stable").tolist()  # members in node order
    labels = [0] * len(order)
    sizes = np.bincount(comm, minlength=partition.k)
    for start, size in zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist()):
        members = order[start : start + size]
        dominant = rng.randrange(config.num_opinions)
        n_dominant = 1 if size == 1 else _round_half_up(config.dom_ratio * size)
        chosen = set(rng.sample(members, n_dominant))
        for node in members:
            if node in chosen:
                labels[node] = dominant
            else:
                other = rng.randrange(config.num_opinions - 1)
                labels[node] = other if other < dominant else other + 1
    return graph._with_labels(np.array(labels, dtype=np.int64), config.num_opinions)


def generate_sbm(config: SbmConfig) -> tuple[LabeledGraph, Partition]:
    """Sample a stochastic block model with the planted partition.

    Every within-block pair draws an edge with p_in, every cross-block pair
    with p_out, all weights 1. Labels are initialized to opinion 0; callers
    relabel afterwards.
    """
    rng = np.random.default_rng(config.seed)
    size = config.nodes_per_block
    pairs = []  # (u, v) index rows of the drawn edges

    iu, iv = np.triu_indices(size, 1)
    for block in range(config.blocks):
        mask = rng.random(iu.size) < config.p_in
        pairs.append(np.stack([iu[mask], iv[mask]], axis=1) + block * size)

    if config.p_out > 0.0:
        for a in range(config.blocks):
            for b in range(a + 1, config.blocks):
                hits = np.flatnonzero(rng.random(size * size) < config.p_out)
                u, v = np.divmod(hits, size)
                pairs.append(np.stack([u + a * size, v + b * size], axis=1))

    ends = np.concatenate(pairs).ravel()
    del pairs  # the blocks' rows go before the layout allocates
    total = config.blocks * size
    labels = np.zeros(total, dtype=np.int64)
    graph = LabeledGraph(range(total), ends, np.ones(len(ends) // 2), labels, 2)
    blocks = np.arange(total) // size
    return graph, Partition.__new__(Partition)._hold(graph.nodes, blocks, config.blocks)


@dataclass(frozen=True)
class SweepCell:
    num_opinions: int
    dom_ratio: float
    mean_p: float
    std_p: float
    runs: int


def sweep(
    graph: LabeledGraph,
    dom_ratios: list[float],
    num_opinions_list: list[int],
    runs: int,
    seed: int,
    partition: Partition | None = None,
    threads: int = 1,
) -> list[SweepCell]:
    """Mean polarization per (num_opinions, dom_ratio) grid cell.

    Cells are ordered row-major: num_opinions outer, dom_ratio inner. The
    ``runs`` Louvain partitions at seeds seed + run index are computed once,
    since relabeling keeps the structure Louvain reads. Each cell relabels
    the graph over ``partition`` (the seed's run when not given; e.g. the
    planted partition of an SBM) with a per-cell seed drawn from the master
    seed, then scores that labeling against every one of the partitions. A
    cell therefore equals ``analyze`` at ``seed`` on its relabeled graph,
    and ``threads`` only parallelizes the Louvain runs.
    """
    if not dom_ratios or not num_opinions_list:
        raise ValueError("sweep grid is empty")
    master = random.Random(seed)
    label_configs = [
        SyntheticLabelConfig(
            dom_ratio=ratio, num_opinions=num_op, seed=master.randrange(2**62)
        )
        for num_op in num_opinions_list
        for ratio in dom_ratios
    ]
    partitions = list(louvain_runs(graph, LouvainConfig(seed=seed), runs, threads))
    if partition is None:
        partition = partitions[0]

    cells = []
    for label_config in label_configs:
        labeled = relabel(graph, partition, label_config)
        report = _score_runs(labeled, partitions, seed)
        cells.append(
            SweepCell(
                num_opinions=label_config.num_opinions,
                dom_ratio=label_config.dom_ratio,
                mean_p=report.polarization_mean,
                std_p=report.polarization_std,
                runs=runs,
            )
        )
    return cells
