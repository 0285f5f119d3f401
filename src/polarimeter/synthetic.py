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

from .community import LouvainConfig, Partition
from .graph import LabeledGraph
from .metric import _score_runs, louvain_runs


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
    opinions: dict = {}
    for members in partition.members():
        dominant = rng.randrange(config.num_opinions)
        size = len(members)
        n_dominant = 1 if size == 1 else _round_half_up(config.dom_ratio * size)
        chosen = set(rng.sample(members, n_dominant))
        for node in members:
            if node in chosen:
                opinions[node] = dominant
            else:
                other = rng.randrange(config.num_opinions - 1)
                opinions[node] = other if other < dominant else other + 1
    return graph.replace_labels(opinions, config.num_opinions)


def generate_sbm(config: SbmConfig) -> tuple[LabeledGraph, Partition]:
    """Sample a stochastic block model with the planted partition.

    Every within-block pair draws an edge with p_in, every cross-block pair
    with p_out, all weights 1. Labels are initialized to opinion 0; callers
    relabel afterwards.
    """
    rng = np.random.default_rng(config.seed)
    size = config.nodes_per_block
    edges: list[tuple[int, int, float]] = []

    iu, iv = np.triu_indices(size, 1)
    for block in range(config.blocks):
        base = block * size
        mask = rng.random(iu.size) < config.p_in
        edges.extend(
            (int(u), int(v), 1.0) for u, v in zip(iu[mask] + base, iv[mask] + base)
        )

    if config.p_out > 0.0:
        for a in range(config.blocks):
            for b in range(a + 1, config.blocks):
                mask = rng.random(size * size) < config.p_out
                hits = np.nonzero(mask)[0]
                edges.extend(
                    (int(a * size + i // size), int(b * size + i % size), 1.0)
                    for i in hits
                )

    total = config.blocks * size
    opinions = {node: 0 for node in range(total)}
    graph = LabeledGraph(edges, opinions, num_opinions=2)
    partition = Partition(
        assignment={node: node // size for node in range(total)}, k=config.blocks
    )
    return graph, partition


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
