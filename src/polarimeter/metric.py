"""Multi-opinion polarization scoring.

Pipeline per run: scale edge weights by the average population share of the
two endpoint opinions, split the scaled weight mass into four masses (within
or between communities, same or cross opinion), score each view by how
little of its mass sits on cross-opinion pairs, and blend the two scores
weighted by their mass. The multi-run entry point repeats community
detection across a seed schedule and reports summary statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from ._native import louvain_kernel
from .community import LouvainConfig, Partition, louvain
from .graph import LabeledGraph, OpinionCensus, census


def scale_weights(graph: LabeledGraph, counts: OpinionCensus) -> np.ndarray:
    """Scale each edge weight by the mean population fraction of its endpoint
    opinions, so edges of minority opinions contribute proportionally less.
    The result is aligned with ``graph.edge_arrays()``."""
    fractions = np.asarray(counts.fractions, dtype=np.float64)
    eu, ev, ew = graph.edge_arrays()
    opinion = graph.opinion_array()
    return 0.5 * (fractions[opinion[eu]] + fractions[opinion[ev]]) * ew


def accumulate(
    graph: LabeledGraph, scaled: np.ndarray, partition: Partition
) -> np.ndarray:
    """Scaled edge mass in four bins, indexed 2 * same_community + cross_opinion:
    [between/same-opinion, between/cross-opinion, within/same-opinion,
    within/cross-opinion]. Each edge lands in exactly one bin."""
    comm = partition.array(graph)
    eu, ev, _ = graph.edge_arrays()
    opinion = graph.opinion_array()
    bins = 2 * (comm[eu] == comm[ev]) + (opinion[eu] != opinion[ev])
    return np.bincount(bins, weights=scaled, minlength=4)


def polarization_component(same: float, cross: float) -> float:
    """Score one view from its same-opinion and cross-opinion mass: 1 when no
    mass crosses opinions, reaching 0 once cross-opinion mass is at least half
    of the total. An empty view scores 0 (its weight in the blend is then 0
    too)."""
    if same < 0 or cross < 0:
        raise ValueError(f"negative mass: same={same}, cross={cross}")
    total = same + cross
    if total == 0.0:
        return 0.0
    ratio = cross / total
    capped = ratio if ratio < 0.5 else 0.5
    return 1.0 - 2.0 * capped


def score_partition(
    graph: LabeledGraph, scaled: np.ndarray, partition: Partition
) -> tuple[float, float, float]:
    """(p_within, p_between, polarization) for one fixed partition; the
    polarization is the mass-weighted average of the two components."""
    b_same, b_cross, w_same, w_cross = accumulate(graph, scaled, partition).tolist()
    p_w = polarization_component(w_same, w_cross)
    p_b = polarization_component(b_same, b_cross)
    s_w = w_same + w_cross
    s_b = b_same + b_cross
    if s_w + s_b == 0.0:
        raise ValueError("no scaled edge mass to score")
    return p_w, p_b, (s_w * p_w + s_b * p_b) / (s_w + s_b)


@dataclass(frozen=True)
class PolarizationReport:
    """Per-run scores plus summary statistics over the seed schedule."""

    p_within_runs: tuple[float, ...]
    p_between_runs: tuple[float, ...]
    polarization_runs: tuple[float, ...]
    communities_per_run: tuple[int, ...]
    seed: int
    runs: int
    graph_nodes: int
    graph_edges: int
    num_opinions: int

    @property
    def polarization_mean(self) -> float:
        return _mean(self.polarization_runs)

    @property
    def polarization_std(self) -> float:
        return _std(self.polarization_runs)

    @property
    def polarization_min(self) -> float:
        return min(self.polarization_runs)

    @property
    def polarization_max(self) -> float:
        return max(self.polarization_runs)

    def to_dict(self) -> dict:
        """Report fields in fixed serialization order."""
        return {
            "graph": {"nodes": self.graph_nodes, "edges": self.graph_edges},
            "num_opinions": self.num_opinions,
            "runs": self.runs,
            "seed": self.seed,
            "p_within": {
                "mean": _mean(self.p_within_runs),
                "std": _std(self.p_within_runs),
            },
            "p_between": {
                "mean": _mean(self.p_between_runs),
                "std": _std(self.p_between_runs),
            },
            "polarization": {
                "mean": self.polarization_mean,
                "std": self.polarization_std,
                "min": self.polarization_min,
                "max": self.polarization_max,
            },
            "communities": {"mean": _mean(self.communities_per_run)},
        }


def _mean(values) -> float:
    # fsum keeps the result independent of accumulation order, which keeps
    # reports byte-identical across worker counts
    return math.fsum(values) / len(values)


def _std(values) -> float:
    mean = _mean(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def louvain_runs(
    graph: LabeledGraph, config: LouvainConfig, runs: int, threads: int = 1
) -> Iterator[Partition]:
    """Yield the partitions of ``runs`` Louvain runs at seeds config.seed + run
    index, in run order.

    Louvain reads only the graph's structure, never its labels, so these
    partitions serve every labeling of that structure. The sequence is
    identical for any ``threads`` value: threads only run independent runs
    side by side, never more of them than CPUs. They share the graph, and the
    C kernel releases the GIL while it runs; the pure-Python fallback holds
    the GIL, so without the kernel the runs go serially.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")

    def run(index: int) -> Partition:
        return louvain(graph, replace(config, seed=config.seed + index))

    # louvain_kernel() builds or loads the kernel here, before any thread starts
    if threads > 1 and runs > 1 and louvain_kernel() is not None:
        workers = min(threads, runs, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, range(runs))
    else:
        yield from map(run, range(runs))


def analyze(
    graph: LabeledGraph,
    config: LouvainConfig,
    runs: int = 100,
    threads: int = 1,
) -> PolarizationReport:
    """Run the full metric ``runs`` times with seeds config.seed + run index.

    Community detection is greedy and seed-dependent, so scores are averaged
    over the seed schedule. Results are identical for any ``threads`` value;
    workers only parallelize the Louvain runs, and scoring happens here.
    """
    return _score_runs(graph, louvain_runs(graph, config, runs, threads), config.seed)


def _score_runs(
    graph: LabeledGraph, partitions: Iterable[Partition], seed: int
) -> PolarizationReport:
    """Score each partition against the graph's labels, in order, into a
    report whose run count is the number of partitions."""
    scaled = scale_weights(graph, census(graph))
    scores, communities = [], []
    for partition in partitions:
        scores.append(score_partition(graph, scaled, partition))
        communities.append(partition.k)
    return PolarizationReport(
        p_within_runs=tuple(s[0] for s in scores),
        p_between_runs=tuple(s[1] for s in scores),
        polarization_runs=tuple(s[2] for s in scores),
        communities_per_run=tuple(communities),
        seed=seed,
        runs=len(scores),
        graph_nodes=graph.node_count,
        graph_edges=graph.edge_count,
        num_opinions=graph.num_opinions,
    )
