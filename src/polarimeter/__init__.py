"""Polarization scoring for weighted networks with multi-opinion node labels.

The score splits edge weight, after rescaling each edge by the population
share of its endpoint opinions, into four masses: within or between
communities, on same-opinion or cross-opinion pairs. It blends the within
and between views into a single value in [0, 1]. Community structure comes from seeded modularity
optimization, and scores are averaged over a seed schedule because the
optimizer is greedy.
"""

from __future__ import annotations

from .community import LouvainConfig, Partition, louvain, modularity
from .errors import InputError
from .graph import LabeledGraph, census
from .io import (
    load_graph,
    load_karate,
    report_csv,
    report_json,
    save_report,
    sweep_csv,
    write_edge_list,
    write_labels,
    write_sweep_csv,
)
from .metric import (
    PolarizationReport,
    accumulate,
    analyze,
    polarization_component,
    scale_weights,
    score_partition,
)
from .stance import (
    OPINION_NAMES,
    STANCES,
    StanceRecord,
    build_retweet_network,
    read_stance_records,
    score_users,
)
from .synthetic import (
    SbmConfig,
    SweepCell,
    SyntheticLabelConfig,
    generate_sbm,
    relabel,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "LabeledGraph",
    "LouvainConfig",
    "OPINION_NAMES",
    "Partition",
    "PolarizationReport",
    "STANCES",
    "SbmConfig",
    "StanceRecord",
    "SweepCell",
    "SyntheticLabelConfig",
    "accumulate",
    "analyze",
    "build_retweet_network",
    "census",
    "generate_sbm",
    "load_graph",
    "load_karate",
    "louvain",
    "modularity",
    "polarization_component",
    "read_stance_records",
    "relabel",
    "report_csv",
    "report_json",
    "save_report",
    "scale_weights",
    "score_partition",
    "score_users",
    "sweep",
    "sweep_csv",
    "write_edge_list",
    "write_labels",
    "write_sweep_csv",
]
