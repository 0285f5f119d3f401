"""Golden outputs: report bytes and per-run values fixed at a known-good
commit. They pin the Louvain partitions, so a change to the graph layout or
the optimizer's summation order that moves any of them fails here."""

from __future__ import annotations

from polarimeter import (
    LouvainConfig,
    SbmConfig,
    SyntheticLabelConfig,
    analyze,
    generate_sbm,
    relabel,
)
from polarimeter.cli import main

KARATE_RUNS_20_SEED_42 = """\
{
  "graph": {
    "nodes": 34,
    "edges": 78
  },
  "num_opinions": 2,
  "runs": 20,
  "seed": 42,
  "p_within": {
    "mean": 0.874596,
    "std": 0.018698
  },
  "p_between": {
    "mean": 0.270144,
    "std": 0.085646
  },
  "polarization": {
    "mean": 0.717949,
    "std": 0.000000,
    "min": 0.717949,
    "max": 0.717949
  },
  "communities": {
    "mean": 4.000000
  }
}
"""


def test_demo_karate_report_bytes(capsys):
    assert main(["demo-karate", "--runs", "20", "--seed", "42"]) == 0
    assert capsys.readouterr().out == KARATE_RUNS_20_SEED_42


def test_sbm_per_run_values():
    graph, planted = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=7))
    labeled = relabel(graph, planted, SyntheticLabelConfig(0.8, 2, seed=7))
    report = analyze(labeled, LouvainConfig(seed=42), runs=3)
    assert report.communities_per_run == (20, 20, 20)
    assert report.polarization_runs == (
        0.26588876601963507,
        0.26588876601963535,
        0.265888766019635,
    )
