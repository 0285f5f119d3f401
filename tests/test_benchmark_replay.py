"""The package surface that the benchmark's traced replay calls.

``perfbench/run.py --trace 1`` replays each workload's pipeline in-process
through public names (``Partition(assignment=...)``, ``louvain(...,
pass_hook=)``, ``relabel``, ``generate_sbm``, ``read_stance_records``,
``build_retweet_network``, ...). This runs those replays here, so a change
to that surface fails the suite instead of the traced benchmark run. The
benchmark's modules are imported, not edited.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def replay(name, tmp_path, monkeypatch):
    """The workload ``name`` at seed 1001, prepared, and the tracer of its
    replay."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    out.mkdir()
    workload = workloads.WORKLOADS[name](1001, work)
    workload.prepare()
    tracer = spans.Tracer()
    workload.replay(tracer, out)
    return workload, tracer


@pytest.mark.parametrize("name", ["analyze-sbm", "sweep-sbm"])
def test_traced_replay_finishes_and_counts_passes(name, tmp_path, monkeypatch):
    _, tracer = replay(name, tmp_path, monkeypatch)
    assert tracer.counts["community.passes"] > 0


def test_build_network_replay_counts_every_record_and_user(tmp_path, monkeypatch):
    # read_stance_records -> build_retweet_network -> the two writers
    workload, tracer = replay("build-network", tmp_path, monkeypatch)
    assert tracer.counts["stance.records"] == 120_000
    assert tracer.counts["stance.users"] == workload.truth["users"]
