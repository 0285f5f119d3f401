"""The package surface that the benchmark's traced replay calls.

``perfbench/run.py --trace 1`` replays the ``analyze-sbm`` and ``sweep-sbm``
pipelines in-process through public names (``Partition(assignment=...)``,
``louvain(..., pass_hook=)``, ``relabel``, ``generate_sbm``, ...). This runs
those replays here, so a change to that surface fails the suite instead of
the traced benchmark run. The benchmark's modules are imported, not edited.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["analyze-sbm", "sweep-sbm"])
def test_traced_replay_finishes_and_counts_passes(name, tmp_path, monkeypatch):
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
    assert tracer.counts["community.passes"] > 0
