"""Tests for the benchmark's own output checker and input generators."""

from __future__ import annotations

import json

import pytest

import checks
import fixtures
from polarimeter import (
    LouvainConfig,
    analyze,
    build_retweet_network,
    load_karate,
    read_stance_records,
    report_json,
    write_edge_list,
    write_labels,
)


@pytest.fixture(scope="module")
def karate_report() -> str:
    return report_json(analyze(load_karate(), LouvainConfig(seed=7), runs=5))


def test_real_report_passes(karate_report):
    assert checks.check_report(karate_report, nodes=34, edges=78, runs=5) == []


@pytest.mark.parametrize("token", ["nan", "NaN", "Infinity"])
def test_non_finite_report_is_rejected(karate_report, token):
    report = json.loads(karate_report)
    mean = f'"mean": {report["polarization"]["mean"]:.6f}'
    broken = karate_report.replace(mean, f'"mean": {token}', 1)
    assert broken != karate_report
    assert checks.check_report(broken, nodes=34, edges=78, runs=5)


def test_report_with_wrong_counts_or_range_is_rejected(karate_report):
    assert checks.check_report(karate_report, nodes=34, edges=78, runs=6)
    assert checks.check_report(karate_report, nodes=35, edges=78, runs=5)
    report = json.loads(karate_report)
    report["p_within"]["mean"] = 1.5
    assert checks.check_report(json.dumps(report), nodes=34, edges=78, runs=5)


SWEEP = (
    "num_opinions,dom_ratio,mean_p,std_p,runs\n"
    "2,0.400000,0.100000,0.000000,1\n"
    "2,1.000000,0.900000,0.000000,1\n"
    "5,0.400000,0.000000,0.000000,1\n"
    "5,1.000000,0.950000,0.000000,1\n"
)


def test_complete_sweep_csv_passes():
    assert checks.check_sweep_csv(SWEEP, [0.4, 1.0], [2, 5], runs=1) == []


def test_short_sweep_csv_is_rejected():
    short = "".join(SWEEP.splitlines(keepends=True)[:-1])
    assert checks.check_sweep_csv(short, [0.4, 1.0], [2, 5], runs=1)


def test_sweep_csv_with_bad_header_or_value_is_rejected():
    assert checks.check_sweep_csv(SWEEP.replace("std_p", "sd"), [0.4, 1.0], [2, 5], 1)
    assert checks.check_sweep_csv(SWEEP.replace("0.950000", "nan"), [0.4, 1.0], [2, 5], 1)


def test_same_seed_gives_byte_identical_fixtures(tmp_path):
    for run in ("a", "b", "c"):
        (tmp_path / run).mkdir()
    seeds = {"a": 3, "b": 3, "c": 4}
    for run, seed in seeds.items():
        fixtures.write_sbm_fixture(tmp_path / run, seed, 3, 30, dom_ratio=0.8, num_opinions=2)
        fixtures.write_stance_fixture(tmp_path / run / "archive.jsonl", seed, 300)
    for name in ("sbm.edges.tsv", "sbm.labels.tsv", "archive.jsonl"):
        a, b, c = ((tmp_path / run / name).read_bytes() for run in "abc")
        assert a == b
        assert a != c


def test_stance_ground_truth_matches_the_built_network(tmp_path):
    archive = tmp_path / "archive.jsonl"
    truth = fixtures.write_stance_fixture(archive, 11, records=400)
    graph = build_retweet_network(read_stance_records(archive))
    assert graph.node_count == truth["users"]
    write_edge_list(graph, tmp_path / "e.tsv")
    write_labels(graph, tmp_path / "l.tsv")
    edges = (tmp_path / "e.tsv").read_text()
    labels = (tmp_path / "l.tsv").read_text()
    assert checks.check_network(edges, labels, truth["events"], truth["users"]) == []
    assert checks.check_network(edges, labels, truth["events"] + 1, truth["users"])
    assert checks.check_network(edges, labels.replace("\t2\n", "\t3\n"), truth["events"], truth["users"])


def test_failed_setup_probe_fails_the_invocation(monkeypatch, tmp_path):
    import run

    class OneSchedule:
        runs = 1

        def invocations(self):
            return [["analyze"]]

        def setup_probe(self):
            return ["sbm"]

        def modularity_mean(self, first_out):
            return 0.5

    def broken_probe(args, cwd):
        raise RuntimeError("probe ['setup', 'sbm'] exited 1")

    monkeypatch.setattr(run, "_invoke", lambda wl, k, out: (1.0, 30.0, [], b"report"))
    monkeypatch.setattr(run, "_probe", broken_probe)
    metrics, outcome = run.timed_run(OneSchedule(), 0.0, tmp_path)
    assert outcome["attempted"] == outcome["failed"] == 2
    assert metrics["ok_ratio"][0] == 0.0
    assert "exited 1" in outcome["problems"][0]
