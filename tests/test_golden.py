"""Golden outputs: report bytes, per-run values, modularity values and
build-network files fixed at a known-good commit. They pin the Louvain partitions and the
retweet network, so a change to the graph layout, the optimizer's summation
order or the stance counting that moves any of them fails here."""

from __future__ import annotations

import hashlib
import json
import random

from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    SbmConfig,
    SyntheticLabelConfig,
    analyze,
    build_retweet_network,
    generate_sbm,
    load_karate,
    louvain,
    modularity,
    read_stance_records,
    relabel,
    write_edge_list,
    write_labels,
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


def write_archive(path, records=3000, users=150, seed=11):
    """Seeded tweet archive: repeated and reversed retweet pairs, about 5%
    self-retweets and about 2% authors nobody retweets."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(records):
            if rng.random() < 0.02:
                author, retweeters = f"quiet{i}", []
            else:
                author = f"u{rng.randrange(users)}"
                retweeters = [f"u{rng.randrange(users)}" for _ in range(rng.randrange(4))]
                if rng.random() < 0.05:
                    retweeters.append(author)
            stance = ("favor", "against", "neutral")[rng.randrange(3)]
            record = {"tweet_id": f"t{i}", "author": author, "stance": stance,
                      "retweeters": retweeters}
            fh.write(json.dumps(record) + "\n")


def test_build_network_output_bytes(capsys, tmp_path, monkeypatch):
    write_archive(tmp_path / "archive.jsonl")
    monkeypatch.chdir(tmp_path)
    assert main(["build-network", "--records", "archive.jsonl", "--out", "net"]) == 0
    assert capsys.readouterr().out == (
        "wrote net.edges.tsv net.labels.tsv net.names.json (211 nodes, 3645 edges)\n"
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("net.edges.tsv", "net.labels.tsv", "net.names.json")
    }
    assert digests == {
        "net.edges.tsv": "69497cd2b281e4a36d81949ca05a7e7a2534fa3074a319f8eb113ffdd8b0ae0f",
        "net.labels.tsv": "70780c5e597c80ea356d42e53f16be85f3a3503df06f2d229447a1c31b88d5d6",
        "net.names.json": "fdaeb5961da0c4527be36fd14f02c800a05c3f391f001cc84a30fdb41ed4807a",
    }


def test_build_network_files_equal_the_library_path(capsys, tmp_path, monkeypatch):
    # the CLI streams validated rows into the build; the library path builds
    # StanceRecords first: both must write the same bytes
    write_archive(tmp_path / "archive.jsonl", records=2000, users=300, seed=29)
    monkeypatch.chdir(tmp_path)
    assert main(["build-network", "--records", "archive.jsonl", "--out", "cli"]) == 0
    graph = build_retweet_network(read_stance_records("archive.jsonl"))
    write_edge_list(graph, "lib.edges.tsv")
    write_labels(graph, "lib.labels.tsv")
    for suffix in ("edges.tsv", "labels.tsv"):
        assert (tmp_path / f"cli.{suffix}").read_bytes() == (
            tmp_path / f"lib.{suffix}"
        ).read_bytes()
    assert capsys.readouterr().out.endswith(
        f"({graph.node_count} nodes, {graph.edge_count} edges)\n"
    )


def test_karate_modularity_values():
    graph = load_karate()
    values = [modularity(graph, louvain(graph, LouvainConfig(seed=s))) for s in range(5)]
    assert values == [
        0.4155982905982906,
        0.4151051939513477,
        0.4151051939513477,
        0.4188034188034188,
        0.4155982905982906,
    ]


def test_sbm_modularity_value():
    graph, _ = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=7))
    value = modularity(graph, louvain(graph, LouvainConfig(seed=42)))
    assert value == 0.6695859523222581


def test_weighted_random_graph_modularity_values():
    # non-dyadic weights: unlike the integer weights above, their community
    # totals change bits when the edges are added in another order
    rng = random.Random(5)
    rows = [(*rng.sample(range(300), 2), rng.random() + 0.01) for _ in range(900)]
    graph = LabeledGraph(rows, {u: 0 for u in range(300)})
    values = [modularity(graph, louvain(graph, LouvainConfig(seed=s))) for s in range(3)]
    assert values == [0.5065903104905737, 0.5076809234183836, 0.5069911147256968]
