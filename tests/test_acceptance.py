"""Acceptance gate: one test per shipping criterion.

Each test is a hard gate at the stated tolerance. The two full-scale
checks need external datasets and are skipped unless the corresponding
environment variables point at local copies:

  POLARIMETER_POLITICAL_GRAPH / POLARIMETER_POLITICAL_LABELS
      edge list + labels of the political retweet network used for the
      published dominance-ratio table (advisory, per-cell tolerance 0.10)
  POLARIMETER_HCQ_RECORDS
      JSON-lines stance archive of the hydroxychloroquine discussion
      (validates node/edge counts and the published score 0.93)
"""

from __future__ import annotations

import json
import os
import random
import warnings

import pytest
from scipy.stats import spearmanr

from polarimeter import (
    LabeledGraph,
    LouvainConfig,
    Partition,
    SbmConfig,
    analyze,
    build_retweet_network,
    census,
    generate_sbm,
    load_graph,
    louvain,
    modularity,
    scale_weights,
    score_partition,
    score_users,
    sweep,
)
from polarimeter.cli import main
from polarimeter.stance import FAVOR, NEUTRAL, StanceRecord
from oracles import (
    all_partitions,
    communities_of,
    edge_triples,
    brute_force_modularity,
    naive_polarization,
    random_graph_spec,
)

RATIO_GRID = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def test_criterion_1_formula_oracle():
    """4-node hand computation: P_W = 1.0, P_B = 0.0, P = 2/3, all +-1e-12."""
    g = LabeledGraph.from_edges(
        [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)],
        {0: 0, 1: 0, 2: 1, 3: 1},
    )
    part = Partition(assignment={0: 0, 1: 0, 2: 1, 3: 1}, k=2)
    p_w, p_b, p = score_partition(g, scale_weights(g, census(g)), part)
    assert abs(p_w - 1.0) <= 1e-12
    assert abs(p_b - 0.0) <= 1e-12
    assert abs(p - 2 / 3) <= 1e-12


def test_criterion_2_brute_force_equivalence():
    """200 random graphs, every partition enumerated: fast path == naive
    transliteration within 1e-9."""
    rng = random.Random(202)
    for _ in range(200):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=8,
                                                      max_opinions=3)
        g = LabeledGraph.from_edges(edges, opinions, num_opinions=k)
        scaled = scale_weights(g, census(g))
        for blocks in all_partitions(nodes):
            assignment = {}
            for cid, block in enumerate(blocks):
                for node in block:
                    assignment[node] = cid
            part = Partition(assignment=assignment, k=len(blocks))
            got = score_partition(g, scaled, part)
            want = naive_polarization(nodes, edge_triples(g), opinions, k, assignment)
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-9


def test_criterion_3_boundary_invariants():
    """100 random graphs: uniform labels give P = 1.0; labelings with at
    least half the scaled mass on cross-opinion pairs give P = 0.0."""
    rng = random.Random(303)
    for _ in range(100):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=10)
        g = LabeledGraph.from_edges(edges, {u: 0 for u in nodes}, num_opinions=2)
        report = analyze(g, LouvainConfig(seed=rng.randrange(1000)), runs=1)
        assert report.polarization_mean == 1.0

    for _ in range(100):
        left = rng.randint(2, 5)
        right = rng.randint(2, 5)
        edges = []
        for i in range(max(left, right)):
            edges.append((f"l{i % left}", f"r{i % right}", 1.0))
        for _ in range(rng.randint(1, 6)):
            edges.append(
                (f"l{rng.randrange(left)}", f"r{rng.randrange(right)}",
                 round(rng.uniform(0.5, 2.0), 3))
            )
        labels = {f"l{i}": 0 for i in range(left)}
        labels.update({f"r{i}": 1 for i in range(right)})
        g = LabeledGraph.from_edges(edges, labels, num_opinions=2)
        report = analyze(g, LouvainConfig(seed=rng.randrange(1000)), runs=1)
        assert report.polarization_mean == 0.0


def test_criterion_4_karate_benchmark(capsys):
    """demo-karate --runs 100 lands in [0.62, 0.82] around the published 0.72."""
    code = main(["demo-karate", "--runs", "100"])
    out = capsys.readouterr().out
    assert code == 0
    mean_p = json.loads(out)["polarization"]["mean"]
    assert 0.62 <= mean_p <= 0.82


def test_criterion_5_dominance_trend_at_surrogate_scale():
    """5,000-node planted-block surrogate: per opinion count, mean P over 20
    runs per cell is rank-monotone in the dominance ratio (Spearman rho >=
    0.95 over the 8-point grid) and spans at least 0.3 end to end.

    Known red. The rank gate is unreachable under the defining equations:
    a relabeled community mixes opinions in proportion dom_ratio versus
    (1 - dom_ratio) split over the rest, so the cross-opinion mass within a
    community is 1 - d^2 - (1 - d)^2 / (k - 1). For k = 2 that mass peaks at
    dom_ratio 0.5, where the 0.5 cap floors the score, giving a V-shaped row
    (rho ~ 0.79). For k >= 5 the mass stays above the cap until roughly
    dom_ratio 0.7, so the low cells are exact zeros and the rank ties hold
    rho near 0.94. The spanned-range gate passes for every row, as does
    strict growth above the mixing point. All rows are measured before the
    assert so a failure reports the complete picture.
    """
    g, planted = generate_sbm(
        SbmConfig(blocks=20, nodes_per_block=250, p_in=0.05, p_out=0.001,
                  seed=42)
    )
    rows = []
    for num_opinions in (2, 5, 10):
        cells = sweep(
            g,
            dom_ratios=RATIO_GRID,
            num_opinions_list=[num_opinions],
            runs=20,
            seed=7,
            partition=planted,
        )
        means = [c.mean_p for c in cells]
        rho = float(spearmanr(RATIO_GRID, means).statistic)
        rows.append((num_opinions, rho, means))
    summary = "\n".join(
        "k=%d rho=%.4f span=%.3f means=%s"
        % (k, rho, means[-1] - means[0], [round(m, 4) for m in means])
        for k, rho, means in rows
    )
    assert all(means[-1] - means[0] >= 0.3 for _, _, means in rows), summary
    assert all(rho >= 0.95 for _, rho, _ in rows), summary


def test_criterion_6_stance_fixture():
    """1,000-record synthetic archive: edge-weight total equals the non-self
    retweet event count, and the score boundary at 0.2 is strict."""
    rng = random.Random(606)
    users = [f"u{i:03d}" for i in range(80)]
    records = []
    expected_events = 0
    for i in range(1000):
        author = rng.choice(users)
        stance = rng.choice(("favor", "against", "neutral"))
        retweeters = tuple(
            rng.choice(users) for _ in range(rng.randrange(0, 5))
        )
        expected_events += sum(1 for r in retweeters if r != author)
        records.append(
            StanceRecord(tweet_id=f"t{i}", author=author, stance=stance,
                         retweeters=retweeters)
        )
    g = build_retweet_network(records)
    assert g.total_weight == pytest.approx(float(expected_events), abs=1e-9)
    assert g.num_opinions == 3

    # Boundary: F=2, A=1, N=2 scores exactly 0.2 -> neutral; one more favor
    # tips it past the threshold.
    base = [
        StanceRecord(tweet_id=f"b{i}", author="x", stance=s, retweeters=())
        for i, s in enumerate(
            ("favor", "favor", "against", "neutral", "neutral")
        )
    ]
    score, opinion = score_users(base)["x"]
    assert score == pytest.approx(0.2, abs=1e-12)
    assert opinion == NEUTRAL
    tipped = base + [
        StanceRecord(tweet_id="b9", author="x", stance="favor", retweeters=())
    ]
    score, opinion = score_users(tipped)["x"]
    assert score > 0.2
    assert opinion == FAVOR


def test_criterion_7_determinism(capsys, tmp_path):
    """Identical flags and inputs give byte-identical outputs, for any
    --threads value."""
    def run(argv):
        code = main(argv)
        assert code == 0
        return capsys.readouterr().out

    assert run(["demo-karate", "--runs", "5"]) == run(["demo-karate", "--runs", "5"])

    from polarimeter import load_karate, write_edge_list, write_labels

    g = load_karate()
    epath, lpath = tmp_path / "e.tsv", tmp_path / "l.tsv"
    write_edge_list(g, epath)
    write_labels(g, lpath)
    base = ["analyze", "--graph", str(epath), "--labels", str(lpath),
            "--runs", "6", "--seed", "11"]
    outputs = {run(base + ["--threads", str(t)]) for t in (1, 2, 4)}
    assert len(outputs) == 1

    sweep_argv = ["sweep", "--sbm", "3x15", "--dom-ratios", "0.4,1.0",
                  "--num-opinions", "2,3", "--runs", "3", "--seed", "2"]
    assert run(sweep_argv) == run(sweep_argv + ["--threads", "4"])

    archive = tmp_path / "tweets.jsonl"
    rows = [
        {"tweet_id": str(i), "author": f"a{i % 7}", "stance": "favor",
         "retweeters": [f"a{(i + 1) % 7}", f"a{(i + 2) % 7}"]}
        for i in range(30)
    ]
    archive.write_text("".join(json.dumps(r) + "\n" for r in rows))
    nets = []
    for tag in ("n1", "n2"):
        prefix = str(tmp_path / tag)
        run(["build-network", "--records", str(archive), "--out", prefix])
        nets.append(
            (tmp_path / f"{tag}.edges.tsv").read_bytes()
            + (tmp_path / f"{tag}.labels.tsv").read_bytes()
            + (tmp_path / f"{tag}.names.json").read_bytes()
        )
    assert nets[0] == nets[1]


def test_criterion_8_louvain_sanity():
    """Two bridged 5-cliques are recovered for 100/100 seeds, and modularity
    matches a brute-force scorer on small random graphs."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j, 1.0))
    edges.append((4, 5, 1.0))
    g = LabeledGraph.from_edges(edges, {i: 0 for i in range(10)}, num_opinions=2)
    for seed in range(100):
        p = louvain(g, LouvainConfig(seed=seed))
        assert p.k == 2
        c = communities_of(g, p)
        assert len({c[i] for i in range(5)}) == 1
        assert len({c[i] for i in range(5, 10)}) == 1
        assert c[0] != c[9]

    rng = random.Random(808)
    for _ in range(40):
        nodes, edges, opinions, k = random_graph_spec(rng, max_nodes=8)
        g = LabeledGraph.from_edges(edges, opinions, num_opinions=k)
        found = louvain(g, LouvainConfig(seed=rng.randrange(10_000)))
        assert modularity(g, found) == pytest.approx(
            brute_force_modularity(nodes, edges, communities_of(g, found)), abs=1e-9
        )
        assignment = {u: rng.randrange(2) for u in nodes}
        cids = sorted(set(assignment.values()))
        part = Partition(
            assignment={u: cids.index(c) for u, c in assignment.items()},
            k=len(cids),
        )
        assert modularity(g, part) == pytest.approx(
            brute_force_modularity(nodes, edges, assignment), abs=1e-9
        )


# -- full-scale checks, active only when the datasets are supplied -----------

PUBLISHED_GRID = {
    2: [0.22, 0.36, 0.45, 0.53, 0.70, 0.76, 0.74, 0.78],
    3: [0.15, 0.30, 0.44, 0.53, 0.58, 0.79, 0.74, 0.80],
    4: [0.15, 0.35, 0.45, 0.51, 0.60, 0.70, 0.73, 0.87],
    5: [0.15, 0.31, 0.49, 0.52, 0.60, 0.71, 0.82, 0.77],
    6: [0.14, 0.31, 0.43, 0.52, 0.60, 0.72, 0.80, 0.78],
    7: [0.16, 0.39, 0.46, 0.54, 0.62, 0.68, 0.73, 0.77],
    8: [0.18, 0.34, 0.47, 0.54, 0.64, 0.69, 0.72, 0.80],
    9: [0.18, 0.44, 0.46, 0.56, 0.62, 0.70, 0.75, 0.81],
    10: [0.18, 0.36, 0.48, 0.59, 0.64, 0.70, 0.75, 0.79],
}

POLITICAL_GRAPH = os.environ.get("POLARIMETER_POLITICAL_GRAPH")
POLITICAL_LABELS = os.environ.get("POLARIMETER_POLITICAL_LABELS")
HCQ_RECORDS = os.environ.get("POLARIMETER_HCQ_RECORDS")


@pytest.mark.skipif(
    not (POLITICAL_GRAPH and POLITICAL_LABELS),
    reason="political retweet network not supplied "
    "(POLARIMETER_POLITICAL_GRAPH / POLARIMETER_POLITICAL_LABELS)",
)
def test_published_dominance_table_advisory():
    """Full grid on the real political network, 100 runs per cell. Prints
    every cell next to its published value and warns on deviations beyond
    the advisory 0.10; the hard asserts cover only grid shape and score
    range, since the low-ratio published cells are not reachable from the
    defining equations (see the dominance-trend gate above)."""
    g = load_graph(POLITICAL_GRAPH, POLITICAL_LABELS)
    runs = int(os.environ.get("POLARIMETER_GRID_RUNS", "100"))
    cells = sweep(
        g,
        dom_ratios=RATIO_GRID,
        num_opinions_list=sorted(PUBLISHED_GRID),
        runs=runs,
        seed=42,
        threads=2,
    )
    assert len(cells) == len(PUBLISHED_GRID) * len(RATIO_GRID)
    lines = []
    for cell in cells:
        assert 0.0 <= cell.mean_p <= 1.0
        published = PUBLISHED_GRID[cell.num_opinions][
            RATIO_GRID.index(cell.dom_ratio)]
        deviation = abs(cell.mean_p - published)
        lines.append(
            f"numOpinions={cell.num_opinions} domRatio={cell.dom_ratio:.1f} "
            f"mean={cell.mean_p:.3f} published={published:.2f} "
            f"|dev|={deviation:.3f}"
        )
        if deviation > 0.10:
            warnings.warn(f"advisory tolerance exceeded: {lines[-1]}")
    print("\n".join(lines))


@pytest.mark.skipif(
    not HCQ_RECORDS,
    reason="stance archive not supplied (POLARIMETER_HCQ_RECORDS)",
)
def test_published_retweet_network_score():
    """Archived stance dataset reproduces the published network dimensions
    (37,255 users; 41,668 edges) and a 100-run mean near 0.93."""
    from polarimeter import read_stance_records

    g = build_retweet_network(read_stance_records(HCQ_RECORDS))
    assert g.node_count == 37255
    assert g.edge_count == 41668
    report = analyze(g, LouvainConfig(seed=42), runs=100,
                     threads=2)
    assert 0.88 <= report.polarization_mean <= 0.98
