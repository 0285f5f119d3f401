"""File loading, report serialization, and byte-stability contracts."""

from __future__ import annotations

import json
import logging
import random

import pytest

from polarimeter import io as pio
from polarimeter import (
    InputError,
    LabeledGraph,
    LouvainConfig,
    analyze,
    load_graph,
    load_karate,
    report_csv,
    report_json,
    save_report,
    sweep_csv,
    write_edge_list,
    write_labels,
)
from polarimeter.synthetic import SweepCell


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny(tmp_path):
    edges = write(tmp_path / "edges.tsv", "a\tb\t2.0\nb\tc\n")
    labels = write(tmp_path / "labels.tsv", "a\t0\nb\t1\nc\t0\n")
    return edges, labels


def test_loads_tsv_with_default_weight(tiny):
    g = load_graph(*tiny)
    assert g.node_count == 3
    assert dict(((u, v), w) for u, v, w in g.edges) == {
        ("a", "b"): 2.0,
        ("b", "c"): 1.0,
    }
    assert g.num_opinions == 2


def test_loads_comma_separated_files(tmp_path):
    edges = write(tmp_path / "e.csv", "a,b,1.5\nb,c,2\n")
    labels = write(tmp_path / "l.csv", "a,0\nb,1\nc,1\n")
    g = load_graph(edges, labels)
    assert g.total_weight == pytest.approx(3.5)


def test_skips_comments_and_blank_lines(tmp_path):
    edges = write(tmp_path / "e.tsv", "# header\n\na\tb\t1\n   \nb\tc\t1\n")
    labels = write(tmp_path / "l.tsv", "# labels\na\t0\nb\t0\nc\t1\n")
    assert load_graph(edges, labels).edge_count == 2


def test_merges_duplicate_rows_including_reversed(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\nb\ta\t2\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t1\n")
    g = load_graph(edges, labels)
    assert g.edges == (("a", "b", 3.0),)


def test_drops_self_loop_rows_with_counted_warning(tmp_path, caplog):
    edges = write(tmp_path / "e.tsv", "a\ta\t1\na\tb\t1\na\ta\t4\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t0\n")
    with caplog.at_level(logging.WARNING, logger="polarimeter.io"):
        g = load_graph(edges, labels)
    assert g.edge_count == 1
    assert "2" in caplog.text and "self-loop" in caplog.text


def test_missing_label_for_edge_node_is_hard_error(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\n")
    with pytest.raises(InputError, match="'b'"):
        load_graph(edges, labels)


def test_bad_weight_error_names_file_and_line(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\nb\tc\tfast\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t0\nc\t0\n")
    with pytest.raises(InputError, match=r"e\.tsv:2"):
        load_graph(edges, labels)


def test_nonpositive_weight_rejected(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t0\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t0\n")
    with pytest.raises(InputError, match="non-positive"):
        load_graph(edges, labels)


def test_conflicting_labels_rejected(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t1\na\t1\n")
    with pytest.raises(InputError, match="conflicting"):
        load_graph(edges, labels)


def test_repeated_identical_label_rows_are_fine(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t1\na\t0\n")
    assert load_graph(edges, labels).opinions == {"a": 0, "b": 1}


def test_opinion_index_must_be_below_the_labeled_node_count(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t0\nc\t2\n")
    assert load_graph(edges, labels).num_opinions == 3
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t3\nc\t3\n")
    with pytest.raises(InputError, match="opinion index 3 is not below") as info:
        load_graph(edges, labels)
    assert info.value.line == 2


def test_empty_edge_file_rejected(tmp_path):
    edges = write(tmp_path / "e.tsv", "# nothing\n")
    labels = write(tmp_path / "l.tsv", "a\t0\n")
    with pytest.raises(InputError, match="no edges"):
        load_graph(edges, labels)


def test_label_only_nodes_are_isolated(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t1\nzz\t1\n")
    g = load_graph(edges, labels)
    assert g.node_count == 3
    assert "zz" in g.nodes


def test_row_order_does_not_change_the_graph(tmp_path):
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t1\nc\t0\nd\t1\n")
    e1 = write(tmp_path / "e1.tsv", "a\tb\t1\nb\tc\t2\nc\td\t3\n")
    e2 = write(tmp_path / "e2.tsv", "c\td\t3\nb\ta\t1\nc\tb\t2\n")
    g1, g2 = load_graph(e1, labels), load_graph(e2, labels)
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges


def test_write_then_load_round_trips(tmp_path):
    g = LabeledGraph(
        [("a", "b", 1.25), ("b", "c", 0.3), ("a", "c", 2.0)],
        {"a": 0, "b": 1, "c": 2},
    )
    epath, lpath = tmp_path / "out.tsv", tmp_path / "out_labels.tsv"
    write_edge_list(g, epath)
    write_labels(g, lpath)
    g2 = load_graph(str(epath), str(lpath))
    assert g2.nodes == g.nodes
    assert g2.opinions == g.opinions
    for (u1, v1, w1), (u2, v2, w2) in zip(g.edges, g2.edges):
        assert (u1, v1) == (u2, v2)
        assert w1 == pytest.approx(w2, abs=1e-9)


def test_edge_list_written_in_slices_has_the_rows_of_graph_edges(tmp_path, monkeypatch):
    rng = random.Random(5)
    rows = [(*(f"u{x}" for x in rng.sample(range(300), 2)), rng.random() + 0.01)
            for _ in range(900)]
    g = LabeledGraph(rows, {f"u{x}": 0 for x in range(300)})
    monkeypatch.setattr(pio, "_WRITE_ROWS", 64)
    assert g.edge_count > 64 and g.edge_count % 64
    write_edge_list(g, tmp_path / "e.tsv")
    expected = "".join(f"{u}\t{v}\t{w!r}\n" for u, v, w in g.edges)
    assert (tmp_path / "e.tsv").read_bytes() == expected.encode("utf-8")


def test_karate_fixture_loads_with_paper_dimensions():
    g = load_karate()
    assert g.node_count == 34
    assert g.edge_count == 78
    assert g.num_opinions == 2
    assert set(g.opinions.values()) == {0, 1}


@pytest.fixture
def small_report():
    g = LabeledGraph([("a", "b", 1.0), ("c", "d", 1.0)],
                     {"a": 0, "b": 0, "c": 1, "d": 1})
    return analyze(g, LouvainConfig(seed=5), runs=4)


def test_report_json_is_valid_json_with_schema(small_report):
    text = report_json(small_report)
    data = json.loads(text)
    assert data["graph"] == {"nodes": 4, "edges": 2}
    assert set(data) == {
        "graph", "num_opinions", "runs", "seed",
        "p_within", "p_between", "polarization", "communities",
    }
    assert set(data["polarization"]) == {"mean", "std", "min", "max"}
    assert set(data["p_within"]) == {"mean", "std"}


def test_report_reals_use_six_decimal_places(small_report):
    text = report_json(small_report)
    assert '"mean": 1.000000' in text


def test_report_serialization_is_byte_stable(small_report, tmp_path):
    assert report_json(small_report) == report_json(small_report)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(small_report, p1)
    save_report(small_report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_csv_one_header_one_row(small_report, tmp_path):
    text = report_csv(small_report)
    header, row, tail = text.split("\n")
    assert tail == ""
    assert header.startswith("graph_nodes,graph_edges,")
    assert "polarization_mean" in header
    assert len(header.split(",")) == len(row.split(","))
    out = tmp_path / "r.csv"
    save_report(small_report, out)
    assert out.read_text() == text


def test_sweep_csv_layout():
    cells = [
        SweepCell(num_opinions=2, dom_ratio=0.3, mean_p=0.25, std_p=0.01, runs=5),
        SweepCell(num_opinions=2, dom_ratio=1.0, mean_p=0.875, std_p=0.0, runs=5),
    ]
    text = sweep_csv(cells)
    lines = text.splitlines()
    assert lines[0] == "num_opinions,dom_ratio,mean_p,std_p,runs"
    assert lines[1] == "2,0.300000,0.250000,0.010000,5"
    assert lines[2] == "2,1.000000,0.875000,0.000000,5"
