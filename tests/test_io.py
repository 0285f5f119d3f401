"""File loading, report serialization, and byte-stability contracts."""

from __future__ import annotations

import json
import logging
import os
import random
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import edge_triples, join_rows, naive_graph_files
from polarimeter import io as pio
from polarimeter import (
    InputError,
    LabeledGraph,
    LouvainConfig,
    SbmConfig,
    SyntheticLabelConfig,
    analyze,
    generate_sbm,
    load_graph,
    load_karate,
    relabel,
    report_csv,
    report_json,
    save_report,
    sweep_csv,
    write_edge_list,
    write_labels,
)
from polarimeter.graph import MAX_WEIGHT, MIN_WEIGHT
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
    assert dict(((u, v), w) for u, v, w in edge_triples(g)) == {
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
    assert edge_triples(g) == (("a", "b", 3.0),)


def test_drops_self_loop_rows_with_counted_warning(tmp_path, caplog):
    # the drop comes before the label lookup: 'z' is in self-loop rows only
    edges = write(tmp_path / "e.tsv", "a\ta\t1\na\tb\t1\nz\tz\t4\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t0\n")
    with caplog.at_level(logging.WARNING, logger="polarimeter.io"):
        g = load_graph(edges, labels)
    assert g.edge_count == 1 and g.nodes == ("a", "b")
    assert "2" in caplog.text and "self-loop" in caplog.text


def test_missing_label_for_edge_node_is_hard_error(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\n")
    with pytest.raises(InputError, match="'b'"):
        load_graph(edges, labels)


def test_missing_label_names_the_first_unlabeled_node_in_row_order(tmp_path):
    # 'z' comes first in the rows, 'b' first in node order; the error names
    # its own edge row, which is reached before the bad weight on line 3
    edges = write(tmp_path / "e.tsv", "m\tz\t1\na\tb\t1\na\tm\tfast\n")
    labels = write(tmp_path / "l.tsv", "m\t0\na\t1\n")
    with pytest.raises(InputError) as info:
        load_graph(edges, labels)
    assert str(info.value) == f"{edges}:1: node 'z' from edge file has no label"


def test_label_file_is_read_first_so_its_bad_row_wins(tmp_path):
    edges = write(tmp_path / "e.tsv", "a\tb\tfast\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\tx\n")
    with pytest.raises(InputError, match=r"l\.tsv:2: bad opinion index 'x'"):
        load_graph(edges, labels)
    empty = write(tmp_path / "empty.tsv", "# nothing\n")
    with pytest.raises(InputError, match=r"empty\.tsv: label file is empty"):
        load_graph(empty, empty)


def test_first_bad_row_in_file_order_wins(tmp_path):
    # a 4-field row on line 2 is reached before the bad byte on line 3
    epath = tmp_path / "e.tsv"
    epath.write_bytes(b"a\tb\t1\na\tb\t1\t1\nb\tc\xff\t1\n")
    labels = write(tmp_path / "l.tsv", "a\t0\nb\t0\nc\t0\n")
    with pytest.raises(InputError, match=r"e\.tsv:2: expected 'u\tv\[\tw\]'"):
        load_graph(str(epath), labels)


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
    assert edge_triples(g1) == edge_triples(g2)


# ids the archive reader accepts: non-empty and stripped, no leading '#', no
# tab or newline, no lone surrogate; commas, an inner '\r' and any other
# character are fine
ROUND_TRIP_IDS = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n"),
    min_size=1,
    max_size=6,
).filter(lambda s: s == s.strip() and not s.startswith("#"))


# ids of every kind a graph file holds: str ids, non-ASCII and astral ones
# among them, int ids, and both in one graph (no int's text a str id's)
WRITTEN_IDS = st.one_of(
    st.lists(
        st.one_of(ROUND_TRIP_IDS, st.sampled_from(["é", "日本", "\U0001f600", "a\U00010348"])),
        min_size=2, max_size=10, unique=True,
    ),
    st.lists(st.integers(-(10**20), 10**20), min_size=2, max_size=10, unique=True),
    st.lists(st.one_of(st.integers(-3, 30), ROUND_TRIP_IDS),
             min_size=2, max_size=10, unique_by=str),
)
# weights at both bounds, repeated, and ones whose repr has an exponent
WRITTEN_WEIGHTS = st.one_of(
    st.sampled_from([MIN_WEIGHT, 1e-05, 1e16, 0.1, 1.0, 2.0]), st.floats(MIN_WEIGHT, 1e100)
)


@st.composite
def written_graphs(draw):
    """``(ids, rows, labels)``: edge rows over indices into distinct ids,
    with random weights, one of them perhaps `MAX_WEIGHT` (which the other
    rows, at most 1e100 each, leave the total at), and one label per id
    below the id count."""
    ids = draw(WRITTEN_IDS)
    n = len(ids)
    rows = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  WRITTEN_WEIGHTS).filter(lambda r: r[0] != r[1]),
        min_size=1, max_size=20,
    ))
    if draw(st.booleans()):
        rows[0] = (*rows[0][:2], MAX_WEIGHT)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return ids, rows, labels


def written_files(graph, directory, rows=3):
    """The bytes of the edge and label files of ``graph``, written ``rows``
    rows at a time (so that rows cross chunk boundaries)."""
    paths = os.path.join(directory, "e.tsv"), os.path.join(directory, "l.tsv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pio, "_WRITE_ROWS", rows)
        write_edge_list(graph, paths[0])
        write_labels(graph, paths[1])
    return [open(path, "rb").read() for path in paths]


def oracle_files(graph):
    """The bytes of the edge and label files of ``graph`` by the writers'
    oracle: each id as its ``str``, each weight as its ``repr``."""
    ids = [str(u).encode("utf-8") for u in graph.nodes]
    iu, iv, w = (a.tolist() for a in graph.edge_arrays())
    weights = [repr(x).encode() for x in w]
    labels = [str(x).encode() for x in graph.opinion_array().tolist()]
    every = range(len(ids))
    return [join_rows([(ids, iu), (ids, iv), (weights, range(len(w)))]),
            join_rows([(ids, every), (labels, every)])]


@settings(max_examples=150, deadline=None)
@given(written_graphs())
@example((["a,b", "c\rd", "日本", "x #"], [(0, 1, 1.25), (1, 2, 0.3), (0, 2, 2.0)],
          [0, 1, 2, 3]))
@example((["\U0001f600", 7, "é"], [(0, 1, MAX_WEIGHT), (1, 2, 1e-05), (0, 2, 1e16)],
          [2, 2, 0]))
def test_write_then_load_round_trips(graph):
    """The writers write the oracle's bytes, a few rows at a time and at
    the default, and `load_graph` reads them back as the graph with each id
    as its ``str``."""
    ids, rows, labels = graph
    g = LabeledGraph.from_edges(
        [(ids[a], ids[b], w) for a, b, w in rows], dict(zip(ids, labels))
    )
    texts = [str(u) for u in ids]
    want = LabeledGraph.from_edges(
        [(texts[a], texts[b], w) for a, b, w in rows], dict(zip(texts, labels))
    )
    with tempfile.TemporaryDirectory() as tmp:
        files = written_files(g, tmp)
        assert written_files(g, tmp, pio._WRITE_ROWS) == files == oracle_files(g)
        g2 = load_graph(os.path.join(tmp, "e.tsv"), os.path.join(tmp, "l.tsv"))
    assert g2.nodes == want.nodes
    for got, expected in zip(g2.edge_arrays(), want.edge_arrays()):
        assert got.dtype == expected.dtype and (got == expected).all()  # weights by ==
    assert (g2.opinion_array() == want.opinion_array()).all()
    assert g2.num_opinions == want.num_opinions


def test_labels_are_written_from_the_labels_present(tmp_path):
    """A table of every opinion below the count would hold 10**15 texts."""
    g = LabeledGraph(["a", "b"], [0, 1], [1.0], [0, 10**15])
    files = written_files(g, tmp_path)
    assert files == [b"a\tb\t1.0\n", b"a\t0\nb\t1000000000000000\n"]


class FormatsAsTwoFields(str):
    """An id whose ``str`` the writers check, but whose ``format`` differs."""

    def __format__(self, spec):
        return "x\ty"


def test_writers_write_the_id_text_they_checked(tmp_path):
    """The rows once held ``f"{u}"``, which wrote this graph's edge row as
    ``x<tab>y<tab>b<tab>1.0``: four fields."""
    a = FormatsAsTwoFields("a")
    g = LabeledGraph.from_edges([(a, "b", 1.0)], {a: 0, "b": 1})
    files = written_files(g, tmp_path)
    assert files == [b"a\tb\t1.0\n", b"a\t0\nb\t1\n"]


def test_int_ids_load_back_as_their_str_form(tmp_path):
    """A graph with int ids loads back as the same graph with each id read
    back as its ``str``. Ids of both types order ints first and strs as text,
    so node 10 now comes before node 2 and the opinion array follows."""
    ids = (0, 2, 10, "x")
    g = LabeledGraph.from_edges(
        [(0, 2, 1.5), (2, 10, 0.25), (10, "x", 2.0), (0, "x", 1.0)],
        {0: 0, 2: 1, 10: 2, "x": 3},
    )
    assert g.nodes == ids
    epath, lpath = tmp_path / "e.tsv", tmp_path / "l.tsv"
    write_edge_list(g, epath)
    write_labels(g, lpath)
    g2 = load_graph(epath, lpath)
    assert g2.nodes == ("0", "10", "2", "x")
    assert g2.opinion_array().tolist() == [0, 2, 1, 3]
    assert {(frozenset((u, v)), w) for u, v, w in edge_triples(g2)} == {
        (frozenset((str(u), str(v))), w) for u, v, w in edge_triples(g)
    }
    assert dict(zip(g2.nodes, g2.opinion_array().tolist())) == {
        str(u): o for u, o in zip(g.nodes, g.opinion_array().tolist())
    }
    assert g2.num_opinions == g.num_opinions

@pytest.mark.parametrize("ids, bad, fault", [
    (["#a", "b", "c"], "#a", "starts with '#'"),
    (["b", " a", "c"], " a", "is empty or has surrounding whitespace"),
    (["b", "a ", "c"], "a ", "is empty or has surrounding whitespace"),
    (["b", "", "c"], "", "is empty or has surrounding whitespace"),
    (["b", "a\tz", "c"], "a\tz", "holds a tab or a newline"),
    (["b", "a\nz", "c"], "a\nz", "holds a tab or a newline"),
    (["b", "\ud800", "c"], "\ud800", "cannot be encoded as UTF-8"),
    (["b", "1", 1], 1, "is another node's too"),  # ints come first in node order
    (["#z", "#y", "c"], "#y", "starts with '#'"),
])
@pytest.mark.parametrize("writer", [write_edge_list, write_labels])
def test_writers_reject_an_id_that_would_not_read_back(
    tmp_path, writer, ids, bad, fault
):
    g = LabeledGraph(ids, [0, 2, 1, 2], [1.0, 1.0], [0, 1, 1])
    path = tmp_path / "out.tsv"
    with pytest.raises(ValueError) as info:
        writer(g, path)
    assert str(info.value) == (
        f"node {bad!r}: its text {str(bad)!r} {fault}, "
        "so the graph files cannot hold it"
    )
    assert not path.exists()


# ids built as prefix + core + suffix, mostly clean, each fault possible alone
STR_IDS = st.tuples(
    st.sampled_from(["", "", "", " ", "#", "\u2028"]),
    st.sampled_from(["a", "b", "1", "a#b", "a b", "", "a\tb", "a\nb", "a\ud800"]),
    st.sampled_from(["", "", "", " ", "\x1c"]),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(STR_IDS, min_size=2, max_size=6, unique=True),
    st.lists(st.one_of(st.integers(0, 3), STR_IDS),
             min_size=2, max_size=6, unique=True),
))
def test_node_ids_checked_at_once_fail_as_one_id_at_a_time(ids):
    """A graph's ids, checked joined, are rejected exactly when one of them
    alone is or two share a text, and the error names the first such node."""
    g = LabeledGraph(ids, [0, 1], [1.0], [0] * len(ids))
    texts = [str(u) for u in g.nodes]
    first = next(
        (u for u, t in zip(g.nodes, texts)
         if pio._ids_fault((t,)) or texts.count(t) > 1),
        None,
    )
    if first is None:
        pio._check_node_ids(g)
    else:
        with pytest.raises(ValueError, match=f"^node {re.escape(repr(first))}:"):
            pio._check_node_ids(g)


def test_edge_list_written_in_slices_has_the_rows_of_graph_edges(tmp_path, monkeypatch):
    rng = random.Random(5)
    rows = [(*(f"u{x}" for x in rng.sample(range(300), 2)), rng.random() + 0.01)
            for _ in range(900)]
    g = LabeledGraph.from_edges(rows, {f"u{x}": 0 for x in range(300)})
    monkeypatch.setattr(pio, "_WRITE_ROWS", 64)
    assert g.edge_count > 64 and g.edge_count % 64
    write_edge_list(g, tmp_path / "e.tsv")
    expected = "".join(f"{u}\t{v}\t{w!r}\n" for u, v, w in edge_triples(g))
    assert (tmp_path / "e.tsv").read_bytes() == expected.encode("utf-8")


# traced bytes the two writers may take on the 20x250 block model: measured
# at 1.9 MB with 4,096 rows a gather (as with a few rows a gather), 3.3 MB
# with 8,192 and 5.8 MB with 16,384
WRITE_PEAK = 2_500_000


def test_writers_memory_is_bounded_by_the_chunk(tmp_path):
    """The gather's index arrays take 16 bytes per byte written, so the
    chunk size sets the writers' peak; a larger one showed as the peak RSS
    of every benchmark run whose fixtures the harness writes itself."""
    from test_archive_kernel import perfbench_fixtures  # which imports this module

    graph, planted = generate_sbm(perfbench_fixtures().sbm_config(1001, 20, 250))
    g = relabel(graph, planted, SyntheticLabelConfig(0.8, 2, 1001))
    tracemalloc.start()
    try:
        write_edge_list(g, tmp_path / "e.tsv")
        write_labels(g, tmp_path / "l.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WRITE_PEAK, peak


# Graph-file rows for the block reader. Numeric ids let a misread column
# still parse. Edge rows join the six edge ids; label rows give each id one
# opinion and add label-only ids, so a repeated or conflicting label comes
# only from a fault row. "<S>" is the file's separator and "\udcff" a byte
# that is not UTF-8.
EDGE_IDS = ("0", "1", "2", "10", "a", "b")
OPINION_OF = {"0": 0, "1": 1, "2": 2, "10": 0, "a": 1, "b": 0}
# the largest weight is 2**497, so totals past the bound add up exactly in
# any order, and the total-weight message is the oracle's
PLAIN_EDGE_ROWS = st.tuples(
    st.sampled_from(EDGE_IDS),
    st.sampled_from(EDGE_IDS),
    st.sampled_from(["1", "2.5", "0.5", "3", repr(2.0**497)]),
).filter(lambda row: row[0] != row[1]).map("<S>".join)
PLAIN_LABEL_ROWS = st.tuples(
    st.permutations(EDGE_IDS),
    st.lists(st.integers(100, 199), max_size=30, unique=True),
).flatmap(lambda ids: st.permutations(
    [f"{u}<S>{OPINION_OF[u]}" for u in ids[0]] + [f"{i}<S>{i % 3}" for i in ids[1]]
))
# rows the block form must refuse, some of them fine for the row loop
SHARED_FAULT_ROWS = [
    "", "   ", "# note", "#a<S>1", "\udcff", "a<S>\udcff", "é<S>1", "a", "a<S>1<S>2<S>3",
    " a<S>1", "a <S>1", "a<S> 1", "a<S>1\r", "<S>1", "a<S>", "\ufeffa<S>1",
]
LABEL_FAULT_ROWS = st.sampled_from(SHARED_FAULT_ROWS + [
    "a<S>0", "a<S>1", "2<S>2", "1<S>-1", "b<S>1_0", "b<S>x", "0<S>+0", "c<S>40", "0<S>1" + "0" * 4400,
])
EDGE_FAULT_ROWS = st.sampled_from(SHARED_FAULT_ROWS + [
    "a<S>b", "a<S>a<S>1", "z<S>z<S>1", "a<S>z<S>1", "z<S>a<S>1", "a<S>b<S>1_0",
    "a<S>b<S>inf", "a<S>b<S>nan", "a<S>b<S>-1", "a<S>b<S>1e-151", "a<S>b<S>1e151",
    "a<S>b<S>w", "1<S>2<S>1<S>1", "1<S>2\r", "a<S>b<S> 1",
])


@st.composite
def graph_file(draw, rows, faults):
    """One graph file's bytes: the ``rows`` with a few fault rows among
    them, a tab or comma separator, a final newline, none, or a last line
    without one, and maybe a byte-order mark or two before it all."""
    rows = list(draw(rows))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(faults))
    text = "\n".join(rows) + draw(st.sampled_from(["\n", "", "\n0", "\n#"]))
    text = draw(st.sampled_from(["", "\ufeff", "\ufeff\ufeff", "\ufeff\n"])) + text
    return text.replace("<S>", draw(st.sampled_from("\t,"))).encode("utf-8", "surrogateescape")


class _Messages(logging.Handler):
    """The messages of the records it handles, in order."""

    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def assert_loads_as_the_plain_loop(epath, lpath):
    """load_graph gives the naive loop's graph, or its first error and
    line, and the same warnings."""
    want, error, dropped = naive_graph_files(epath, lpath)
    logger, messages = logging.getLogger("polarimeter.io"), _Messages()
    logger.addHandler(messages)
    try:
        g = load_graph(epath, lpath)
    except InputError as exc:
        assert error is not None, f"unexpected {exc}"
        message, path, line = error
        where = f"{path}:" if line is None else f"{path}:{line}:"
        assert (str(exc), exc.path, exc.line) == (f"{where} {message}", path, line)
    else:
        assert error is None, f"no error; expected {error}"
        assert g.opinions == want[0]
        assert {(u, v): w for u, v, w in edge_triples(g)} == want[1]
    finally:
        logger.removeHandler(messages)
    assert messages.messages == (
        [f"{epath}: dropped {dropped} self-loop edge row(s)"] if dropped else []
    )


@settings(max_examples=400, deadline=None)
@given(
    graph_file(st.lists(PLAIN_EDGE_ROWS, min_size=1, max_size=30), EDGE_FAULT_ROWS),
    graph_file(PLAIN_LABEL_ROWS, LABEL_FAULT_ROWS),
    st.integers(8, 64),
)
@example(b"a\tb\t1\n\ta\t1\n1\t2\t1\n", b"a\t1\nb\t0\n1\t1\n2\t2\n", 8)
# one block each: a weight over the bound; a label repeated in its block
@example(b"0\t1\t1\na\tb\t1e151\n", b"a\t1\na\t0\n0\t0\n1\t1\n2\t2\n10\t0\nb\t0\n", 64)
# a label repeated in a later block
@example(b"0\t1\t1\n", b"a\t1\nb\t0\n0\t0\n1\t1\n2\t2\n10\t0\na\t0\n", 8)
# one block each: a self-loop; the largest opinion, too large, on its third row
@example(b"0\t1\t1\na\ta\t1\n", b"0\t0\n1\t1\nc\t40\n2\t2\n10\t0\na\t1\nb\t0\n", 64)
def test_load_graph_reads_blocks_as_the_plain_loop_reads_rows(edges, labels, block):
    """With blocks of a few dozen bytes, so that rows of every kind share
    blocks and reach past block ends, load_graph reads the drawn files as
    the naive loop does. Each drawn file is also read with a plain partner,
    so a fault in one does not hide how the other is read."""
    plain_edges = "0\t1\t1\n".encode()
    plain_labels = "".join(f"{u}\t{o}\n" for u, o in OPINION_OF.items()).encode()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(pio, "_BLOCK_BYTES", block)
        paths = {}
        for name, data in [("e", edges), ("l", labels), ("pe", plain_edges),
                           ("pl", plain_labels)]:
            paths[name] = os.path.join(tmp, f"{name}.tsv")
            with open(paths[name], "wb") as fh:
                fh.write(data)
        assert_loads_as_the_plain_loop(paths["e"], paths["l"])
        assert_loads_as_the_plain_loop(paths["e"], paths["pl"])
        assert_loads_as_the_plain_loop(paths["pe"], paths["l"])


def rows_reaching_the_row_loop(monkeypatch):
    """The blocks handed to the row loop, as (path, first line, block), and
    a count of the lines it yields from them, filled as files are read."""
    seen = {"blocks": [], "lines": 0}
    lines = pio._lines

    def counted(path, first, block):
        seen["blocks"].append((str(path), first, block))
        for item in lines(path, first, block):
            seen["lines"] += 1
            yield item

    monkeypatch.setattr(pio, "_lines", counted)
    return seen


def test_written_graph_files_reach_no_row_loop(tmp_path, monkeypatch):
    graph, planted = generate_sbm(SbmConfig(20, 250, 0.05, 0.001, seed=3))
    g = relabel(graph, planted, SyntheticLabelConfig(0.8, 2, 3))
    epath, lpath = tmp_path / "e.tsv", tmp_path / "l.tsv"
    write_edge_list(g, epath)
    write_labels(g, lpath)
    seen = rows_reaching_the_row_loop(monkeypatch)
    g2 = load_graph(epath, lpath)
    assert seen == {"blocks": [], "lines": 0}

    # one padded field: its block alone goes to the row loop, every row of it
    rows = epath.read_bytes().split(b"\n")
    rows[1000] = rows[1000].replace(b"\t", b" \t", 1)
    epath.write_bytes(b"\n".join(rows))
    padded = next(
        (first, block) for first, block in pio._numbered(pio._blocks(epath))
        if first <= 1001 < first + block.count(b"\n")
    )
    g3 = load_graph(epath, lpath)
    assert seen["blocks"] == [(str(epath), *padded)]
    assert seen["lines"] == padded[1].count(b"\n")
    assert 1 < seen["lines"] < len(rows) // 10
    assert (g2.node_count, g2.edge_count) == (g.node_count, g.edge_count)
    assert g3.nodes == g2.nodes
    assert np.array_equal(g3.opinion_array(), g2.opinion_array())
    for a, b in zip(g3.edge_arrays(), g2.edge_arrays()):
        assert np.array_equal(a, b)


def test_karate_fixture_loads_with_paper_dimensions():
    g = load_karate()
    assert g.node_count == 34
    assert g.edge_count == 78
    assert g.num_opinions == 2
    assert set(g.opinions.values()) == {0, 1}


@pytest.fixture
def small_report():
    g = LabeledGraph.from_edges([("a", "b", 1.0), ("c", "d", 1.0)],
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
