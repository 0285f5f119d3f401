"""Command-line behavior: flags, exit codes, output formats."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarimeter import stance
from polarimeter.cli import main
from oracles import naive_graph_files


@pytest.fixture
def karate_files(tmp_path):
    from polarimeter import load_karate, write_edge_list, write_labels

    g = load_karate()
    epath, lpath = tmp_path / "k_edges.tsv", tmp_path / "k_labels.tsv"
    write_edge_list(g, epath)
    write_labels(g, lpath)
    return str(epath), str(lpath)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "command" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "analyze" in out and "sweep" in out


def test_subcommand_help_lists_defaults(capsys):
    code, out, _ = run(capsys, "analyze", "--help")
    assert code == 0
    for flag in ("--graph", "--labels", "--runs", "--seed", "--threads", "--out"):
        assert flag in out
    assert "default: 100" in out


def test_analyze_writes_json_to_stdout(capsys, karate_files):
    edges, labels = karate_files
    code, out, _ = run(
        capsys, "analyze", "--graph", edges, "--labels", labels,
        "--runs", "3", "--seed", "7",
    )
    assert code == 0
    data = json.loads(out)
    assert data["graph"] == {"nodes": 34, "edges": 78}
    assert data["runs"] == 3
    assert data["seed"] == 7


def test_analyze_output_is_reproducible(capsys, karate_files):
    edges, labels = karate_files
    argv = ["analyze", "--graph", edges, "--labels", labels, "--runs", "4"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_analyze_thread_flag_does_not_change_output(capsys, karate_files):
    edges, labels = karate_files
    base = ["analyze", "--graph", edges, "--labels", labels, "--runs", "4"]
    _, out1, _ = run(capsys, *base, "--threads", "1")
    _, out2, _ = run(capsys, *base, "--threads", "3")
    assert out1 == out2


def test_bad_threads_values_are_input_errors(capsys, karate_files):
    edges, labels = karate_files
    base = ["analyze", "--graph", edges, "--labels", labels, "--runs", "1"]
    code, _, err = run(capsys, *base, "--threads", "0")
    assert code == 1 and "--threads" in err


def test_analyze_out_file_json_and_csv(capsys, karate_files, tmp_path):
    edges, labels = karate_files
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    base = ["analyze", "--graph", edges, "--labels", labels, "--runs", "2"]
    assert run(capsys, *base, "--out", str(jpath))[0] == 0
    assert run(capsys, *base, "--out", str(cpath))[0] == 0
    assert json.loads(jpath.read_text())["runs"] == 2
    assert cpath.read_text().splitlines()[0].startswith("graph_nodes,")


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "--graph", "x.tsv")
    assert code == 1
    assert "--labels" in err


def test_missing_file_exits_one_naming_the_path(capsys, tmp_path):
    edges = tmp_path / "absent.tsv"
    labels = tmp_path / "labels.tsv"
    labels.write_text("a\t0\n")
    code, _, err = run(capsys, "analyze", "--graph", str(edges),
                       "--labels", str(labels))
    assert code == 1
    assert "absent.tsv" in err


def test_malformed_row_exits_one_with_line_number(capsys, tmp_path):
    epath = tmp_path / "e.tsv"
    epath.write_text("a\tb\t1\nb\tc\tnope\n")
    lpath = tmp_path / "l.tsv"
    lpath.write_text("a\t0\nb\t0\nc\t1\n")
    code, _, err = run(capsys, "analyze", "--graph", str(epath),
                       "--labels", str(lpath))
    assert code == 1
    assert "e.tsv:2" in err


def test_non_utf8_edge_file_exits_one_with_line_number(capsys, tmp_path):
    epath = tmp_path / "e.tsv"
    epath.write_bytes("\u00e9\tb\t1\n".encode("utf-8") + b"b\tc\xff\t1\n")
    lpath = tmp_path / "l.tsv"
    lpath.write_text("\u00e9\t0\nb\t0\nc\t1\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--graph", str(epath),
                       "--labels", str(lpath))
    assert code == 1
    assert "e.tsv:2: not UTF-8" in err


def test_non_utf8_label_file_exits_one_with_line_number(capsys, tmp_path):
    epath = tmp_path / "e.tsv"
    epath.write_text("a\tb\t1\nb\tc\t1\n")
    lpath = tmp_path / "l.tsv"
    lpath.write_bytes(b"a\t0\nb\t0\n# c\n\nc\xff\t1\n")
    code, _, err = run(capsys, "analyze", "--graph", str(epath),
                       "--labels", str(lpath))
    assert code == 1
    assert "l.tsv:5: not UTF-8" in err


def test_non_utf8_archive_exits_one_with_line_number(capsys, tmp_path):
    archive = tmp_path / "tweets.jsonl"
    archive.write_bytes(
        b'{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}\n'
        b"\n"
        b'{"tweet_id": "\xff"}\n'
    )
    code, _, err = run(capsys, "build-network", "--records", str(archive))
    assert code == 1
    assert "tweets.jsonl:3: not UTF-8" in err


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e-200", "1e160"])
def test_non_finite_weight_exits_one_with_line_number(capsys, tmp_path, weight):
    epath = tmp_path / "e.tsv"
    epath.write_text(f"a\tb\t1\nb\tc\t{weight}\n")
    lpath = tmp_path / "l.tsv"
    lpath.write_text("a\t0\nb\t0\nc\t1\n")
    code, out, err = run(capsys, "analyze", "--graph", str(epath),
                         "--labels", str(lpath), "--runs", "1")
    assert code == 1
    assert out == ""
    assert "e.tsv:2" in err


def test_merged_total_weight_overflow_exits_one_naming_the_edge_file(capsys, tmp_path):
    # every row is in range, but the merged total is not
    epath = tmp_path / "e.tsv"
    epath.write_text("a\tb\t1e150\nb\ta\t1e150\nb\tc\t1\n")
    lpath = tmp_path / "l.tsv"
    lpath.write_text("a\t0\nb\t0\nc\t1\n")
    code, out, err = run(capsys, "analyze", "--graph", str(epath),
                         "--labels", str(lpath), "--runs", "1")
    assert code == 1
    assert out == ""
    assert "e.tsv" in err
    assert "total edge weight" in err
    assert "internal error" not in err


def test_internal_failures_exit_two(capsys, karate_files, monkeypatch):
    edges, labels = karate_files
    import polarimeter.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("wedged")

    monkeypatch.setattr(cli_mod, "analyze", boom)
    code, _, err = run(capsys, "analyze", "--graph", edges, "--labels", labels)
    assert code == 2
    assert "wedged" in err


def test_demo_karate_runs_without_inputs(capsys):
    code, out, _ = run(capsys, "demo-karate", "--runs", "2", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["nodes"] == 34
    assert 0.0 <= data["polarization"]["mean"] <= 1.0


def test_sweep_needs_exactly_one_source(capsys, karate_files):
    edges, labels = karate_files
    code, _, err = run(capsys, "sweep", "--runs", "1")
    assert code == 1 and "--sbm" in err
    code, _, err = run(capsys, "sweep", "--sbm", "2x10", "--graph", edges,
                       "--runs", "1")
    assert code == 1


def test_sweep_graph_source_requires_labels(capsys, karate_files):
    edges, _ = karate_files
    code, _, err = run(capsys, "sweep", "--graph", edges, "--runs", "1",
                       "--dom-ratios", "1.0", "--num-opinions", "2")
    assert code == 1
    assert "--labels" in err


def test_sweep_sbm_produces_full_grid_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--sbm", "3x12", "--dom-ratios", "0.4,1.0",
        "--num-opinions", "2,3", "--runs", "2", "--seed", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "num_opinions,dom_ratio,mean_p,std_p,runs"
    assert len(lines) == 5
    assert lines[1].startswith("2,0.400000,")
    assert lines[4].startswith("3,1.000000,")


def test_sweep_colon_grids_expand_inclusively(capsys):
    code, out, _ = run(
        capsys, "sweep", "--sbm", "2x10", "--dom-ratios", "0.3:1.0:0.1",
        "--num-opinions", "2:4", "--runs", "1", "--seed", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 8 * 3
    ratios = [line.split(",")[1] for line in lines[:8]]
    assert ratios == ["0.300000", "0.400000", "0.500000", "0.600000",
                      "0.700000", "0.800000", "0.900000", "1.000000"]


def test_sweep_bad_grid_syntax_exits_one(capsys):
    code, _, err = run(capsys, "sweep", "--sbm", "2x10",
                       "--dom-ratios", "0.3::0.1", "--runs", "1")
    assert code == 1
    assert "--dom-ratios" in err


def test_sweep_grid_values_out_of_range_exit_one(capsys):
    for flag, grid in (("--dom-ratios", "0,1.5"), ("--dom-ratios", "1.5"),
                       ("--dom-ratios", "0.1:inf:0.1"),
                       ("--num-opinions", "1"), ("--num-opinions", "0:3")):
        code, _, err = run(capsys, "sweep", "--sbm", "2x10", flag, grid,
                           "--runs", "1")
        assert code == 1, (flag, grid)
        assert flag in err
        assert "internal error" not in err


def test_sweep_grid_stop_past_the_bound_exits_before_expanding(capsys):
    # 0.1:1e9:0.1 asks for 10**10 values; only its ends may be built
    start = time.perf_counter()
    code, _, err = run(capsys, "sweep", "--sbm", "2x10", "--dom-ratios",
                       "0.1:1e9:0.1", "--runs", "1")
    assert code == 1
    assert "--dom-ratios values must be in (0, 1]" in err
    assert time.perf_counter() - start < 1.0


def test_sweep_num_opinions_above_the_node_count_exits_one(capsys):
    # a census holds one count per opinion; 10**7 opinions on 20 nodes
    # would allocate 160 MB for it
    for grid in ("21", "2,21", "10000000"):
        code, out, err = run(capsys, "sweep", "--sbm", "2x10", "--num-opinions", grid,
                             "--runs", "1")
        assert code == 1, grid
        assert "--num-opinions values must be between 2 and the graph's 20 nodes" in err
        assert out == ""
    code, out, _ = run(capsys, "sweep", "--sbm", "2x10", "--num-opinions", "20",
                       "--dom-ratios", "1.0", "--runs", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("20,1.000000,")


def test_sweep_num_opinions_range_past_the_node_count_exits_before_expanding(tmp_path):
    # 2:1000000000 asks for about 10**9 values; only its ends may be built,
    # and under the cap the expanded list could not be allocated
    start = time.perf_counter()
    proc = _cli_subprocess(tmp_path, "sweep", "--sbm", "2x10", "--num-opinions",
                           "2:1000000000", "--runs", "1", ulimit_kib=2**20)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: --num-opinions values must be between 2 and the graph's 20 nodes, "
        "got 1000000000\n"
    )
    assert time.perf_counter() - start < 10.0


def test_sweep_dom_ratio_step_finer_than_the_csv_exits_one(capsys):
    # six decimals in the CSV: these five steps would print 0.500000 each time
    code, out, err = run(capsys, "sweep", "--sbm", "2x10", "--dom-ratios",
                         "0.5:0.5000005:0.0000001", "--runs", "1")
    assert code == 1
    assert "--dom-ratios" in err and "step below 1e-6" in err
    assert out == ""
    code, _, _ = run(capsys, "sweep", "--sbm", "2x10", "--dom-ratios",
                     "0.5:0.500002:0.000001", "--num-opinions", "2", "--runs", "1")
    assert code == 0


def test_sweep_sbm_negative_seed_names_the_seed_flag(capsys):
    code, out, err = run(capsys, "sweep", "--sbm", "2x50", "--seed", "-1",
                         "--runs", "1")
    assert code == 1
    assert err == "error: --seed must be >= 0, got -1\n"
    assert out == ""


def test_negative_seed_exits_one_naming_the_seed_flag(capsys, karate_files):
    """random.Random(-s) seeds as Random(s), so runs at seeds -2..2 were
    three runs counted as five; every command with --seed refuses one."""
    edges, labels = karate_files
    for argv in (["analyze", "--graph", edges, "--labels", labels],
                 ["demo-karate"],
                 ["sweep", "--graph", edges, "--labels", labels, "--num-opinions", "2"]):
        code, out, err = run(capsys, *argv, "--seed", "-2", "--runs", "5")
        assert (code, out, err) == (1, "", "error: --seed must be >= 0, got -2\n"), argv
    assert run(capsys, "demo-karate", "--seed", "0", "--runs", "1")[0] == 0


def test_sweep_bad_sbm_syntax_exits_one(capsys):
    # the last three are well formed but past the size bound; unchecked, they
    # reach numpy and ask for GBs (the last is too large for a float, too)
    for bad in ("20", "20x", "x250", "20x250x9", "ax b", "1x100000", "100000x1",
                "1x" + "9" * 400):
        code, _, err = run(capsys, "sweep", "--sbm", bad, "--runs", "1")
        assert code == 1, bad
        assert "--sbm" in err
        assert "internal error" not in err


def test_sweep_out_file(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, stdout, _ = run(
        capsys, "sweep", "--sbm", "2x10", "--dom-ratios", "1.0",
        "--num-opinions", "2", "--runs", "1", "--out", str(out),
    )
    assert code == 0
    assert stdout == ""
    assert out.read_text().startswith("num_opinions,")


def test_build_network_writes_three_files(capsys, tmp_path):
    archive = tmp_path / "tweets.jsonl"
    rows = [
        {"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]},
        {"tweet_id": "2", "author": "b", "stance": "against", "retweeters": ["c"]},
    ]
    archive.write_text("".join(json.dumps(r) + "\n" for r in rows))
    prefix = str(tmp_path / "net")
    code, out, _ = run(capsys, "build-network", "--records", str(archive),
                       "--out", prefix)
    assert code == 0
    assert "3 nodes" in out
    edges = (tmp_path / "net.edges.tsv").read_text()
    assert "a\tb\t1.0" in edges
    labels = (tmp_path / "net.labels.tsv").read_text()
    assert "a\t2" in labels
    names = json.loads((tmp_path / "net.names.json").read_text())
    assert names == {"0": "against", "1": "neutral", "2": "favor"}


def test_build_network_bad_archive_exits_one(capsys, tmp_path):
    archive = tmp_path / "tweets.jsonl"
    archive.write_text('{"tweet_id": "1"}\n')
    code, _, err = run(capsys, "build-network", "--records", str(archive))
    assert code == 1
    assert "tweets.jsonl:1" in err


def test_build_network_deep_nesting_exits_one(capsys, tmp_path):
    archive = tmp_path / "tweets.jsonl"
    archive.write_text("[" * 200_000 + "\n")
    code, _, err = run(capsys, "build-network", "--records", str(archive))
    assert code == 1
    assert f"{archive}:1: invalid JSON: nesting too deep" in err


def test_build_network_integer_beyond_the_digit_limit_exits_one(capsys, tmp_path):
    archive = tmp_path / "tweets.jsonl"
    archive.write_text(
        '{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}\n'
        '{"tweet_id": "2", "n": ' + "9" * 5000 + "}\n"
    )
    code, out, err = run(capsys, "build-network", "--records", str(archive))
    assert code == 1
    assert f"{archive}:2: invalid JSON: Exceeds the limit" in err
    assert "internal error" not in err
    assert out == ""


@pytest.mark.parametrize("marked", ["labels", "edges"])
def test_byte_order_mark_on_a_graph_file_is_dropped(capsys, tmp_path, marked):
    texts = {"labels": "a\t0\nb\t1\n", "edges": "a\tb\t1\n"}
    for name, text in texts.items():
        (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
        bom = "\ufeff" if name == marked else ""
        (tmp_path / f"bom-{name}.tsv").write_text(bom + text, encoding="utf-8")

    def analyze(prefix):
        return run(capsys, "analyze", "--runs", "2",
                   "--graph", str(tmp_path / f"{prefix}edges.tsv"),
                   "--labels", str(tmp_path / f"{prefix}labels.tsv"))

    want = analyze("")
    assert want[0] == 0
    assert analyze("bom-") == want


def test_byte_order_mark_on_an_archive_is_invalid_json(capsys, tmp_path):
    archive = tmp_path / "a.jsonl"
    row = {"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}
    archive.write_text("\ufeff" + json.dumps(row) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "build-network", "--records", str(archive),
                         "--out", str(tmp_path / "net"))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {archive}:1: invalid JSON: Unexpected UTF-8 BOM "
        "(decode using utf-8-sig)\n"
    )


NO_EDGES = {
    "empty": "",
    "no retweeters": '{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": []}\n',
    "self-retweets": '{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["a"]}\n'
                     '{"tweet_id": "2", "author": "b", "stance": "against", "retweeters": ["b"]}\n',
}


@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("archive_text", sorted(NO_EDGES))
def test_build_network_without_edges_exits_one_naming_the_archive(
    capsys, tmp_path, monkeypatch, archive_text, kernel
):
    archive = tmp_path / "tweets.jsonl"
    archive.write_text(NO_EDGES[archive_text])
    if not kernel:
        monkeypatch.setattr(stance, "archive_kernel", lambda: None)
    code, out, err = run(capsys, "build-network", "--records", str(archive),
                         "--out", str(tmp_path / "net"))
    assert (code, out) == (1, "")
    assert err == f"error: {archive}: no retweet edges in record set\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tweets.jsonl"]


# The files of the exit-code property are rows of good cells (or records of
# good values) with at most two faults drawn among them: an odd cell or
# value, a row of another width, an odd line, a space as the separator, or
# a byte-order mark. "\udcff" is written as the byte 0xff, and
# "\udced\udca0\udc80" as the UTF-8 form of a lone surrogate; neither is UTF-8.
IDS = ["a", "b", "c"]
ODD_IDS = [" b", "", "#a", "a\x00", "\ufeffa", "é", "\udcff", "\udced\udca0\udc80"]
WEIGHTS = ["1", "2.5", "0.5"]
ODD_WEIGHTS = ["0", "-1", "nan", "inf", "1e400", "1e-320", "1e150", "1e149", "9" * 5000,
               "0x1", ""]
OPINIONS = ["0", "1"]
ODD_OPINIONS = ["2", "3", "-1", "1.5", "x", "", "99999999999999999999", "9" * 5000]
ODD_LINES = ["", " ", "# note", "#", "\x00", "a", "\ufeff"]
JSON_IDS = ['"a"', '"b"', '"c"']
ODD_JSON = ['" b "', '""', '"#a"', '"a\\u0000"', '"\\ud800"', '"\\udcff"', '"\udcff"',
            '"a\tb"', "null", "7", "9" * 5000, "1e400", "-1e999", '"ab"', "[1]", '["a", 2]',
            '"meh"', '["favor"]', "[" * 3000 + "]" * 3000]
ODD_RECORD_LINES = ["", " ", "{", "null", "[]", "\x00", '{"tweet_id": "t0"}', "{}"]


def with_faults(draw, rows, odd_cells, odd_lines):
    """``rows``, lists of cells, with at most two drawn faults: a cell
    replaced by one of ``odd_cells``, a cell dropped or repeated, or one of
    ``odd_lines`` (a str) inserted."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        cells = [row for row in rows if type(row) is list and row]
        fault = draw(st.integers(0, 3)) if cells else 3
        if fault == 3:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(odd_lines)))
            continue
        row = draw(st.sampled_from(cells))
        at = draw(st.integers(0, len(row) - 1))
        if fault == 0:
            row[at] = draw(st.sampled_from(odd_cells[min(at, len(odd_cells) - 1)]))
        elif fault == 1:
            del row[at]
        else:
            row.append(row[at])
    return rows


def joined(rows, join):
    """The lines of ``rows``: each list of cells joined by ``join``, each
    str as it is."""
    return [row if type(row) is str else join(row) for row in rows]


@st.composite
def graph_files(draw):
    """The edge and label files of a three-node graph, with faults."""
    labels = [[node, draw(st.sampled_from(OPINIONS))]
              for node in draw(st.permutations(IDS))[: draw(st.sampled_from([3, 3, 3, 2, 0]))]]
    edges = [[*draw(st.permutations(IDS))[:2], *draw(st.sampled_from([[], *([w] for w in WEIGHTS)]))]
             for _ in range(draw(st.sampled_from([1, 2, 3, 4, 0])))]
    sep = draw(st.sampled_from(["\t", "\t", "\t", ",", ",", " "]))
    edges = with_faults(draw, edges, [ODD_IDS, ODD_IDS, ODD_WEIGHTS], ODD_LINES)
    labels = with_faults(draw, labels, [ODD_IDS, ODD_OPINIONS], ODD_LINES)
    return text_of(draw, joined(edges, sep.join)), text_of(draw, joined(labels, sep.join))


RECORD_KEYS = ["tweet_id", "author", "stance", "retweeters", "extra", "author"]


@st.composite
def archive_file(draw):
    """The text of an archive: records of drawn JSON values, with faults."""
    records = [[f'"t{i}"', draw(st.sampled_from(JSON_IDS)),
                draw(st.sampled_from(['"favor"', '"against"', '"neutral"'])),
                "[" + ", ".join(draw(st.lists(st.sampled_from(JSON_IDS), max_size=3))) + "]"]
               for i in range(draw(st.integers(0, 4)))]
    records = with_faults(draw, records, [ODD_JSON], ODD_RECORD_LINES)
    return text_of(draw, joined(records, lambda values: "{" + ", ".join(
        f'"{key}": {value}' for key, value in zip(RECORD_KEYS, values)) + "}"))


def text_of(draw, lines):
    """The bytes of ``lines`` with a drawn line ending, rarely led by a
    byte-order mark."""
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "", "", "\ufeff"]))
    return (bom + "".join(line + ending for line in lines)).encode("utf-8", "surrogateescape")


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    graph_files().map(lambda files: ("analyze", *files)),
    archive_file().map(lambda archive: ("build-network", archive)),
))
@example(("build-network", b""))
@example(("build-network", b'{"tweet_id": "1", "author": "a", "stance": "favor", '
                           b'"retweeters": ["a"]}\n'))
@example(("analyze", b"a\tb\n", b""))
@example(("analyze", b"a\ta\n", b"a\t0\n"))
def test_every_input_exits_zero_or_one_naming_the_file_at_fault(case):
    command, *contents = case
    with tempfile.TemporaryDirectory() as tmp:
        names = ["edges.tsv", "labels.tsv"] if command == "analyze" else ["tweets.jsonl"]
        paths = [os.path.join(tmp, name) for name in names]
        for path, data in zip(paths, contents):
            with open(path, "wb") as fh:
                fh.write(data)
        if command == "analyze":
            argv = ["analyze", "--graph", paths[0], "--labels", paths[1], "--runs", "1"]
        else:
            argv = ["build-network", "--records", paths[0], "--out", os.path.join(tmp, "net")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if command == "analyze":
            _, fault, _ = naive_graph_files(*paths)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        message = err.getvalue().splitlines()[-1]
        assert out.getvalue() == ""
        if command == "analyze":
            assert fault is not None, message
            _, path, line = fault
            assert message.startswith(f"error: {path}:" + ("" if line is None else f"{line}:"))
        else:
            assert message.startswith(f"error: {paths[0]}:")
    elif command == "analyze":
        assert fault is None
        # NaN and Infinity are the constants json.loads would take
        report = json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"report holds {c}"))
        assert report["runs"] == 1


@pytest.mark.parametrize("size", ["1x1", "2x1"])
def test_sweep_sbm_without_edges_exits_one(capsys, size):
    code, out, err = run(capsys, "sweep", "--sbm", size, "--runs", "1")
    assert code == 1
    assert f"--sbm '{size}'" in err
    assert "internal error" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["analyze", "sweep", "build-network", "demo-karate"])
def test_out_into_a_missing_directory_exits_one_naming_the_file(
    capsys, karate_files, tmp_path, command
):
    missing = tmp_path / "nodir"
    archive = tmp_path / "tweets.jsonl"
    archive.write_text(
        '{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}\n'
    )
    edges, labels = karate_files
    argv, written = {
        "analyze": (["--graph", edges, "--labels", labels, "--runs", "2",
                     "--out", str(missing / "r.csv")], "r.csv"),
        "sweep": (["--sbm", "2x20", "--dom-ratios", "0.5", "--num-opinions", "2",
                   "--runs", "1", "--out", str(missing / "s.csv")], "s.csv"),
        "build-network": (["--records", str(archive), "--out", str(missing / "net")],
                          "net.edges.tsv"),
        "demo-karate": (["--runs", "2", "--out", str(missing / "r.json")], "r.json"),
    }[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert str(missing / written) in err
    assert "internal error" not in err
    assert out == ""


def _cli_subprocess(cwd, *argv, ulimit_kib=None):
    """Run the CLI in a child, whose warnings reach stderr through logging's
    default handler as they would for a user. With ``ulimit_kib`` the child
    runs under ``ulimit -v`` of that many KiB."""
    import polarimeter

    src = os.path.dirname(os.path.dirname(polarimeter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cap = []
    if ulimit_kib:
        cap = ["sh", "-c", f'ulimit -v {ulimit_kib} && exec "$@"', "sh"]
    return subprocess.run(
        [*cap, sys.executable, "-m", "polarimeter.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def _build_network_subprocess(tmp_path, archive):
    return _cli_subprocess(
        tmp_path, "build-network", "--records", str(archive), "--out", "net"
    )


@pytest.mark.parametrize("index", ["99999999999999999999", "1000000000000000"])
def test_huge_opinion_index_exits_one_naming_the_label_line(tmp_path, index):
    (tmp_path / "e.tsv").write_text("a\tb\n")
    (tmp_path / "l.tsv").write_text(f"a\t0\nb\t1\nc\t{index}\n")
    # under the cap, arrays sized by the index could not be allocated
    proc = _cli_subprocess(tmp_path, "analyze", "--graph", "e.tsv", "--labels", "l.tsv",
                           "--runs", "1", ulimit_kib=2**20)
    assert proc.returncode == 1
    message = f"l.tsv:3: opinion index {index} is not below the 3 labeled nodes"
    assert message in proc.stderr
    assert "internal error" not in proc.stderr
    assert proc.stdout == ""


def test_build_network_bad_last_line_exits_one_before_writing(tmp_path):
    archive = tmp_path / "tweets.jsonl"
    rows = [
        {"tweet_id": str(i), "author": f"u{i}", "stance": "favor",
         "retweeters": [f"u{i + 1}"]}
        for i in range(50)
    ]
    archive.write_text("".join(json.dumps(r) + "\n" for r in rows) + "{not json\n")
    proc = _build_network_subprocess(tmp_path, archive)
    assert proc.returncode == 1
    assert f"{archive}:51: invalid JSON" in proc.stderr
    assert proc.stdout == ""
    for name in ("net.edges.tsv", "net.labels.tsv", "net.names.json"):
        assert not (tmp_path / name).exists()


def test_build_network_id_that_analyze_would_read_as_a_comment_exits_one(tmp_path):
    # '#zed' rows would read back as comments: analyze would score 3 nodes
    archive = tmp_path / "tweets.jsonl"
    rows = [
        {"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]},
        {"tweet_id": "2", "author": "#zed", "stance": "against", "retweeters": ["a", "b"]},
        {"tweet_id": "3", "author": "b", "stance": "neutral", "retweeters": ["c"]},
        {"tweet_id": "4", "author": "#zed", "stance": "favor", "retweeters": ["c"]},
        {"tweet_id": "5", "author": "#zed", "stance": "favor", "retweeters": ["a"]},
    ]
    archive.write_text("".join(json.dumps(r) + "\n" for r in rows))
    proc = _build_network_subprocess(tmp_path, archive)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: {archive}:2: author id '#zed' starts with '#', "
        "so the graph files cannot hold it\n"
    )
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tweets.jsonl"]


def test_build_network_warnings_keep_their_order(tmp_path):
    archive = tmp_path / "tweets.jsonl"
    rows = [
        {"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["a", "b"]},
        {"tweet_id": "2", "author": "b", "stance": "against", "retweeters": [" ", "c"]},
    ]
    archive.write_text("".join(json.dumps(r) + "\n" for r in rows))
    proc = _build_network_subprocess(tmp_path, archive)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        f"{archive}:2: empty retweeter id skipped",
        f"{archive}: skipped 1 empty retweeter id(s) in total",
        "dropped 1 self-retweet event(s)",
    ]


def test_entry_point_reproducible_across_hash_seeds(karate_files, tmp_path):
    # Byte-identical output must survive interpreter hash randomization.
    import polarimeter

    edges, labels = karate_files
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(polarimeter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "polarimeter.cli", "analyze",
             "--graph", edges, "--labels", labels, "--runs", "3"],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["graph"]["nodes"] == 34
