"""Command-line behavior: flags, exit codes, output formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from polarimeter.cli import main


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
