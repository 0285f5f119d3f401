"""Stance-archive parsing, user scoring, and retweet network construction."""

from __future__ import annotations

import json
import logging
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    edge_triples,
    naive_retweet_rows,
    naive_score_users,
    naive_stance_rows,
)
from polarimeter import (
    InputError,
    LabeledGraph,
    build_retweet_network,
    read_stance_records,
    score_users,
)
from polarimeter.stance import (
    AGAINST,
    FAVOR,
    NEUTRAL,
    StanceRecord,
    _iter_stance_rows,
)


def rec(tweet_id, author, stance, retweeters=()):
    return StanceRecord(
        tweet_id=tweet_id, author=author, stance=stance,
        retweeters=tuple(retweeters),
    )


def write_records(path, rows):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )
    return str(path)


# -- parsing -------------------------------------------------------------------


def test_reads_wellformed_archive(tmp_path):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "author": "u1", "stance": "favor", "retweeters": ["u2"]},
        {"tweet_id": "2", "author": "u3", "stance": "against", "retweeters": []},
    ])
    records = read_stance_records(path)
    assert len(records) == 2
    assert records[0] == rec("1", "u1", "favor", ["u2"])
    assert records[1].retweeters == ()


def test_bad_json_line_names_file_and_line(tmp_path):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "author": "u1", "stance": "favor", "retweeters": []},
    ])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(InputError, match=r"a\.jsonl:2"):
        read_stance_records(path)


def test_missing_field_rejected(tmp_path):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "stance": "favor", "retweeters": []},
    ])
    with pytest.raises(InputError, match="author"):
        read_stance_records(path)


def test_unknown_stance_rejected(tmp_path):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "author": "u", "stance": "meh", "retweeters": []},
    ])
    with pytest.raises(InputError, match="stance"):
        read_stance_records(path)


def test_duplicate_tweet_id_rejected(tmp_path):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "author": "u", "stance": "favor", "retweeters": []},
        {"tweet_id": "1", "author": "v", "stance": "favor", "retweeters": []},
    ])
    with pytest.raises(InputError, match="duplicate"):
        read_stance_records(path)


def test_retweeters_must_be_a_list_of_strings(tmp_path):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "author": "u", "stance": "favor", "retweeters": "u2"},
    ])
    with pytest.raises(InputError, match="retweeters"):
        read_stance_records(path)


@pytest.mark.parametrize("user, fault", [
    ("#zed", "starts with '#'"),
    ("  #zed", "starts with '#'"),  # checked after the strip
    ("a\tb", "holds a tab or a newline"),
    ("a\nb", "holds a tab or a newline"),
    ("\ud800", "cannot be encoded as UTF-8"),
])
@pytest.mark.parametrize("role", ["author", "retweeter"])
def test_user_id_the_graph_files_cannot_hold_is_rejected_at_its_line(
    tmp_path, role, user, fault
):
    ok = {"tweet_id": "1", "author": "u", "stance": "favor", "retweeters": ["v"]}
    bad = {"tweet_id": "2", "author": "u", "stance": "favor", "retweeters": ["v", "w"]}
    if role == "author":
        bad["author"] = user
    else:
        bad["retweeters"][1] = user
    path = write_records(tmp_path / "a.jsonl", [ok, bad])
    with pytest.raises(InputError) as info:
        read_stance_records(path)
    assert str(info.value) == (
        f"{path}:2: {role} id {user.strip()!r} {fault}, so the graph files cannot hold it"
    )


def test_ids_with_an_inner_hash_comma_or_return_are_kept(tmp_path):
    row = {"tweet_id": "1", "author": "a#b", "stance": "favor",
           "retweeters": ["c,d", "e\rf", "\u00e9#"]}
    path = write_records(tmp_path / "a.jsonl", [row])
    assert read_stance_records(path) == [rec("1", "a#b", "favor", ["c,d", "e\rf", "é#"])]


def test_blank_retweeter_entries_dropped_with_warning(tmp_path, caplog):
    path = write_records(tmp_path / "a.jsonl", [
        {"tweet_id": "1", "author": "u", "stance": "favor",
         "retweeters": ["", "v", "  "]},
    ])
    with caplog.at_level(logging.WARNING, logger="polarimeter.stance"):
        records = read_stance_records(path)
    assert records[0].retweeters == ("v",)
    assert "2" in caplog.text


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(
        '\n{"tweet_id": "1", "author": "u", "stance": "neutral", '
        '"retweeters": []}\n\n',
        encoding="utf-8",
    )
    assert len(read_stance_records(str(path))) == 1


def test_lines_end_at_newline_only(tmp_path):
    # a raw U+2028 or U+0085 inside a JSON string is valid JSON and does not
    # end a JSON Lines record
    row = {"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"],
           "text": "x\u2028y\x85z"}
    path = tmp_path / "a.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert read_stance_records(str(path)) == [rec("1", "a", "favor", ["b"])]


def test_deep_nesting_is_an_input_error(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text("\n" + "[" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"a\.jsonl:2: invalid JSON: nesting too deep"):
        read_stance_records(str(path))


# -- the row stream against the plain-loop oracle ---------------------------------

VALID = '{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}'
# lines that are not one JSON object each, among them three that splice into
# valid objects when lines are joined with commas
ODD_LINES = st.sampled_from([
    '{"a":"}', '{"}', '{"x":1},{"y":2}',
    "\ufeff" + VALID,  # a BOM is not whitespace: json.loads rejects it
    VALID + " x", VALID + "}", VALID + " " + VALID,
    "[1]", '"text"', "3", "null", "{not json", "[" * 3000,
    '{"tweet_id": "9", "author": "a", "stance": "favor", "retweeters": ["b", 1]}',
    '{"tweet_id": "9", "author": "a", "stance": "favor", "retweeters": "b"}',
    '{"tweet_id": "9", "author": "a", "stance": ["favor"], "retweeters": []}',
    '{"tweet_id": "9", "author": "a", "stance": NaN, "retweeters": []}',
    '{"tweet_id": 9, "author": "a", "stance": "favor", "retweeters": []}',
    '{"tweet_id": "9", "author": " ", "stance": "favor", "retweeters": []}',
    '{"tweet_id": "9", "author": "a", "stance": "favor", "retweeters": ["\\ud800"]}',
    '{"tweet_id": "9", "author": "\\u0023x", "stance": "favor", "retweeters": []}',
])
# whitespace that str.strip removes, JSON's own and four kinds JSON rejects
PADDING = st.text(st.sampled_from(" \t\r\xa0\u2028\x1c\x85"), max_size=3)


@st.composite
def archive_lines(draw):
    users = st.sampled_from(["a", "b", " b ", "c", "é", "日本", "#x", "a\tb"])
    record = st.fixed_dictionaries({
        "tweet_id": st.sampled_from(["1", "2", "3", "4", "5", "6", "7", ""]),
        "author": users,
        "stance": st.sampled_from(["favor", "against", "neutral", "meh"]),
        "retweeters": st.lists(st.one_of(users, st.sampled_from(["", "  "])),
                               max_size=4),
    })
    valid = st.builds(
        lambda row, ascii, pad: pad + json.dumps(row, ensure_ascii=ascii) + pad,
        record, st.booleans(), PADDING,
    )
    line = st.one_of(valid, valid, valid, st.just(""), PADDING, ODD_LINES)
    return draw(st.lists(line, max_size=10))


def read_rows(path):
    """Rows, warning messages and first error of `_iter_stance_rows`."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("polarimeter.stance")
    logger.addHandler(handler)
    rows, error = [], None
    try:
        for row in _iter_stance_rows(path):
            rows.append(row)
    except InputError as exc:
        error = (str(exc), exc.line)
    finally:
        logger.removeHandler(handler)
    return rows, messages, error


@settings(max_examples=300, deadline=None)
@given(archive_lines())
@example(['{"a":"}', VALID])
@example(['{"}', VALID])
@example(['{"x":1},{"y":2}'])
@example([VALID, "\ufeff" + VALID])
def test_stance_rows_match_the_plain_loop_oracle(lines):
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        want_rows, want_warnings, want_error = naive_stance_rows(path)
        rows, warnings, error = read_rows(path)
    finally:
        os.remove(path)
    assert rows == want_rows
    assert warnings == want_warnings
    if want_error is None:
        assert error is None
    else:
        message, lineno = want_error
        assert error == (f"{path}:{lineno}: {message}", lineno)


# -- counting and scoring -------------------------------------------------------


def test_author_and_retweeters_accrue_inherited_stance():
    records = [
        rec("1", "a", "favor", ["b", "c"]),
        rec("2", "b", "against", ["a"]),
        rec("3", "c", "neutral"),
    ]
    scores = score_users(records)
    # a and b: one favor, one against; c: one favor (inherited), one neutral
    assert scores == {"a": (0.0, NEUTRAL), "b": (0.0, NEUTRAL), "c": (0.5, FAVOR)}


def test_repeat_retweets_count_every_event():
    records = [rec("1", "a", "favor", ["b", "b", "b"]), rec("2", "b", "neutral")]
    # F=3, N=1 gives 0.75; counting the repeats once would give 0.5
    assert score_users(records)["b"] == (0.75, FAVOR)


def test_score_formula_and_strict_boundaries():
    # F=2, A=1, N=2 gives exactly 0.2: inside the neutral band.
    records = [
        rec("1", "x", "favor"), rec("2", "x", "favor"),
        rec("3", "x", "against"),
        rec("4", "x", "neutral"), rec("5", "x", "neutral"),
    ]
    score, opinion = score_users(records)["x"]
    assert score == pytest.approx(0.2)
    assert opinion == NEUTRAL


def test_score_just_past_the_boundary_is_favor():
    # F=3, A=1, N=1: score 0.4 > 0.2.
    records = [
        rec("1", "x", "favor"), rec("2", "x", "favor"), rec("3", "x", "favor"),
        rec("4", "x", "against"), rec("5", "x", "neutral"),
    ]
    score, opinion = score_users(records)["x"]
    assert score == pytest.approx(0.4)
    assert opinion == FAVOR


def test_score_negative_side():
    records = [rec("1", "x", "against"), rec("2", "x", "against"),
               rec("3", "x", "favor")]
    score, opinion = score_users(records)["x"]
    assert score == pytest.approx(-1 / 3)
    assert opinion == AGAINST
    # exactly -0.2 stays neutral: F=1, A=2, N=2.
    records = [rec("1", "y", "favor"), rec("2", "y", "against"),
               rec("3", "y", "against"), rec("4", "y", "neutral"),
               rec("5", "y", "neutral")]
    score, opinion = score_users(records)["y"]
    assert score == pytest.approx(-0.2)
    assert opinion == NEUTRAL


# -- network construction --------------------------------------------------------


def test_edge_weight_counts_events_in_both_directions():
    records = [
        rec("1", "a", "favor", ["b", "b"]),
        rec("2", "b", "favor", ["a"]),
    ]
    g = build_retweet_network(records)
    assert edge_triples(g) == (("a", "b", 3.0),)


def test_self_retweets_dropped_with_warning(caplog):
    records = [rec("1", "a", "favor", ["a", "b"])]
    with caplog.at_level(logging.WARNING, logger="polarimeter.stance"):
        g = build_retweet_network(records)
    assert edge_triples(g) == (("a", "b", 1.0),)
    assert "self-retweet" in caplog.text


def test_archive_with_no_edges_is_an_input_error():
    records = [rec("1", "a", "favor"), rec("2", "b", "against")]
    with pytest.raises(InputError, match="no retweet edges"):
        build_retweet_network(records)


def test_unretweeted_authors_stay_as_isolated_labeled_nodes():
    records = [
        rec("1", "a", "favor", ["b"]),
        rec("2", "quiet", "against"),
    ]
    g = build_retweet_network(records)
    assert "quiet" in g.nodes
    assert g.node_count == 3
    assert g.edge_count == 1
    assert g.opinions["quiet"] == AGAINST


def test_network_uses_three_opinion_slots_with_fixed_mapping():
    records = [
        rec("1", "f", "favor", ["n"]),
        rec("2", "a", "against", ["n"]),
        rec("3", "n", "neutral"),
    ]
    g = build_retweet_network(records)
    assert g.num_opinions == 3
    assert g.opinions["f"] == FAVOR == 2
    assert g.opinions["a"] == AGAINST == 0
    # n: 1 neutral authored + 1 favor + 1 against inherited -> score 0.
    assert g.opinions["n"] == NEUTRAL == 1


def test_hand_built_empty_retweeters_are_skipped():
    records = [rec("1", "a", "favor", ["", "b", ""])]
    assert edge_triples(build_retweet_network(records)) == (("a", "b", 1.0),)
    assert list(score_users(records)) == ["a", "b"]


@pytest.mark.parametrize("build", [build_retweet_network, score_users])
def test_hand_built_unknown_stance_is_a_value_error_naming_the_record(build):
    bad = {
        "'maybe'": rec("t1", "a", "maybe", ["b"]),
        "author must be a non-empty str, got ''": rec("t1", "", "favor", ["b"]),
        "author must be a non-empty str, got None": rec("t1", None, "favor", ["b"]),
        "retweeters must be a collection of ids, not the str 'bob'": StanceRecord(
            "t1", "a", "favor", "bob"
        ),
    }
    for message, record in bad.items():
        with pytest.raises(ValueError, match=f"'t1'.*{message}"):
            build([rec("t0", "a", "favor", ["b"]), record])


def test_total_edge_weight_equals_non_self_retweet_events():
    records = [
        rec("1", "a", "favor", ["b", "c", "a"]),
        rec("2", "b", "neutral", ["c"]),
        rec("3", "c", "against", ["a", "b"]),
    ]
    g = build_retweet_network(records)
    assert g.total_weight == pytest.approx(5.0)


# -- agreement with the plain-loop oracle ----------------------------------------

# digit-only ids (which must still sort as strings), case pairs, non-ASCII text
USER_IDS = st.one_of(
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
    st.sampled_from(["a", "A", "b", "B", "é", "É", "ß", "ǅ", "日本", "Zz"]),
    st.text(min_size=1, max_size=3),
)


@st.composite
def record_sets(draw):
    """Records over a small user pool, with repeat retweets, self-retweets
    (a retweeter equal to its author) and empty retweeter ids."""
    pool = draw(st.lists(USER_IDS, min_size=1, max_size=8, unique=True))
    retweeter = st.sampled_from(pool + [""])
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.sampled_from(("favor", "against", "neutral")),
                st.lists(retweeter, max_size=6),
            ),
            max_size=12,
        )
    )
    return [rec(str(i), author, stance, rts) for i, (author, stance, rts) in enumerate(rows)]


def assert_same_graph(got, want):
    assert [(type(u), u) for u in got.nodes] == [(type(u), u) for u in want.nodes]
    for ours, theirs in zip(got.adjacency(), want.adjacency()):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    for ours, theirs in zip(got.edge_arrays(), want.edge_arrays()):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    assert got.opinion_array().tolist() == want.opinion_array().tolist()
    assert got.num_opinions == want.num_opinions
    assert repr(got.total_weight) == repr(want.total_weight)


@settings(max_examples=300, deadline=None)
@given(record_sets())
def test_stance_pipeline_matches_the_plain_loop_oracle(records):
    want_scores = naive_score_users(records)
    assert list(score_users(records).items()) == list(want_scores.items())

    rows = naive_retweet_rows(records)
    if not rows:
        with pytest.raises(InputError, match="no retweet edges"):
            build_retweet_network(records)
        return
    opinions = {user: opinion for user, (_, opinion) in want_scores.items()}
    want = LabeledGraph.from_edges(rows, opinions, num_opinions=3)
    assert_same_graph(build_retweet_network(records), want)
    assert_same_graph(build_retweet_network(r for r in records), want)

    # the same archive without its edges
    edgeless = [
        r._replace(retweeters=tuple(x for x in r.retweeters if x in ("", r.author)))
        for r in records
    ]
    with pytest.raises(InputError, match="no retweet edges"):
        build_retweet_network(iter(edgeless))
