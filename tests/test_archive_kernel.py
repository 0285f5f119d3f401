"""The compiled stance-archive tally (``_archive.c``) against the row loop.

On any archive, the kernel gives exactly the four results of
``_tally(_iter_stance_rows(path))``, or None; on an archive of blank lines
and plain records it gives them; a path that is not a regular file never
reaches it; and build-network writes, prints and warns the same with the
kernel and without it."""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import re
import tempfile
import threading
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarimeter import InputError, _native, stance
from polarimeter import io as pio
from polarimeter.cli import main
from polarimeter.stance import _iter_stance_rows, _tally, read_retweet_network
from oracles import edge_triples
from test_golden import write_archive
from test_io import _Messages

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# ids a plain record may hold: printable ASCII, inner spaces, no '#' or '\'
PLAIN_IDS = ["a", "b", "c", "u1", "u22", "x y", "!~", "'"]
STANCES = ["favor", "against", "neutral"]
# what may stand between the tokens of a plain record
SPACE = st.sampled_from(["", "", " ", "\t", "\r", " \t\r"])
BLANK_LINES = ["", " ", "\t", "\r", " \t\r"]


def record(tweet_id='"x"', author='"a"', stance='"favor"', retweeters='["b"]', more=""):
    """A record line from the JSON texts of its values."""
    return (f'{{"tweet_id": {tweet_id}, "author": {author}, "stance": {stance}, '
            f'"retweeters": {retweeters}{more}}}')


def without(key):
    """A record line with no ``key``."""
    fields = {"tweet_id": "x", "author": "a", "stance": "favor", "retweeters": ["b"]}
    del fields[key]
    return json.dumps(fields)


# ids that make a record one the kernel refuses; the row loop reads some of
# them as it reads a plain id, warns for some and raises for others
ODD_IDS = ["", " ", " a", "a ", "#a", "a#", "a\\b", 'a"b', "é", "日本", "a\tb", "\x7f",
           "\xa0a", "a\u2028", "\udcff"]
# One line of each kind the kernel refuses. "\udcff" is written as the byte
# 0xff, which is not UTF-8.
ODD_LINES = [
    *(record(author=json.dumps(u, ensure_ascii=a)) for u in ODD_IDS for a in (True, False)),
    *(record(retweeters=f'["b", {json.dumps(u, ensure_ascii=a)}]')
      for u in ODD_IDS for a in (True, False)),
    # values that are not plain strings
    record(tweet_id='""'), record(tweet_id="5"), record(tweet_id="null"),
    record(author="null"), record(author="7"),
    *(record(stance=json.dumps(s)) for s in ["meh", "Favor", "favor ", ""]),
    record(stance='["favor"]'), record(stance="null"),
    record(retweeters='"ab"'), record(retweeters="null"), record(retweeters="[1]"),
    record(retweeters="{}"), record(retweeters='["b",]'),
    # escapes, which JSON reads as the characters they stand for
    record(author='"\\u0061"'), record(tweet_id='"\\u0078"'), record(stance='"f\\u0061vor"'),
    # a control byte or a byte that is not UTF-8, raw inside a string
    record(author='"a\tb"'), record(author='"a\x01"'), record(retweeters='["a\udcff"]'),
    # keys: extra, repeated or missing
    record(more=', "extra": "x"'), record(more=', "n": 1'), record(more=', "author": "c"'),
    record(more=', "retweeters": []'), record(more=', "stance": "against"'),
    record(more=', "tweet_id": "y"'), *map(without, ["tweet_id", "author", "stance", "retweeters"]),
    # text around the one object
    record() + "x", record() + ',{"x": 1}', record()[:-1], record()[1:], "\ufeff" + record(),
    "\x0c" + record() + "\xa0", record().replace(":", ":\x0c", 1), "[" + record() + "]",
    # lines that hold no record
    "{", "}", "[]", "[1]", "{}", "x", '"a"', "null", '{"a":}', "\udcff", "\x0c", "\xa0",
    "\ufeff",
]


def plain_line(draw, tweet_id):
    """A plain record: its keys in a drawn order, written by json.dumps in
    its default or compact form, or with drawn spaces between its tokens."""
    fields = draw(st.permutations([
        ("tweet_id", tweet_id),
        ("author", draw(st.sampled_from(PLAIN_IDS))),
        ("stance", draw(st.sampled_from(STANCES))),
        ("retweeters", draw(st.lists(st.sampled_from(PLAIN_IDS), max_size=4))),
    ]))
    if draw(st.integers(0, 3)) == 0:
        separators = draw(st.sampled_from([None, (",", ":")]))
        return json.dumps(dict(fields), separators=separators)

    def text(value):
        if isinstance(value, str):
            return json.dumps(value)
        sep = draw(SPACE) + "," + draw(SPACE)
        return "[" + draw(SPACE) + sep.join(map(json.dumps, value)) + draw(SPACE) + "]"

    members = [draw(SPACE) + json.dumps(key) + draw(SPACE) + ":" + draw(SPACE) + text(value)
               + draw(SPACE) for key, value in fields]
    return draw(SPACE) + "{" + ",".join(members) + "}" + draw(SPACE)


@st.composite
def archives(draw):
    """``(archive bytes, plain)``: blank lines and plain records, and among
    them at most two lines that the kernel refuses (one of `ODD_LINES`, or a
    record repeating a tweet_id), so that each of those decides whether it
    takes the archive; ``plain`` is true when there is none."""
    lines, tweet_ids = [], []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        else:
            tweet_ids.append(f"t{i}")
            lines.append(plain_line(draw, f"t{i}"))
    odd = draw(st.sampled_from([0, 1, 1, 1, 2]))
    for _ in range(odd):
        if tweet_ids and draw(st.integers(0, 9)) == 0:
            line = plain_line(draw, draw(st.sampled_from(tweet_ids)))
        else:
            line = draw(st.sampled_from(ODD_LINES))
        lines.insert(draw(st.integers(0, len(lines))), line)
    return encode(draw, lines), odd == 0


def encode(draw, lines):
    """The archive's bytes: the lines ended by a drawn "\n" or "\r\n",
    the last maybe with none."""
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text.encode("utf-8", "surrogateescape")


def kernel_tally(path):
    """The kernel's tally of the archive at ``path``, fed the blocks that
    `io._blocks` reads, or None when it refuses a line."""
    return _native.archive_kernel()(pio._blocks(path))


def row_loop_tally(path):
    """``_tally`` of the rows the row loop reads, or None when it raises."""
    logger = logging.getLogger("polarimeter")
    level = logger.level
    logger.setLevel(logging.ERROR)  # its warnings are compared through the CLI
    try:
        return _tally(_iter_stance_rows(path))
    except InputError:
        return None
    finally:
        logger.setLevel(level)


def assert_same_tally(got, want):
    """The users, counts, ends and self-retweet count are equal, and so are
    the arrays' dtypes and shapes."""
    users, counts, ends, self_retweets = got
    assert users == want[0]
    for a, b in ((counts, want[1]), (ends, want[2])):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert np.array_equal(a, b)
    assert type(self_retweets) is int
    assert self_retweets == want[3]


def build_network(archive, directory, kernel=True):
    """Exit code, stdout, stderr, warnings and output files of build-network
    on ``archive``, run in ``directory``, with or without the kernel."""
    os.mkdir(directory)
    out, err, messages = io.StringIO(), io.StringIO(), _Messages()
    logger = logging.getLogger("polarimeter")
    logger.addHandler(messages)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        if not kernel:
            mp.setattr(stance, "archive_kernel", lambda: None)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["build-network", "--records", str(archive), "--out", "net"])
        finally:
            logger.removeHandler(messages)
    files = {name: Path(directory, name).read_bytes() for name in sorted(os.listdir(directory))}
    return code, out.getvalue(), err.getvalue(), messages.messages, files


def assert_kernel_is_the_row_loop_or_refuses(data, plain):
    """On the archive ``data``: the kernel's tally, when it gives one, is the
    row loop's, and it gives one exactly when ``plain``; build-network exits,
    prints, warns and writes the same with the kernel and without it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "archive.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        got = kernel_tally(path)
        want = row_loop_tally(path)
        with_kernel = build_network(path, os.path.join(tmp, "kernel"))
        without_kernel = build_network(path, os.path.join(tmp, "python"), kernel=False)
    assert (got is not None) == plain
    if got is not None:
        assert want is not None
        assert_same_tally(got, want)
    assert with_kernel == without_kernel


@settings(max_examples=250, deadline=None)
@given(archives())
@example((b'{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}\n', True))
@example((b'{"tweet_id":"1","author":"a","stance":"favor","retweeters":["a","b"]}\r\n'
          b'\t\r\n{ "retweeters" :[ ] ,\t"stance":"neutral","author":"b","tweet_id":"2"}', True))
@example((b'{"tweet_id": "1", "author": "a", "stance": "favor", "retweeters": ["b"]}\n'
          b'{"tweet_id": "1", "author": "b", "stance": "favor", "retweeters": ["a"]}\n', False))
@example((b"\n \n", True))
def test_kernel_tally_is_the_row_loop_tally_or_none(archive):
    assert_kernel_is_the_row_loop_or_refuses(*archive)


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_every_refused_line_between_plain_records(ending):
    # each line of ODD_LINES once, so that none is left to chance, and each
    # is refused
    first, last = record(tweet_id='"t0"'), record(tweet_id='"t1"', author='"b"')
    for line in ODD_LINES:
        data = ending.join([first, line, last, ""]).encode("utf-8", "surrogateescape")
        assert_kernel_is_the_row_loop_or_refuses(data, plain=False)


def perfbench_fixtures():
    """The benchmark's input generators, ``perfbench/fixtures.py``, loaded
    from their file."""
    spec = spec_from_file_location("perfbench_fixtures", PERFBENCH / "fixtures.py")
    fixtures = module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    return fixtures


def perfbench_archive(path, separators=None):
    """The benchmark's stance archive at seed 3 with 3,000 records, written
    by its own generator; with ``separators``, each record is written again
    by ``json.dumps`` with them."""
    perfbench_fixtures().write_stance_fixture(path, 3, records=3_000)
    if separators:
        rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
        Path(path).write_text("".join(json.dumps(r, separators=separators) + "\n" for r in rows))


ARCHIVES = {
    "golden": write_archive,
    "golden-2000": lambda path: write_archive(path, records=2000, users=300, seed=29),
    "perfbench": perfbench_archive,
    "perfbench-compact": lambda path: perfbench_archive(path, separators=(",", ":")),
}


@pytest.mark.parametrize("name", sorted(ARCHIVES))
def test_archives_of_plain_records_take_the_kernel(tmp_path, monkeypatch, name):
    path = tmp_path / "archive.jsonl"
    ARCHIVES[name](path)
    got = kernel_tally(path)
    assert got is not None
    assert_same_tally(got, row_loop_tally(path))
    # and the entry point has the kernel tally them
    kernel, tallies = _native.archive_kernel(), []
    monkeypatch.setattr(stance, "archive_kernel",
                        lambda: lambda blocks: tallies.append(kernel(blocks)) or tallies[-1])
    read_retweet_network(path)
    assert len(tallies) == 1
    assert_same_tally(tallies[0], got)


def test_archives_reaching_past_a_block_take_the_kernel(tmp_path, monkeypatch):
    # blocks of a few dozen bytes: every block ends mid-record, and is
    # completed to a whole line
    path = tmp_path / "archive.jsonl"
    write_archive(path, records=300)
    monkeypatch.setattr(pio, "_BLOCK_BYTES", 40)
    got = kernel_tally(path)
    assert got is not None
    assert_same_tally(got, row_loop_tally(path))


def test_a_path_that_is_not_a_regular_file_goes_to_the_row_loop(tmp_path, monkeypatch):
    # the kernel is not asked for: a pipe cannot be read twice
    monkeypatch.setattr(stance, "archive_kernel", lambda: pytest.fail("kernel asked for"))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write(record() + "\n")

    writer = threading.Thread(target=write)
    writer.start()
    try:
        graph = read_retweet_network(fifo)
    finally:
        if writer.is_alive():  # the reader never opened the pipe
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join()
    assert edge_triples(graph) == (("a", "b", 1.0),)
    for path in (tmp_path, tmp_path / "absent.jsonl"):
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: "):
            read_retweet_network(path)


def test_a_kernel_out_of_memory_is_a_memory_error():
    class Library:
        """A stand-in for the loaded kernel that runs out of memory."""

        def __init__(self):
            self.freed = []

        def archive_new(self):
            return 1

        def archive_feed(self, state, block, size):
            return -1

        def archive_free(self, state):
            self.freed.append(state)

    library = Library()
    with pytest.raises(MemoryError, match="C archive kernel ran out of memory"):
        _native._tally_blocks(library, [b"{}\n"])
    assert library.freed == [1]
