"""Retweet-network construction from archived stance-labeled tweet records.

Input is JSON-lines: one record per original tweet with its author, a stance
label (favor / against / neutral), and the users who retweeted it. A retweet
inherits the stance of the original tweet, so every user accumulates stance
counts from tweets authored plus retweets made; the per-user score
(favor - against) / (favor + against + neutral) is discretized at +/-0.2
into a three-opinion labeling of the undirected retweet graph.

`read_retweet_network` is the one entry point from an archive's path to its
graph: it has the archive tallied by the C kernel when every line is plain,
and by the row loop otherwise. Both read the blocks of whole lines that
`io._blocks` gives, and an archive with no retweet edges is an error naming
its path.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import stat
import sys
from array import array
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._native import archive_kernel
from .errors import InputError
from .graph import LabeledGraph
from .io import _blocks, _ids_fault, _lines, _numbered

logger = logging.getLogger(__name__)

STANCES = ("favor", "against", "neutral")
_SLOTS = {stance: slot for slot, stance in enumerate(STANCES)}

# Opinion indices of the output graph, in fixed documented order.
AGAINST, NEUTRAL, FAVOR = 0, 1, 2
OPINION_NAMES = ("against", "neutral", "favor")

SCORE_THRESHOLD = 0.2


class StanceRecord(NamedTuple):
    """One original tweet: its author, stance, and retweeter user ids. It is
    the row that the archive reader yields, so any ``(tweet_id, author,
    stance, retweeters)`` tuple will do where records are taken."""

    tweet_id: str
    author: str
    stance: str
    retweeters: tuple[str, ...]


def read_stance_records(path) -> list[StanceRecord]:
    """Parse a JSON-lines archive of stance-labeled tweet records.

    Empty or whitespace retweeter ids are dropped with a per-row warning;
    malformed rows, duplicate tweet ids and user ids that the graph files
    cannot hold are hard errors naming the line.
    """
    return list(map(StanceRecord._make, _iter_stance_rows(path)))


def _iter_stance_rows(path) -> Iterator[tuple[str, str, str, tuple[str, ...]]]:
    """The validated rows of an archive, one ``(tweet_id, author, stance,
    retweeters)`` tuple per record, with the author and the retweeters
    stripped and the empty retweeters dropped. Each row's warnings are
    logged as it is read, the total once the archive is exhausted, and a bad
    row raises when it is reached.

    A line is decoded with the C scanner and accepted only when its one
    value ends where the line ends; any other outcome decodes the line again
    with ``json.loads``, whose result or error stands. JSON gives exact
    types, so ``type(x) is str`` is the string check. A user id that the
    graph files cannot hold (see `_check_ids`) can come only from a raw
    ``#`` or a ``\\`` escape, so only lines holding one are checked.
    """
    scan = json.JSONDecoder().scan_once
    strip, intern = str.strip, sys.intern
    seen_ids: set[str] = set()
    dropped = 0
    blocks = (_lines(path, first, block) for first, block in _numbered(_blocks(path)))
    for lineno, line in chain.from_iterable(blocks):
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            obj = _loads(line, path, lineno)
        if type(obj) is not dict:
            raise InputError("record is not a JSON object", path=path, line=lineno)

        tweet_id = obj.get("tweet_id")
        if type(tweet_id) is not str or not tweet_id:
            raise InputError("missing or empty 'tweet_id'", path=path, line=lineno)
        author = obj.get("author")
        if type(author) is not str or not (author := author.strip()):
            raise InputError("missing or empty 'author'", path=path, line=lineno)
        stance = obj.get("stance")
        if type(stance) is not str or stance not in _SLOTS:
            raise InputError(
                f"stance must be one of {STANCES}, got {stance!r}",
                path=path,
                line=lineno,
            )
        retweeters = obj.get("retweeters")
        try:
            kept = tuple(map(strip, retweeters)) if type(retweeters) is list else None
        except TypeError:  # an item that is not a string
            kept = None
        if kept is None:
            raise InputError(
                "'retweeters' must be a list of strings", path=path, line=lineno
            )
        if "#" in line or "\\" in line:
            _check_ids(author, kept, path, lineno)
        if tweet_id in seen_ids:
            raise InputError(f"duplicate tweet_id {tweet_id!r}", path=path, line=lineno)
        seen_ids.add(tweet_id)

        if "" in kept:
            for retweeter in kept:
                if not retweeter:
                    dropped += 1
                    logger.warning("%s:%d: empty retweeter id skipped", path, lineno)
            kept = tuple(filter(None, kept))
        yield tweet_id, author, intern(stance), kept  # one copy per stance
    if dropped:
        logger.warning("%s: skipped %d empty retweeter id(s) in total", path, dropped)


def _check_ids(author: str, retweeters: tuple[str, ...], path, lineno: int) -> None:
    """An `InputError` at the line for the first stripped, non-empty user id,
    author first, that the graph files cannot hold (see `io._ids_fault`): a
    leading ``#`` reads back as a comment, a tab or a newline breaks its row,
    and a lone surrogate cannot be encoded as UTF-8."""
    for role, user in (("author", author), *(("retweeter", r) for r in retweeters)):
        if user and (fault := _ids_fault((user,))):
            raise InputError(
                f"{role} id {user!r} {fault}, so the graph files cannot hold it",
                path=path,
                line=lineno,
            )


def _loads(line: str, path, lineno: int):
    """``json.loads`` of one line, its decoding errors as `InputError`s
    naming the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", path=path, line=lineno) from None
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise InputError(f"invalid JSON: {exc}", path=path, line=lineno) from None
    except RecursionError:
        raise InputError(
            "invalid JSON: nesting too deep", path=path, line=lineno
        ) from None


def _tally(records) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """One pass over ``(tweet_id, author, stance, retweeters)`` records,
    with every user id interned to the index of its first appearance (author
    before retweeters, in record order).

    Returns the users in index order; their ``[favor, against, neutral]``
    item counts as an (n, 3) array (authoring a tweet is one item for the
    author, every retweet event one for the retweeter, with the inherited
    stance); the ``(author, retweeter)`` index pairs of the non-self retweet
    events, flattened; and the number of self-retweet events. Empty
    retweeter ids, which hand-built records may hold, are skipped. A stance
    not in `STANCES`, an author that is not a non-empty str and a str of
    retweeters (which would be read as one id per character) are each a
    ValueError naming the record.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    # int64 buffers, not lists of ints: numpy reads them without a copy
    items = array("q")  # user * 3 + stance slot, one per stance item
    ends = array("q")
    self_retweets = 0
    for tweet_id, author, stance, retweeters in records:
        try:
            slot = _SLOTS[stance]
        except (KeyError, TypeError):  # TypeError: an unhashable stance
            raise ValueError(
                f"record {tweet_id!r}: stance must be one of {STANCES}, got {stance!r}"
            ) from None
        if type(author) is not str or not author:
            raise ValueError(
                f"record {tweet_id!r}: author must be a non-empty str, got {author!r}"
            )
        if type(retweeters) is str:
            raise ValueError(
                f"record {tweet_id!r}: retweeters must be a collection of ids, "
                f"not the str {retweeters!r}"
            )
        author = intern(author, len(index))
        items.append(author * 3 + slot)
        for retweeter in retweeters:
            if retweeter:
                user = intern(retweeter, len(index))
                items.append(user * 3 + slot)
                if user == author:
                    self_retweets += 1
                else:
                    ends.append(author)
                    ends.append(user)
    counts = np.bincount(np.frombuffer(items, np.int64), minlength=3 * len(index))
    ends = np.frombuffer(ends, np.int64)
    return list(index), counts.reshape(-1, 3), ends, self_retweets


def _opinions(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score (favor - against) / (favor + against + neutral) per user, and
    its opinion: favor above +0.2, against below -0.2, neutral otherwise
    (boundaries are strict). The counts are exact int64, so each quotient
    rounds as Python's int division does."""
    favor, against, neutral = counts.T
    score = (favor - against) / (favor + against + neutral)
    opinion = np.full(len(score), NEUTRAL, dtype=np.int64)
    opinion[score > SCORE_THRESHOLD] = FAVOR
    opinion[score < -SCORE_THRESHOLD] = AGAINST
    return score, opinion


def score_users(records: Iterable[StanceRecord]) -> dict[str, tuple[float, int]]:
    """Per-user (score, opinion index) for every user with a stance item:
    favor above +0.2, against below -0.2, neutral otherwise (boundaries are
    strict). Users appear in order of first appearance.

    Authoring a tweet counts once for its author; every retweet event counts
    once for the retweeter with the inherited stance.
    """
    users, counts, _, _ = _tally(records)
    score, opinion = _opinions(counts)
    return dict(zip(users, zip(score.tolist(), opinion.tolist())))


def build_retweet_network(records: Iterable[StanceRecord]) -> LabeledGraph:
    """Undirected retweet graph: edge weight counts retweet events between
    two users in either direction. Self-retweets are dropped (counted);
    authors nobody retweeted remain as isolated nodes. The records are read
    once, so a one-shot iterator will do."""
    return _network(*_tally(records))


def read_retweet_network(path) -> LabeledGraph:
    """``build_retweet_network(read_stance_records(path))``, with no list of
    the records. A regular file whose every line is blank or a plain record
    (see ``_archive.c``), lines the row loop reads without an error or a
    warning, is tallied by `_native.archive_kernel`. Any other archive, a
    pipe (it cannot be read twice) and every archive when the kernel cannot
    be had stream through the row loop, which raises and warns for them."""
    try:
        kernel = archive_kernel() if stat.S_ISREG(os.stat(path).st_mode) else None
    except (OSError, ValueError):  # ValueError: a NUL in the path
        kernel = None
    tally = None
    if kernel is not None:
        with contextlib.suppress(InputError):  # unreadable: the row loop reports it
            tally = kernel(_blocks(path))
    return _network(*(tally or _tally(_iter_stance_rows(path))), path=path)


def _network(
    users: list[str], counts: np.ndarray, ends: np.ndarray, self_retweets: int, path=None
) -> LabeledGraph:
    """The retweet graph of a tally (see `_tally`) of the archive at
    ``path``, if known, warning once for its self-retweet events."""
    if self_retweets:
        logger.warning("dropped %d self-retweet event(s)", self_retweets)
    if not len(ends):
        raise InputError("no retweet edges in record set", path=path)

    _, opinion = _opinions(counts)
    # one unit row per event: the layout sums them into exact counts
    return LabeledGraph(users, ends, np.ones(len(ends) // 2), opinion, num_opinions=3)
