"""Retweet-network construction from archived stance-labeled tweet records.

Input is JSON-lines: one record per original tweet with its author, a stance
label (favor / against / neutral), and the users who retweeted it. A retweet
inherits the stance of the original tweet, so every user accumulates stance
counts from tweets authored plus retweets made; the per-user score
(favor - against) / (favor + against + neutral) is discretized at +/-0.2
into a three-opinion labeling of the undirected retweet graph.
"""

from __future__ import annotations

import json
import logging
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError
from .graph import LabeledGraph, _node_order
from .io import _stripped_lines

logger = logging.getLogger(__name__)

STANCES = ("favor", "against", "neutral")
_SLOTS = {stance: slot for slot, stance in enumerate(STANCES)}

# Opinion indices of the output graph, in fixed documented order.
AGAINST, NEUTRAL, FAVOR = 0, 1, 2
OPINION_NAMES = ("against", "neutral", "favor")

SCORE_THRESHOLD = 0.2


@dataclass(frozen=True)
class StanceRecord:
    """One original tweet: its author, stance, and retweeter user ids."""

    tweet_id: str
    author: str
    stance: str
    retweeters: tuple[str, ...]


def read_stance_records(path) -> list[StanceRecord]:
    """Parse a JSON-lines archive of stance-labeled tweet records.

    Empty or whitespace retweeter ids are dropped with a per-row warning;
    malformed rows and duplicate tweet ids are hard errors naming the line.
    """
    return [
        StanceRecord(tweet_id, author, STANCES[slot], retweeters)
        for tweet_id, author, slot, retweeters in _iter_stance_rows(path)
    ]


def _iter_stance_rows(path) -> Iterator[tuple[str, str, int, tuple[str, ...]]]:
    """The validated rows of an archive, one ``(tweet_id, author,
    stance_slot, retweeters)`` tuple per record, with the author and the
    retweeters stripped and the empty retweeters dropped. Each row's warnings
    are logged as it is read, the total once the archive is exhausted, and a
    bad row raises when it is reached.

    A line is decoded with the C scanner and accepted only when its one
    value ends where the line ends; any other outcome decodes the line again
    with ``json.loads``, whose result or error stands. JSON gives exact
    types, so ``type(x) is str`` is the string check.
    """
    scan = json.JSONDecoder().scan_once
    slot_of = _SLOTS.get
    strip = str.strip
    seen_ids: set[str] = set()
    dropped = 0
    for lineno, line in _stripped_lines(path):
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
        slot = slot_of(stance) if type(stance) is str else None
        if slot is None:
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
        if tweet_id in seen_ids:
            raise InputError(f"duplicate tweet_id {tweet_id!r}", path=path, line=lineno)
        seen_ids.add(tweet_id)

        if "" in kept:
            for retweeter in kept:
                if not retweeter:
                    dropped += 1
                    logger.warning("%s:%d: empty retweeter id skipped", path, lineno)
            kept = tuple(filter(None, kept))
        yield tweet_id, author, slot, kept
    if dropped:
        logger.warning("%s: skipped %d empty retweeter id(s) in total", path, dropped)


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


def _rows(records: Iterable[StanceRecord]):
    """`StanceRecord`s as the rows `_iter_stance_rows` yields."""
    return (
        (r.tweet_id, r.author, STANCES.index(r.stance), r.retweeters) for r in records
    )


def _tally(rows) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """One pass over ``(tweet_id, author, stance_slot, retweeters)`` rows,
    with every user id interned to the index of its first appearance (author
    before retweeters, in row order).

    Returns the users in index order; their ``[favor, against, neutral]``
    item counts as an (n, 3) array (authoring a tweet is one item for the
    author, every retweet event one for the retweeter, with the inherited
    stance); the ``(author, retweeter)`` index pairs of the non-self retweet
    events, flattened; and the number of self-retweet events. Empty
    retweeter ids, which hand-built records may hold, are skipped.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    # int64 buffers, not lists of ints: numpy reads them without a copy
    items = array("q")  # user * 3 + stance slot, one per stance item
    ends = array("q")
    self_retweets = 0
    for _, author, slot, retweeters in rows:
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
    users, counts, _, _ = _tally(_rows(records))
    score, opinion = _opinions(counts)
    return dict(zip(users, zip(score.tolist(), opinion.tolist())))


def build_retweet_network(records: Iterable[StanceRecord]) -> LabeledGraph:
    """Undirected retweet graph: edge weight counts retweet events between
    two users in either direction. Self-retweets are dropped (counted);
    authors nobody retweeted remain as isolated nodes. The records are read
    once, so a one-shot iterator will do."""
    return _retweet_network(_rows(records))


def _retweet_network(rows) -> LabeledGraph:
    """`build_retweet_network` of ``(tweet_id, author, stance_slot,
    retweeters)`` rows."""
    users, counts, ends, self_retweets = _tally(rows)
    if self_retweets:
        logger.warning("dropped %d self-retweet event(s)", self_retweets)
    if not len(ends):
        raise InputError("no retweet edges in record set")

    _, opinion = _opinions(counts)
    order = _node_order(users)
    rank = np.empty(len(users), dtype=np.int64)
    rank[order] = np.arange(len(users))
    graph = LabeledGraph.__new__(LabeledGraph)
    # one unit row per event: the layout sums them into exact counts
    graph._lay_out(
        tuple(map(users.__getitem__, order)),
        rank[ends],
        np.ones(len(ends) // 2),
        opinion[order],
        num_opinions=3,
    )
    return graph
