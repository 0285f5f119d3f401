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
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .graph import LabeledGraph
from .io import _stripped_lines

logger = logging.getLogger(__name__)

STANCES = ("favor", "against", "neutral")

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
    records: list[StanceRecord] = []
    seen_ids: set[str] = set()
    dropped = 0
    for lineno, line in _stripped_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc.msg}", path=path, line=lineno) from None
        if not isinstance(obj, dict):
            raise InputError("record is not a JSON object", path=path, line=lineno)

        tweet_id = obj.get("tweet_id")
        author = obj.get("author")
        stance = obj.get("stance")
        retweeters = obj.get("retweeters")
        if not isinstance(tweet_id, str) or not tweet_id:
            raise InputError("missing or empty 'tweet_id'", path=path, line=lineno)
        if not isinstance(author, str) or not author.strip():
            raise InputError("missing or empty 'author'", path=path, line=lineno)
        if stance not in STANCES:
            raise InputError(
                f"stance must be one of {STANCES}, got {stance!r}",
                path=path,
                line=lineno,
            )
        if not isinstance(retweeters, list) or not all(
            isinstance(r, str) for r in retweeters
        ):
            raise InputError(
                "'retweeters' must be a list of strings", path=path, line=lineno
            )
        if tweet_id in seen_ids:
            raise InputError(f"duplicate tweet_id {tweet_id!r}", path=path, line=lineno)
        seen_ids.add(tweet_id)

        kept = []
        for r in retweeters:
            r = r.strip()
            if not r:
                dropped += 1
                logger.warning("%s:%d: empty retweeter id skipped", path, lineno)
                continue
            kept.append(r)
        records.append(
            StanceRecord(
                tweet_id=tweet_id,
                author=author.strip(),
                stance=stance,
                retweeters=tuple(kept),
            )
        )
    if dropped:
        logger.warning("%s: skipped %d empty retweeter id(s) in total", path, dropped)
    return records


def score_users(records: Iterable[StanceRecord]) -> dict[str, tuple[float, int]]:
    """Per-user (score, opinion index) for every user with a stance item:
    favor above +0.2, against below -0.2, neutral otherwise (boundaries are
    strict).

    Authoring a tweet counts once for its author; every retweet event counts
    once for the retweeter with the inherited stance.
    """
    counts: dict[str, list[int]] = {}  # user -> [favor, against, neutral]
    for record in records:
        slot = STANCES.index(record.stance)
        counts.setdefault(record.author, [0, 0, 0])[slot] += 1
        for retweeter in record.retweeters:
            if retweeter:
                counts.setdefault(retweeter, [0, 0, 0])[slot] += 1

    scores: dict[str, tuple[float, int]] = {}
    for user, (favor, against, neutral) in counts.items():
        score = (favor - against) / (favor + against + neutral)
        if score > SCORE_THRESHOLD:
            opinion = FAVOR
        elif score < -SCORE_THRESHOLD:
            opinion = AGAINST
        else:
            opinion = NEUTRAL
        scores[user] = (score, opinion)
    return scores


def build_retweet_network(records: Iterable[StanceRecord]) -> LabeledGraph:
    """Undirected retweet graph: edge weight counts retweet events between
    two users in either direction. Self-retweets are dropped (counted);
    authors nobody retweeted remain as isolated nodes."""
    records = list(records)
    self_retweets = 0
    edges: list[tuple[str, str, float]] = []
    for record in records:
        author = record.author
        for retweeter in record.retweeters:
            if not retweeter:
                continue
            if retweeter == author:
                self_retweets += 1
            else:
                edges.append((author, retweeter, 1.0))
    if self_retweets:
        logger.warning("dropped %d self-retweet event(s)", self_retweets)
    if not edges:
        raise InputError("no retweet edges in record set")

    opinions = {user: op for user, (_, op) in score_users(records).items()}
    # one unit row per event: LabeledGraph sums them into exact counts
    return LabeledGraph(edges, opinions, num_opinions=3)
