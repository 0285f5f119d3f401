"""Seeded planted-homophily inputs with a known amount of polarization and
no external dataset: a stance archive in the shape of the paper's
retweet-network experiment, and a graph whose mixing over k opinions lies in
its edges.

In the archive, each user has a latent side, one of the three stances,
drawn uniformly. A record's author tweets their own side's stance, and each
of its 1-5 retweeters comes from the author's side with probability ``h``
and from all users otherwise. So at h = 0 who retweets whom ignores the
sides, and at h = 1 every retweet stays within one side. The archive is
written as JSON Lines, so ``build-network`` reads it as it reads a real
one. The archive format has three stances, so the k-opinion model is a
graph.
"""

from __future__ import annotations

import json
import random

from polarimeter import LabeledGraph

STANCES = ("favor", "against", "neutral")


def write_homophily_archive(path, h: float, seed: int, users=4000, records=6000):
    """Write ``records`` records over ``users`` users at homophily ``h``."""
    rng = random.Random(seed)
    side = [rng.randrange(len(STANCES)) for _ in range(users)]
    members = [[u for u in range(users) if side[u] == s] for s in range(len(STANCES))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(records):
            author = rng.randrange(users)
            own = members[side[author]]
            retweeters = [
                rng.choice(own) if rng.random() < h else rng.randrange(users)
                for _ in range(rng.randint(1, 5))
            ]
            record = {
                "tweet_id": f"t{i}",
                "author": f"u{author}",
                "stance": STANCES[side[author]],
                "retweeters": [f"u{r}" for r in retweeters],
            }
            fh.write(json.dumps(record) + "\n")


def edge_homophily_graph(k: int, h: float, seed: int, nodes=2000, draws=8000) -> LabeledGraph:
    """A graph of ``nodes`` nodes, each on one of ``k`` sides drawn uniformly,
    which is its opinion. Each of ``draws`` edge draws picks a source node and
    joins it to a node of its own side with probability ``h``, and to any
    node otherwise; self-loops are dropped, and repeated pairs add up to
    their draw count. Uncapped, P is then about 1 - 2(1 - h)(1 - 1/k)."""
    rng = random.Random(seed)
    side = [rng.randrange(k) for _ in range(nodes)]
    members = [[u for u in range(nodes) if side[u] == s] for s in range(k)]
    edges = []
    for _ in range(draws):
        u = rng.randrange(nodes)
        v = rng.choice(members[side[u]]) if rng.random() < h else rng.randrange(nodes)
        if u != v:
            edges.append((u, v, 1.0))
    return LabeledGraph.from_edges(edges, dict(enumerate(side)), k)
