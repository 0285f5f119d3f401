"""A seeded planted-homophily stance archive: the shape of the paper's
retweet-network experiment, with a known amount of polarization and no
external dataset.

Each user has a latent side, one of the three stances, drawn uniformly. A
record's author tweets their own side's stance, and each of its 1-5
retweeters comes from the author's side with probability ``h`` and from all
users otherwise. So at h = 0 who retweets whom ignores the sides, and at
h = 1 every retweet stays within one side. The archive is written as JSON
Lines, so ``build-network`` reads it as it reads a real one.
"""

from __future__ import annotations

import json
import random

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
