"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments: the same
arguments write byte-identical files. The SBM fixture is exported through the
package's public ``write_edge_list`` / ``write_labels``; the stance archive is
written here together with its ground truth, so the checker can verify the
``build-network`` output without trusting the code under test.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path

# The CLI's block-model densities; fixed here so the inputs do not drift
# when the program's defaults change.
SBM_P_IN = 0.05
SBM_P_OUT = 0.001

# The stance archive's shape: authors drawn with weight 1/rank**ZIPF_EXPONENT
# over USER_POOL users, and the share of records that also list their own
# author as a retweeter, which build_retweet_network must drop.
USER_POOL = 190_000
ZIPF_EXPONENT = 1.1
SELF_RETWEET_RATE = 0.01

STANCES = ("favor", "against", "neutral")


def sbm_config(seed: int, blocks: int, nodes_per_block: int):
    """The planted block model at the CLI's densities."""
    from polarimeter import SbmConfig

    return SbmConfig(blocks, nodes_per_block, SBM_P_IN, SBM_P_OUT, seed=seed)


def write_sbm_fixture(
    directory,
    seed: int,
    blocks: int,
    nodes_per_block: int,
    dom_ratio: float,
    num_opinions: int,
) -> dict:
    """Planted block model relabeled at ``dom_ratio``, as edge + label files.

    Returns the file paths and the node and edge counts the CLI must report.
    """
    from polarimeter import (
        SyntheticLabelConfig,
        generate_sbm,
        relabel,
        write_edge_list,
        write_labels,
    )

    graph, planted = generate_sbm(sbm_config(seed, blocks, nodes_per_block))
    labeled = relabel(graph, planted, SyntheticLabelConfig(dom_ratio, num_opinions, seed))
    directory = Path(directory)
    edges, labels = directory / "sbm.edges.tsv", directory / "sbm.labels.tsv"
    write_edge_list(labeled, edges)
    write_labels(labeled, labels)
    return {
        "edges": str(edges),
        "labels": str(labels),
        "nodes": labeled.node_count,
        "edge_count": labeled.edge_count,
    }


def write_stance_fixture(path, seed: int, records: int) -> dict:
    """JSON-lines tweet archive with Zipf-skewed authors and 0-2 retweeters.

    Retweeters are drawn uniformly from the user pool; some records also
    list their own author (see the constants above). Returns the ground truth: record count, non-self retweet events (the
    output's total edge weight) and distinct users (its node count).
    """
    rng = random.Random(seed)
    cum_weights = list(
        itertools.accumulate(1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, USER_POOL + 1))
    )
    total_weight = cum_weights[-1]
    users: set[str] = set()
    events = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(records):
            author = f"u{bisect.bisect_left(cum_weights, rng.random() * total_weight)}"
            retweeters = [f"u{rng.randrange(USER_POOL)}" for _ in range(rng.randrange(3))]
            if rng.random() < SELF_RETWEET_RATE:
                retweeters.append(author)
            events += sum(r != author for r in retweeters)
            users.add(author)
            users.update(retweeters)
            record = {
                "tweet_id": f"t{i}",
                "author": author,
                "stance": STANCES[rng.randrange(3)],
                "retweeters": retweeters,
            }
            fh.write(json.dumps(record) + "\n")
    return {"records": records, "events": events, "users": len(users)}
