"""Independent reference implementations used to pin the production code.

Everything here is deliberately naive: plain dicts, plain loops, no numpy,
and no imports from the package under test. If a test disagrees with one of
these, the burden of proof is on the fast path.
"""

from __future__ import annotations

import json
import math
import random


def naive_polarization(nodes, edges, opinions, num_opinions, communities):
    """Plain-loop transliteration of the scoring equations.

    nodes: iterable of node ids; edges: iterable of (u, v, w); opinions and
    communities: plain dicts keyed by node. Returns (p_within, p_between, p).
    """
    nodes = list(nodes)
    n = len(nodes)
    frac = [0.0] * num_opinions
    for u in nodes:
        frac[opinions[u]] += 1.0 / n

    f_within = [[0.0] * num_opinions for _ in range(num_opinions)]
    f_between = [[0.0] * num_opinions for _ in range(num_opinions)]
    for u, v, w in edges:
        scaled = ((frac[opinions[u]] + frac[opinions[v]]) / 2.0) * w
        oi, oj = opinions[u], opinions[v]
        target = f_within if communities[u] == communities[v] else f_between
        target[oi][oj] += scaled
        if oi != oj:
            target[oj][oi] += scaled

    def component(matrix):
        total = 0.0
        cross = 0.0
        for i in range(num_opinions):
            for j in range(i, num_opinions):
                total += matrix[i][j]
                if i != j:
                    cross += matrix[i][j]
        if total == 0.0:
            return 0.0, 0.0
        ratio = cross / total
        capped = ratio if ratio < 0.5 else 0.5
        return 1.0 - 2.0 * capped, total

    p_w, s_w = component(f_within)
    p_b, s_b = component(f_between)
    if s_w + s_b == 0.0:
        raise ValueError("graph carries no scaled weight")
    return p_w, p_b, (s_w * p_w + s_b * p_b) / (s_w + s_b)


def brute_force_modularity(nodes, edges, communities):
    """Pairwise-sum modularity: (1/2m) sum_ij (A_ij - k_i*k_j/2m) d(ci,cj).

    Quadratic in nodes on purpose; the production code uses the
    per-community form, so agreement checks both derivations.
    """
    nodes = list(nodes)
    adj = {u: {} for u in nodes}
    degree = {u: 0.0 for u in nodes}
    two_m = 0.0
    for u, v, w in edges:
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w
        degree[u] += w
        degree[v] += w
        two_m += 2.0 * w
    if two_m == 0.0:
        raise ValueError("graph has no edges")

    q = 0.0
    for u in nodes:
        for v in nodes:
            if communities[u] != communities[v]:
                continue
            a_uv = adj[u].get(v, 0.0)
            q += a_uv - degree[u] * degree[v] / two_m
    return q / two_m


def all_partitions(items):
    """Every set partition of ``items`` as a list of blocks (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1 :]
        yield [[first]] + smaller


def random_graph_spec(rng: random.Random, max_nodes=8, max_opinions=3):
    """A small random connected-ish weighted graph as plain data.

    Returns (nodes, edges, opinions, num_opinions) with integer node ids,
    at least a spanning path so no node is isolated by accident.
    """
    n = rng.randint(3, max_nodes)
    num_opinions = rng.randint(2, max_opinions)
    nodes = list(range(n))
    edges = []
    seen = set()
    order = nodes[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        u, v = min(a, b), max(a, b)
        seen.add((u, v))
        edges.append((u, v, round(rng.uniform(0.5, 3.0), 3)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(nodes, 2)
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, round(rng.uniform(0.5, 3.0), 3)))
    opinions = {u: rng.randrange(num_opinions) for u in nodes}
    return nodes, edges, opinions, num_opinions


def naive_score_users(records):
    """Per-user (score, opinion) as the plain counting loop computes it.

    records: objects with ``author``, ``stance`` and ``retweeters``. Every
    authored tweet and every non-empty retweet event is one stance item for
    its user; the score (favor - against) / items is cut at +/-0.2, strictly,
    into opinions 0 (against), 1 (neutral) and 2 (favor). Users appear in
    order of first appearance.
    """
    stances = ("favor", "against", "neutral")
    counts = {}
    for record in records:
        slot = stances.index(record.stance)
        counts.setdefault(record.author, [0, 0, 0])[slot] += 1
        for retweeter in record.retweeters:
            if retweeter:
                counts.setdefault(retweeter, [0, 0, 0])[slot] += 1
    scores = {}
    for user, (favor, against, neutral) in counts.items():
        score = (favor - against) / (favor + against + neutral)
        if score > 0.2:
            opinion = 2
        elif score < -0.2:
            opinion = 0
        else:
            opinion = 1
        scores[user] = (score, opinion)
    return scores


def naive_retweet_rows(records):
    """One ``(author, retweeter, 1.0)`` row per retweet event, skipping empty
    retweeter ids and self-retweets."""
    return [
        (record.author, retweeter, 1.0)
        for record in records
        for retweeter in record.retweeters
        if retweeter and retweeter != record.author
    ]


def naive_relabel(nodes, communities, k, dom_ratio, num_opinions, seed):
    """Opinion per node id as ``relabel`` draws it: communities in id order,
    each community's members in ``nodes`` order, a dominant opinion on
    round-half-up(dom_ratio * size) sampled members (every member of a
    singleton) and a uniform other opinion on the rest, all from one
    ``random.Random(seed)``. ``communities`` maps node id to community."""
    rng = random.Random(seed)
    groups = {c: [] for c in range(k)}
    for node in nodes:
        groups[communities[node]].append(node)
    opinions = {}
    for c in range(k):
        members = groups[c]
        dominant = rng.randrange(num_opinions)
        size = len(members)
        n_dominant = 1 if size == 1 else math.floor(dom_ratio * size + 0.5)
        chosen = set(rng.sample(members, n_dominant))
        for node in members:
            if node in chosen:
                opinions[node] = dominant
            else:
                other = rng.randrange(num_opinions - 1)
                opinions[node] = other if other < dominant else other + 1
    return opinions


def naive_stance_rows(path):
    """The rows, warnings and first error of a stance archive, read by the
    plain loop: ``json.loads`` per line, ``isinstance`` checks in a fixed
    order, empty retweeters dropped one at a time.

    Lines end at ``\\n`` and are stripped; blank ones are skipped. Returns
    ``(rows, warnings, error)``: one ``(tweet_id, author, stance_slot,
    retweeters)`` tuple per record before the first bad line, the warning
    messages in order, and ``(message, line_number)`` for that bad line, or
    None. The total of dropped retweeters is warned only for an archive that
    reads to its end.
    """
    stances = ("favor", "against", "neutral")
    rows, warnings, seen = [], [], set()
    dropped = 0
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.decode("utf-8").strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return rows, warnings, (f"invalid JSON: {exc.msg}", lineno)
        except RecursionError:
            return rows, warnings, ("invalid JSON: nesting too deep", lineno)
        if not isinstance(obj, dict):
            return rows, warnings, ("record is not a JSON object", lineno)
        tweet_id = obj.get("tweet_id")
        author = obj.get("author")
        stance = obj.get("stance")
        retweeters = obj.get("retweeters")
        if not isinstance(tweet_id, str) or not tweet_id:
            return rows, warnings, ("missing or empty 'tweet_id'", lineno)
        if not isinstance(author, str) or not author.strip():
            return rows, warnings, ("missing or empty 'author'", lineno)
        if stance not in stances:
            return rows, warnings, (
                f"stance must be one of {stances}, got {stance!r}", lineno
            )
        if not isinstance(retweeters, list) or not all(
            isinstance(r, str) for r in retweeters
        ):
            return rows, warnings, ("'retweeters' must be a list of strings", lineno)
        if tweet_id in seen:
            return rows, warnings, (f"duplicate tweet_id {tweet_id!r}", lineno)
        seen.add(tweet_id)
        kept = []
        for r in retweeters:
            if r.strip():
                kept.append(r.strip())
            else:
                dropped += 1
                warnings.append(f"{path}:{lineno}: empty retweeter id skipped")
        rows.append((tweet_id, author.strip(), stances.index(stance), tuple(kept)))
    if dropped:
        warnings.append(f"{path}: skipped {dropped} empty retweeter id(s) in total")
    return rows, warnings, None
