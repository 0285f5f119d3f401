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


def expected_dominance_score(d, k, f_w):
    """Expected polarization of a block-model graph whose communities are
    relabeled at dominance ratio ``d`` over ``k`` opinions, where ``f_w`` is
    the within-community share of edge weight in the scored partitions.

    A community's expected cross-opinion share is
    c = 1 - d^2 - (1 - d)^2 / (k - 1): two ends share the dominant opinion
    with probability d^2, and one of the k - 1 others with (1 - d)^2 / (k - 1).
    Within communities the score is 1 - 2 min(c, 0.5). An edge between two
    communities crosses with probability at least 1 - 1/k >= 0.5, so the
    between view scores about 0, and the blend weighs the within view by
    ``f_w``. The model leaves out the scaling, which weighs edges between
    minority opinions down."""
    c = 1.0 - d * d - (1.0 - d) ** 2 / (k - 1)
    return f_w * (1.0 - 2.0 * min(c, 0.5))


def naive_stance_rows(path):
    """The rows, warnings and first error of a stance archive, read by the
    plain loop: ``json.loads`` per line, ``isinstance`` checks in a fixed
    order, every user id checked for what the graph files cannot hold (a
    leading ``#``, a tab or newline, a surrogate code point), empty
    retweeters dropped one at a time.

    Lines end at ``\\n`` and are stripped; blank ones are skipped. Returns
    ``(rows, warnings, error)``: one ``(tweet_id, author, stance,
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
        for role, user in [("author", author)] + [("retweeter", r) for r in retweeters]:
            user = user.strip()
            if user.startswith("#"):
                fault = "starts with '#'"
            elif "\t" in user or "\n" in user:
                fault = "holds a tab or a newline"
            elif any(0xD800 <= ord(c) <= 0xDFFF for c in user):
                fault = "cannot be encoded as UTF-8"
            else:
                continue
            return rows, warnings, (
                f"{role} id {user!r} {fault}, so the graph files cannot hold it", lineno
            )
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
        rows.append((tweet_id, author.strip(), stance, tuple(kept)))
    if dropped:
        warnings.append(f"{path}: skipped {dropped} empty retweeter id(s) in total")
    return rows, warnings, None


def edge_triples(g):
    """The edges of graph ``g`` as ``(u, v, weight)`` node-id tuples, in
    ``g.edge_arrays()`` order."""
    iu, iv, w = (a.tolist() for a in g.edge_arrays())
    return tuple((g.nodes[a], g.nodes[b], x) for a, b, x in zip(iu, iv, w))


def communities_of(g, p):
    """The community of each node of graph ``g`` under partition ``p``, as a
    node-id dict in ``g.nodes`` order."""
    return dict(zip(g.nodes, p.array(g).tolist()))


# the graph's weight bounds (graph.MIN_WEIGHT, graph.MAX_WEIGHT), restated
MIN_WEIGHT, MAX_WEIGHT = 1e-150, 1e150


class _FileError(Exception):
    """The first error of naive_graph_files, as (message, path, line)."""


def _naive_data_rows(path):
    """The data rows of a graph file as ``(line_number, separator, stripped
    fields)``: lines end at ``\\n``, each is decoded and stripped, and blank
    and ``#`` lines are skipped; the first data row sets the separator. A
    UTF-8 byte-order mark that starts the file is dropped."""
    sep = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1:
                raw = raw.removeprefix(b"\xef\xbb\xbf")
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise _FileError(f"not UTF-8 ({exc.reason})", path, lineno) from None
            if not line or line.startswith("#"):
                continue
            if sep is None:
                if "\t" in line:
                    sep = "\t"
                elif "," in line:
                    sep = ","
                else:
                    raise _FileError(
                        "cannot detect separator (expected tab or comma)", path, lineno
                    )
            yield lineno, sep, [f.strip() for f in line.split(sep)]


def naive_graph_files(edge_path, label_path):
    """The graph ``load_graph`` reads from an edge file and a label file, by
    a plain loop over their lines with the loader's row checks in its order.

    Returns ``(graph, error, dropped)``. ``graph`` is ``(labels, edges)``:
    the node-id-to-opinion dict and a dict from each ``(low, high)`` id pair
    (ids ordered as text) to the weight its rows add up to in row order.
    ``error`` is the first error as ``(message, path, line)``, with ``line``
    None for a fault of a whole file; exactly one of the two is None.
    ``dropped`` is the count of self-loop rows the loader warns about, which
    it does once the edge file reads to its end (0: no warning).
    """
    try:
        labels, top, top_line = {}, 0, 0
        for lineno, sep, fields in _naive_data_rows(label_path):
            where = (label_path, lineno)
            if len(fields) != 2:
                raise _FileError(
                    f"expected 'node{sep}opinion', got {len(fields)} fields", *where
                )
            node, raw = fields
            if not node:
                raise _FileError("empty node identifier", *where)
            try:
                opinion = int(raw)
            except ValueError:
                raise _FileError(f"bad opinion index {raw!r}", *where) from None
            if opinion < 0:
                raise _FileError(f"negative opinion index {opinion}", *where)
            if node in labels and labels[node] != opinion:
                raise _FileError(f"conflicting labels for node {node!r}", *where)
            labels[node] = opinion
            if opinion > top:
                top, top_line = opinion, lineno
        if not labels:
            raise _FileError("label file is empty", label_path, None)
        if top >= len(labels):
            raise _FileError(
                f"opinion index {top} is not below the {len(labels)} labeled nodes",
                label_path,
                top_line,
            )

        edges, rows, dropped = {}, 0, 0
        for lineno, sep, fields in _naive_data_rows(edge_path):
            where = (edge_path, lineno)
            rows += 1
            if len(fields) not in (2, 3):
                raise _FileError(
                    f"expected 'u{sep}v[{sep}w]', got {len(fields)} fields", *where
                )
            u, v = fields[0], fields[1]
            if not u or not v:
                raise _FileError("empty node identifier", *where)
            w = 1.0
            if len(fields) == 3:
                try:
                    w = float(fields[2])
                except ValueError:
                    raise _FileError(f"bad weight {fields[2]!r}", *where) from None
            if not MIN_WEIGHT <= w <= MAX_WEIGHT:
                raise _FileError(
                    f"non-positive, non-finite or out-of-range weight {fields[2]!r}; "
                    f"weights must lie in [{MIN_WEIGHT}, {MAX_WEIGHT}]",
                    *where,
                )
            if u == v:
                dropped += 1
                continue
            for node in (u, v):
                if node not in labels:
                    raise _FileError(f"node {node!r} from edge file has no label", *where)
            pair = (min(u, v), max(u, v))
            edges[pair] = edges.get(pair, 0.0) + w
        if not rows:
            return None, ("edge file contains no edges", edge_path, None), 0
        if not edges:
            return None, ("edge file contains no usable edges", edge_path, None), dropped
        total = sum(edges[pair] for pair in sorted(edges))
        if not total <= MAX_WEIGHT:
            return None, (f"total edge weight {total} exceeds {MAX_WEIGHT}", edge_path, None), dropped
        return (labels, edges), None, dropped
    except _FileError as exc:
        return None, exc.args, 0
