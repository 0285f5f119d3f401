"""Output checks for the CLI invocations the benchmark makes.

Each check returns a list of problems; an empty list means the output is
correct. The checks parse the outputs with plain Python, independently of
the package, and never compare digests: a later change may alter scores on
purpose, but it may not produce malformed, out-of-range or miscounted output.
"""

from __future__ import annotations

import csv
import io
import json
import math

SWEEP_HEADER = ["num_opinions", "dom_ratio", "mean_p", "std_p", "runs"]


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def _unit_interval(name: str, value, problems: list[str]) -> None:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        problems.append(f"{name} = {value!r} is not in [0, 1]")


def _non_negative(name: str, value, problems: list[str]) -> None:
    if not isinstance(value, (int, float)) or not value >= 0.0:
        problems.append(f"{name} = {value!r} is negative or not a number")


def check_report(text: str, nodes: int, edges: int, runs: int) -> list[str]:
    """An ``analyze`` JSON report for a graph of known size."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report is not valid finite JSON: {exc}"]
    problems: list[str] = []
    try:
        if report["graph"] != {"nodes": nodes, "edges": edges}:
            problems.append(f"graph {report['graph']} != {nodes} nodes, {edges} edges")
        if report["runs"] != runs:
            problems.append(f"runs {report['runs']} != {runs}")
        for part in ("p_within", "p_between", "polarization"):
            _unit_interval(f"{part}.mean", report[part]["mean"], problems)
            _non_negative(f"{part}.std", report[part]["std"], problems)
        for key in ("min", "max"):
            _unit_interval(f"polarization.{key}", report["polarization"][key], problems)
        if not report["communities"]["mean"] >= 1.0:
            problems.append(f"communities.mean {report['communities']['mean']} < 1")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks field {exc}")
    return problems


def check_sweep_csv(
    text: str, dom_ratios: list[float], num_opinions: list[int], runs: int
) -> list[str]:
    """Exact header, then one finite row per grid cell in row-major order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"sweep header {rows[:1]} != {SWEEP_HEADER}"]
    cells = [(k, r) for k in num_opinions for r in dom_ratios]
    if len(rows) - 1 != len(cells):
        return [f"sweep has {len(rows) - 1} rows, expected {len(cells)}"]
    problems: list[str] = []
    for row, (k, ratio) in zip(rows[1:], cells):
        try:
            values = [float(v) for v in row]
        except ValueError:
            problems.append(f"unparsable sweep row {row}")
            continue
        if len(values) != len(SWEEP_HEADER) or not all(map(math.isfinite, values)):
            problems.append(f"malformed sweep row {row}")
            continue
        if values[0] != k or abs(values[1] - ratio) > 5e-7 or values[4] != runs:
            problems.append(f"sweep row {row} is not cell ({k}, {ratio}, runs={runs})")
        _unit_interval("mean_p", values[2], problems)
        _non_negative("std_p", values[3], problems)
    return problems


def check_network(edges_text: str, labels_text: str, events: int, users: int) -> list[str]:
    """``build-network`` output against the archive's ground truth."""
    problems: list[str] = []
    total = 0.0
    endpoints: set[str] = set()
    for line in edges_text.splitlines():
        fields = line.split("\t")
        try:
            weight = float(fields[2])
        except (IndexError, ValueError):
            return [f"malformed edge row {line!r}"]
        if not (math.isfinite(weight) and weight > 0):
            problems.append(f"bad edge weight in {line!r}")
        total += weight
        endpoints.update(fields[:2])
    if total != events:
        problems.append(f"edge weight total {total} != {events} retweet events")
    labels: dict[str, str] = {}
    for line in labels_text.splitlines():
        node, _, opinion = line.partition("\t")
        labels[node] = opinion
    if len(labels) != users:
        problems.append(f"{len(labels)} labeled nodes != {users} users")
    bad = set(labels.values()) - {"0", "1", "2"}
    if bad:
        problems.append(f"labels outside {{0, 1, 2}}: {sorted(bad)[:5]}")
    if not endpoints <= labels.keys():
        problems.append("edge endpoints without a label")
    return problems
