"""File ingestion and serialization: edge lists, label files, reports.

Formats are line-oriented UTF-8 text. Edge and label files use tab or comma
separators, auto-detected per file from the first data row; ``#``-prefixed
lines and blank lines are skipped. All writers emit byte-stable output:
fixed key order, reals with 6 decimal places in reports, ``\\n`` newlines.
"""

from __future__ import annotations

import contextlib
import json
import logging
from importlib import resources
from typing import TYPE_CHECKING, Iterator, TextIO

from .errors import InputError
from .graph import MAX_WEIGHT, MIN_WEIGHT, LabeledGraph

if TYPE_CHECKING:
    from .metric import PolarizationReport

logger = logging.getLogger(__name__)
_WRITE_ROWS = 65_536  # edge rows write_edge_list turns into Python objects at once


def _stripped_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line_number, stripped_text) for the non-blank lines of a UTF-8
    file, streamed; lines end at ``\\n`` only, as in JSON Lines. An unreadable
    file, or bytes that are not UTF-8, is an `InputError` naming the path
    (and for bad bytes the line)."""
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise InputError(
                        f"not UTF-8 ({exc.reason})", path=path, line=lineno
                    ) from None
                if line:
                    yield lineno, line
    except OSError as exc:
        raise InputError(str(exc), path=path) from exc


def _data_rows(path) -> list[tuple[int, str]]:
    """(line_number, stripped_text) for non-comment, non-blank lines."""
    return [row for row in _stripped_lines(path) if not row[1].startswith("#")]


def _detect_separator(path, rows: list[tuple[int, str]]) -> str:
    lineno, first = rows[0]
    if "\t" in first:
        return "\t"
    if "," in first:
        return ","
    raise InputError(
        "cannot detect separator (expected tab or comma)", path=path, line=lineno
    )


def load_graph(edge_file, label_file) -> LabeledGraph:
    """Load a labeled graph from an edge-list file and an opinion-label file.

    Edge rows are ``u <sep> v [<sep> weight]`` with weight defaulting to 1.0;
    duplicate and reversed rows are merged by summing, self-loop rows are
    dropped with a counted warning. Label rows are ``u <sep> opinion_index``,
    every index below the number of labeled nodes. Nodes appearing only in
    the label file become isolated nodes. A node in the edge file without a
    label, a weight outside [MIN_WEIGHT, MAX_WEIGHT], a merged total weight
    above MAX_WEIGHT, or an empty edge set is a hard error.
    """
    edge_rows = _data_rows(edge_file)
    if not edge_rows:
        raise InputError("edge file contains no edges", path=edge_file)
    sep = _detect_separator(edge_file, edge_rows)

    edges: list[tuple[str, str, float]] = []
    self_loops = 0
    for lineno, line in edge_rows:
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) not in (2, 3):
            raise InputError(
                f"expected 'u{sep}v[{sep}w]', got {len(fields)} fields",
                path=edge_file,
                line=lineno,
            )
        u, v = fields[0], fields[1]
        if not u or not v:
            raise InputError("empty node identifier", path=edge_file, line=lineno)
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise InputError(
                    f"bad weight {fields[2]!r}", path=edge_file, line=lineno
                ) from None
        else:
            w = 1.0
        if not MIN_WEIGHT <= w <= MAX_WEIGHT:
            raise InputError(
                f"non-positive, non-finite or out-of-range weight {fields[2]!r}; "
                f"weights must lie in [{MIN_WEIGHT}, {MAX_WEIGHT}]",
                path=edge_file,
                line=lineno,
            )
        if u == v:
            self_loops += 1
            continue
        edges.append((u, v, w))
    if self_loops:
        logger.warning("%s: dropped %d self-loop edge row(s)", edge_file, self_loops)
    if not edges:
        raise InputError("edge file contains no usable edges", path=edge_file)

    opinions = _load_labels(label_file)

    for u, v, _ in edges:
        for node in (u, v):
            if node not in opinions:
                raise InputError(
                    f"node {node!r} from edge file has no label", path=label_file
                )

    try:
        return LabeledGraph(edges, opinions)
    except ValueError as exc:
        # rows and labels are checked above; what is left is the total weight
        raise InputError(str(exc), path=edge_file) from None


def _load_labels(label_file) -> dict[str, int]:
    rows = _data_rows(label_file)
    if not rows:
        raise InputError("label file is empty", path=label_file)
    sep = _detect_separator(label_file, rows)
    opinions: dict[str, int] = {}
    top, top_line = 0, 0  # the largest index, which sizes the census, and its line
    for lineno, line in rows:
        fields = [f.strip() for f in line.split(sep)]
        if len(fields) != 2:
            raise InputError(
                f"expected 'node{sep}opinion', got {len(fields)} fields",
                path=label_file,
                line=lineno,
            )
        node, raw = fields
        if not node:
            raise InputError("empty node identifier", path=label_file, line=lineno)
        try:
            opinion = int(raw)
        except ValueError:
            raise InputError(
                f"bad opinion index {raw!r}", path=label_file, line=lineno
            ) from None
        if opinion < 0:
            raise InputError(
                f"negative opinion index {opinion}", path=label_file, line=lineno
            )
        if node in opinions and opinions[node] != opinion:
            raise InputError(
                f"conflicting labels for node {node!r}", path=label_file, line=lineno
            )
        opinions[node] = opinion
        if opinion > top:
            top, top_line = opinion, lineno
    if top >= len(opinions):
        raise InputError(
            f"opinion index {top} is not below the {len(opinions)} labeled nodes",
            path=label_file,
            line=top_line,
        )
    return opinions


def load_karate() -> LabeledGraph:
    """The bundled Zachary karate club graph with the two faction labels."""
    data = resources.files("polarimeter.data")
    with resources.as_file(data / "karate_edges.tsv") as edge_path, resources.as_file(
        data / "karate_factions.tsv"
    ) as label_path:
        return load_graph(edge_path, label_path)


# -- writers ----------------------------------------------------------------


@contextlib.contextmanager
def _open_out(path) -> Iterator[TextIO]:
    """A UTF-8 text file opened for writing with ``\\n`` newlines. A file that
    cannot be created or written (a missing directory, no permission, a full
    disk) is an `InputError` naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InputError(str(exc), path=path) from exc


def write_edge_list(graph: LabeledGraph, path) -> None:
    """Tab-separated ``u v w`` rows in ``graph.edges`` order, full precision."""
    nodes, arrays = graph.nodes, graph.edge_arrays()
    with _open_out(path) as fh:
        for i in range(0, len(arrays[0]), _WRITE_ROWS):
            # no name holds a slice's lists: they go before the next are made
            for a, b, w in zip(*(x[i : i + _WRITE_ROWS].tolist() for x in arrays)):
                fh.write(f"{nodes[a]}\t{nodes[b]}\t{w!r}\n")


def write_labels(graph: LabeledGraph, path) -> None:
    with _open_out(path) as fh:
        for u, o in zip(graph.nodes, graph.opinion_array().tolist()):
            fh.write(f"{u}\t{o}\n")


def _json_dumps(value, indent: int = 0) -> str:
    # json.dumps cannot pin float formatting, so reports are rendered by
    # hand: every real gets exactly 6 decimal places.
    pad = "  " * indent
    if isinstance(value, dict):
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_json_dumps(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


def _flatten(report_dict: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in report_dict.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}_"))
        else:
            flat[name] = value
    return flat


def report_json(report: "PolarizationReport") -> str:
    return _json_dumps(report.to_dict()) + "\n"


def report_csv(report: "PolarizationReport") -> str:
    flat = _flatten(report.to_dict())
    header = ",".join(flat)
    row = ",".join(
        f"{v:.6f}" if isinstance(v, float) else str(v) for v in flat.values()
    )
    return header + "\n" + row + "\n"


def save_report(report: "PolarizationReport", path) -> None:
    """Write a report as CSV if the path ends in ``.csv``, else as JSON.
    Same report, same bytes."""
    text = report_csv(report) if str(path).endswith(".csv") else report_json(report)
    with _open_out(path) as fh:
        fh.write(text)


def sweep_csv(cells) -> str:
    """One row per (num_opinions, dom_ratio) cell of a sweep."""
    lines = ["num_opinions,dom_ratio,mean_p,std_p,runs"]
    for cell in cells:
        lines.append(
            f"{cell.num_opinions},{cell.dom_ratio:.6f},"
            f"{cell.mean_p:.6f},{cell.std_p:.6f},{cell.runs}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(cells, path) -> None:
    with _open_out(path) as fh:
        fh.write(sweep_csv(cells))
