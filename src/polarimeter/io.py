"""File ingestion and serialization: edge lists, label files, reports.

Formats are line-oriented UTF-8 text. Edge and label files use tab or comma
separators, auto-detected per file from the first data row; ``#``-prefixed
lines and blank lines are skipped. All writers emit byte-stable output:
fixed key order, reals with 6 decimal places in reports, ``\\n`` newlines.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import json
import logging
import math
import operator
import re
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .graph import MAX_WEIGHT, MIN_WEIGHT, LabeledGraph

if TYPE_CHECKING:
    from .metric import PolarizationReport

logger = logging.getLogger(__name__)
# graph-file rows written at once: one gather and one output buffer per this
# many rows, so a write's memory stays bounded: the gather's index arrays
# take 16 bytes per byte written
_WRITE_ROWS = 4_096
_BLOCK_BYTES = 16_384  # bytes read at once, then completed to a whole line
# per separator, the bytes a plain field is made of: neither it nor ASCII
# whitespace (as ``str.strip`` has it). Deleting them from a block leaves
# its separators, newlines and any other whitespace.
_FIELD_BYTES = {
    sep: bytes(c for c in range(256) if c > 127 or not (chr(c) == sep or chr(c).isspace()))
    for sep in "\t,"
}


def _blocks(path) -> Iterator[bytes]:
    """The blocks of whole lines a file is read in, of about `_BLOCK_BYTES`
    each. Every block ends at a ``\\n`` but the last, when the file does
    not. An unreadable file is an `InputError` naming the path."""
    try:
        with open(path, "rb") as fh:
            while block := fh.read(_BLOCK_BYTES):
                if not block.endswith(b"\n"):
                    block += fh.readline()
                yield block
    except OSError as exc:
        raise InputError(str(exc), path=path) from exc


def _numbered(blocks: Iterable[bytes]) -> Iterator[tuple[int, bytes]]:
    """``(line number of its first line, block)`` for each of a file's
    ``blocks`` of whole lines, for the readers that report lines."""
    lineno = 1
    for block in blocks:
        yield lineno, block
        lineno += block.count(b"\n")


def _lines(path, first: int, block: bytes) -> Iterator[tuple[int, str]]:
    """(line_number, stripped_text) for the non-blank lines of ``block``,
    whole lines of ``path`` from line ``first``, decoded at once. Lines end
    at ``\\n`` only, as in JSON Lines, and no UTF-8 sequence holds one. Bytes
    that are not UTF-8 are an `InputError` naming the path and the line,
    raised after the lines before it are yielded."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        yield from _lines(path, first, block[: block.rfind(b"\n", 0, exc.start) + 1])
        lineno = first + block.count(b"\n", 0, exc.start)
        raise InputError(f"not UTF-8 ({exc.reason})", path=path, line=lineno) from None
    for lineno, line in enumerate(text.split("\n"), start=first):
        if line := line.strip():
            yield lineno, line


def _separator(line: str) -> str | None:
    """The separator a file's first data row sets: tab if the row holds
    one, else comma if it holds one."""
    return "\t" if "\t" in line else "," if "," in line else None


def _plain_cells(block: bytes, sep: str, width: int) -> list[str] | None:
    """The fields of a plain block, row after row, or None for any other
    block. A block is plain when it is ASCII, ends at a ``\\n``, holds no
    whitespace but ``sep`` and ``\\n``, has no ``#`` line, and each of its
    rows has ``width`` fields, none empty (so no line is blank). Then
    `str.strip` changes no line and no field, so each field is the text the
    row loop would read."""
    if not block.isascii() or not block.endswith(b"\n"):
        return None
    pattern = (sep * (width - 1) + "\n").encode() * block.count(b"\n")
    if block.translate(None, _FIELD_BYTES[sep]) != pattern:
        return None
    text = block.decode("ascii")
    if text.startswith("#") or "\n#" in text:
        return None
    cells = text.replace("\n", sep).split(sep)
    cells.pop()  # the empty text after the last "\n"
    return cells if all(cells) else None


def _split_rows(
    path, empty: str, take_plain: Callable[[bytes, str, int], bool]
) -> Iterator[tuple[int, str, list[str]]]:
    """The data rows (not blank, not ``#`` comments) of a tab- or
    comma-separated file as ``(line_number, separator, stripped fields)``,
    streamed, so a bad row raises when it is reached. The separator is
    detected from the first data row. A file with no data rows is an
    `InputError` with the message ``empty``.

    Each block of whole lines is first offered to ``take_plain(block, sep,
    first_line)``, which reads the rows of a plain block (see
    `_plain_cells`) itself and returns True when every one of them passes
    the row checks. Only the rows of a block it refuses are yielded, so the
    caller's row loop decides, raises and warns for every such row. A
    plain block's first line is a data row, so until the separator is known
    it is offered with the one its first line would set. A UTF-8 byte-order
    mark that starts the file is dropped: it is no part of the first id."""
    sep = None
    for first, block in _numbered(_blocks(path)):
        if first == 1:
            block = block.removeprefix(codecs.BOM_UTF8)
        guess = sep or _separator(block[: block.find(b"\n")].decode("latin-1"))
        if guess and take_plain(block, guess, first):
            sep = guess
            continue
        for lineno, line in _lines(path, first, block):
            if line.startswith("#"):
                continue
            if sep is None:
                sep = _separator(line)
                if sep is None:
                    raise InputError(
                        "cannot detect separator (expected tab or comma)",
                        path=path,
                        line=lineno,
                    )
            yield lineno, sep, [f.strip() for f in line.split(sep)]
    if sep is None:
        raise InputError(empty, path=path)


def load_graph(edge_file, label_file) -> LabeledGraph:
    """Load a labeled graph from an edge-list file and an opinion-label file.

    The label file is read first. Label rows are ``u <sep> opinion_index``,
    every index below the number of labeled nodes; the labeled ids are the
    nodes, so one in no edge row is an isolated node. Edge rows are ``u <sep>
    v [<sep> weight]`` with weight defaulting to 1.0; duplicate and reversed
    rows are merged by summing, self-loop rows are dropped with a counted
    warning. An edge end without a label, a weight outside [MIN_WEIGHT,
    MAX_WEIGHT], a merged total weight above MAX_WEIGHT, or an empty edge
    set is a hard error. Every row error names its ``path:line``, and the
    first bad row wins: the label file's before the edge file's.
    """
    opinions = _load_labels(label_file)
    index = dict(zip(opinions, range(len(opinions))))
    # int64/float64 buffers, which numpy reads without a copy
    ends, weights = array("q"), array("d")
    self_loops = 0

    def take_plain(block: bytes, sep: str, first: int) -> bool:
        cells = _plain_cells(block, sep, 3)
        if cells is None:
            return False
        try:
            block_weights = list(map(float, cells[2::3]))
        except ValueError:
            return False
        del cells[2::3]
        block_ends = list(map(index.get, cells))
        if not (
            math.isfinite(sum(block_weights))  # no nan, so min and max hold
            and MIN_WEIGHT <= min(block_weights)
            and max(block_weights) <= MAX_WEIGHT
            and None not in block_ends
            and not any(map(operator.eq, block_ends[0::2], block_ends[1::2]))
        ):
            return False
        ends.fromlist(block_ends)
        weights.fromlist(block_weights)
        return True

    for lineno, sep, fields in _split_rows(
        edge_file, "edge file contains no edges", take_plain
    ):
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
        for node in (u, v):
            if (i := index.get(node)) is None:
                raise InputError(
                    f"node {node!r} from edge file has no label",
                    path=edge_file,
                    line=lineno,
                )
            ends.append(i)
        weights.append(w)
    if self_loops:
        logger.warning("%s: dropped %d self-loop edge row(s)", edge_file, self_loops)
    if not weights:
        raise InputError("edge file contains no usable edges", path=edge_file)

    try:
        return LabeledGraph(list(opinions), ends, weights, list(opinions.values()))
    except ValueError as exc:
        # rows and labels are checked above; what is left is the total weight
        raise InputError(str(exc), path=edge_file) from None


def _load_labels(label_file) -> dict[str, int]:
    opinions: dict[str, int] = {}
    top, top_line = 0, 0  # the largest index, which sizes the census, and its line

    def take_plain(block: bytes, sep: str, first: int) -> bool:
        nonlocal top, top_line
        cells = _plain_cells(block, sep, 2)
        if cells is None or not "".join(raws := cells[1::2]).isdigit():
            return False
        try:
            block_opinions = list(map(int, raws))
        except ValueError:  # more digits than int() converts
            return False
        fresh = dict(zip(cells[0::2], block_opinions))
        if len(fresh) < len(block_opinions) or not opinions.keys().isdisjoint(fresh):
            return False
        opinions.update(fresh)
        if (most := max(block_opinions)) > top:
            top, top_line = most, first + block_opinions.index(most)
        return True

    for lineno, sep, fields in _split_rows(label_file, "label file is empty", take_plain):
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
    data = Path(__file__).with_name("data")
    return load_graph(data / "karate_edges.tsv", data / "karate_factions.tsv")


# -- writers ----------------------------------------------------------------


@contextlib.contextmanager
def _open_out(path) -> Iterator[BinaryIO]:
    """A file opened for writing bytes, which callers give as UTF-8 with
    ``\\n`` newlines. A file that cannot be created or written (a missing
    directory, no permission, a full disk) is an `InputError` naming the
    path."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise InputError(str(exc), path=path) from exc


# in "\n" + "\n".join(ids) + "\n" with no "\n" inside an id: a "\n" followed
# by whitespace or "#" (an id that is empty or starts with either) or preceded
# by whitespace (an id that ends with it); a pattern led by a literal is
# scanned for quickly. Regex ``\s`` and ``str.strip`` agree on whitespace.
_BAD_ID_END = re.compile(r"\n(?:[\s#]|(?<=\s\n))")


def _ids_fault(texts: Sequence[str]) -> str | None:
    """Why an id in ``texts`` would not read back as itself from a graph
    file, or None: the reader splits rows on tabs and newlines, skips ``#``
    lines, strips fields and reads UTF-8. The ids are checked joined, in a
    few passes over one string, so a graph's ids take one call and a single
    id is checked as ``(text,)``."""
    joined = "\n" + "\n".join(texts) + "\n"
    if joined.count("\n") != len(texts) + 1 or "\t" in joined:
        return "holds a tab or a newline"
    if bad := _BAD_ID_END.search(joined):
        if bad[0] == "\n#":
            return "starts with '#'"
        return "is empty or has surrounding whitespace"
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError:
        return "cannot be encoded as UTF-8"
    return None


def _check_node_ids(graph: LabeledGraph) -> Sequence[str]:
    """The id texts (each node's ``str``) in node order, which the graph
    files hold, or a ValueError naming the first node whose text
    `_ids_fault` rejects or another node's id shares, since the files would
    read back as another graph. Distinct ``str`` ids have distinct texts, so
    only a graph with other ids has its texts counted."""
    nodes = graph.nodes
    try:
        fault = _ids_fault(nodes)
    except TypeError:  # the join met an id that is not a str
        texts = [str(u) for u in nodes]
        shared = {t for t, count in collections.Counter(texts).items() if count > 1}
        fault = shared or _ids_fault(texts)
    else:
        texts, shared = nodes, set()
    if not fault:
        return texts
    for node, text in zip(nodes, texts):
        fault = _ids_fault((text,)) or ("is another node's too" if text in shared else None)
        if fault:
            raise ValueError(
                f"node {node!r}: its text {text!r} {fault}, "
                "so the graph files cannot hold it"
            )


def _table(texts: Iterable[str]) -> tuple[bytes, np.ndarray]:
    """A text table of at least one text, none holding a ``\\n``: their UTF-8
    bytes, each followed by ``\\n``, and the int64 offsets at which each
    starts, then the end."""
    text = ("\n".join(texts) + "\n").encode("utf-8")
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
    return text, np.concatenate([np.zeros(1, np.int64), ends])


def _write_rows(path, columns) -> None:
    """Write the rows of ``columns``, ``(table, index)`` pairs (see `_table`),
    to ``path``: row r holds the ``index[r]``-th text of each column's table,
    the texts joined by tabs and the row ended by ``\\n``. The distinct tables
    are joined once; then each `_WRITE_ROWS` rows are one gather of every
    cell's bytes with the ``\\n`` after them, which is made a tab in all
    columns but the last."""
    tables = {id(table): table for table, _ in columns}  # a table may serve two columns
    text = np.frombuffer(b"".join(t for t, _ in tables.values()), np.uint8)
    shift = dict(zip(tables, np.cumsum([0, *(len(t) for t, _ in tables.values())]).tolist()))
    starts = [table[1] + shift[id(table)] for table, _ in columns]
    with _open_out(path) as fh:
        for i in range(0, len(columns[0][1]), _WRITE_ROWS):
            cells = [(s, index[i : i + _WRITE_ROWS]) for s, (_, index) in zip(starts, columns)]
            first = np.column_stack([s[k] for s, k in cells]).ravel()
            size = np.column_stack([s[k + 1] for s, k in cells]).ravel() - first
            end = np.cumsum(size)
            at = np.repeat(first - end + size, size)
            at += np.arange(len(at))
            out = text[at]
            out[end.reshape(-1, len(columns))[:, :-1] - 1] = ord("\t")
            fh.write(out)


def write_edge_list(graph: LabeledGraph, path) -> None:
    """Tab-separated ``u v w`` rows in ``edge_arrays()`` order, each weight
    as its ``repr``. A node id the file cannot hold is a ValueError (see
    `_check_node_ids`); each id is written as the text checked there."""
    ids = _table(_check_node_ids(graph))
    iu, iv, w = graph.edge_arrays()
    weights, inverse = np.unique(w, return_inverse=True)
    _write_rows(path, [(ids, iu), (ids, iv), (_table(map(repr, weights.tolist())), inverse)])


def write_labels(graph: LabeledGraph, path) -> None:
    """Tab-separated ``u opinion`` rows in node order. A node id the file
    cannot hold is a ValueError (see `_check_node_ids`); each id is written
    as the text checked there."""
    ids = _table(_check_node_ids(graph))
    # a table of the labels present, not of every opinion below the count
    labels, inverse = np.unique(graph.opinion_array(), return_inverse=True)
    _write_rows(
        path,
        [(ids, np.arange(graph.node_count)), (_table(map(str, labels.tolist())), inverse)],
    )


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
        fh.write(text.encode("utf-8"))


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
        fh.write(sweep_csv(cells).encode("utf-8"))
