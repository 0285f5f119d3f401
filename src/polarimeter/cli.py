"""Command-line front end: analyze graphs, run grid sweeps, ingest archives.

Every command is fully specified by flags (no prompts), and identical flags
on identical inputs produce byte-identical outputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import sys

from .community import LouvainConfig
from .errors import InputError
from .io import (
    _json_dumps,
    load_graph,
    load_karate,
    report_json,
    save_report,
    sweep_csv,
    write_edge_list,
    write_labels,
    write_sweep_csv,
)
from .metric import analyze
from .stance import OPINION_NAMES, build_retweet_network, read_stance_records
from .synthetic import SbmConfig, generate_sbm, sweep

DEFAULT_RUNS = 100
DEFAULT_SEED = 42
# Block-model surrogate densities for the sweep command (5,000-node scale).
SBM_P_IN = 0.05
SBM_P_OUT = 0.001


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures surface as input errors (exit code 1)."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polarimeter",
        description="Polarization scoring for opinion-labeled weighted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common_run_flags(p: _Parser):
        p.add_argument(
            "--runs",
            type=int,
            default=DEFAULT_RUNS,
            help="community-detection runs to average (default: %(default)s)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help="base seed; run r uses seed+r (default: %(default)s)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker threads for the Louvain runs (default: %(default)s); "
            "results are identical for any value",
        )

    p_analyze = sub.add_parser(
        "analyze", help="score one labeled graph and write a report"
    )
    p_analyze.add_argument("--graph", required=True, help="edge list file")
    p_analyze.add_argument("--labels", required=True, help="node opinion file")
    common_run_flags(p_analyze)
    p_analyze.add_argument(
        "--out",
        default=None,
        help="report path, .csv for a flat table, anything else JSON "
        "(default: JSON to stdout)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sweep = sub.add_parser(
        "sweep", help="mean score over a dominance-ratio / opinion-count grid"
    )
    p_sweep.add_argument(
        "--sbm",
        default=None,
        metavar="BLOCKSxNODES",
        help="use a planted block-model graph, e.g. 20x250 "
        f"(p_in={SBM_P_IN}, p_out={SBM_P_OUT})",
    )
    p_sweep.add_argument("--graph", default=None, help="edge list file")
    p_sweep.add_argument(
        "--labels",
        default=None,
        help="opinion file for --graph; labels are replaced per grid cell",
    )
    p_sweep.add_argument(
        "--dom-ratios",
        default="0.3:1.0:0.1",
        help="grid as start:stop:step or comma list (default: %(default)s)",
    )
    p_sweep.add_argument(
        "--num-opinions",
        default="2:10",
        help="grid as lo:hi[:step] or comma list (default: %(default)s)",
    )
    common_run_flags(p_sweep)
    p_sweep.add_argument(
        "--out", default=None, help="CSV path (default: stdout)"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_build = sub.add_parser(
        "build-network", help="turn a stance-labeled tweet archive into graph files"
    )
    p_build.add_argument("--records", required=True, help="JSON-lines tweet archive")
    p_build.add_argument(
        "--out",
        default="network",
        metavar="PREFIX",
        help="output prefix; writes PREFIX.edges.tsv, PREFIX.labels.tsv, "
        "PREFIX.names.json (default: %(default)s)",
    )
    p_build.set_defaults(func=_cmd_build_network)

    p_demo = sub.add_parser(
        "demo-karate", help="score the bundled karate-club network"
    )
    common_run_flags(p_demo)
    p_demo.add_argument(
        "--out", default=None, help="report path (default: JSON to stdout)"
    )
    p_demo.set_defaults(func=_cmd_demo_karate)

    return parser


def _positive_int(name: str, value: int) -> int:
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    return value


def _parse_sbm(text: str, seed: int) -> SbmConfig:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InputError(f"--sbm expects BLOCKSxNODES (e.g. 20x250), got {text!r}")
    try:
        blocks, per_block = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"--sbm expects BLOCKSxNODES (e.g. 20x250), got {text!r}")
    if blocks < 1 or per_block < 1:
        raise InputError(f"--sbm sizes must be >= 1, got {text!r}")
    return SbmConfig(blocks, per_block, SBM_P_IN, SBM_P_OUT, seed=seed)


def _parse_grid(flag: str, text: str, cast, valid, bound: str) -> list:
    """start:stop[:step] inclusive range, or a comma-separated value list.

    Every value must pass ``valid``; ``bound`` describes the allowed values
    in the error. A range is monotone, so its two ends are checked before it
    is expanded: a ``stop`` past the bound fails at once, whatever count it
    asks for.
    """
    text = text.strip()
    try:
        if ":" in text:
            parts = [cast(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop = parts
                step = cast(1) if cast is int else 0.1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("too many ':' fields")
            if step <= 0 or stop < start:
                raise ValueError("need stop >= start and step > 0")
            count = int((stop - start) / step + 1e-9) + 1

            def expand(ks):
                values = [start + k * step for k in ks]
                return [round(v, 10) for v in values] if cast is float else values

            candidates = expand([0, count - 1])
        else:
            candidates = [cast(p) for p in text.split(",") if p.strip()]
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{flag}: cannot parse grid {text!r} ({exc})")
    if not candidates:
        raise InputError(f"{flag}: grid {text!r} is empty")
    for value in candidates:
        if not valid(value):
            raise InputError(f"{flag} values must be {bound}, got {value}")
    return expand(range(count)) if ":" in text else candidates


def _cmd_analyze(args) -> int:
    return _analyze_and_emit(load_graph(args.graph, args.labels), args)


def _cmd_demo_karate(args) -> int:
    return _analyze_and_emit(load_karate(), args)


def _analyze_and_emit(graph, args) -> int:
    report = analyze(
        graph,
        LouvainConfig(seed=args.seed),
        runs=_positive_int("--runs", args.runs),
        threads=_positive_int("--threads", args.threads),
    )
    if args.out is None:
        sys.stdout.write(report_json(report))
    else:
        save_report(report, args.out)
    return 0


def _cmd_sweep(args) -> int:
    if (args.sbm is None) == (args.graph is None):
        raise InputError("sweep needs exactly one of --sbm or --graph")
    runs = _positive_int("--runs", args.runs)
    threads = _positive_int("--threads", args.threads)
    ratios = _parse_grid(
        "--dom-ratios", args.dom_ratios, float, lambda r: 0.0 < r <= 1.0, "in (0, 1]"
    )
    opinion_counts = _parse_grid(
        "--num-opinions", args.num_opinions, int, lambda c: c >= 2, ">= 2"
    )

    if args.sbm is not None:
        graph, partition = generate_sbm(_parse_sbm(args.sbm, seed=args.seed))
    else:
        if args.labels is None:
            raise InputError("sweep --graph also needs --labels")
        graph = load_graph(args.graph, args.labels)
        partition = None

    cells = sweep(
        graph,
        dom_ratios=ratios,
        num_opinions_list=opinion_counts,
        runs=runs,
        seed=args.seed,
        partition=partition,
        threads=threads,
    )
    if args.out is None:
        sys.stdout.write(sweep_csv(cells))
    else:
        write_sweep_csv(cells, args.out)
    return 0


def _cmd_build_network(args) -> int:
    records = read_stance_records(args.records)
    graph = build_retweet_network(records)
    prefix = args.out
    write_edge_list(graph, prefix + ".edges.tsv")
    write_labels(graph, prefix + ".labels.tsv")
    names = {str(i): name for i, name in enumerate(OPINION_NAMES)}
    with open(prefix + ".names.json", "w", encoding="utf-8") as fh:
        fh.write(_json_dumps(names) + "\n")
    sys.stdout.write(
        f"wrote {prefix}.edges.tsv {prefix}.labels.tsv {prefix}.names.json "
        f"({graph.node_count} nodes, {graph.edge_count} edges)\n"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        if code is None or code == 0:
            return 0
        return int(code)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
