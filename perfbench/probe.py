"""Fresh-process probes, started by run.py with the package on PYTHONPATH.

    python3 probe.py import
        prints the seconds ``import polarimeter.cli`` took in this process.
    python3 probe.py setup sbm EDGES LABELS | stance RECORDS
    python3 probe.py setup sbm-gen SEED BLOCKS NODES_PER_BLOCK
        imports the package, loads the workload's input, builds the graph's
        adjacency and edge arrays, and prints ``time.monotonic()`` at that
        point; the parent subtracts its own clock reading taken before the
        spawn, so set-up time runs from process start to a ready graph.

Only ``sys`` and ``time`` are imported before the timed region.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import polarimeter.cli  # noqa: F401

    if argv[0] == "import":
        print(repr(time.perf_counter() - start))
        return 0

    import polarimeter as pm

    kind, args = argv[1], argv[2:]
    if kind == "sbm":
        graph = pm.load_graph(args[0], args[1])
    elif kind == "sbm-gen":
        from fixtures import sbm_config

        graph, _ = pm.generate_sbm(sbm_config(*map(int, args)))
    elif kind == "stance":
        # build-network's input load; its graph is the command's output, not
        # a Louvain input, so readiness stops at the parsed records
        pm.read_stance_records(args[0])
        graph = None
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 1
    if graph is not None:
        graph.adjacency()
        graph.edge_arrays()
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
