"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, lists the CLI
invocations a run cycles through, checks their outputs, names its set-up
probe, computes ``modularity_mean`` and replays its pipeline in-process
through the package's public functions for the traced run.

Why these three (see README.md for the full table):

- ``analyze-sbm``: the paper's main use; Louvain is nearly all of the work,
  and ``--threads 2`` runs the metric process pool.
- ``sweep-sbm``: the only workload that runs ``synthetic``: block-model
  generation, a relabel (full graph rebuild) per cell and the sweep pool.
- ``build-network``: no Louvain at all; stance parsing, string-id graph
  construction and the writers do the work, so a Louvain-only change should
  leave it unchanged.

Successive invocations of one run take successive seed schedules drawn from
the benchmark seed, and the run ends by repeating the first. Louvain's time
depends strongly on (graph, seed): a few seeds take twice the usual number of
passes. A median over distinct schedules keeps one unlucky seed from setting
the run's figure; the repeat gives the byte-identity check its reference.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from pathlib import Path

import checks
import fixtures


class Workload:
    name = ""
    threads = 1
    runs = 1
    schedules = 32
    # files an invocation writes into its directory, compared with stdout
    output_files: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        rng = random.Random(seed)
        self.cli_seeds = [rng.randrange(1_000_000) for _ in range(self.schedules)]

    def prepare(self) -> None:
        """Write the inputs into ``self.work``."""

    def params(self) -> dict:
        raise NotImplementedError

    def invocations(self) -> list[list[str]]:
        """Arguments after ``python -m polarimeter.cli``, one list per schedule."""
        raise NotImplementedError

    def check(self, k: int, out: Path, stdout: str) -> list[str]:
        """Problems in the output of schedule ``k``, written into ``out``."""
        raise NotImplementedError

    def setup_probe(self) -> list[str]:
        raise NotImplementedError

    def modularity_mean(self, first_out: Path) -> float:
        """Mean modularity of ``louvain`` over the first schedule's seeds."""
        raise NotImplementedError

    def replay(self, tr, out: Path) -> dict:
        """Run the first schedule's pipeline in-process, spans around each call.

        Returns facts of the pass: ``pool`` = (layer, serial busy seconds,
        workers x wall seconds of the pooled call doing the same work).
        """
        raise NotImplementedError


def _mean_modularity(graph, seed: int, runs: int) -> float:
    from polarimeter import LouvainConfig, louvain, modularity

    values = [
        modularity(graph, louvain(graph, LouvainConfig(seed=seed + r)))
        for r in range(runs)
    ]
    return math.fsum(values) / runs


def _singleton_modularity(graph) -> float:
    from polarimeter import Partition, modularity

    assignment = {u: i for i, u in enumerate(graph.nodes)}
    return modularity(graph, Partition(assignment=assignment, k=len(assignment)))


def _traced_louvain(tr, graph, config, q_start: float):
    """``louvain`` in a span; counts levels, passes and useful passes.

    A pass is useful when its modularity gain exceeds ``min_modularity_gain``;
    gains chain across levels because aggregation preserves modularity.
    """
    from polarimeter import louvain

    if not tr.enabled:
        return louvain(graph, config)
    passes: list[tuple[int, float]] = []
    partition = tr.call(
        "community.louvain",
        louvain,
        graph,
        config,
        pass_hook=lambda level, index, q: passes.append((level, q)),
    )
    useful, previous = 0, q_start
    for _, q in passes:
        useful += q - previous > config.min_modularity_gain
        previous = q
    tr.count("community.levels", passes[-1][0] + 1)
    tr.count("community.passes", len(passes))
    tr.count("community.useful_passes", useful)
    tr.count("community.k", partition.k)
    return partition


def _replay_runs(tr, graph, seed: int, runs: int, q_start: float) -> list[float]:
    """``analyze``'s serial body: census, scale, then louvain + score per run."""
    import polarimeter as pm

    tr.call("graph.adjacency", graph.adjacency)
    tr.call("graph.edge_arrays", graph.edge_arrays)
    counts = tr.call("graph.census", pm.census, graph)
    scaled = tr.call("metric.scale_weights", pm.scale_weights, graph, counts)
    scores = []
    for r in range(runs):
        partition = _traced_louvain(tr, graph, pm.LouvainConfig(seed=seed + r), q_start)
        _, _, p = tr.call("metric.score_partition", pm.score_partition, graph, scaled, partition)
        tr.count("metric.score_calls")
        scores.append(p)
    return scores


def _replay_analyze(tr, graph, seed: int, runs: int, threads: int, out: Path) -> dict:
    """Serial replay, then the public ``analyze`` at the workload's threads."""
    import polarimeter as pm

    q_start = _singleton_modularity(graph) if tr.enabled else 0.0
    busy_start = time.perf_counter()
    scores = _replay_runs(tr, graph, seed, runs, q_start)
    busy = time.perf_counter() - busy_start
    pool_start = time.perf_counter()
    report = tr.call(
        "metric.analyze", pm.analyze, graph, pm.LouvainConfig(seed=seed), runs=runs, threads=threads
    )
    capacity = threads * (time.perf_counter() - pool_start)
    path = out / "report.json"
    tr.call("io.write", pm.save_report, report, path)
    tr.count("io.write_bytes", path.stat().st_size)
    return {"replay_mean_p": math.fsum(scores) / runs, "pool": ("metric", busy, capacity)}


class AnalyzeSbm(Workload):
    name = "analyze-sbm"
    threads = 2
    runs = 4
    blocks, nodes_per_block = 20, 250
    dom_ratio, num_opinions = 0.8, 2
    # Louvain needs about a fifth more passes on some planted graphs than on
    # others, so the schedules cycle over several graphs, not one
    graphs = 4

    def prepare(self):
        # graph j is made from schedule j's seed; schedule k runs on graph k % graphs
        self.graph_files = []
        for j in range(self.graphs):
            directory = self.work / f"graph{j}"
            directory.mkdir()
            self.graph_files.append(fixtures.write_sbm_fixture(
                directory, self.cli_seeds[j], self.blocks, self.nodes_per_block,
                self.dom_ratio, self.num_opinions,
            ))

    def params(self):
        return {
            "sbm": f"{self.blocks}x{self.nodes_per_block}",
            "p_in": fixtures.SBM_P_IN,
            "p_out": fixtures.SBM_P_OUT,
            "dom_ratio": self.dom_ratio,
            "num_opinions": self.num_opinions,
            "graphs": [{"nodes": f["nodes"], "edges": f["edge_count"]} for f in self.graph_files],
            "runs": self.runs,
            "threads": self.threads,
            "cli_seeds": self.cli_seeds,
        }

    def invocations(self):
        return [
            ["analyze", "--graph", f["edges"], "--labels", f["labels"], "--runs", str(self.runs),
             "--seed", str(s), "--threads", str(self.threads)]
            for f, s in zip(itertools.cycle(self.graph_files), self.cli_seeds)
        ]

    def check(self, k, out, stdout):
        f = self.graph_files[k % self.graphs]
        return checks.check_report(stdout, f["nodes"], f["edge_count"], self.runs)

    def setup_probe(self):
        return ["sbm", self.graph_files[0]["edges"], self.graph_files[0]["labels"]]

    def modularity_mean(self, first_out):
        from polarimeter import load_graph

        graph = load_graph(self.graph_files[0]["edges"], self.graph_files[0]["labels"])
        return _mean_modularity(graph, self.cli_seeds[0], self.runs)

    def replay(self, tr, out):
        from polarimeter import load_graph

        f = self.graph_files[0]
        graph = tr.call("io.load_graph", load_graph, f["edges"], f["labels"])
        return _replay_analyze(tr, graph, self.cli_seeds[0], self.runs, self.threads, out)


class SweepSbm(Workload):
    name = "sweep-sbm"
    threads = 2
    runs = 1
    blocks, nodes_per_block = 20, 250
    dom_ratios = [0.4, 0.6, 0.8, 1.0]
    num_opinions = [2, 5]

    def params(self):
        return {
            "sbm": f"{self.blocks}x{self.nodes_per_block}",
            "dom_ratios": self.dom_ratios,
            "num_opinions": self.num_opinions,
            "runs": self.runs,
            "threads": self.threads,
            "cli_seeds": self.cli_seeds,
        }

    def invocations(self):
        return [
            ["sweep", "--sbm", f"{self.blocks}x{self.nodes_per_block}",
             "--dom-ratios", ",".join(map(str, self.dom_ratios)),
             "--num-opinions", ",".join(map(str, self.num_opinions)),
             "--runs", str(self.runs), "--threads", str(self.threads), "--seed", str(s)]
            for s in self.cli_seeds
        ]

    def check(self, k, out, stdout):
        return checks.check_sweep_csv(stdout, self.dom_ratios, self.num_opinions, self.runs)

    def _config(self):
        return fixtures.sbm_config(self.cli_seeds[0], self.blocks, self.nodes_per_block)

    def setup_probe(self):
        return ["sbm-gen", str(self.cli_seeds[0]), str(self.blocks), str(self.nodes_per_block)]

    def modularity_mean(self, first_out):
        from polarimeter import generate_sbm

        graph, _ = generate_sbm(self._config())
        return _mean_modularity(graph, self.cli_seeds[0], self.runs)

    def replay(self, tr, out):
        import polarimeter as pm

        seed = self.cli_seeds[0]
        graph, planted = tr.call("synthetic.generate_sbm", pm.generate_sbm, self._config())
        # relabeling keeps the structure, so every cell starts from this value
        q_start = _singleton_modularity(graph) if tr.enabled else 0.0
        master = random.Random(seed)  # per-cell seeds drawn as sweep draws them
        cells = [(k, r, master.randrange(2**62)) for k in self.num_opinions for r in self.dom_ratios]
        busy_start = time.perf_counter()
        for k, ratio, cell_seed in cells:
            label_config = pm.SyntheticLabelConfig(ratio, k, seed=cell_seed)
            labeled = tr.call("synthetic.relabel", pm.relabel, graph, planted, label_config)
            _replay_runs(tr, labeled, cell_seed, self.runs, q_start)
            tr.count("synthetic.cells")
        busy = time.perf_counter() - busy_start
        pool_start = time.perf_counter()
        result = tr.call(
            "synthetic.sweep", pm.sweep, graph, self.dom_ratios, self.num_opinions,
            runs=self.runs, seed=seed, partition=planted, threads=self.threads,
        )
        capacity = self.threads * (time.perf_counter() - pool_start)
        path = out / "sweep.csv"
        tr.call("io.write", pm.write_sweep_csv, result, path)
        tr.count("io.write_bytes", path.stat().st_size)
        return {"pool": ("synthetic", busy, capacity)}


class BuildNetwork(Workload):
    name = "build-network"
    schedules = 1
    records = 120_000
    output_files = ("net.edges.tsv", "net.labels.tsv", "net.names.json")

    def prepare(self):
        self.archive = self.work / "archive.jsonl"
        self.truth = fixtures.write_stance_fixture(self.archive, self.seed, records=self.records)

    def params(self):
        return {"records": self.records, "truth": self.truth}

    def invocations(self):
        return [["build-network", "--records", str(self.archive), "--out", "net"]]

    def check(self, k, out, stdout):
        problems = checks.check_network(
            (out / "net.edges.tsv").read_text(encoding="utf-8"),
            (out / "net.labels.tsv").read_text(encoding="utf-8"),
            self.truth["events"],
            self.truth["users"],
        )
        if f"({self.truth['users']} nodes," not in stdout:
            problems.append(f"stdout does not report {self.truth['users']} nodes: {stdout!r}")
        return problems

    def setup_probe(self):
        return ["stance", str(self.archive)]

    def modularity_mean(self, first_out):
        # no Louvain in this workload: score the network it built, which is
        # what `analyze` on its output would start from
        from polarimeter import load_graph

        graph = load_graph(first_out / "net.edges.tsv", first_out / "net.labels.tsv")
        return _mean_modularity(graph, self.cli_seeds[0], self.runs)

    def replay(self, tr, out):
        import polarimeter as pm

        records = tr.call("stance.read_records", pm.read_stance_records, self.archive)
        tr.count("stance.records", len(records))
        graph = tr.call("stance.build_network", pm.build_retweet_network, records)
        tr.count("stance.users", graph.node_count)
        for writer, path in ((pm.write_edge_list, out / "net.edges.tsv"),
                             (pm.write_labels, out / "net.labels.tsv")):
            tr.call("io.write", writer, graph, path)
            tr.count("io.write_bytes", path.stat().st_size)
        return {}


WORKLOADS = {w.name: w for w in (AnalyzeSbm, SweepSbm, BuildNetwork)}
