"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``.
With ``--trace 0`` the run invokes ``python -m polarimeter.cli`` as real
subprocesses for S seconds and reports the end-to-end metrics; with
``--trace 1`` it replays the workload in-process through the package's public
functions, with spans around each call, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the sample counts, the workload parameters and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
IMPORT_PROBES = 5
# ten times the slowest invocation at the parent commit
CHILD_LIMIT_S = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], cwd: Path, stdout: Path) -> tuple[float, float, int]:
    """Run a child to completion: (wall seconds, peak RSS MB of its tree, exit code).

    ``wait4`` reports the largest resident set of the child and of every
    descendant it waited for, such as pool workers. A child still running
    after ``CHILD_LIMIT_S`` is killed, and counts as failed.
    """
    with open(stdout, "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=_child_env())
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _probe(args: list[str], cwd: Path) -> float:
    """Run probe.py in a fresh process; return the seconds it reports.

    Raises RuntimeError when the probe exits non-zero or prints no number.
    """
    stdout = cwd / "probe.out"
    start = time.monotonic()
    _, _, code = _spawn([sys.executable, str(Path(__file__).with_name("probe.py")), *args],
                        cwd, stdout)
    if code != 0:
        raise RuntimeError(f"probe {args[:2]} exited {code}: {(cwd / 'stderr').read_text()[-500:]}")
    try:
        value = float(stdout.read_text())
    except ValueError as exc:
        raise RuntimeError(f"probe {args[:2]} printed no number: {exc}") from None
    return value - start if args[0] == "setup" else value


def _invoke(wl, k: int, out: Path) -> tuple[float, float, list[str], bytes]:
    """Invoke schedule ``k``: wall, peak RSS, problems found, output bytes."""
    stdout = out / "stdout"
    argv = wl.invocations()[k]
    wall, rss, code = _spawn([sys.executable, "-m", "polarimeter.cli", *argv], out, stdout)
    if code != 0:
        err = (out / "stderr").read_text(errors="replace")[-500:]
        return wall, rss, [f"exit code {code}: {err}"], b""
    try:
        problems = wl.check(k, out, stdout.read_text(encoding="utf-8"))
        output = b"\0".join([stdout.read_bytes(), *((out / f).read_bytes() for f in wl.output_files)])
    except (OSError, UnicodeDecodeError) as exc:  # a missing or undecodable output file
        return wall, rss, [f"unreadable output: {exc}"], b""
    return wall, rss, problems, output


def timed_run(wl, seconds: float, work: Path) -> tuple[dict, dict]:
    """Invoke the workload's schedules in turn for ``seconds``, then repeat
    the first one, whose output must match its first invocation byte for
    byte. A set-up probe runs after every invocation, and a failed probe
    fails the invocation it follows."""
    schedules = len(wl.invocations())
    walls, peaks, setups, problems = [], [], [], []
    references: dict[int, tuple[bytes, Path]] = {}
    failed = i = 0
    start = time.monotonic()
    deadline = start + seconds
    while True:
        # start the final repeat when less than one and a half invocations
        # (with their probes) are left, so the run ends near the deadline
        now = time.monotonic()
        last = i > 0 and deadline - now < 1.5 * (now - start) / i
        k = 0 if last else i % schedules
        out = work / f"inv{i}"
        out.mkdir()
        wall, peak, found, output = _invoke(wl, k, out)
        if k in references and output != references[k][0]:
            found.append(f"output differs from the first invocation of schedule {k}")
        try:
            setups.append(_probe(["setup", *wl.setup_probe()], work))
        except RuntimeError as exc:
            found.append(str(exc))
        if found:
            failed += 1
            problems.extend(f"invocation {i}: {p}" for p in found[:3])
        if k not in references:
            references[k] = (output, out)
        else:
            shutil.rmtree(out)
        walls.append(wall)
        peaks.append(peak)
        i += 1
        if last:
            break

    metrics = {
        "wall_s": (spans.median(walls), "s", len(walls)),
        "setup_s": (spans.median(setups), "s", len(setups)),
        "peak_rss_mb": (spans.median(peaks), "MB", len(peaks)),
        "ok_ratio": (1.0 - failed / i, "ratio", i),
    }
    try:
        modularity = wl.modularity_mean(references[0][1])
    except Exception as exc:  # the program failed outside the timed window
        problems.append(f"modularity_mean: {type(exc).__name__}: {exc}")
        modularity = 0.0
    metrics["modularity_mean"] = (modularity, "Q", wl.runs)
    samples = {"wall_s": walls, "setup_s": setups}
    return metrics, {"attempted": i, "failed": failed, "problems": problems, "samples": samples}


def traced_run(wl, seconds: float, work: Path) -> tuple[dict, dict]:
    """In-process replay of the workload, alternating untraced and traced
    passes for ``seconds``; spans stay in memory until the run ends."""
    from polarimeter import graph as graph_module

    out = work / "cli"
    out.mkdir()
    _, _, problems, _ = _invoke(wl, 0, out)
    attempted, failed = 1, int(bool(problems))
    imports = []
    for _ in range(IMPORT_PROBES):
        attempted += 1
        try:
            imports.append(_probe(["import"], work))
        except RuntimeError as exc:
            failed += 1
            problems.append(str(exc))

    tracer = spans.Tracer()
    untraced, traced, efficiency, facts = [], [], [], {}
    original_init = graph_module.LabeledGraph.__init__

    def traced_init(self, *args, **kwargs):
        with tracer.span("graph.build"):
            original_init(self, *args, **kwargs)

    # pairs alternate which pass goes first, so warm-up favours neither
    passes = [(spans.NullTracer(), untraced), (tracer, traced)]
    deadline = time.monotonic() + seconds
    while len(traced) < 2 or time.monotonic() < deadline:
        for tr, totals in passes:
            replay_out = work / f"replay{attempted}"
            replay_out.mkdir()
            attempted += 1
            if tr.enabled:
                graph_module.LabeledGraph.__init__ = traced_init
            start = time.perf_counter()
            try:
                facts = wl.replay(tr, replay_out)
            except Exception as exc:  # a failed replay ends the run
                failed += 1
                problems.append(f"replay: {type(exc).__name__}: {exc}")
                return {}, {"attempted": attempted, "failed": failed, "problems": problems}
            finally:
                graph_module.LabeledGraph.__init__ = original_init
            totals.append(time.perf_counter() - start)
            if not tr.enabled and "pool" in facts:
                layer, busy, capacity = facts["pool"]
                efficiency.append(busy / capacity)
            shutil.rmtree(replay_out)
        passes.reverse()

    if "replay_mean_p" in facts and not problems:
        cli_mean = json.loads((out / "stdout").read_text())["polarization"]["mean"]
        facts["replay_matches_cli"] = f"{facts['replay_mean_p']:.6f}" == f"{cli_mean:.6f}"
    metrics = layer_metrics(tracer, len(traced), imports)
    if efficiency:
        # measured on the untraced passes, whose busy time carries no span cost
        metrics[f"{layer}.pool_efficiency"] = (spans.median(efficiency), "ratio", len(efficiency))
    metrics["trace.overhead_s"] = (spans.median(traced) - spans.median(untraced), "s", len(traced))
    _write_spans(wl, tracer)
    return metrics, {"attempted": attempted, "failed": failed, "problems": problems, **facts}


def layer_metrics(tr: spans.Tracer, replays: int, imports: list[float]) -> dict:
    """Per-layer metrics from the spans and counts of ``replays`` traced passes."""

    def timing(span_name: str, reduce=spans.median):
        values = tr.durations(span_name)
        return reduce(values), "s", len(values)

    def per_replay(count_name: str, unit: str):
        return tr.counts[count_name] / replays, unit, replays

    calls = len(tr.durations("community.louvain"))

    def per_call(count_name: str):
        return (tr.counts[count_name] / calls if calls else 0.0), "count", calls

    passes = tr.counts["community.passes"]
    return {
        "cli.import_s": (spans.median(imports), "s", len(imports)),
        "io.load_graph_s": timing("io.load_graph"),
        "io.write_s": (sum(tr.durations("io.write")) / replays, "s", replays),
        "io.write_bytes": per_replay("io.write_bytes", "bytes"),
        "graph.build_s": timing("graph.build"),
        "graph.adjacency_s": timing("graph.adjacency"),
        "graph.edge_arrays_s": timing("graph.edge_arrays"),
        "community.louvain_s_p50": timing("community.louvain"),
        "community.louvain_s_tail": timing("community.louvain", spans.tail),
        "community.louvain_calls": (calls / replays, "count", replays),
        "community.levels": per_call("community.levels"),
        "community.passes": per_call("community.passes"),
        "community.useful_pass_ratio": (
            (tr.counts["community.useful_passes"] / passes if passes else 0.0), "ratio", int(passes)
        ),
        "community.k_mean": per_call("community.k"),
        "metric.scale_weights_s": timing("metric.scale_weights"),
        "metric.score_partition_s_p50": timing("metric.score_partition"),
        "metric.score_calls": per_replay("metric.score_calls", "count"),
        "metric.pool_efficiency": (0.0, "ratio", 0),
        "synthetic.generate_sbm_s": timing("synthetic.generate_sbm"),
        "synthetic.relabel_s": timing("synthetic.relabel"),
        "synthetic.cells": per_replay("synthetic.cells", "count"),
        "synthetic.pool_efficiency": (0.0, "ratio", 0),
        "stance.read_records_s": timing("stance.read_records"),
        "stance.build_network_s": timing("stance.build_network"),
        "stance.records": per_replay("stance.records", "count"),
        "stance.users": per_replay("stance.users", "count"),
    }


def _write_spans(wl, tr: spans.Tracer) -> None:
    path = OUT / f"spans-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps({"spans": tr.spans, "counts": dict(tr.counts)}) + "\n")


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": None,
    }
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        facts["commit"] = git.stdout.strip() if git.returncode == 0 else None
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    if cpu_max.exists():  # the cgroup v2 CPU quota, read only
        facts["cgroup_cpu_max"] = cpu_max.read_text().strip()
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polarimeter" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare()
        run = traced_run if args.trace else timed_run
        metrics, outcome = run(wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "params": wl.params(),
        "machine": machine_facts(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **outcome,
    }
    print(json.dumps(summary))
    result = {
        "correct": outcome["failed"] == 0 and not outcome["problems"] and bool(metrics),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
