#!/usr/bin/env python3
"""Start one program process for the benchmark, traced on request.

    launch.py cli ARGS...              repro's own CLI (serve, worker serve)
    launch.py suite --scale S --seed N --out FILE
    launch.py cluster --warmup-seed N --seeds A,B,... --out FILE
    launch.py refs --jobs FILE --out FILE

With ``$PERFBENCH_TRACE_DIR`` set, the layer wrappers of
:mod:`tracer` are installed before any work starts.  ``suite`` and
``cluster`` print ``READY`` once set up (imports, registry, nodes,
warm-up pass) and then wait for ``go`` or ``quit`` on stdin, so the
caller can time set-up on its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import procs  # noqa: E402
import tracer  # noqa: E402

NODES = 2
NODE_READY = "REPRO-WORKER LISTENING "


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _await_go() -> bool:
    print("READY", flush=True)
    return sys.stdin.readline().strip() == "go"


def _write(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data), encoding="utf-8")


def _counting_runner(inner):
    from repro.runtime.runner import TrialRunner

    class CountingRunner(TrialRunner):
        """Delegates to ``inner``; counts the trials submitted."""

        def __init__(self) -> None:
            self.workers = inner.workers
            self.trials = 0

        def run(self, specs):
            specs = list(specs)
            self.trials += len(specs)
            return inner.run(specs)

        def close(self) -> None:
            inner.close()

    return CountingRunner()


def _run_pass(specs, scale: str, seed: int, runner) -> dict:
    """Every definition once; per-definition time and table digest."""
    jobs = []
    start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        try:
            table = spec(scale=scale, seed=seed, runner=runner).render()
        except Exception as exc:  # reported as a failed job
            jobs.append({"id": spec.experiment_id,
                         "s": time.perf_counter() - t0,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        jobs.append({"id": spec.experiment_id,
                     "s": time.perf_counter() - t0,
                     "digest": _digest(table)})
    return {"seed": seed, "wall_s": time.perf_counter() - start,
            "jobs": jobs}


def suite(argv) -> int:
    parser = argparse.ArgumentParser(prog="launch.py suite")
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    from repro.experiments.registry import all_experiments
    from repro.runtime import SerialRunner

    specs = all_experiments()
    runner = _counting_runner(SerialRunner())
    if not _await_go():
        return 0
    start = time.perf_counter()
    one = _run_pass(specs, args.scale, args.seed, runner)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _write(args.out, {"wall_s": wall, "passes": [one],
                      "trials": runner.trials, "peak_rss_mb": peak_kb / 1024})
    return 0


def _spawn_nodes(count: int) -> list:
    env = dict(os.environ)
    nodes = []
    try:
        for _ in range(count):
            node = procs.Child(["cli", "worker", "serve", "--host",
                                "127.0.0.1", "--port", "0",
                                "--node-workers", "1"], env)
            nodes.append(node)
            node.address = node.wait_line(NODE_READY)[len(NODE_READY):]
    except BaseException:
        for node in nodes:
            node.stop()
        raise
    return nodes


def cluster(argv) -> int:
    parser = argparse.ArgumentParser(prog="launch.py cluster")
    parser.add_argument("--warmup-seed", type=int, required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    from repro.experiments.registry import all_experiments
    from repro.runtime import ClusterRunner

    specs = all_experiments()
    spawn_start = time.perf_counter()
    nodes = _spawn_nodes(NODES)
    node_spawn_s = time.perf_counter() - spawn_start
    try:
        runner = _counting_runner(
            ClusterRunner(nodes=[node.address for node in nodes])
        )
        try:
            warmup = _run_pass(specs, "tiny", args.warmup_seed, runner)
            runner.trials = 0
            if not _await_go():
                return 0
            start = time.perf_counter()
            passes = [
                _run_pass(specs, "tiny", int(seed), runner)
                for seed in args.seeds.split(",")
            ]
            wall = time.perf_counter() - start
            peak = procs.tree_peak_rss_mb(os.getpid())
        finally:
            runner.close()
    finally:
        for node in nodes:
            node.stop()
    _write(args.out, {"wall_s": wall, "passes": passes, "warmup": warmup,
                      "trials": runner.trials, "peak_rss_mb": peak,
                      "node_spawn_s": node_spawn_s})
    return 0


def refs(argv) -> int:
    """Serial reference digests for ``[experiment, scale, seed,
    overrides]`` keys, as ``repro run`` would render them."""
    parser = argparse.ArgumentParser(prog="launch.py refs")
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    from repro.experiments.registry import get_experiment
    from repro.runtime import SerialRunner

    keys = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    runner = SerialRunner()
    out = {}
    for experiment, scale, seed, overrides in keys:
        table = get_experiment(experiment)(
            scale=scale, seed=seed, runner=runner, **(overrides or {})
        )
        out[json.dumps([experiment, scale, seed, overrides])] = _digest(
            table.render()
        )
    _write(args.out, out)
    return 0


def cli(argv) -> int:
    from repro.experiments.cli import main

    try:
        return main(argv)
    except KeyboardInterrupt:  # how the benchmark stops `repro serve`
        return 0


MODES = {"cli": cli, "suite": suite, "cluster": cluster, "refs": refs}


def _role(mode: str, argv) -> str:
    if mode == "cli":
        return "node" if argv[:1] == ["worker"] else "serve"
    return "coordinator" if mode == "cluster" else mode


def main(argv) -> int:
    if not argv or argv[0] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]
    if mode != "cli":
        # Stopped by the benchmark: unwind, so nodes are stopped too.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace_dir = os.environ.get(tracer.TRACE_DIR_ENV)
    if trace_dir and mode != "refs":
        tracer.install(_role(mode, rest), Path(trace_dir))
    return MODES[mode](rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
