#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload suite-serial --seed 0 \\
        --seconds 20 --trace 0

Workloads (see ``metrics.WORKLOADS`` and ``README.md``):

* ``suite-serial`` -- every definition at ``--scale small`` and seed 0
  on the serial backend, one pass, in one program process;
* ``serve-mixed`` -- ``repro serve`` with the process backend, driven
  by one closed-loop HTTP client through hot, overlapping and fresh
  tiny jobs;
* ``cluster-tiny`` -- tiny passes of every definition through one
  ``ClusterRunner`` over two local nodes of one worker each.

Set-up (program start, imports, server or node boot, warm-up) is timed
several times and reported as the median ``setup_s``; the timed
phase follows the last set-up.  Every table is checked against the
serial reference; a mismatch or failed job makes ``correct`` false and
the exit code 1.  ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics plus the tracing overhead.
Raw samples of each run are kept under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench-out"

import golden  # noqa: E402
import metrics  # noqa: E402
import procs  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Set-ups timed per untraced run; ``setup_s`` is their median.  The
#: suite's set-up is a bare interpreter start (~0.3 s), so it takes more.
SETUPS = {"suite-serial": 9, "serve-mixed": 3, "cluster-tiny": 3}
#: ``suite-serial`` runs the suite at this scale.
SUITE_SCALE = "small"
#: Seconds the last (timed) program process may run.
CHILD_TIMEOUT = 165.0
SERVE_READY = "repro service on "
FINISHED = ("done", "failed")


@dataclass
class Context:
    seed: int
    seconds: float
    setups: int
    out_dir: Path
    trace_dir: Path | None = None


@dataclass
class Outcome:
    """What one execution of a workload measured."""

    wall_s: float
    trials: int
    jobs: list[float]
    passes: list[float]
    setups: list[float]
    peak_rss_mb: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Per-layer values the benchmark measures itself (client side).
    layer: dict = field(default_factory=dict)
    #: Per-job records kept with the run's raw samples.
    raw: list = field(default_factory=list)


# -- correctness -------------------------------------------------------------


def check_passes(passes, expected_by_seed) -> tuple[int, list[str]]:
    """Compare each pass's table digests with the serial reference of
    its seed; returns ``(tables checked, failures)``."""
    attempted, failures = 0, []
    for one in passes:
        expected = expected_by_seed(one["seed"])
        seen = set()
        for job in one["jobs"]:
            attempted += 1
            seen.add(job["id"])
            where = f"{job['id']} seed {one['seed']}"
            if "error" in job:
                failures.append(f"{where}: {job['error']}")
            elif job["digest"] != expected.get(job["id"]):
                failures.append(f"{where}: table differs from the serial "
                                "reference")
        for missing in sorted(set(expected) - seen):
            attempted += 1
            failures.append(f"{missing} seed {one['seed']}: not run")
    return attempted, failures


def check_jobs(records, references) -> tuple[int, list[str]]:
    """Compare served tables with ``repro run`` of the same key."""
    failures = []
    for record in records:
        if record.get("error"):
            failures.append(f"{record['key']}: {record['error']}")
        elif record["digest"] != references.get(json.dumps(record["key"])):
            failures.append(f"{record['key']}: served table differs from "
                            "repro run")
    return len(records), failures


# -- child-process workloads -------------------------------------------------


def _child_workload(ctx: Context, args, out: Path):
    """Set up ``ctx.setups`` launcher processes in turn (timing each to
    its READY line), then let the last one run the timed phase."""
    env = procs.program_env(ctx.trace_dir)
    setups = []
    for index in range(ctx.setups):
        child = procs.Child([*args, "--out", out], env)
        try:
            child.wait_line("READY")
            setups.append(perf_counter() - child.started)
            last = index + 1 == ctx.setups
            child.send("go" if last else "quit")
            code = child.wait(CHILD_TIMEOUT if last else procs.STOP_TIMEOUT)
        finally:
            child.stop()
        if code != 0:
            raise RuntimeError(f"{args[0]} process exited with {code}")
    return setups, json.loads(out.read_text(encoding="utf-8"))


def _pass_outcome(data, setups, attempted, failures) -> Outcome:
    return Outcome(
        wall_s=data["wall_s"],
        trials=data["trials"],
        jobs=[job["s"] for one in data["passes"] for job in one["jobs"]],
        passes=[one["wall_s"] for one in data["passes"]],
        setups=setups,
        peak_rss_mb=data["peak_rss_mb"],
        attempted=attempted,
        failures=failures,
    )


def suite_serial(ctx: Context, reference: dict) -> Outcome:
    seed = golden.seeds_for(reference, SUITE_SCALE)[0]
    setups, data = _child_workload(
        ctx, ["suite", "--scale", SUITE_SCALE, "--seed", seed],
        ctx.out_dir / "suite.json",
    )
    attempted, failures = check_passes(
        data["passes"], lambda s: golden.expected(reference, SUITE_SCALE, s)
    )
    outcome = _pass_outcome(data, setups, attempted, failures)
    # A suite job is one `repro run all`: the whole pass.  Timed one by
    # one, definitions spread 15-45% (IQR/median) between runs on a
    # 2-vCPU VM and their median 17-25%, too much for the bound; they
    # are kept with the raw samples and traced as experiments.*_s.
    outcome.jobs = outcome.passes
    outcome.raw = data["passes"]
    return outcome


def cluster_tiny(ctx: Context, reference: dict) -> Outcome:
    warmup, seeds = workloads.cluster_seeds(
        ctx.seed, ctx.seconds, golden.seeds_for(reference, "tiny")
    )
    setups, data = _child_workload(
        ctx,
        ["cluster", "--warmup-seed", warmup,
         "--seeds", ",".join(map(str, seeds))],
        ctx.out_dir / "cluster.json",
    )
    attempted, failures = check_passes(
        [data["warmup"], *data["passes"]],
        lambda s: golden.expected(reference, "tiny", s),
    )
    outcome = _pass_outcome(data, setups, attempted, failures)
    outcome.layer["cluster.node_spawn_s"] = data["node_spawn_s"]
    return outcome


# -- serve-mixed: one closed-loop HTTP client ---------------------------------


class Client:
    """Blocking HTTP/1.1 client, one connection per request."""

    def __init__(self, port: int) -> None:
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def request(self, method, path, body=None) -> tuple[int, bytes]:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def watch(self, path) -> tuple[dict | None, float]:
        """Follow an NDJSON job stream to its terminal snapshot; returns
        it with the wall-clock time it arrived."""
        conn = self._connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                return None, time.time()
            for line in response:
                snapshot = json.loads(line)
                if snapshot["state"] in FINISHED:
                    return snapshot, time.time()
            return None, time.time()
        finally:
            conn.close()


def run_job(client: Client, job: workloads.Job) -> dict:
    """POST one job, follow its stream, GET its table."""
    record = {"key": job.key(), "kind": job.kind}
    start = perf_counter()
    try:
        status, body = client.request("POST", "/jobs", job.payload())
        submitted = perf_counter()
        if status != 202:
            record["error"] = f"POST /jobs -> {status}: {body[:200]!r}"
            return record
        job_id = json.loads(body)["job_id"]
        snapshot, arrived = client.watch(f"/jobs/{job_id}")
        if snapshot is None or snapshot["state"] != "done":
            record["error"] = f"job ended as {snapshot}"
            return record
        table_start = perf_counter()
        status, table = client.request("GET", f"/jobs/{job_id}/table")
        end = perf_counter()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    if status != 200:
        record["error"] = f"GET table -> {status}"
        return record
    record.update(
        latency_s=end - start,
        submit_s=submitted - start,
        table_s=end - table_start,
        notify_lag_s=arrived - snapshot["finished_at"],
        service_s=snapshot["finished_at"] - snapshot["started_at"],
        queue_wait_s=snapshot["started_at"] - snapshot["submitted_at"],
        trials_executed=snapshot.get("trials_executed", 0),
        points_total=snapshot.get("points_total", 0),
        points_cached=snapshot.get("points_cached", 0),
        digest=golden.digest(table.decode()),
    )
    return record


def _boot_server(ctx: Context, env: dict, index: int):
    cache_dir = ctx.out_dir / f"cache-{index}"
    child = procs.Child(
        ["cli", "serve", "--host", "127.0.0.1", "--port", "0",
         "--backend", "process", "--workers", "2",
         "--cache-dir", cache_dir],
        env,
    )
    try:
        line = child.wait_line(SERVE_READY)
        port = int(line[len(SERVE_READY):].split()[0].rpartition(":")[2])
        client = Client(port)
        status, body = client.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz -> {status}: {body[:200]!r}")
    except BaseException:
        child.stop(signal.SIGINT)
        raise
    return child, client


def _references(ctx: Context, reference: dict, records) -> dict:
    """Expected digest per job key: the stored serial reference, or for
    a sweep with overrides, ``repro run`` of it in a separate process."""
    expected, swept = {}, set()
    for record in records:
        experiment, scale, seed, overrides = record["key"]
        key = json.dumps(record["key"])
        if overrides is None:
            by_id = golden.expected(reference, scale, seed)
            expected[key] = by_id[experiment]
        else:
            swept.add(key)
    if not swept:
        return expected
    jobs_file = ctx.out_dir / "ref-jobs.json"
    out = ctx.out_dir / "refs.json"
    jobs_file.write_text("[" + ",".join(sorted(swept)) + "]",
                         encoding="utf-8")
    child = procs.Child(["refs", "--jobs", jobs_file, "--out", out],
                        procs.program_env())
    if child.wait(CHILD_TIMEOUT) != 0:
        raise RuntimeError("reference process failed")
    expected.update(json.loads(out.read_text(encoding="utf-8")))
    return expected


def serve_mixed(ctx: Context, reference: dict) -> Outcome:
    seeds = golden.seeds_for(reference, "tiny")
    experiments = sorted(golden.expected(reference, "tiny", seeds[0]))
    warmup, cycles = workloads.serve_stream(ctx.seed, ctx.seconds,
                                            experiments, seeds)
    env = procs.program_env(ctx.trace_dir)
    setups, checked = [], []
    for index in range(ctx.setups):
        child, client = _boot_server(ctx, env, index)
        try:
            checked.extend(run_job(client, job) for job in warmup)
            setups.append(perf_counter() - child.started)
            if index + 1 < ctx.setups:
                child.stop(signal.SIGINT)
                continue
            records, passes = [], []
            start = perf_counter()
            for cycle in cycles:
                cycle_start = perf_counter()
                records.extend(run_job(client, job) for job in cycle)
                passes.append(perf_counter() - cycle_start)
            wall = perf_counter() - start
            status, body = client.request("GET", "/cache/stats")
            cache_stats = json.loads(body) if status == 200 else {}
            peak = procs.tree_peak_rss_mb(child.pid)
        finally:
            child.stop(signal.SIGINT)
    for index in range(ctx.setups):
        shutil.rmtree(ctx.out_dir / f"cache-{index}", ignore_errors=True)

    checked.extend(records)
    attempted, failures = check_jobs(
        checked, _references(ctx, reference, checked))
    if not cache_stats:
        failures.append("GET /cache/stats failed")
    done = [r for r in records if "latency_s" in r]
    outcome = Outcome(
        wall_s=wall,
        trials=sum(r["trials_executed"] for r in done),
        jobs=[r["latency_s"] for r in done],
        passes=passes,
        setups=setups,
        peak_rss_mb=peak,
        attempted=attempted,
        failures=failures,
    )
    if done:
        outcome.layer.update(_serve_layer(done, cache_stats))
    outcome.raw = records
    return outcome


def _serve_layer(records, cache_stats) -> dict:
    def p50(field_name):
        return stats.percentile([r[field_name] for r in records], 0.5)

    looked_up = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    points = sum(r["points_total"] for r in records)
    return {
        "serve.jobs.service_p50_s": p50("service_s"),
        "serve.jobs.service_p90_s": stats.percentile(
            [r["service_s"] for r in records], 0.9),
        "serve.jobs.queue_wait_p50_s": p50("queue_wait_s"),
        "serve.http.notify_lag_p50_s": p50("notify_lag_s"),
        "serve.http.submit_p50_s": p50("submit_s"),
        "serve.http.table_p50_s": p50("table_s"),
        "serve.cache.hit_ratio": (
            cache_stats.get("hits", 0) / looked_up if looked_up else 0.0),
        "serve.points_cached_ratio": (
            sum(r["points_cached"] for r in records) / points
            if points else 0.0),
        "serve.trials_executed": sum(r["trials_executed"] for r in records),
    }


WORKLOADS = {
    "suite-serial": suite_serial,
    "serve-mixed": serve_mixed,
    "cluster-tiny": cluster_tiny,
}


# -- metrics -----------------------------------------------------------------


def end_to_end(o: Outcome) -> dict[str, tuple[float, str]]:
    """Each end-to-end value with the sample it was taken from.

    Every pass of a run does the same work, so the rates are the work of
    one pass over the median pass time: a slow spell of the machine in
    one pass moves them less than it moves the total ``wall_s``.
    """
    level, tail_value = stats.tail(o.jobs)
    n_jobs, n_passes = len(o.jobs), len(o.passes)
    pass_s = stats.percentile(o.passes, 0.5)
    per_pass = f"per median pass of {n_passes}"
    return {
        "wall_s": (o.wall_s, "timed phase"),
        "trials_per_s": (o.trials / n_passes / pass_s,
                         f"{o.trials} trials, {per_pass}"),
        "jobs_per_s": (n_jobs / n_passes / pass_s,
                       f"{n_jobs} jobs, {per_pass}"),
        "pass_p50_s": (pass_s, f"median of {n_passes} passes"),
        "job_p50_s": (stats.percentile(o.jobs, 0.5),
                      f"median of {n_jobs} jobs"),
        "job_tail_s": (tail_value, f"p{level * 100:g} of {n_jobs} jobs"),
        "setup_s": (stats.percentile(o.setups, 0.5),
                    f"median of {len(o.setups)} set-ups"),
        "peak_rss_mb": (o.peak_rss_mb, "sum of per-process peaks"),
    }


def per_layer(untraced: Outcome, traced: Outcome, traces: dict) -> dict:
    spans, counters = traces["spans"], traces["counters"]

    def seconds(name):
        return spans.get(name, [0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    values = {
        f"experiments.{d}_s": seconds(f"experiments.{d}")
        for d in (*tracer.NAMED_DEFS, "other")
    }
    for name in ("core.spec_emit", "core.assemble", "core.certificate",
                 "percolation.model_build", "percolation.coupled",
                 "percolation.giant_scan", "routers.route", "kernels.draw",
                 "kernels.conditioning", "kernels.routing",
                 "runtime.workload.build", "runtime.chunkexec.kernel",
                 "runtime.chunkexec.fallback", "runtime.pool.run",
                 "runtime.recordwire.unpack", "cluster.run",
                 "cluster.recv_wait", "serve.digest", "serve.cache.get",
                 "serve.cache.put"):
        values[f"{name}_s"] = seconds(name)
    values.update(
        {
            "percolation.model_builds": calls("percolation.model_build"),
            "routers.route_calls": calls("routers.route"),
            "runtime.workload.builds": calls("runtime.workload.build"),
            "runtime.chunkexec.fallback_trials": calls(
                "runtime.chunkexec.fallback"),
            "serve.digests": calls("serve.digest"),
        }
    )
    for name in ("core.probes", "runtime.trials",
                 "runtime.chunkexec.kernel_trials",
                 "runtime.recordwire.records", "cluster.frames_sent",
                 "cluster.bytes_sent", "cluster.frames_recv",
                 "cluster.bytes_recv", "cluster.payload_bytes",
                 "cluster.misses", "cluster.requeues"):
        values[name] = counters.get(name, 0)
    values.update(traced.layer)
    values.update(
        {
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.traced_wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    return values


# -- entry point -------------------------------------------------------------


def _summary(workload, seed, rows, outcomes, notes) -> None:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    print(f"{workload} (seed {seed})")
    for name, unit, value, sample in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {sample}")
    for note in notes:
        print(f"  {note}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio  "
          f"{failed} of {attempted} tables")
    for outcome in outcomes:
        for failure in outcome.failures[:20]:
            print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = golden.load()
    out_dir = OUT_ROOT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{time.perf_counter_ns()}"
    )
    out_dir.mkdir(parents=True)
    run = WORKLOADS[args.workload]

    def context(setups, trace_dir=None):
        return Context(args.seed, args.seconds, setups, out_dir, trace_dir)

    if args.trace:
        untraced = run(context(1), reference)
        trace_dir = out_dir / "trace"
        trace_dir.mkdir()
        traced = run(context(1, trace_dir), reference)
        outcomes = [untraced, traced]
    else:
        outcomes = [run(context(SETUPS[args.workload]), reference)]
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    notes = []
    if failures:
        rows = []  # a wrong table or failed job voids the run's numbers
    elif args.trace:
        traces = tracer.load_traces(trace_dir)
        values = per_layer(untraced, traced, traces)
        rows = [(name, unit, values.get(name, 0), "traced run")
                for name, unit, _, _ in metrics.PER_LAYER]
        notes = [f"not traced, gone from the program: {target}"
                 for target in traces["missing"]]
    else:
        measured = end_to_end(outcomes[0])
        rows = [(name, unit, *measured[name])
                for name, unit, _, _ in metrics.END_TO_END]
    _summary(args.workload, args.seed, rows, outcomes, notes)
    (out_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"cpus": os.cpu_count(), "python": sys.version,
                    "platform": platform.platform()},
        "metrics": {name: value for name, _, value, _ in rows},
        "failures": failures,
        "notes": notes,
        "samples": [
            {"wall_s": o.wall_s, "jobs_s": o.jobs, "passes_s": o.passes,
             "setups_s": o.setups, "peak_rss_mb": o.peak_rss_mb,
             "trials": o.trials, "layer": o.layer, "jobs": o.raw}
            for o in outcomes
        ],
    }, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in rows},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
