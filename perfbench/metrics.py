#!/usr/bin/env python3
"""The benchmark's workloads and metrics, and what each layer should move.

``BENCHMARK.json`` at the repository root is generated from these
tables (``python3 perfbench/metrics.py > BENCHMARK.json``); a test keeps
the two in step.  :data:`PER_LAYER` records, for each per-layer metric,
which end-to-end metric on which workload it is expected to move, so a
performance change can cite the pair by name.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Length of the timed phase of ``serve-mixed`` and ``cluster-tiny``.
#: ``suite-serial`` times one fixed pass, which is longer (about 26-37 s
#: on a 2-vCPU x86 VM), and does not scale with ``--seconds``.
RUN_SECONDS = 25

WORKLOADS = [
    (
        "suite-serial",
        "repro run all --scale small on the serial backend, one process, "
        "one pass: the headline suite wall clock, bypassing serve, the "
        "pool and the cluster",
    ),
    (
        "serve-mixed",
        "repro serve (process backend, 2 workers) driven by one "
        "closed-loop HTTP client with hot, overlapping and fresh tiny "
        "jobs: the only path through serve, cache, digest and the pool",
    ),
    (
        "cluster-tiny",
        "warm-up then repeated tiny passes of all 24 definitions through "
        "one ClusterRunner over 2 local nodes: the only path through "
        "cluster framing, shipping and recordwire",
    ),
]

#: name, unit, better, bound (share of the parent's median).  The
#: timing bounds are wide because on a shared 2-vCPU VM the effective
#: CPU speed drifts by 15-25% over minutes (a fixed Python loop timed
#: once a second for a minute ranged 0.20-0.34 s); peak memory moves
#: only with the seed.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("pass_p50_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("job_tail_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

_SUITE = "suite-serial"
_SERVE = "serve-mixed"
_CLUSTER = "cluster-tiny"
_ALL = "all workloads"

#: name, unit, better, the end-to-end metric and workload it should move.
PER_LAYER = [
    ("experiments.E2_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("experiments.E6_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("experiments.E9_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("experiments.E10_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("experiments.E11_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("experiments.A3_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("experiments.other_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("core.spec_emit_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("core.assemble_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("core.certificate_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("core.probes", "count", "lower", "none: must repeat exactly"),
    ("percolation.model_build_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("percolation.model_builds", "count", "lower", f"wall_s on {_SUITE}"),
    ("percolation.coupled_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("percolation.giant_scan_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("routers.route_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("routers.route_calls", "count", "lower", f"wall_s on {_SUITE}"),
    ("kernels.draw_s", "s", "lower",
     f"wall_s on {_SUITE}, pass_p50_s on {_CLUSTER}"),
    ("kernels.conditioning_s", "s", "lower",
     f"wall_s on {_SUITE}, pass_p50_s on {_CLUSTER}"),
    ("kernels.routing_s", "s", "lower",
     f"wall_s on {_SUITE}, pass_p50_s on {_CLUSTER}"),
    ("runtime.trials", "count", "lower", "none: must repeat exactly"),
    ("runtime.workload.build_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("runtime.workload.builds", "count", "lower", f"job_p50_s on {_SERVE}"),
    ("runtime.chunkexec.kernel_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("runtime.chunkexec.kernel_trials", "count", "higher",
     f"wall_s on {_SUITE}"),
    ("runtime.chunkexec.fallback_s", "s", "lower", f"wall_s on {_SUITE}"),
    ("runtime.chunkexec.fallback_trials", "count", "lower",
     f"wall_s on {_SUITE}"),
    ("runtime.pool.run_s", "s", "lower", f"job_tail_s on {_SERVE}"),
    ("runtime.recordwire.unpack_s", "s", "lower",
     f"pass_p50_s on {_CLUSTER}"),
    ("runtime.recordwire.records", "count", "higher",
     f"pass_p50_s on {_CLUSTER}"),
    ("cluster.run_s", "s", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.recv_wait_s", "s", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.frames_sent", "count", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.bytes_sent", "bytes", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.frames_recv", "count", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.bytes_recv", "bytes", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.payload_bytes", "bytes", "lower",
     f"trials_per_s on {_CLUSTER}"),
    ("cluster.misses", "count", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.requeues", "count", "lower", f"pass_p50_s on {_CLUSTER}"),
    ("cluster.node_spawn_s", "s", "lower", f"setup_s on {_CLUSTER}"),
    ("serve.jobs.service_p50_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("serve.jobs.service_p90_s", "s", "lower", f"job_tail_s on {_SERVE}"),
    ("serve.jobs.queue_wait_p50_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("serve.http.notify_lag_p50_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("serve.http.submit_p50_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("serve.http.table_p50_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("serve.digest_s", "s", "lower", f"jobs_per_s on {_SERVE}"),
    ("serve.digests", "count", "lower", f"jobs_per_s on {_SERVE}"),
    ("serve.cache.get_s", "s", "lower", f"job_p50_s on {_SERVE}"),
    ("serve.cache.put_s", "s", "lower", f"jobs_per_s on {_SERVE}"),
    ("serve.cache.hit_ratio", "ratio", "higher", "none: must repeat exactly"),
    ("serve.points_cached_ratio", "ratio", "higher",
     f"jobs_per_s on {_SERVE}"),
    ("serve.trials_executed", "count", "lower", "none: must repeat exactly"),
    ("trace.untraced_wall_s", "s", "lower", _ALL),
    ("trace.traced_wall_s", "s", "lower", _ALL),
    ("trace.overhead_s", "s", "lower", _ALL),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
