"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_metric_tables():
    assert _benchmark_json() == metrics.benchmark_json()


def test_metric_and_workload_names_are_well_formed():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for workload in spec["workloads"]:
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        stats.percentile(range(99), 0.9)
    assert stats.percentile(range(1, 101), 0.9) == 90
    assert stats.percentile([3, 1, 2], 0.5) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_is_p90_where_supported_else_the_median():
    assert stats.tail(list(range(100)))[0] == 0.9
    assert stats.tail(list(range(60)))[0] == 0.5
    assert stats.tail(list(range(24)))[0] == 0.5


def test_tracer_records_a_target_the_program_no_longer_has(tmp_path):
    probe = tracer.Tracer("test", tmp_path)
    probe.patch("repro.no_such_module:f", "x")
    probe.patch("repro.core.router:Router.no_such_method", "x")
    assert probe.missing == ["repro.no_such_module:f",
                             "repro.core.router:Router.no_such_method"]


def _pass(digests: dict, seed: int) -> dict:
    return {
        "seed": seed,
        "wall_s": 1.0,
        "jobs": [{"id": e, "s": 0.1, "digest": d} for e, d in digests.items()],
    }


def test_check_passes_accepts_the_reference():
    reference = golden.load()
    expected = golden.expected(reference, "tiny", 100)
    attempted, failures = run.check_passes(
        [_pass(dict(expected), 100)], lambda s: expected
    )
    assert attempted == len(expected) and failures == []


def test_check_passes_fires_on_a_corrupted_table():
    expected = golden.expected(golden.load(), "tiny", 100)
    corrupted = dict(expected)
    corrupted["E1"] = golden.digest("not the table")
    _, failures = run.check_passes([_pass(corrupted, 100)],
                                   lambda s: expected)
    assert len(failures) == 1 and "E1" in failures[0]


def test_check_passes_fires_on_an_error_and_a_missing_definition():
    expected = golden.expected(golden.load(), "tiny", 100)
    broken = _pass(dict(expected), 100)
    broken["jobs"][0] = {"id": broken["jobs"][0]["id"], "s": 0.1,
                         "error": "TrialExecutionError: boom"}
    del broken["jobs"][1]
    attempted, failures = run.check_passes([broken], lambda s: expected)
    assert attempted == len(expected)
    assert len(failures) == 2


def test_check_jobs_fires_on_a_failed_job_and_a_wrong_table():
    key = ["E1", "tiny", 3, None]
    references = {json.dumps(key): golden.digest("table")}
    good = {"key": key, "digest": golden.digest("table")}
    failed = {"key": key, "error": "job ended as {'state': 'failed'}"}
    wrong = {"key": key, "digest": golden.digest("other")}
    attempted, failures = run.check_jobs([good, failed, wrong], references)
    assert attempted == 3 and len(failures) == 2


def test_serve_stream_is_seeded_with_fixed_shares():
    seeds = golden.seeds_for(golden.load(), "tiny")
    experiments = ["E1", "E2", "E3", "A1"]
    first = workloads.serve_stream(7, 8, experiments, seeds)
    assert first == workloads.serve_stream(7, 8, experiments, seeds)
    assert first != workloads.serve_stream(8, 8, experiments, seeds)
    warmup, cycles = first
    assert len(cycles) == 2
    jobs = [job for cycle in cycles for job in cycle]
    kinds = Counter(job.kind for job in jobs)
    assert kinds == {"hot": 8, "overlap": 8, "fresh": 16}
    fresh = [(j.experiment, j.seed) for j in jobs if j.kind == "fresh"]
    assert len(set(fresh)) == len(fresh)
    assert not set(fresh) & {(j.experiment, j.seed) for j in warmup}
    assert all(j.seed in seeds for j in jobs if j.overrides is None)


def test_cluster_seeds_are_distinct_golden_seeds():
    seeds = golden.seeds_for(golden.load(), "tiny")
    warmup, passes = workloads.cluster_seeds(3, 20, seeds)
    assert len(passes) == 10
    assert len({warmup, *passes}) == 11
    assert set(passes) <= set(seeds)


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload):
    # --seconds does not shorten suite-serial: this is its full run.
    done = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 24
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    assert set(result["metrics"]) == set(units)
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name]
        assert value["value"] > 0, name
    for name in units:
        assert name in done.stdout.split("\n{")[0]


def test_traced_run_emits_every_per_layer_metric():
    done = _run("--workload", "suite-serial", "--seed", "1", "--seconds",
                "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    names = [name for name, _, _, _ in metrics.PER_LAYER]
    assert list(result["metrics"]) == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.probes"] > 0 and values["runtime.trials"] > 0
    assert values["runtime.trials"] == (
        values["runtime.chunkexec.kernel_trials"]
        + values["runtime.chunkexec.fallback_trials"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "suite-serial", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
