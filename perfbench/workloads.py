"""Inputs of each workload, derived from the benchmark seed alone.

Nothing here imports the program: the definitions to run are the ids
in ``golden.json``, and every seed, job and sweep comes from a
``random.Random`` keyed by the workload name and the benchmark seed.
``suite-serial`` takes no seed from here: it always runs the suite at
the first golden seed of its scale (seed 0 at small scale, the
``repro run all`` headline), so its work does not vary between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Work per run is fixed by ``--seconds`` at these nominal rates, so
#: both sides of a comparison do the same work however fast they are.
CLUSTER_PASS_SECONDS = 2.0
SERVE_CYCLE_SECONDS = 5.0

#: One serve round: one hot job, one overlapping sweep, two fresh jobs.
#: No served traffic has been recorded, so these shares are an
#: assumption, chosen for steadiness.  A hit's latency is bimodal: about
#: 9 ms when the job is done before its stream opens, about 55 ms when
#: it waits for the stream poll, and the share of fast hits drifts
#: within and between runs (27-75% of a run's hits over ten seeds).
#: Every hit adds that drift to the timed phase, so hits are kept to a
#: quarter of the jobs (``wall_s`` spread 1-3% over three sets of ten
#: seeds); at half, it spread 7-17% over four sets.  The one mixed
#: stream the repository has measured hit 75% of the time
#: (``results/BENCH_serve.json``); at that share the median job was a
#: hit, and ``job_p50_s`` flipped between 9 and 55 ms across runs.
ROUND = ("hot", "overlap", "fresh", "fresh")

#: The definition whose ``alphas=`` sweep the overlapping jobs extend.
SWEEP_EXPERIMENT = "E1"


def cluster_seeds(
    seed: int, seconds: float, golden_seeds: list[int]
) -> tuple[int, list[int]]:
    """``(warm-up seed, pass seeds)``: distinct seeds from the golden
    pool, one per pass."""
    passes = max(1, round(seconds / CLUSTER_PASS_SECONDS))
    if passes + 1 > len(golden_seeds):
        raise ValueError(
            f"{passes} passes need {passes + 1} golden tiny seeds, "
            f"have {len(golden_seeds)}"
        )
    rng = random.Random(f"cluster-tiny/{seed}")
    chosen = rng.sample(golden_seeds, passes + 1)
    return chosen[0], chosen[1:]


@dataclass(frozen=True)
class Job:
    kind: str  # warmup, hot, overlap or fresh
    experiment: str
    seed: int
    overrides: dict | None = None

    def key(self) -> list:
        """``[experiment, scale, seed, overrides]``, as refs take it."""
        return [self.experiment, "tiny", self.seed, self.overrides]

    def payload(self) -> dict:
        body = {"experiment": self.experiment, "scale": "tiny",
                "seed": self.seed}
        if self.overrides is not None:
            body["overrides"] = self.overrides
        return body


def _alpha(rng: random.Random, used: set) -> float:
    while True:
        alpha = round(rng.uniform(0.2, 0.8), 3)
        if alpha not in used:
            used.add(alpha)
            return alpha


def serve_stream(
    seed: int, seconds: float, experiments: list[str], golden_seeds: list[int]
) -> tuple[list[Job], list[list[Job]]]:
    """``(warm-up jobs, timed jobs per cycle)`` for ``serve-mixed``.

    Warm-up caches one hot key per definition plus a two-point
    ``alphas=`` sweep.  Each cycle of the timed stream then runs
    ``len(experiments)`` rounds of :data:`ROUND`: every hot key once
    (a whole-job cache hit), one sweep per round that reuses two cached
    alphas and adds a new one (cache reads beside writes), and every
    definition twice, each time on a seed not used before in the run
    (full misses).  Hot and fresh seeds come from the golden pool, so
    their tables have a stored serial reference.  The shares and the
    per-cycle work are the same for every seed; only order and seeds
    differ.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    # Two cycles at least: 192 jobs put 19 beyond their p90.
    cycles = max(2, round(seconds / SERVE_CYCLE_SECONDS))
    needed = 1 + ROUND.count("fresh") * cycles
    if needed > len(golden_seeds):
        raise ValueError(
            f"{cycles} cycles need {needed} golden tiny seeds, "
            f"have {len(golden_seeds)}"
        )
    seeds = {e: rng.sample(golden_seeds, needed) for e in experiments}
    hot = [Job("hot", e, seeds[e].pop()) for e in experiments]
    sweep_seed = rng.randrange(1, 2**31)
    used_alphas: set[float] = set()
    cached_alphas = [_alpha(rng, used_alphas), _alpha(rng, used_alphas)]
    warmup = [Job("warmup", job.experiment, job.seed) for job in hot]
    warmup.append(Job("warmup", SWEEP_EXPERIMENT, sweep_seed,
                      {"alphas": sorted(cached_alphas)}))

    stream: list[list[Job]] = []
    for _ in range(cycles):
        jobs: list[Job] = []
        stream.append(jobs)
        hot_order = [job for _ in range(ROUND.count("hot"))
                     for job in rng.sample(hot, len(hot))]
        fresh_order = rng.sample(experiments, len(experiments))
        for experiment in fresh_order:
            for kind in rng.sample(ROUND, len(ROUND)):
                if kind == "hot":
                    jobs.append(hot_order.pop())
                elif kind == "fresh":
                    jobs.append(Job("fresh", experiment,
                                    seeds[experiment].pop()))
                else:
                    alphas = rng.sample(cached_alphas, 2)
                    alphas.append(_alpha(rng, used_alphas))
                    cached_alphas.append(alphas[-1])
                    jobs.append(Job("overlap", SWEEP_EXPERIMENT, sweep_seed,
                                    {"alphas": sorted(alphas)}))
    return warmup, stream
