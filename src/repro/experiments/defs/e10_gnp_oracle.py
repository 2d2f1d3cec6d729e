"""E10 — oracle routing in ``G(n, c/n)`` is ``Θ(n^{3/2})`` (Theorem 11).

The bidirectional router's mean complexity over an ``n`` sweep:
``queries/n^{3/2}`` roughly flat, log-log exponent ≈ 1.5, i.e. oracle
routing beats the best local routing by exactly ``√n``.  Theorem 11's
*universal* lower bound ``Pr[comp < a·n^{3/2}] ≤ (3c/2)a^{2/3} + 2/n``
is tabulated at the observed ``a``.

Every trial of every ``n`` is its own :class:`TrialSpec`, one group
per ``n`` plus one group of local-router trials at the comparison
size, so the largest ``n`` fans out across workers.  Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, shipped to a
worker once; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import scaling_exponent
from repro.analysis.theory import gnp_oracle_lower_bound
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import gnp_factory
from repro.routers.gnp import GnpBidirectionalRouter, GnpLocalRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed

COLUMNS = [
    "c",
    "n",
    "connected_trials",
    "mean_queries",
    "queries_over_n15",
    "observed_a",
    "theory_bound_at_a",
    "speedup_vs_local",
]


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    c = 3.0
    ns = pick(
        scale,
        tiny=[64, 128],
        small=[256, 512, 1024],
        medium=[256, 512, 1024, 2048],
    )
    trials = pick(scale, tiny=8, small=16, medium=30)
    compare_local_at = pick(scale, tiny=128, small=512, medium=1024)

    table = ResultTable(
        "E10",
        "G(n, c/n) bidirectional oracle routing vs n (expect Theta(n^1.5))",
        columns=COLUMNS,
    )
    local_trials = max(4, trials // 2)
    groups = [
        (
            n,
            complexity_specs(
                CompleteGraph(n),
                p=c / n,
                router=GnpBidirectionalRouter(),
                trials=trials,
                seed=derive_seed(seed, "e10", n),
                model_factory=gnp_factory,
                key=("e10", n),
            ),
        )
        for n in ns
    ]
    groups.append(
        (
            "local",
            complexity_specs(
                CompleteGraph(compare_local_at),
                p=c / compare_local_at,
                router=GnpLocalRouter(),
                trials=local_trials,
                seed=derive_seed(seed, "e10-local", compare_local_at),
                model_factory=gnp_factory,
                key=("e10-local", compare_local_at),
            ),
        )
    )
    records = runner.run_grouped(groups)
    local = assemble_measurement(
        CompleteGraph(compare_local_at),
        c / compare_local_at,
        GnpLocalRouter(),
        records["local"],
    )
    points = []
    for n in ns:
        m = assemble_measurement(
            CompleteGraph(n), c / n, GnpBidirectionalRouter(), records[n]
        )
        if not m.connected_trials:
            continue
        mean_q = m.query_summary().mean
        speedup = float("nan")
        if n == compare_local_at and local.connected_trials:
            speedup = local.query_summary().mean / mean_q
        a = mean_q / n**1.5
        table.add_row(
            c=c,
            n=n,
            connected_trials=m.connected_trials,
            mean_queries=mean_q,
            queries_over_n15=a,
            observed_a=a,
            theory_bound_at_a=gnp_oracle_lower_bound(n, c, a),
            speedup_vs_local=speedup,
        )
        points.append((n, mean_q))
    if len(points) >= 3:
        fit = scaling_exponent([x for x, _ in points], [y for _, y in points])
        table.add_note(
            f"queries ~ n^{fit['exponent']:.2f} (r²={fit['r2']:.3f}) — "
            "Theorem 11 predicts exponent 1.5"
        )
    table.add_note(
        "speedup_vs_local at the comparison size should approach sqrt(n) "
        "as n grows (the exact local/oracle separation of Section 5)."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E10",
        title="G(n,p) oracle routing is Theta(n^1.5)",
        claim=(
            "An oracle algorithm routes in G(n, c/n) with average "
            "complexity O(n^1.5), and every oracle algorithm needs "
            "Omega(n^1.5) — a sqrt(n) separation from local routing."
        ),
        reference="Theorem 11",
        run=run,
    )
)
