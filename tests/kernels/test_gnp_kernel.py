"""Parity of the event-driven ``G(n, p)`` kernel with the per-trial routers.

:mod:`repro.kernels.gnp` replays the probe sequences of
``GnpLocalRouter``, ``GnpUnidirectionalRouter`` and
``GnpBidirectionalRouter`` one newly reached vertex at a time.  Its
records must be ``repr``-identical to ``spec.execute()`` — the
per-trial routers on ``GnpPercolation`` — under every conditioning
mode, at every budget (including the exact count a run needs and one
below it), for random, adjacent and equal pairs at ``p`` = 0, 1 and
``c/n``.  Other routers and factories must keep the per-trial path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.gnp as gnp_kernel
import repro.runtime.chunkexec as chunkexec
from repro.core.complexity import complexity_specs
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import GnpPercolation, gnp_factory
from repro.routers.bfs import LocalBFSRouter
from repro.routers.gnp import (
    GnpBidirectionalRouter,
    GnpLocalRouter,
    GnpUnidirectionalRouter,
)
from repro.runtime import TrialExecutionError
from repro.runtime.chunkexec import chunk_runner, execute_specs

ROUTERS = (
    GnpLocalRouter(),
    GnpUnidirectionalRouter(),
    GnpBidirectionalRouter(),
)


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    chunkexec._COMPILED.clear()
    yield
    chunkexec._COMPILED.clear()


def _specs(n, p, router, pair, *, trials=3, seed=0, budget=None,
           conditioning="exact", factory=gnp_factory):
    return complexity_specs(
        CompleteGraph(n),
        p=p,
        router=router,
        pair=pair,
        trials=trials,
        seed=seed,
        budget=budget,
        model_factory=factory,
        conditioning=conditioning,
        key=("gnp-parity", n, p, router.name, pair, budget, conditioning),
    )


def _assert_parity(specs):
    runner = chunk_runner(specs[0].workload)
    assert runner is not None
    assert runner.stages() == {
        "draw": "kernel", "conditioning": "kernel", "routing": "kernel",
    }
    got = execute_specs(specs)
    assert repr(got) == repr([spec.execute() for spec in specs])
    return [result.value for result in got]


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    p = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.floats(min_value=0.5, max_value=10.0).map(
                lambda c: min(1.0, c / n)
            ),
        )
    )
    source = draw(st.integers(min_value=0, max_value=n - 1))
    kind = draw(st.sampled_from(["random", "adjacent", "equal"]))
    if kind == "equal":
        target = source
    elif kind == "adjacent":
        target = (source + 1) % n
    else:
        target = draw(st.integers(min_value=0, max_value=n - 1))
    router = draw(st.sampled_from(ROUTERS))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return n, p, router, (source, target), seed


@settings(max_examples=120, deadline=None)
@given(
    case=_cases(), conditioning=st.sampled_from(["exact", "router", "none"])
)
def test_unbudgeted_records_match_per_trial(case, conditioning):
    n, p, router, pair, seed = case
    _assert_parity(
        _specs(n, p, router, pair, seed=seed, conditioning=conditioning)
    )


@settings(max_examples=80, deadline=None)
@given(case=_cases(), conditioning=st.sampled_from(["exact", "none"]))
def test_budget_cut_matches_per_trial(case, conditioning):
    n, p, router, pair, seed = case
    (spec,) = _specs(n, p, router, pair, trials=1, seed=seed)
    model = GnpPercolation(n=n, p=p, seed=spec.args[1])
    needed = router.route(model, *pair).queries
    # The exact count a run needs succeeds; one below it is censored
    # at the budget; a budget of 1 censors every run needing more.
    for budget in sorted({b for b in (1, needed, needed - 1) if b >= 1}):
        records = _assert_parity(
            _specs(
                n, p, router, pair, trials=1, seed=seed, budget=budget,
                conditioning=conditioning,
            )
        )
        result = records[0].result
        if result is not None:
            assert (result.queries == budget and result.censored) == (
                needed > budget
            )


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
def test_suite_sized_points_match(router):
    # E9/E10/A3-sized points: long growth runs with many events.
    for n in (128, 256):
        _assert_parity(
            _specs(n, 3.0 / n, router, (0, n - 1), trials=6, seed=n)
        )


def test_exact_budget_over_many_trials():
    # One workload budget over several trials: some need more probes
    # than the budget, some fewer, some exactly as many.
    n, p = 60, 3.0 / 60
    router = GnpBidirectionalRouter()
    base = _specs(n, p, router, (0, n - 1), trials=12, seed=5)
    needed = [
        router.route(GnpPercolation(n=n, p=p, seed=spec.args[1]), 0, n - 1)
        .queries
        for spec in base
    ]
    for budget in sorted(set(needed)):
        _assert_parity(
            _specs(n, p, router, (0, n - 1), trials=12, seed=5, budget=budget)
        )


class _RerouteLocal(GnpLocalRouter):
    """A subclass probing differently: it must not ride the kernel."""

    def _route(self, oracle, source, target):
        oracle.probe(source, target)
        return super()._route(oracle, source, target)


def _unshared_factory(graph, p, seed):
    return GnpPercolation(n=graph.num_vertices(), p=p, seed=seed)


@pytest.mark.parametrize(
    "router,factory",
    [
        pytest.param(_RerouteLocal(), gnp_factory, id="overriding-subclass"),
        pytest.param(LocalBFSRouter(), gnp_factory, id="foreign-router"),
        pytest.param(GnpLocalRouter(), _unshared_factory, id="own-factory"),
    ],
)
def test_other_routers_and_factories_fall_back(router, factory):
    specs = _specs(40, 3.0 / 40, router, (0, 39), trials=4, factory=factory)
    assert chunk_runner(specs[0].workload) is None
    assert repr(execute_specs(specs)) == repr([s.execute() for s in specs])


def test_out_of_range_pair_falls_back_to_the_per_trial_error():
    specs = _specs(10, 0.3, GnpLocalRouter(), (0, 10), trials=2)
    assert chunk_runner(specs[0].workload) is None
    with pytest.raises(TrialExecutionError, match="not a vertex"):
        execute_specs(specs)


def test_errors_carry_the_failing_trials_key(monkeypatch):
    specs = _specs(30, 0.1, GnpBidirectionalRouter(), (0, 29), trials=4)
    bad_seed = specs[2].args[1]
    draw = gnp_kernel.gnp_adjacency

    def failing(n, p, seed):
        if seed == bad_seed:
            raise RuntimeError("draw failed")
        return draw(n, p, seed)

    monkeypatch.setattr(gnp_kernel, "gnp_adjacency", failing)
    with pytest.raises(TrialExecutionError) as info:
        execute_specs(specs)
    assert info.value.key == specs[2].key
    assert "draw failed" in str(info.value)


def test_adjacency_matches_the_model():
    for seed in range(20):
        indptr, neighbours = gnp_kernel.gnp_adjacency(50, 0.08, seed)
        model = GnpPercolation(n=50, p=0.08, seed=seed)
        for v in range(50):
            assert (
                neighbours[indptr[v]:indptr[v + 1]].tolist()
                == model.open_neighbors(v)
            )
