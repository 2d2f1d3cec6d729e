"""Regression: the kernel-split audit on kernel-less fault models.

``repro info`` audits each def by counting kernel-eligible vs
per-trial-fallback specs (:func:`repro.runtime.chunkexec.kernel_split`).
Custom fault-model factories are usually *not* registered with the
kernel seam — the audit must report them as "per-trial fallback", not
crash and not mislabel them as vectorized.  The nastiest case is a
factory object that is not even hashable (e.g. an ``eq=True``,
non-frozen dataclass instance): the registry lookup itself would raise
``TypeError`` without the guard in ``compile_run_trial_chunk``.
"""

from dataclasses import dataclass

import pytest

from repro.core.complexity import complexity_specs
from repro.experiments.cli import _kernel_audit_line
from repro.experiments.registry import get_experiment
from repro.graphs.clos import FatTree
from repro.percolation.faults import NodeFaultPercolation
from repro.routers.waypoint import WaypointRouter
from repro.runtime import SerialRunner
from repro.runtime.chunkexec import kernel_split


def _unregistered_factory(graph, p, seed):
    return NodeFaultPercolation(graph, p, seed=seed)


@dataclass(eq=True)
class _UnhashableFactory:
    # eq=True without frozen=True: __hash__ is set to None, so this
    # instance cannot even be *looked up* in the kernel registry.
    budget: int = 0

    def __call__(self, graph, p, seed):
        return NodeFaultPercolation(graph, p, seed=seed)


def _specs(factory):
    return complexity_specs(
        FatTree(4),
        p=0.8,
        router=WaypointRouter(),
        trials=6,
        seed=3,
        model_factory=factory,
        key=("audit", str(factory)),
    )


def test_unregistered_factory_audits_as_fallback():
    kernel, fallback = kernel_split(_specs(_unregistered_factory))
    assert (kernel, fallback) == (0, 6)


def test_unhashable_factory_does_not_crash_the_audit():
    factory = _UnhashableFactory()
    kernel, fallback = kernel_split(_specs(factory))
    assert (kernel, fallback) == (0, 6)
    # ...and the specs still *execute* through the per-trial path.
    records = SerialRunner().run_values(_specs(factory))
    assert len(records) == 6


def test_default_factory_still_vectorizes():
    # The guard must not regress the registered path.
    kernel, fallback = kernel_split(_specs(None))
    assert (kernel, fallback) == (6, 0)


def test_info_line_reports_fallback_for_e16():
    # E16's factory is deliberately unregistered: pure fallback.
    line = _kernel_audit_line(get_experiment("E16"))
    assert "per-trial fallback" in line
    assert "vectorized" not in line
    assert "0/" in line


def test_registered_node_factory_audits_as_kernel():
    # E15's own node factory is registered with the kernel seam
    # (node_model_kernel); the identically-behaved local factory above
    # is not — eligibility keys on the factory callable, not on what
    # it builds.
    from repro.experiments.defs.e15_clos_faults import _node_factory

    kernel, fallback = kernel_split(_specs(_node_factory))
    assert (kernel, fallback) == (6, 0)


def test_info_line_reports_mixed_split_for_e15():
    # E15's iid and node arms ride chunk kernels; the correlated and
    # adversarial arms fall back — the audit must show both.
    line = _kernel_audit_line(get_experiment("E15"))
    assert "vectorized chunk kernel + per-trial fallback" in line


def test_info_line_reports_per_stage_breakdown():
    line = _kernel_audit_line(get_experiment("E15"))
    stages = [l for l in line.splitlines() if l.startswith("stages:")]
    assert len(stages) == 1
    # Half the tiny-scale specs (iid + node of four arms) are
    # kernel-eligible in every stage.
    assert stages[0] == (
        "stages: draw 20/40 kernel  conditioning 20/40 kernel  "
        "routing 20/40 kernel"
    )


def test_info_line_names_commodity_batched_routing_for_traffic_defs():
    # Demand-matrix defs route whole chunks of commodities through one
    # batched frontier pass; the stage split says so by name.  Pair
    # defs (above) keep the plain "routing" label.
    line = _kernel_audit_line(get_experiment("E18"))
    assert "routing (commodity-batched)" in line
    pair_line = _kernel_audit_line(get_experiment("E15"))
    assert "(commodity-batched)" not in pair_line


@pytest.mark.parametrize(
    "experiment_id,specs", [("E9", 16), ("A3", 24), ("E10", 20)]
)
def test_info_line_reports_gnp_defs_fully_vectorized(experiment_id, specs):
    # The G(n, p) growth routers ride the event-driven kernel of
    # repro.kernels.gnp in every stage, E10's local comparison included.
    line = _kernel_audit_line(get_experiment(experiment_id))
    whole = f"{specs}/{specs}"
    assert line.splitlines() == [
        f"execution: vectorized chunk kernel ({whole} specs "
        "kernel-eligible at tiny scale)",
        f"stages: draw {whole} kernel  conditioning {whole} kernel  "
        f"routing {whole} kernel",
    ]
