"""Tables of the compiled-kernel definitions against stored digests.

E2 (Lemma 5 certificate), E6 (coupled double-tree thresholds), E11
(hypercube giant and connectivity scans) and E12 (giant scans on the
open-question families) draw their percolations as mask matrices over
compiled edge arrays.  E9, E10 and A3 route ``G(n, c/n)`` through the
event-driven kernel of :mod:`repro.kernels.gnp`.  Backend parity only compares backends with each
other; this gate compares each table, rendered exactly as ``repro run
<id> --scale tiny --seed <seed> --backend serial`` prints it, with the
SHA-256 recorded in ``perfbench/golden.json`` — so a drift in any of
these tables fails here, not only in the benchmark.  The file is read,
never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.registry import get_experiment
from repro.runtime import SerialRunner

GOLDEN_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "golden.json"
DEFS = ("E2", "E6", "E11", "E12", "E9", "E10", "A3")
SEEDS = (100, 101, 102)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["tiny"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("experiment_id", DEFS)
def test_table_matches_golden_digest(golden, experiment_id, seed):
    table = get_experiment(experiment_id)(
        scale="tiny", seed=seed, runner=SerialRunner()
    )
    rendered = table.render()
    digest = hashlib.sha256(rendered.encode()).hexdigest()
    assert digest == golden[str(seed)][experiment_id], rendered
