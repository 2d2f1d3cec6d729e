#!/usr/bin/env python3
"""Reference table digests every benchmark run is checked against.

``golden.json`` maps scale -> seed -> experiment id -> the SHA-256 of
the table exactly as ``repro run <id> --scale <scale> --seed <seed>
--backend serial`` prints it (``ResultTable.render()``).  The
``suite-serial`` workload runs the first small seed; ``cluster-tiny``
and ``serve-mixed`` draw their seeds from the tiny set.  So each of
their tables is compared with the serial reference without
recomputing it inside the run.

Regenerate only when a change is meant to alter tables:

    python3 perfbench/golden.py --scale small --seeds 0
    python3 perfbench/golden.py --scale tiny --seeds 100-131
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def seeds_for(golden: dict, scale: str) -> list[int]:
    return sorted(int(seed) for seed in golden[scale])


def expected(golden: dict, scale: str, seed: int) -> dict[str, str]:
    return golden[scale][str(seed)]


def _parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def compute(scale: str, seeds: list[int]) -> dict[str, dict[str, str]]:
    """Serial reference digests for every registered definition."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.experiments.registry import all_experiments
    from repro.runtime import SerialRunner

    out = {}
    for seed in seeds:
        out[str(seed)] = {
            spec.experiment_id: digest(
                spec(scale=scale, seed=seed, runner=SerialRunner()).render()
            )
            for spec in all_experiments()
        }
        print(f"{scale} seed {seed}: done", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "small"), required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-7 or 5")
    args = parser.parse_args(argv)
    digests = compute(args.scale, _parse_seeds(args.seeds))
    golden = load() if GOLDEN_PATH.exists() else {}
    golden.setdefault(args.scale, {}).update(digests)
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
