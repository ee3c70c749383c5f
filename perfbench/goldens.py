"""Record the benchmark's golden digests (``perfbench/goldens.json``).

Usage (from the repository root)::

    python3 perfbench/goldens.py

For every workload and seeds ``0..GOLDEN_SEEDS-1`` this stores the
digest of the first ``PREFIX_SHOTS`` shots and of one whole session
(the service workload: one digest per job of a cycle), computed by
fresh default-config engines.  A prefix is recorded only after it
matched the cycle-accurate model (``trace_cache=False``);
``test_goldens.py`` re-checks that.
"""

from __future__ import annotations

import json
import pathlib

from workloads import (PREFIX_SHOTS, WORKLOADS, QCPConfig,
                       reference_digests, run_digest)

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens.json"

#: Seeds ``0..GOLDEN_SEEDS-1`` get recorded goldens.
GOLDEN_SEEDS = 32


def record(seeds: range) -> dict:
    goldens: dict = {}
    for workload in WORKLOADS.values():
        entries = goldens[workload.name] = {}
        for seed in seeds:
            digests = reference_digests(workload, seed)
            model = run_digest(workload, workload.seed_base(seed),
                               PREFIX_SHOTS, QCPConfig(trace_cache=False))
            if digests["prefix"] != model:
                raise SystemExit(f"{workload.name} seed {seed}: trace-"
                                 "cached prefix differs from the "
                                 "cycle-accurate model; not recording")
            entries[str(seed)] = digests
        print(f"{workload.name}: {len(seeds)} seeds")
    return goldens


def main() -> int:
    goldens = record(range(GOLDEN_SEEDS))
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
