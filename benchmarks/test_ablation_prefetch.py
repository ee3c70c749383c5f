"""Ablation: private-instruction-cache prefetch (Section 5.2.3).

The paper motivates prefetching blocks into the second cache bank so a
block switch costs a few cycles instead of a full cache fill.  This
ablation runs the Shor-syndrome benchmark with prefetch enabled vs.
disabled and quantifies the benefit.
"""

from __future__ import annotations

import statistics

from repro.analysis import format_table
from repro.benchlib import (build_shor_syndrome_program,
                            verification_qubits)
from repro.qcp import ShotEngine, scalar_config
from repro.qpu import PRNGQPU, PRNGReadout

RUNS = 30
PROCESSOR_COUNTS = (1, 2, 4)


def mean_time(program, n_processors: int, prefetch: bool) -> float:
    """Mean ``total_ns`` of runs 0..RUNS-1 of one point: one
    compile-once engine, a fresh PRNG-readout QPU seeded per run."""
    per_qubit = {q: 0.25 for q in verification_qubits()}
    engine = ShotEngine(
        program, config=scalar_config(enable_prefetch=prefetch),
        n_processors=n_processors, n_qubits=37,
        qpu_factory=lambda seed: PRNGQPU(37, PRNGReadout(
            failure_rate=0.0, per_qubit=per_qubit, seed=seed)))
    return statistics.fmean(engine.run_shot(seed)[1]
                            for seed in range(RUNS))


def sweep():
    program = build_shor_syndrome_program()
    return {(count, prefetch): mean_time(program, count, prefetch)
            for count in PROCESSOR_COUNTS
            for prefetch in (True, False)}


def test_ablation_prefetch(benchmark, report):
    means = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for count in PROCESSOR_COUNTS:
        with_prefetch = means[(count, True)]
        without = means[(count, False)]
        rows.append([count, round(with_prefetch / 1000.0, 2),
                     round(without / 1000.0, 2),
                     f"{(without / with_prefetch - 1) * 100:.1f}%"])
    report("ablation_prefetch", format_table(
        ["processors", "prefetch on (us)", "prefetch off (us)",
         "slowdown without"], rows,
        title="Ablation - private-cache prefetch (Shor syndrome, 25% "
              "failure rate)"))
    # Prefetch never hurts and visibly helps once blocks switch often.
    for count in PROCESSOR_COUNTS:
        assert means[(count, True)] <= means[(count, False)] * 1.01
    assert means[(4, False)] > means[(4, True)] * 1.03
