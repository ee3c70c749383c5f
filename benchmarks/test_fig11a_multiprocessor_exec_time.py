"""Figure 11a: Shor-syndrome execution time vs. processor count.

Paper setup: the 37-qubit Steane-code Shor syndrome measurement (50
blocks, 15 priorities) on 1/2/4/6-processor implementations, three
preparation failure rates, measurement outcomes from a PRNG, results
averaged over repeated executions.  Expected shape: execution time
falls with processor count and rises with failure rate.
"""

from __future__ import annotations

import statistics

from repro.analysis import format_table
from repro.benchlib import (build_shor_syndrome_program,
                            verification_qubits)
from repro.qcp import ShotEngine, scalar_config
from repro.qpu import PRNGQPU, PRNGReadout

FAILURE_RATES = (0.1, 0.25, 0.5)
PROCESSOR_COUNTS = (1, 2, 4, 6)
RUNS_PER_POINT = 60


def point_times(program, n_processors: int,
                failure_rate: float) -> list[int]:
    """``total_ns`` of runs 0..RUNS_PER_POINT-1 of one point: one
    compile-once engine, a fresh PRNG-readout QPU seeded per run."""
    per_qubit = {q: failure_rate for q in verification_qubits()}
    engine = ShotEngine(
        program, config=scalar_config(), n_processors=n_processors,
        n_qubits=37,
        qpu_factory=lambda seed: PRNGQPU(37, PRNGReadout(
            failure_rate=0.0, per_qubit=per_qubit, seed=seed)))
    return [engine.run_shot(seed)[1] for seed in range(RUNS_PER_POINT)]


def sweep():
    program = build_shor_syndrome_program()
    means: dict[tuple[float, int], float] = {}
    for rate in FAILURE_RATES:
        for count in PROCESSOR_COUNTS:
            means[(rate, count)] = statistics.fmean(
                point_times(program, count, rate))
    return means


def test_fig11a_execution_time(benchmark, report):
    means = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for rate in FAILURE_RATES:
        row = [f"{rate:.0%}"]
        row.extend(round(means[(rate, count)] / 1000.0, 2)
                   for count in PROCESSOR_COUNTS)
        rows.append(row)
    report("fig11a_multiprocessor_exec_time", format_table(
        ["failure rate"] + [f"{c} proc (us)" for c in PROCESSOR_COUNTS],
        rows,
        title=("Figure 11a - mean execution time of the Shor syndrome "
               f"measurement ({RUNS_PER_POINT} runs/point)")))
    for rate in FAILURE_RATES:
        series = [means[(rate, count)] for count in PROCESSOR_COUNTS]
        # Execution time decreases monotonically with processor count.
        assert series == sorted(series, reverse=True), rate
    for count in PROCESSOR_COUNTS:
        by_rate = [means[(rate, count)] for rate in FAILURE_RATES]
        # Higher failure rate -> more RUS retries -> longer execution.
        assert by_rate == sorted(by_rate), count
