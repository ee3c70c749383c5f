"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

The golden digests are tied to the cycle-accurate model
(``trace_cache=False``), not to the fast paths that produced them.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from workloads import (PREFIX_SHOTS, REPO_ROOT, WORKLOADS, QCPConfig,
                       run_digest, shor_engine)
from tracing import LAYERS, Tracer

GOLDENS = json.loads((REPO_ROOT / "perfbench" / "goldens.json").read_text())
CYCLE_ACCURATE = QCPConfig(trace_cache=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_prefix_goldens_match_cycle_accurate(name):
    workload = WORKLOADS[name]
    recorded = GOLDENS[name]
    assert len(recorded) >= 10
    for seed, digests in recorded.items():
        model = run_digest(workload, workload.seed_base(int(seed)),
                           PREFIX_SHOTS, CYCLE_ACCURATE)
        assert digests["prefix"] == model, f"{name} seed {seed}"


@pytest.mark.parametrize("name", ["surface_d5", "calibrated_dense_9q"])
def test_session_golden_matches_cycle_accurate(name):
    workload = WORKLOADS[name]
    model = run_digest(workload, workload.seed_base(0),
                       workload.session_shots, CYCLE_ACCURATE)
    assert GOLDENS[name]["0"]["session"] == model


def test_service_job_golden_matches_cycle_accurate():
    workload = WORKLOADS["service_sweep"]
    first = workload.job_seeds(0)[0]
    model = run_digest(workload, first, workload.job_shots, CYCLE_ACCURATE)
    assert GOLDENS["service_sweep"]["0"]["session"][0] == model


def test_tracer_restores_every_layer():
    originals = [owner.__dict__[attribute]
                 for _, owner, attribute, _ in LAYERS]
    tracer = Tracer()
    tracer.install()
    try:
        traced = shor_engine(QCPConfig()).run(4)
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attribute]
            for _, owner, attribute, _ in LAYERS] == originals
    taken = tracer.take()
    assert taken["layers"]["shots.construct"]["calls"] == 1
    assert taken["counts"]["system.events"] > 0
    assert traced.counts == shor_engine(QCPConfig()).run(4).counts


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_a_correct_result_last(trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "calibrated_dense_9q", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
