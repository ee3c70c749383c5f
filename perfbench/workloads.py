"""Workload definitions of the repository benchmark.

Every workload drives the real entry points — a default-config
:class:`~repro.qcp.shots.ShotEngine`, or a live
:class:`~repro.service.server.ServiceHandle` queried through a
:class:`~repro.service.client.ServiceClient` — on inputs derived only
from the benchmark's ``--seed``.

In-process workloads run in **sessions**.  A session is one engine
lifetime: construct the engine and run its first shot (the set-up
sample), then ``jobs`` calls of :meth:`ShotEngine.run_range` over
``job_shots`` consecutive seeds each (the latency samples).  Every
session of a run covers the same seed range, so every session must
produce the same histogram, ``total_ns`` and trace-cache counters.

The service workload runs **cycles** of ``jobs`` back-to-back sweeps
with distinct seeds through one service instance.

Importing this module puts the repository's ``src`` directory first on
``sys.path``; it fails with ``ImportError`` when the sources are absent.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"repository sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.benchlib.repetition import build_repetition_chain_program  # noqa: E402
from repro.benchlib.steane import (N_QUBITS as STEANE_QUBITS,  # noqa: E402
                                   build_shor_syndrome_program)
from repro.benchlib.surface import (build_surface_memory_program,  # noqa: E402
                                    surface_layout, surface_noise_model)
from repro.qcp.config import QCPConfig  # noqa: E402
from repro.qcp.shots import (ShotEngine, ShotResult,  # noqa: E402
                              merge_shard_outcomes)
from repro.qpu.profile import DeviceProfile  # noqa: E402

#: Shot seeds of one benchmark seed start at ``seed * SEED_STRIDE``;
#: no workload covers more than this many shots per benchmark seed.
SEED_STRIDE = 100_000

#: Leading shots of a seed range replayed against the cycle-accurate
#: model (``trace_cache=False``) on every run.
PREFIX_SHOTS = 16

#: Paper's reported speed-up of the 6-core QuAPE over one core on the
#: 37-qubit Shor syndrome measurement (measured with PRNG readouts).
PAPER_SPEEDUP_6C = 2.59

#: Worker processes of the service workload: two, capped at the CPUs
#: this process may run on.
SERVICE_WORKERS = min(2, len(os.sched_getaffinity(0)))


def histogram_digest(result: ShotResult) -> str:
    """sha256 over the sorted histogram and ``total_ns``.

    The same digest as ``benchmarks/perf_report.histogram_digest``,
    kept here so the benchmark's goldens do not move when that report
    changes.
    """
    body = json.dumps([sorted((str(key), count)
                              for key, count in result.counts.items()),
                       result.total_ns])
    return hashlib.sha256(body.encode()).hexdigest()


def chain_dense_profile(n_qubits: int) -> DeviceProfile:
    """Calibrated T1/T2, per-pair ZZ and readout profile.

    Built like ``perf_report.chain_dense_profile``: the non-Pauli
    channels make ``backend="auto"`` route the Clifford chain to the
    dense statevector, and decoherence makes batched replay decline.
    """
    qubits = {str(qubit): {"t1_us": 60.0 + 5.0 * qubit, "t2_us": 45.0}
              for qubit in range(n_qubits)}
    couplings = [{"pair": [qubit, qubit + 1],
                  "zz_khz": 1800.0 - 150.0 * qubit}
                 for qubit in range(n_qubits - 1)]
    return DeviceProfile.from_dict({
        "name": f"bench-dense-{n_qubits}q",
        "defaults": {"readout": {"p0_given_1": 0.01,
                                 "p1_given_0": 0.004},
                     "gates": {"x90": 24, "cz": 64, "measure": 340}},
        "qubits": qubits,
        "couplings": couplings,
    })


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_engine(config)`` builds a fresh engine on the workload's
    program; ``config`` is ``QCPConfig()`` for measured runs and
    ``QCPConfig(trace_cache=False)`` for the cycle-accurate reference.
    """

    name: str
    why: str
    make_engine: Callable[[QCPConfig], ShotEngine]
    jobs: int
    job_shots: int
    #: Shots one long-lived engine runs before peak memory is read.
    memory_shots: int = 0
    service: bool = False

    @property
    def session_shots(self) -> int:
        """Shots covered by one session (service: one cycle)."""
        if self.service:
            return self.jobs * self.job_shots
        return 1 + self.jobs * self.job_shots

    def seed_base(self, seed: int) -> int:
        return seed * SEED_STRIDE

    def job_seeds(self, seed: int) -> list[int]:
        """First shot seed of each service job of one cycle."""
        base = self.seed_base(seed)
        return [base + index * self.job_shots
                for index in range(self.jobs)]


# Programs and profiles are built once per process: set-up time is the
# engine's own (decode, QPU, first shot), not program construction.
@functools.cache
def _shor_program():
    return build_shor_syndrome_program(rounds=3)


@functools.cache
def _surface_program():
    return build_surface_memory_program(5, rounds=2)


@functools.cache
def _chain_program():
    return build_repetition_chain_program(5, rounds=2, encode_one=True)


@functools.cache
def _chain_profile() -> DeviceProfile:
    return chain_dense_profile(9)


def shor_engine(config: QCPConfig, n_processors: int = 6) -> ShotEngine:
    return ShotEngine(_shor_program(), config=config,
                      backend="stabilizer", n_processors=n_processors,
                      n_qubits=STEANE_QUBITS)


def _surface_engine(config: QCPConfig) -> ShotEngine:
    # A fresh noise model per engine: it owns its channel rng.
    return ShotEngine(_surface_program(), config=config,
                      backend="stabilizer",
                      n_qubits=surface_layout(5).n_qubits,
                      noise=surface_noise_model())


def _dense_engine(config: QCPConfig) -> ShotEngine:
    return ShotEngine(_chain_program(), config=config, backend="auto",
                      n_qubits=9, profile=_chain_profile())


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("shor_6core",
             "paper benchmark, replay-bound: one cold shot, then cohort "
             "replay of the only decision path on the stabilizer tableau",
             shor_engine, jobs=8, job_shots=256, memory_shots=2048),
    Workload("surface_d5",
             "miss-bound: noisy d=5 surface memory leaves the trie on "
             "almost every shot, so resume and recording do the work",
             _surface_engine, jobs=4, job_shots=8, memory_shots=256),
    Workload("calibrated_dense_9q",
             "only dense workload: calibrated T1/T2+ZZ profile routes via "
             "auto to the statevector, where cohorts decline",
             _dense_engine, jobs=8, job_shots=48, memory_shots=384),
    Workload("service_sweep",
             "only service workload: closed loop of shor_6core jobs "
             "through validation, sharding, worker IPC and merge",
             shor_engine, jobs=4, job_shots=512, service=True),
)}


def shor_program_text() -> str:
    """The Shor-syndrome program as the service receives it."""
    return _shor_program().to_asm()


def run_digest(workload: Workload, start: int, shots: int,
               config: QCPConfig | None = None) -> str:
    """Digest of seeds ``start..start+shots-1`` on a fresh engine."""
    engine = workload.make_engine(config or QCPConfig())
    return histogram_digest(merge_shard_outcomes(
        [engine.run_range(start, start + shots)]))


def reference_digests(workload: Workload, seed: int) -> dict:
    """The digests a run of ``seed`` must reproduce.

    ``prefix``: the first :data:`PREFIX_SHOTS` shots of the range;
    ``session``: one whole session (in-process) or the list of job
    digests of one cycle (service).  All come from a fresh
    default-config engine.
    """
    base = workload.seed_base(seed)
    digests = {"prefix": run_digest(workload, base, PREFIX_SHOTS)}
    if workload.service:
        digests["session"] = [run_digest(workload, start,
                                         workload.job_shots)
                              for start in workload.job_seeds(seed)]
    else:
        digests["session"] = run_digest(workload, base,
                                        workload.session_shots)
    return digests
