"""Machine-readable shot-throughput baseline (``BENCH_shots.json``).

Runs the shot-throughput suite through the compile-once
:class:`~repro.qcp.shots.ShotEngine` three times — trace cache
disabled (every shot cycle-accurate), enabled with one ``run_shot``
per seed (the serial per-shot replay loop), and enabled through
``run`` (shot-batched cohort replay: bit-plane sign columns / batch
GEMMs, auto-sized cohorts) — and writes the rates as JSON so future
PRs have a comparable perf trajectory.  Workloads:

* repetition-chain syndrome memories from 9 to 101 qubits (ideal
  substrate);
* the same chains on a **noisy** substrate (bit-flip Pauli channel
  plus readout error) — the regime the noise-aware cache serves with
  positional noise replay compiled into the sign trace;
* the 37-qubit Steane Shor-syndrome benchmark;
* a fair-coin RUS loop with the LRU trie bound engaged — the
  high-path-entropy adversary, reported with node/eviction counts to
  show memory stays bounded while throughput holds;
* the SDK-authored dynamic workloads — 3-hop teleport chain with
  feed-forward corrections, the RUS distillation unit, the prioritized
  superscalar mix — and the surface-code d=3/d=5 memories at the
  standard noise point (with their seeded golden logical error counts);
* a **dense-replay sweep** on the statevector backend through the
  compiled noise-site program: the ideal chain and the noisy chain.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py            # full suite
    PYTHONPATH=src python benchmarks/perf_report.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf_report.py -o out.json

``--quick`` runs two small workloads with tiny shot counts: it exists
so CI can catch import/runtime regressions on the perf path without
asserting anything about timing on noisy runners.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import time

from repro.benchlib.dynamic import (DISTILLATION_QUBITS,
                                    SUPERSCALAR_MIX_QUBITS,
                                    build_distillation_program,
                                    build_superscalar_mix_program,
                                    build_teleport_chain_program,
                                    teleport_chain_qubits)
from repro.benchlib.repetition import build_repetition_chain_program
from repro.benchlib.rus import build_rus_blocks
from repro.benchlib.steane import (N_QUBITS as STEANE_QUBITS,
                                   build_shor_syndrome_program)
from repro.benchlib.surface import (build_surface_memory_program,
                                    surface_layout,
                                    surface_logical_error_rate,
                                    surface_noise_model)
from repro.qcp import ShotEngine, scalar_config
from repro.qcp.tracecache import auto_batch_width
from repro.qpu.noise import NoiseModel, PauliChannel, ReadoutError
from repro.qpu.profile import DeviceProfile

#: (n_data, total qubits) for the repetition-chain sweep.
CHAIN_SIZES = ((5, 9), (13, 25), (26, 51), (51, 101))
CHAIN_ROUNDS = 2

#: Chain sizes for the noisy sweep (the cache's newest regime).
NOISY_CHAIN_SIZES = ((5, 9), (13, 25), (26, 51))

#: (n_data, qubits) for the dense (statevector) replay sweep.  Small
#: on purpose: this regime measures Python dispatch vs compiled
#: replay; past ~15 qubits the 2^n numpy kernels dominate both sides
#: and every strategy converges.
DENSE_CHAIN_SIZES = ((3, 5), (5, 9))

#: LRU bound used by the fair-coin RUS workload — deliberately smaller
#: than the trie the shot count would otherwise grow, so the baseline
#: actually exercises eviction (check the ``evictions`` count in
#: ``BENCH_shots.json``).
RUS_MAX_NODES = 40

DEFAULT_OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_shots.json"


def chain_noise_model() -> NoiseModel:
    """The noisy-sweep error model: bit-flip data errors + readout.

    A fresh instance per engine — noise models own their channel rng,
    so sharing one across engines would entangle their draw streams.
    """
    return NoiseModel(pauli=PauliChannel(px=1e-3),
                      readout=ReadoutError(p0_given_1=0.005,
                                           p1_given_0=0.002))


def _measure(program, n_qubits: int, trace_cache: bool, shots: int,
             noise_factory=None, max_nodes: int | None = None,
             backend: str = "stabilizer", batch: bool = False,
             profile: DeviceProfile | None = None
             ) -> tuple[float, ShotEngine]:
    # Serial replay is the measured baseline: shots go one run_shot at
    # a time unless this call is the explicit batched measurement.
    config = scalar_config(trace_cache=trace_cache,
                           trace_cache_max_nodes=max_nodes)
    noise = noise_factory() if noise_factory is not None else None
    engine = ShotEngine(program, config=config, backend=backend,
                        n_qubits=n_qubits, noise=noise, profile=profile)
    start = time.perf_counter()
    if batch:
        engine.run(shots)
    else:
        for seed in range(shots):
            engine.run_shot(seed)
    elapsed = time.perf_counter() - start
    return shots / elapsed, engine


def _cache_stats(cache, batched: bool = False) -> dict:
    stats = {"hits": cache.hits, "misses": cache.misses,
             "resumes": cache.resumes, "nodes": cache.nodes,
             "evictions": cache.evictions}
    if batched:
        stats.update({"batched_shots": cache.batched_shots,
                      "wavefront_splits": cache.wavefront_splits,
                      "serial_fallbacks": cache.serial_fallbacks})
    return stats


def measure_workload(program, n_qubits: int,
                     uncached_shots: int, cached_shots: int,
                     noise_factory=None,
                     max_nodes: int | None = None) -> dict:
    uncached_rate, _ = _measure(program, n_qubits, False, uncached_shots,
                                noise_factory)
    cached_rate, engine = _measure(program, n_qubits, True, cached_shots,
                                   noise_factory, max_nodes)
    batched_rate, batched_engine = _measure(
        program, n_qubits, True, cached_shots, noise_factory, max_nodes,
        batch=True)
    cache = engine.trace_cache
    entry = {
        "qubits": n_qubits,
        "backend": "stabilizer",
        "noisy": noise_factory is not None,
        "uncached_shots_per_s": round(uncached_rate, 2),
        "uncached_us_per_shot": round(1e6 / uncached_rate, 1),
        "cached_shots_per_s": round(cached_rate, 2),
        "cached_us_per_shot": round(1e6 / cached_rate, 1),
        "speedup": round(cached_rate / uncached_rate, 1),
        "batched_shots_per_s": round(batched_rate, 2),
        "batch_width": auto_batch_width(batched_engine._qpu),
        "batch_speedup": round(batched_rate / cached_rate, 2),
        "trace_cache": _cache_stats(cache),
        "batched_trace_cache": _cache_stats(
            batched_engine.trace_cache, batched=True),
    }
    if max_nodes is not None:
        entry["trace_cache"]["max_nodes"] = max_nodes
    return entry


def chain_readout_profile(n_qubits: int) -> DeviceProfile:
    """Pauli-compatible calibration: per-qubit readout flips only.

    The auto router keeps the Clifford chain on the stabilizer
    tableau under this profile, and the sign-trace replay (serial and
    batched) stays fully engaged.
    """
    qubits = {str(qubit): {"readout":
                           {"p0_given_1": round(0.004 + 0.0004 * qubit,
                                                6)}}
              for qubit in range(n_qubits)}
    return DeviceProfile.from_dict({
        "name": f"bench-readout-{n_qubits}q",
        "defaults": {"readout": {"p0_given_1": 0.005,
                                 "p1_given_0": 0.002},
                     "gates": {"x90": 22, "measure": 340}},
        "qubits": qubits,
    })


def chain_dense_profile(n_qubits: int) -> DeviceProfile:
    """Amplitude-level calibration: per-qubit T1/T2 + per-pair ZZ.

    Non-Pauli channels, so the auto router sends even the Clifford
    chain to the dense statevector, where idle decay runs the cohort
    decay kernel: batched runs replay in cohorts (bit-identical), so
    ``batched_shots`` is positive in the entry's
    ``batched_trace_cache``.
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


def measure_calibrated_workload(program, n_qubits: int,
                                profile: DeviceProfile,
                                uncached_shots: int,
                                cached_shots: int) -> dict:
    """One ``backend="auto"`` entry with a calibrated device profile.

    The engine routes once (Clifford/noise analysis over the program
    and the profile-composed channels) and the entry records the
    decision next to the throughput numbers, plus the profile's
    content fingerprint — the same key component that gives the
    service a new engine when a single calibration value changes.
    """
    uncached_rate, engine = _measure(program, n_qubits, False,
                                     uncached_shots, backend="auto",
                                     profile=profile)
    cached_rate, cached_engine = _measure(program, n_qubits, True,
                                          cached_shots, backend="auto",
                                          profile=profile)
    batched_rate, batched_engine = _measure(program, n_qubits, True,
                                            cached_shots, backend="auto",
                                            profile=profile, batch=True)
    return {
        "qubits": n_qubits,
        "backend": engine.backend,
        "routing": engine.routing.as_dict(),
        "profile": {"name": profile.name,
                    "qubits": len(profile.qubits),
                    "couplings": len(profile.couplings),
                    "fingerprint": profile.fingerprint()},
        "noisy": True,
        "uncached_shots_per_s": round(uncached_rate, 2),
        "uncached_us_per_shot": round(1e6 / uncached_rate, 1),
        "cached_shots_per_s": round(cached_rate, 2),
        "cached_us_per_shot": round(1e6 / cached_rate, 1),
        "speedup": round(cached_rate / uncached_rate, 1),
        "batched_shots_per_s": round(batched_rate, 2),
        "batch_width": auto_batch_width(batched_engine._qpu),
        "batch_speedup": round(batched_rate / cached_rate, 2),
        "trace_cache": _cache_stats(cached_engine.trace_cache),
        "batched_trace_cache": _cache_stats(
            batched_engine.trace_cache, batched=True),
    }


def measure_dense_workload(program, n_qubits: int,
                           uncached_shots: int, cached_shots: int,
                           noise_factory=None) -> dict:
    """One dense (statevector) sweep entry: the compiled (GEMM-fused)
    noise-site program, serially and in cohorts, against the
    cycle-accurate rate."""
    uncached_rate, _ = _measure(program, n_qubits, False,
                                uncached_shots, noise_factory,
                                backend="statevector")
    cached_rate, engine = _measure(program, n_qubits, True, cached_shots,
                                   noise_factory, backend="statevector")
    batched_rate, batched_engine = _measure(
        program, n_qubits, True, cached_shots, noise_factory,
        backend="statevector", batch=True)
    return {
        "qubits": n_qubits,
        "backend": "statevector",
        "noisy": noise_factory is not None,
        "uncached_shots_per_s": round(uncached_rate, 2),
        "cached_shots_per_s": round(cached_rate, 2),
        "speedup": round(cached_rate / uncached_rate, 1),
        "batched_shots_per_s": round(batched_rate, 2),
        "batch_width": auto_batch_width(batched_engine._qpu),
        "batch_speedup": round(batched_rate / cached_rate, 2),
        "trace_cache": _cache_stats(engine.trace_cache),
        "batched_trace_cache": _cache_stats(
            batched_engine.trace_cache, batched=True),
    }


def measure_service_sweep(quick: bool = False) -> dict:
    """Sharded shot-sweep service vs the serial engine.

    The cycle-accurate-bound regime (trace cache **off**) is where
    sharding pays: every shot costs a full event-driven simulation, so
    N workers approach N-fold throughput.  The serial baseline and
    every service run are asserted bit-identical before any rate is
    reported — a perf number for a wrong result would be worthless.
    Worker counts beyond the machine's cores are measured anyway (the
    numbers just stop scaling), so the entry is comparable across
    runners; ``cpus`` records the budget the run actually had.
    """
    import os

    from repro.service.client import ServiceClient
    from repro.service.server import ServiceHandle

    n_data, n_qubits = (3, 5) if quick else (5, 9)
    shots = 24 if quick else 256
    program = build_repetition_chain_program(
        n_data, rounds=CHAIN_ROUNDS, encode_one=True)
    text = program.to_asm()
    config = scalar_config(trace_cache=False)
    engine = ShotEngine(program, config=config, backend="stabilizer",
                        n_qubits=n_qubits)
    start = time.perf_counter()
    serial = engine.run(shots)
    serial_rate = shots / (time.perf_counter() - start)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    entry = {
        "qubits": n_qubits,
        "backend": "stabilizer",
        "shots": shots,
        "cpus": cpus,
        "serial_shots_per_s": round(serial_rate, 2),
        "workers": {},
    }
    worker_counts = (1,) if quick else (1, 2, 4)
    for n_workers in worker_counts:
        with ServiceHandle.start(n_workers=n_workers) as handle:
            client = ServiceClient(handle.host, handle.port)
            # Warm-up: one-shot shards fan out so every worker
            # compiles its engine before the measured job.
            client.run_sweep(text, shots=4 * n_workers, seed=shots,
                             backend="stabilizer",
                             config={"trace_cache": False},
                             shard_shots=1)
            start = time.perf_counter()
            result, event = client.run_sweep(
                text, shots=shots, backend="stabilizer",
                config={"trace_cache": False})
            rate = shots / (time.perf_counter() - start)
        assert result.counts == serial.counts, "service != serial"
        assert result.total_ns == serial.total_ns, "service != serial"
        entry["workers"][str(n_workers)] = {
            "shots_per_s": round(rate, 2),
            "speedup_vs_serial": round(rate / serial_rate, 2),
            "shards": event["shards"],
        }
    return entry


def histogram_digest(result) -> str:
    """Stable digest of a shot histogram (counts + total duration).

    A run that changed a single count or nanosecond shows up as a
    digest mismatch, not a buried diff.  ``perfbench``'s golden
    digests use the same rendering.
    """
    body = json.dumps([sorted((str(key), count)
                              for key, count in result.counts.items()),
                       result.total_ns])
    return hashlib.sha256(body.encode()).hexdigest()


def run_suite(quick: bool = False) -> dict:
    workloads: dict[str, dict] = {}
    sizes = CHAIN_SIZES[:1] if quick else CHAIN_SIZES
    noisy_sizes = NOISY_CHAIN_SIZES[:1] if quick else NOISY_CHAIN_SIZES
    uncached_shots = 5 if quick else 20
    cached_shots = 50 if quick else 400
    for n_data, n_qubits in sizes:
        program = build_repetition_chain_program(
            n_data, rounds=CHAIN_ROUNDS, encode_one=True)
        workloads[f"repetition_chain_{n_qubits}q"] = measure_workload(
            program, n_qubits, uncached_shots, cached_shots)
    for n_data, n_qubits in noisy_sizes:
        program = build_repetition_chain_program(
            n_data, rounds=CHAIN_ROUNDS, encode_one=True)
        workloads[f"repetition_chain_noisy_{n_qubits}q"] = \
            measure_workload(program, n_qubits, uncached_shots,
                             cached_shots,
                             noise_factory=chain_noise_model)
    dense_sizes = DENSE_CHAIN_SIZES[:1] if quick else DENSE_CHAIN_SIZES
    for n_data, n_qubits in dense_sizes:
        program = build_repetition_chain_program(
            n_data, rounds=CHAIN_ROUNDS, encode_one=True)
        workloads[f"repetition_chain_dense_{n_qubits}q"] = \
            measure_dense_workload(program, n_qubits, uncached_shots,
                                   cached_shots)
        workloads[f"repetition_chain_dense_noisy_{n_qubits}q"] = \
            measure_dense_workload(program, n_qubits, uncached_shots,
                                   cached_shots,
                                   noise_factory=chain_noise_model)
    # Calibrated device profiles through ``backend="auto"``: one
    # Pauli-compatible calibration the router keeps on the tableau,
    # and one amplitude-level calibration that forces the *same
    # Clifford chain* onto the dense statevector.  Both cells run in
    # --quick so the CI smoke covers each routing outcome.
    program = build_repetition_chain_program(
        5, rounds=CHAIN_ROUNDS, encode_one=True)
    workloads["repetition_chain_calibrated_9q"] = \
        measure_calibrated_workload(program, 9, chain_readout_profile(9),
                                    uncached_shots, cached_shots)
    program = build_repetition_chain_program(
        3, rounds=CHAIN_ROUNDS, encode_one=True)
    workloads["repetition_chain_calibrated_dense_5q"] = \
        measure_calibrated_workload(program, 5, chain_dense_profile(5),
                                    uncached_shots, cached_shots)
    if not quick:
        program = build_shor_syndrome_program(rounds=3)
        workloads["steane_shor_37q"] = measure_workload(
            program, STEANE_QUBITS, uncached_shots, cached_shots)
        # High path entropy: two fair-coin RUS loops.  Cached shots
        # equal uncached here — the point is the LRU-bounded trie and
        # throughput parity, not a replay speedup.
        program = build_rus_blocks(2)
        workloads["rus_fair_coin_2x"] = measure_workload(
            program, 6, 200, 200, max_nodes=RUS_MAX_NODES)
        # SDK-authored dynamic workloads: feed-forward corrections,
        # RUS acceptance and a prioritized multi-program mix.
        program = build_teleport_chain_program(3)
        workloads["teleport_chain_3hop"] = measure_workload(
            program, teleport_chain_qubits(3), uncached_shots,
            cached_shots)
        program = build_distillation_program(3)
        workloads["distillation_rus_5q"] = measure_workload(
            program, DISTILLATION_QUBITS, uncached_shots, cached_shots)
        program = build_superscalar_mix_program()
        workloads["superscalar_mix_8q"] = measure_workload(
            program, SUPERSCALAR_MIX_QUBITS, uncached_shots,
            cached_shots)
        # Surface-code memories at the standard noise point: the
        # deepest path-entropy workloads (one MRCE-reset decision per
        # stabilizer per round), reported with the seeded golden
        # logical error count the tier-1 tests pin.
        for distance in (3, 5):
            layout = surface_layout(distance)
            program = build_surface_memory_program(distance, rounds=2)
            entry = measure_workload(
                program, layout.n_qubits, uncached_shots, cached_shots,
                noise_factory=surface_noise_model)
            entry["rounds"] = 2
            entry["logical_errors_per_100"] = surface_logical_error_rate(
                distance, rounds=2, shots=100).logical_errors
            workloads[f"surface_d{distance}_{layout.n_qubits}q"] = entry
    workloads["service_sweep"] = measure_service_sweep(quick)
    return {
        "schema": "bench-shots/v11",
        "description": ("Shot throughput of the compile-once ShotEngine "
                        "with the cycle-accurate simulator (uncached) vs "
                        "trace-cache replay (cached = serial per-shot "
                        "loop, batched = lockstep cohorts at the "
                        "reported batch_width), on ideal and noisy "
                        "substrates; the service_sweep entry shards a "
                        "cycle-accurate-bound sweep across the "
                        "shot-sweep service's worker pool and reports "
                        "per-worker-count "
                        "speedup over the serial engine (results "
                        "asserted bit-identical first); v7 adds "
                        "the SDK-authored dynamic workloads (teleport "
                        "chain, RUS distillation, superscalar mix) and "
                        "the surface-code d=3/d=5 memories at the "
                        "standard noise point, each carrying its "
                        "seeded logical_errors_per_100 golden; v8 adds "
                        "the calibrated device-profile chains run "
                        "through backend='auto' — each entry records "
                        "the routing decision (Clifford/noise analysis "
                        "over the profile-composed channels) and the "
                        "profile's content fingerprint next to the "
                        "throughput numbers; v9 drops the noisy dense "
                        "entries' device_replay_shots_per_s and "
                        "speedup_vs_device_replay, whose replay loop "
                        "no longer exists; v10 drops the artifact "
                        "warm-start entries; v11 drops the ideal dense "
                        "entries' unfused_shots_per_s and "
                        "fusion_speedup: dense replay always fuses, "
                        "and the cached rates serve one run_shot per "
                        "seed."),
        "config": {"backend": "stabilizer + statevector (dense sweep)",
                   "chain_rounds": CHAIN_ROUNDS,
                   "noise": "PauliChannel(px=1e-3) + "
                            "ReadoutError(0.005, 0.002)",
                   "rus_max_nodes": RUS_MAX_NODES,
                   "quick": quick,
                   "python": platform.python_version()},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="two small workloads, tiny shot counts "
                             "(CI smoke: exercises the perf path, "
                             "asserts nothing about timing)")
    parser.add_argument("-o", "--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help=f"output path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    header = f"{'workload':<28} {'uncached/s':>11} {'cached/s':>10} " \
             f"{'batched/s':>10} {'speedup':>8} {'batch':>6}"
    print(header)
    for name, data in report["workloads"].items():
        if name == "service_sweep":
            scaling = ", ".join(
                f"{w}w {info['speedup_vs_serial']}x"
                for w, info in data["workers"].items())
            print(f"{name:<28} {data['serial_shots_per_s']:>11} "
                  f"service: {scaling} ({data['cpus']} cpus)")
            continue
        batched = data.get("batched_shots_per_s")
        batch_speedup = data.get("batch_speedup")
        print(f"{name:<28} {data['uncached_shots_per_s']:>11} "
              f"{data['cached_shots_per_s']:>10} "
              f"{batched if batched is not None else '-':>10} "
              f"{data['speedup']:>7}x "
              f"{f'{batch_speedup}x' if batch_speedup is not None else '-':>6}")
        stats = data.get("batched_trace_cache")
        if stats and (stats["wavefront_splits"]
                      or stats["serial_fallbacks"]):
            print(f"{'':<28} batched: {stats['batched_shots']} shots, "
                  f"{stats['wavefront_splits']} wavefront splits, "
                  f"{stats['serial_fallbacks']} serial fallbacks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
