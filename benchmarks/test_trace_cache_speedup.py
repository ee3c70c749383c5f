"""Trace-cache shot throughput: decision-trie replay vs cycle-accurate.

The PR 1 compile-once ShotEngine removed per-shot *setup* cost but still
re-executed the cycle-accurate control-stack simulation for every shot
(~35 shots/s on the 37-qubit Steane Shor-syndrome workload).  The trace
cache exploits the paper's determinism insight: behaviour between
measurements is a pure function of the control-flow decisions, so shots
sharing a decision path replay recorded traces straight into the QPU
backend — here compiled further into sign-column bit operations on the
stabilizer tableau.  This benchmark quantifies the speedup and asserts
the results stay bit-identical.
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.benchlib.repetition import build_repetition_chain_program
from repro.benchlib.steane import N_QUBITS as STEANE_QUBITS
from repro.benchlib.steane import build_shor_syndrome_program
from repro.qcp import ShotEngine, scalar_config

UNCACHED_SHOTS = 20
CACHED_SHOTS = 400
IDENTITY_SHOTS = 25
CHAIN_DATA, CHAIN_QUBITS = 26, 51


def serial_rate(engine, shots: int):
    """Shots/s and per-seed results of ``engine`` serving seeds one
    ``run_shot`` at a time: the *serial* replay loop the first
    trace-cache speedup figures were taken against (the batched cohort
    engine has its own benchmark below)."""
    start = time.perf_counter()
    results = [engine.run_shot(seed) for seed in range(shots)]
    return shots / (time.perf_counter() - start), results


def rate(program, n_qubits: int, trace_cache: bool, shots: int):
    engine = ShotEngine(program,
                        config=scalar_config(trace_cache=trace_cache),
                        backend="stabilizer", n_qubits=n_qubits)
    return serial_rate(engine, shots) + (engine,)


def sweep():
    steane = build_shor_syndrome_program(rounds=3)
    chain = build_repetition_chain_program(CHAIN_DATA, rounds=2,
                                           encode_one=True)
    rows = {}
    for name, program, qubits in (
            ("steane_37q", steane, STEANE_QUBITS),
            (f"chain_{CHAIN_QUBITS}q", chain, CHAIN_QUBITS)):
        uncached, _, _ = rate(program, qubits, False, UNCACHED_SHOTS)
        cached, _, engine = rate(program, qubits, True, CACHED_SHOTS)
        _, ref, _ = rate(program, qubits, False, IDENTITY_SHOTS)
        _, replayed, _ = rate(program, qubits, True, IDENTITY_SHOTS)
        rows[name] = {
            "uncached": uncached, "cached": cached,
            "speedup": cached / uncached,
            "identical": replayed == ref,
            "cache": engine.trace_cache,
        }
    return rows


def test_trace_cache_throughput(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [[name,
              f"{data['uncached']:.1f}",
              f"{data['cached']:.1f}",
              f"{data['speedup']:.0f}x",
              f"{data['cache'].hits}/{data['cache'].misses}",
              "yes" if data["identical"] else "NO"]
             for name, data in rows.items()]
    report("trace_cache", format_table(
        ["workload", "cycle-accurate shots/s", "trace-cache shots/s",
         "speedup", "hits/misses", "bit-identical"],
        table,
        title=("Outcome-keyed trace cache vs cycle-accurate shot "
               "execution (stabilizer backend)")))

    for name, data in rows.items():
        # Histograms and completion times must be bit-identical: the
        # cache is an execution strategy, not an approximation.
        assert data["identical"], f"{name} diverged"
        # Replay skips the event kernel entirely; the PR target is
        # >= 10x on QEC workloads whose shots share decision paths
        # (measured 110-170x; asserted loosely for noisy CI runners).
        assert data["speedup"] >= 10.0, \
            f"{name}: only {data['speedup']:.1f}x"
        # On an ideal substrate these workloads have one decision path:
        # every shot after the first replays from the trie.
        assert data["cache"].misses <= 2


def noisy_sweep():
    from benchmarks.perf_report import chain_noise_model

    chain = build_repetition_chain_program(13, rounds=2, encode_one=True)

    def noisy_rate(trace_cache: bool, shots: int):
        engine = ShotEngine(
            chain, config=scalar_config(trace_cache=trace_cache),
            backend="stabilizer", n_qubits=25,
            noise=chain_noise_model())
        return serial_rate(engine, shots) + (engine,)

    uncached, _, _ = noisy_rate(False, UNCACHED_SHOTS)
    cached, _, engine = noisy_rate(True, CACHED_SHOTS)
    _, ref, _ = noisy_rate(False, IDENTITY_SHOTS)
    _, replayed, _ = noisy_rate(True, IDENTITY_SHOTS)
    return {
        "uncached": uncached, "cached": cached,
        "speedup": cached / uncached,
        "identical": replayed == ref,
        "cache": engine.trace_cache,
    }


def test_noisy_trace_cache_throughput(benchmark, report):
    """Noise-aware replay: noisy substrates no longer bypass the cache.

    Noise draws are replayed positionally from the per-shot reseeded
    channel rng, and divergent shots resume at the frontier, so the
    noisy repetition chain keeps a large fraction of the ideal-path
    speedup (measured ~13x at 25q; asserted >= 3x for noisy CI
    runners) while staying bit-identical.
    """
    data = benchmark.pedantic(noisy_sweep, rounds=1, iterations=1)
    cache = data["cache"]
    report("trace_cache_noisy", format_table(
        ["workload", "cycle-accurate shots/s", "trace-cache shots/s",
         "speedup", "hits/misses (resumes)", "bit-identical"],
        [["chain_noisy_25q",
          f"{data['uncached']:.1f}", f"{data['cached']:.1f}",
          f"{data['speedup']:.1f}x",
          f"{cache.hits}/{cache.misses} ({cache.resumes})",
          "yes" if data["identical"] else "NO"]],
        title=("Noise-aware trace cache vs cycle-accurate shot "
               "execution (stabilizer backend, Pauli+readout noise)")))
    assert data["identical"], "noisy replay diverged"
    assert data["speedup"] >= 3.0, f"only {data['speedup']:.1f}x"
    # Noise forces divergence: the frontier-resume path must be live.
    assert cache.resumes > 0


def batched_sweep():
    """Shot-batched cohort replay vs the serial per-shot replay loop.

    Both engines replay the *same* trie on the same ideal stabilizer
    substrate; only the shot loop differs (bit-plane cohorts advanced
    in lockstep by ``run`` vs one `_replay_signs` pass per
    ``run_shot``), so the rate ratio isolates the batching win.  Rates
    are interleaved best-of-3 so clock drift and CPU contention hit
    both strategies alike.
    """
    chain = build_repetition_chain_program(5, rounds=6, encode_one=True)

    def warm_engine():
        engine = ShotEngine(chain, config=scalar_config(),
                            backend="stabilizer", n_qubits=9)
        engine.run(50)  # warm the trie and the compiled sign programs
        return engine

    serial_engine = warm_engine()
    batched_engine = warm_engine()
    best_serial = batched_rate = 0.0
    shots = 3000
    for _ in range(3):
        best_serial = max(best_serial,
                          serial_rate(serial_engine, shots)[0])
        start = time.perf_counter()
        batched_engine.run(shots)
        batched_rate = max(batched_rate,
                           shots / (time.perf_counter() - start))

    def histogram(**config_changes):
        engine = ShotEngine(chain,
                            config=scalar_config(**config_changes),
                            backend="stabilizer", n_qubits=9)
        return engine.run(IDENTITY_SHOTS)

    reference = histogram(trace_cache=False)
    batched = histogram()
    cache = batched_engine.trace_cache
    return {
        "serial": best_serial, "batched": batched_rate,
        "speedup": batched_rate / best_serial,
        "identical": (batched.counts == reference.counts
                      and batched.total_ns == reference.total_ns),
        "cache": cache,
        "accounted": cache.hits + cache.misses == 50 + 3 * shots,
    }


def test_batched_replay_throughput(benchmark, report):
    """Shot batching must beat serial cached replay 3x on the 9q chain.

    The bit-plane cohort engine pays the per-shot floor (rng seeding,
    decision bookkeeping) once per shot but the trie walk, sign XORs
    and leaf snapshots once per *cohort*, so cached throughput rises
    well past the serial replay loop (measured ~3.5-4.2x on the
    ideal 9-qubit chain; asserted at 3x for noisy CI runners — the
    interleaved rate ratio is far more stable than either absolute
    rate).
    """
    data = benchmark.pedantic(batched_sweep, rounds=1, iterations=1)
    cache = data["cache"]
    report("trace_cache_cohorts", format_table(
        ["workload", "serial-replay shots/s", "batched shots/s",
         "speedup", "batched shots (splits)", "bit-identical"],
        [["chain_9q_r6",
          f"{data['serial']:.1f}", f"{data['batched']:.1f}",
          f"{data['speedup']:.1f}x",
          f"{cache.batched_shots} ({cache.wavefront_splits})",
          "yes" if data["identical"] else "NO"]],
        title=("Shot-batched cohort replay vs serial per-shot replay "
               "(stabilizer backend, bit-plane sign columns)")))
    assert data["identical"], "batched replay diverged"
    assert data["accounted"], "hits+misses lost shots"
    # Every shot after the per-run warm leader must replay in cohorts.
    assert cache.batched_shots > 0
    assert cache.serial_fallbacks == 0
    assert data["speedup"] >= 3.0, f"only {data['speedup']:.1f}x"
