"""Differential fuzzing of SDK-generated dynamic circuits.

Where :mod:`test_fuzz_differential` generates raw-ISA control flow,
this suite generates random programs through the *SDK* — nested
conditionals, two-armed diamonds, reused futures, compound conditions,
bounded RUS loops, with the MRCE peephole both on and off — and runs
them across the full execution matrix:

* statevector x stabilizer,
* trace cache off / on / tiny-LRU,
* serial x batched wavefront replay at several cohort widths (Pauli
  noise on both backends, T1/T2 decay on the statevector), reached
  directly through ``tests/replay_paths.py``,
* in-process x 2-worker sharded service (the programs travel as
  ``to_asm()`` text, so this also fuzzes the round-trip contract).

Histograms AND total_ns must agree bit-identically everywhere.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.qcp import ShotEngine, scalar_config
from repro.qpu.noise import (DecoherenceNoise, NoiseModel, PauliChannel,
                             ReadoutError)
from repro.sdk import SdkBuilder
from tests.replay_paths import histogram, served

N_QUBITS = 4
SHOTS = 6
BATCH_SHOTS = 18

GATES = ("h", "x", "s", "z", "y90", "cnot")


def pauli_noise() -> NoiseModel:
    return NoiseModel(pauli=PauliChannel(px=0.03, py=0.01, pz=0.02),
                      readout=ReadoutError(p0_given_1=0.06,
                                           p1_given_0=0.04))


def decoherent_noise() -> NoiseModel:
    return NoiseModel(decoherence=DecoherenceNoise(t1_us=5.0, t2_us=4.0),
                      readout=ReadoutError(p0_given_1=0.06,
                                           p1_given_0=0.04))


@st.composite
def sdk_programs(draw):
    """Random dynamic circuits through the SDK surface.

    Each segment emits a few gates and then one feed-forward
    construct: a (possibly reused, possibly nested) ``if_``, an
    ``if_else`` diamond, a bounded ``loop_until``, or a compound
    ``&``/``|`` condition.  The MRCE peephole is drawn per program, so
    both the lowered and the branchy compilations fuzz the matrix.
    """
    sdk = SdkBuilder("sdkfuzz", lower_mrce=draw(st.booleans()))
    qubits = sdk.qubits(N_QUBITS)
    index = st.integers(0, N_QUBITS - 1)
    bit = st.integers(0, 1)

    def emit_gates(max_count=2):
        for _ in range(draw(st.integers(0, max_count))):
            gate = draw(st.sampled_from(GATES))
            if gate == "cnot":
                control = draw(index)
                target = draw(index.filter(
                    lambda q, c=control: q != c))
                qubits[control].cnot(qubits[target])
            else:
                getattr(qubits[draw(index)], gate)()

    for _ in range(draw(st.integers(1, 3))):
        emit_gates()
        kind = draw(st.integers(0, 4))
        qubit = qubits[draw(index)]
        target = qubits[draw(index)]
        if kind == 0:
            # single-gate body: lowerable to MRCE; sometimes the same
            # future drives a second conditional (reuse)
            future = qubit.measure()
            with sdk.if_(future == draw(bit)):
                getattr(target, draw(st.sampled_from(("x", "z"))))()
            if draw(st.booleans()):
                with sdk.if_(future == draw(bit)):
                    target.x()
        elif kind == 1:
            # multi-gate body, optionally with a nested conditional
            future = qubit.measure()
            with sdk.if_(future == draw(bit)):
                emit_gates(2)
                if draw(st.booleans()):
                    inner = qubits[draw(index)].measure()
                    with sdk.if_(inner == draw(bit)):
                        target.z()
                else:
                    target.x()
        elif kind == 2:
            future = qubit.measure()
            with sdk.if_else(future == draw(bit)) as branch:
                with branch.then():
                    target.x()
                with branch.otherwise():
                    getattr(target,
                            draw(st.sampled_from(("z", "h"))))()
        elif kind == 3:
            with sdk.loop_until(
                    max_attempts=draw(st.integers(2, 3))) as loop:
                qubit.h()
                future = qubit.measure()
                loop.until(future == draw(bit))
        else:
            first = qubits[draw(index)]
            second = qubits[draw(
                index.filter(lambda q, f=first.index: q != f))]
            left = first.measure() == draw(bit)
            right = second.measure() == draw(bit)
            cond = (left & right) if draw(st.booleans()) \
                else (left | right)
            with sdk.if_(cond):
                emit_gates(1)
                target.x()
    for qubit in qubits:
        qubit.measure()
    return sdk.build()


def engine_for(program, backend, noise_factory=None, **config_changes):
    noise = noise_factory() if noise_factory is not None else None
    return ShotEngine(program,
                      config=scalar_config().with_(**config_changes),
                      backend=backend, n_qubits=N_QUBITS, noise=noise)


def run_matrix(program, engines):
    names = list(engines)
    reference_name = names[0]
    for seed in range(SHOTS):
        reference = engines[reference_name].run_shot(seed)
        for name in names[1:]:
            result = engines[name].run_shot(seed)
            assert result == reference, (
                f"seed {seed}: {name} diverged from {reference_name}")


@settings(max_examples=10, deadline=None)
@given(sdk_programs())
def test_sdk_fuzz_backends_and_cache_modes(program):
    """statevector x stabilizer x {off, on, LRU}, ideal and noisy."""
    for noise_factory in (None, pauli_noise):
        engines = {}
        for backend in ("statevector", "stabilizer"):
            engines[f"{backend}-uncached"] = engine_for(
                program, backend, noise_factory, trace_cache=False)
            engines[f"{backend}-cached"] = engine_for(
                program, backend, noise_factory)
            engines[f"{backend}-lru"] = engine_for(
                program, backend, noise_factory, trace_cache_max_nodes=4)
        run_matrix(program, engines)


@settings(max_examples=6, deadline=None)
@given(sdk_programs())
def test_sdk_fuzz_batched_matches_serial(program):
    """Wavefront-batched replay against serial, per seed."""
    seeds = range(BATCH_SHOTS)
    for backend, noise_factory in (("statevector", pauli_noise),
                                   ("stabilizer", pauli_noise),
                                   ("statevector", decoherent_noise)):
        reference = served(engine_for(program, backend, noise_factory),
                           seeds, "serial")
        for width in (1, 7, 64):
            engine = engine_for(program, backend, noise_factory)
            name = f"{backend}/{noise_factory.__name__}/width{width}"
            assert served(engine, seeds, width) == reference, name


@pytest.fixture(scope="module")
def sdk_service():
    from repro.service.server import ServiceHandle

    with ServiceHandle.start(n_workers=2) as handle:
        yield handle


@pytest.fixture(scope="module")
def sdk_client(sdk_service):
    from repro.service.client import ServiceClient

    return ServiceClient(sdk_service.host, sdk_service.port)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sdk_programs())
def test_sdk_fuzz_service_matches_in_process(sdk_client, program):
    """SDK programs as to_asm() text through the 2-worker sharded
    service: counts and total_ns identical to an in-process run,
    served one shot at a time and in cohorts."""
    result, event = sdk_client.run_sweep(
        program.to_asm(), shots=BATCH_SHOTS, backend="stabilizer",
        shard_shots=5)
    assert event["shards"] == 4
    for how in ("serial", "run"):
        expected = histogram(served(
            ShotEngine(program, config=scalar_config(),
                       backend="stabilizer"), range(BATCH_SHOTS), how))
        assert result.counts == expected.counts, how
        assert result.total_ns == expected.total_ns, how
        assert result.measured_qubits == expected.measured_qubits, how
