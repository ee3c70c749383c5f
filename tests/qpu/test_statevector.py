"""Unit and property tests for the state-vector simulator."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qpu import StateVector
from repro.qpu.statevector import (FUSE_MAX_QUBITS, BatchStateVector,
                                   fusion_width)


class TestBasics:
    def test_initial_state_is_ground(self):
        state = StateVector(3)
        probabilities = state.probabilities()
        assert probabilities[0] == pytest.approx(1.0)
        assert probabilities[1:].sum() == pytest.approx(0.0)

    def test_x_flips(self):
        state = StateVector(2)
        state.apply_gate("x", (1,))
        assert state.probabilities()[0b10] == pytest.approx(1.0)

    def test_bell_state(self):
        state = StateVector(2)
        state.apply_gate("h", (0,))
        state.apply_gate("cnot", (0, 1))
        probabilities = state.probabilities()
        assert probabilities[0b00] == pytest.approx(0.5)
        assert probabilities[0b11] == pytest.approx(0.5)
        assert probabilities[0b01] == pytest.approx(0.0)

    def test_cnot_qubit_order_matters(self):
        state = StateVector(2)
        state.apply_gate("x", (0,))
        state.apply_gate("cnot", (0, 1))  # control q0 -> target q1
        assert state.probabilities()[0b11] == pytest.approx(1.0)
        other = StateVector(2)
        other.apply_gate("x", (0,))
        other.apply_gate("cnot", (1, 0))  # control q1 (still |0>)
        assert other.probabilities()[0b01] == pytest.approx(1.0)

    def test_ghz_on_five_qubits(self):
        state = StateVector(5)
        state.apply_gate("h", (0,))
        for qubit in range(4):
            state.apply_gate("cnot", (qubit, qubit + 1))
        probabilities = state.probabilities()
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[-1] == pytest.approx(0.5)

    def test_rotation_angle(self):
        state = StateVector(1)
        state.apply_gate("rx", (0,), (math.pi / 2,))
        assert state.probability_of_one(0) == pytest.approx(0.5)


class TestMeasurement:
    def test_deterministic_outcomes(self):
        state = StateVector(1, rng=random.Random(0))
        assert state.measure(0) == 0
        state.apply_gate("x", (0,))
        assert state.measure(0) == 1

    def test_collapse_is_projective(self):
        state = StateVector(2, rng=random.Random(1))
        state.apply_gate("h", (0,))
        state.apply_gate("cnot", (0, 1))
        first = state.measure(0)
        # Entangled partner must agree, always.
        assert state.measure(1) == first
        assert state.measure(0) == first  # repeated measurement stable

    def test_statistics_match_probabilities(self):
        rng = random.Random(7)
        ones = 0
        for _ in range(400):
            state = StateVector(1, rng=rng)
            state.apply_gate("ry", (0,), (2 * math.asin(math.sqrt(0.3)),))
            ones += state.measure(0)
        assert 0.22 < ones / 400 < 0.38

    def test_reset_returns_to_ground(self):
        state = StateVector(1, rng=random.Random(3))
        state.apply_gate("h", (0,))
        state.reset(0)
        assert state.probability_of_one(0) == pytest.approx(0.0)


class TestValidation:
    def test_qubit_range(self):
        state = StateVector(2)
        with pytest.raises(ValueError):
            state.apply_gate("h", (2,))

    def test_matrix_shape_mismatch(self):
        state = StateVector(2)
        with pytest.raises(ValueError):
            state.apply_unitary(np.eye(4), (0,))

    def test_duplicate_qubits(self):
        state = StateVector(2)
        with pytest.raises(ValueError):
            state.apply_unitary(np.eye(4), (0, 0))

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError):
            StateVector(1).apply_gate("measure", (0,))

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            StateVector(25)


class TestFidelity:
    def test_identical_states(self):
        a, b = StateVector(2), StateVector(2)
        assert a.fidelity_with(b) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        a, b = StateVector(1), StateVector(1)
        b.apply_gate("x", (0,))
        assert a.fidelity_with(b) == pytest.approx(0.0)


GATES_1Q = ["x", "y", "z", "h", "s", "t", "x90", "y90"]


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(GATES_1Q + ["cnot", "cz"]),
                          st.integers(0, 3), st.integers(0, 3)),
                max_size=30))
def test_norm_preserved_by_random_circuits(moves):
    state = StateVector(4)
    for gate, a, b in moves:
        if gate in ("cnot", "cz"):
            if a == b:
                continue
            state.apply_gate(gate, (a, b))
        else:
            state.apply_gate(gate, (a,))
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30)
@given(st.lists(st.sampled_from(GATES_1Q), max_size=12),
       st.integers(0, 2))
def test_inverse_circuit_returns_to_start(gates, qubit):
    inverses = {"x": "x", "y": "y", "z": "z", "h": "h", "s": "sdg",
                "t": "tdg", "x90": "xm90", "y90": "ym90"}
    state = StateVector(3)
    reference = state.copy()
    for gate in gates:
        state.apply_gate(gate, (qubit,))
    for gate in reversed(gates):
        state.apply_gate(inverses[gate], (qubit,))
    assert state.fidelity_with(reference) == pytest.approx(1.0)


def compile_dense(ops, seed=0, n_qubits=4):
    """``ops`` through the trace cache's dense step compiler.

    Compiles one recorded op run (as stream entries, 40 ns apart) for
    an ideal ``n_qubits`` device and
    binds it to a cohort of one whose measurement rng is seeded with
    ``seed``; returns the cohort, the bound program and the qubit
    support of every fused block (``_V_UNITARY`` step) the compiler
    emitted.
    """
    from repro.qcp.config import QCPConfig
    from repro.qcp.tracecache import (_V_UNITARY, _bind_cohort, _Cohort,
                                      _compile_dense_steps)
    from repro.qpu.device import SimulatedQPU

    qpu = SimulatedQPU(n_qubits)
    items = tuple(op + (40 * index,) for index, op in enumerate(ops))
    steps = _compile_dense_steps(items, qpu, {}, {})
    supports = [step[2] for step in steps if step[0] == _V_UNITARY]
    cohort = _Cohort.root(qpu, QCPConfig(), [random.Random(seed)], None)
    return cohort, _bind_cohort(steps, n_qubits), supports


class TestGemmFusion:
    """GEMM fusion (trace-cache replay).

    The dense block compiler promises identical rng draw sequences and
    measurement outcomes, with amplitudes equal up to last-ulp
    rounding (matrix products round differently).  The appliers'
    bit-for-bit identity with ``apply_unitary`` is checked row by row
    in :class:`TestBatchRows`.
    """

    OPS = [
        ("gate", "h", (0,), ()),
        ("gate", "cnot", (0, 1), ()),
        ("gate", "x", (2,), ()),
        ("gate", "cnot", (2, 1), ()),
        ("reset", "reset", (0,), ()),
        ("gate", "t", (1,), ()),
        ("gate", "h", (2,), ()),
        ("gate", "cz", (1, 2), ()),
        ("gate", "y90", (0,), ()),
        ("gate", "cnot", (1, 3), ()),
    ]

    def test_fused_stream_matches_sequential_amplitudes(self):
        for seed in range(10):
            sequential = StateVector(4, rng=random.Random(seed))
            sequential.apply_ops(self.OPS)
            cohort, program, _ = compile_dense(self.OPS, seed)
            for step in program:
                step(cohort)
            assert np.allclose(sequential.amplitudes,
                               cohort.batch.lane(0))

    def test_fusion_preserves_rng_draws_and_outcomes(self):
        # Resets flush and draw exactly one rng draw each, so the
        # draw streams — and every later measurement — stay aligned.
        for seed in range(20):
            sequential = StateVector(4, rng=random.Random(seed))
            sequential.apply_ops(self.OPS)
            cohort, program, _ = compile_dense(self.OPS, seed)
            for step in program:
                step(cohort)
            # The fused row, measured on with the rng the cohort drew.
            fused = StateVector(4, rng=cohort.srngs[0])
            fused.restore(cohort.batch.lane(0))
            for qubit in range(4):
                assert sequential.measure(qubit) == fused.measure(qubit)

    @pytest.mark.parametrize("n_qubits,width", [
        (1, 3), (3, 3), (4, 4), (5, 5), (6, 6), (7, 3), (12, 3)])
    def test_fusion_width_follows_register_size(self, n_qubits, width):
        assert fusion_width(n_qubits) == width

    def test_block_compiler_fuses_the_whole_small_register(self):
        _, program, supports = compile_dense(self.OPS)
        # The reset splits the run into two blocks, the second across
        # all four qubits; it survives as its own step (it consumes
        # an rng draw).
        assert [len(support) for support in supports] == [3, 4]
        assert len(program) == len(supports) + 1

    def test_block_compiler_respects_support_bound(self):
        ladder = [("gate", "cnot", (qubit, qubit + 1), ())
                  for qubit in range(6)]
        _, _, supports = compile_dense(ladder, n_qubits=7)
        assert len(supports) > 1
        assert all(len(support) <= FUSE_MAX_QUBITS
                   for support in supports)

    def test_block_compiler_folds_single_qubit_runs(self):
        run = [("gate", "h", (1,), ()), ("gate", "t", (1,), ()),
               ("gate", "s", (1,), ()), ("gate", "x", (1,), ())]
        _, program, supports = compile_dense(run)
        assert len(program) == 1
        assert supports == [(1,)]

    def test_lift_matches_direct_application(self):
        from repro.circuit.gates import lookup_gate
        from repro.qpu.statevector import _lift
        rng = np.random.default_rng(7)
        vector = rng.normal(size=8) + 1j * rng.normal(size=8)
        vector /= np.linalg.norm(vector)
        for gate_qubits in ((1, 0), (0, 2), (2, 1), (0,), (2,)):
            gate = "cnot" if len(gate_qubits) == 2 else "h"
            matrix = np.asarray(lookup_gate(gate).unitary(()),
                                dtype=complex)
            direct = StateVector(3)
            lifted = StateVector(3)
            direct._amplitudes[:] = vector
            lifted._amplitudes[:] = vector
            direct.apply_unitary(matrix, gate_qubits)
            lifted.apply_unitary(_lift(matrix, gate_qubits, (0, 1, 2)),
                                 (0, 1, 2))
            assert np.allclose(direct.amplitudes, lifted.amplitudes)


def random_amplitudes(rng: np.random.Generator, shape) -> np.ndarray:
    """Random normalised amplitude vectors (one per row of ``shape``)."""
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def distinct_lanes(n: int, rows: np.ndarray):
    """An ``n``-qubit cohort whose lane ``b`` holds ``rows[b]``, each
    lane on its own amplitude row."""
    batch = BatchStateVector(n, len(rows))
    batch._psi = np.array(rows, dtype=complex)
    batch.index = list(range(len(rows)))
    return batch


class ScriptedDraws:
    """An rng stand-in whose ``random()`` returns scripted values."""

    def __init__(self, *values: float) -> None:
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


def reference_decay(state: StateVector, qubit: int, gamma: float,
                    dephase: float, nrng) -> None:
    """Idle decay the textbook way: the no-jump Kraus operator
    ``diag(1, sqrt(1 - gamma))`` through ``apply_unitary`` (the kron or
    batched matmul) plus ``np.linalg.norm`` renormalisation, projection
    plus an X gate on a jump, and a Z gate on a dephasing fire."""
    if gamma != 0.0:
        p_one = state.probability_of_one(qubit)
        if state.rng.random() < gamma * p_one:
            state._amplitudes.reshape(-1, 2, 1 << qubit)[:, 0, :] = 0.0
            state._amplitudes /= math.sqrt(p_one)
            state.apply_gate("x", (qubit,))
        else:
            k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]],
                          dtype=complex)
            state.apply_unitary(k0, (qubit,))
            state._amplitudes = (state._amplitudes
                                 / float(np.linalg.norm(state._amplitudes)))
    if nrng.random() < dephase:
        state.apply_gate("z", (qubit,))


class TestDecayKernel:
    """``apply_decay``: one diagonal in-place kernel for T1/T2 decay."""

    def test_matches_kron_reference_in_every_branch(self):
        # Scripted draws force each branch: jump (0.0) or no jump
        # (0.95 > gamma * P(1)), dephasing fire (0.0) or not (0.5).
        rng = np.random.default_rng(5)
        for n in range(1, 10):
            for qubit in range(n):
                for _ in range(11):
                    vector = random_amplitudes(rng, 1 << n)
                    gamma = float(rng.uniform(0.01, 0.9))
                    for jump in (0.0, 0.95):
                        for fire in (0.0, 0.5):
                            kernel = StateVector(n)
                            reference = StateVector(n)
                            for state in (kernel, reference):
                                state._amplitudes[:] = vector
                                state.rng = ScriptedDraws(jump)
                            kernel.apply_decay(qubit, gamma,
                                               math.sqrt(1.0 - gamma), 0.3,
                                               ScriptedDraws(fire))
                            reference_decay(reference, qubit, gamma, 0.3,
                                            ScriptedDraws(fire))
                            assert np.array_equal(kernel.amplitudes,
                                                  reference.amplitudes), \
                                (n, qubit, jump, fire)

    def test_zero_gamma_draws_only_the_dephasing_coin(self):
        state = StateVector(2, rng=ScriptedDraws())
        state.apply_gate("h", (1,))
        before = state.amplitudes.copy()
        state.apply_decay(1, 0.0, 1.0, 0.2, ScriptedDraws(0.1))
        ones = before.reshape(2, 2)[1]
        assert np.array_equal(state.amplitudes.reshape(2, 2)[1], -ones)

    @pytest.mark.parametrize("width", [1, 6, 64])
    def test_cohort_rows_match_serial_kernel(self, width):
        # Each row draws its own rngs and ends equal to a serial
        # StateVector running the same kernel with them.  Width 64 is
        # auto_batch_width on 9 qubits.
        rng = np.random.default_rng(9)
        jumped = []
        for n in range(1, 11):
            for qubit in range(n):
                rows = random_amplitudes(rng, (width, 1 << n))
                seeds = [int(seed) for seed in rng.integers(1 << 30,
                                                            size=width)]
                batch = distinct_lanes(n, rows)
                srngs = [random.Random(seed) for seed in seeds]
                nrngs = [random.Random(~seed) for seed in seeds]
                batch.apply_decay(qubit, 0.6, math.sqrt(0.4), 0.4, srngs,
                                  nrngs)
                for row, seed in enumerate(seeds):
                    serial = StateVector(n, rng=random.Random(seed))
                    serial._amplitudes[:] = rows[row]
                    nrng = random.Random(~seed)
                    serial.apply_decay(qubit, 0.6, math.sqrt(0.4), 0.4,
                                       nrng)
                    assert np.array_equal(batch.lane(row),
                                          serial.amplitudes), (n, qubit)
                    assert srngs[row].getstate() == \
                        serial.rng.getstate()
                    assert nrngs[row].getstate() == nrng.getstate()
                    jumped.append(serial.probability_of_one(qubit) == 0)
        assert any(jumped) and not all(jumped)  # both branches ran


class TestBatchRows:
    """Cohort rows must compute and reduce exactly like the device."""

    @pytest.mark.parametrize("width", [1, 6, 64])
    def test_collapse_rows_match_serial_measure(self, width):
        # Each row draws its outcome from its own seeded rng and ends
        # equal to a serial StateVector.measure with that seed.
        from repro.qcp.tracecache import _Cohort, _collapse_cohort
        rng = np.random.default_rng(width)
        outcomes = []
        for n in range(1, 11):
            for qubit in range(n):
                rows = random_amplitudes(rng, (width, 1 << n))
                seeds = [int(seed) for seed in rng.integers(1 << 30,
                                                            size=width)]
                batch = distinct_lanes(n, rows)
                srngs = [random.Random(seed) for seed in seeds]
                drawn = _collapse_cohort(
                    _Cohort(batch, list(range(width)), (1 << width) - 1,
                            srngs, None, None), qubit)
                for row, seed in enumerate(seeds):
                    serial = StateVector(n, rng=random.Random(seed))
                    serial._amplitudes[:] = rows[row]
                    assert serial.measure(qubit) == drawn[row]
                    assert np.array_equal(batch.lane(row),
                                          serial.amplitudes), (n, qubit)
                    assert srngs[row].getstate() == \
                        serial.rng.getstate()
                outcomes.extend(drawn)
        assert 0 in outcomes and 1 in outcomes

    @pytest.mark.parametrize("width", [1, 6])
    def test_zero_norm_checks_raise_before_any_reciprocal(self, width):
        # Row 0 is |1>: a scripted draw of 1.0 keeps it out of the jump
        # (1.0 < gamma * P(1) = 1.0 fails), so keep = 0 annihilates it,
        # and measures it as 0, a zero-probability outcome.  Under
        # errstate(all="raise") a reciprocal of zero would raise
        # FloatingPointError, which is not a RuntimeError.
        rows = random_amplitudes(np.random.default_rng(3), (width, 8))
        rows[0] = 0.0
        rows[0, 1] = 1.0
        draws = [1.0] + [0.5] * (width - 1)
        with np.errstate(all="raise"):
            batch = distinct_lanes(3, rows)
            with pytest.raises(RuntimeError,
                               match="annihilated by idle decay"):
                batch.apply_decay(0, 1.0, 0.0, 0.0,
                                  [ScriptedDraws(d) for d in draws],
                                  [ScriptedDraws(0.5)] * width)
            serial = StateVector(3, rng=ScriptedDraws(1.0))
            serial._amplitudes[:] = rows[0]
            with pytest.raises(RuntimeError,
                               match="annihilated by idle decay"):
                serial.apply_decay(0, 1.0, 0.0, 0.0, ScriptedDraws(0.5))
            batch = distinct_lanes(3, rows)
            p_one = batch.probability_of_one(0)
            outcomes = np.array([int(d < p) for d, p in zip(draws, p_one)])
            assert p_one[0] == 1.0 and outcomes[0] == 0
            with pytest.raises(RuntimeError,
                               match="zero-probability outcome"):
                batch.collapse(0, outcomes, p_one)
            serial = StateVector(3, rng=ScriptedDraws(1.0))
            serial._amplitudes[:] = rows[0]
            with pytest.raises(RuntimeError,
                               match="zero-probability outcome"):
                serial.measure(0)

    @pytest.mark.parametrize("width", [1, 6])
    @pytest.mark.parametrize("n, qubits", [
        (6, (0,)), (6, (3,)), (6, (4,)), (6, (5,)), (6, (1, 4)),
        (6, (4, 1)), (6, (0, 2, 5)), (6, (4, 1, 2)), (9, (8, 0)),
        (15, (3, 12))])
    def test_applier_rows_keep_serial_probabilities(self, n, qubits,
                                                    width):
        # Every applier kind (kron and BLAS single-qubit, gather and
        # transpose k-qubit) must leave each row bit-for-bit what the
        # device's apply_unitary (its _apply_single_qubit fast path
        # for k = 1) leaves, and C-contiguous, so each row's P(1)
        # reduction equals the serial one exactly.
        from repro.qpu.statevector import batch_block_applier
        rng = np.random.default_rng(n * 31 + len(qubits))
        k = len(qubits)
        raw = (rng.normal(size=(1 << k, 1 << k))
               + 1j * rng.normal(size=(1 << k, 1 << k)))
        matrix, _ = np.linalg.qr(raw)
        rows = random_amplitudes(rng, (width, 1 << n))
        batch = distinct_lanes(n, rows)
        batch_block_applier(n, matrix, qubits)(batch)
        p_one = [batch.probability_of_one(qubit) for qubit in range(n)]
        for row in range(width):
            serial = StateVector(n)
            serial._amplitudes[:] = rows[row]
            serial.apply_unitary(matrix, qubits)
            assert np.array_equal(batch.lane(row), serial.amplitudes)
            for qubit in range(n):
                assert p_one[qubit][batch.index[row]] == \
                    serial.probability_of_one(qubit), (qubit, row)
