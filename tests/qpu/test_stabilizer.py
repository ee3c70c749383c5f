"""Unit tests for the CHP stabilizer-tableau backend."""

import random

import pytest

from repro.qpu import (NonCliffordGateError, StabilizerQPU,
                       StabilizerState, backend_names, make_backend)
from repro.qpu.noise import DecoherenceNoise, NoiseModel


class TestStabilizerState:
    def test_initial_state_is_all_zeros(self):
        state = StabilizerState(3, rng=random.Random(0))
        for qubit in range(3):
            assert state.probability_of_one(qubit) == 0.0
            assert state.measure(qubit) == 0

    def test_x_flips(self):
        state = StabilizerState(2, rng=random.Random(0))
        state.apply_gate("x", (1,))
        assert state.probability_of_one(1) == 1.0
        assert state.measure(1) == 1
        assert state.probability_of_one(0) == 0.0

    def test_hadamard_is_fair_coin(self):
        outcomes = set()
        for seed in range(20):
            state = StabilizerState(1, rng=random.Random(seed))
            state.apply_gate("h", (0,))
            assert state.probability_of_one(0) == 0.5
            outcomes.add(state.measure(0))
        assert outcomes == {0, 1}

    def test_measurement_collapses(self):
        state = StabilizerState(1, rng=random.Random(3))
        state.apply_gate("h", (0,))
        first = state.measure(0)
        for _ in range(5):
            assert state.measure(0) == first

    def test_bell_pair_correlations(self):
        for seed in range(10):
            state = StabilizerState(2, rng=random.Random(seed))
            state.apply_gate("h", (0,))
            state.apply_gate("cnot", (0, 1))
            assert state.probability_of_one(0) == 0.5
            assert state.measure(0) == state.measure(1)

    def test_stabilizer_strings_of_bell_pair(self):
        state = StabilizerState(2, rng=random.Random(0))
        state.apply_gate("h", (0,))
        state.apply_gate("cnot", (0, 1))
        assert state.stabilizer_strings() == ["+XX", "+ZZ"]

    def test_hzh_equals_x(self):
        state = StabilizerState(1, rng=random.Random(0))
        for gate in ("h", "z", "h"):
            state.apply_gate(gate, (0,))
        assert state.probability_of_one(0) == 1.0

    def test_x90_squared_equals_x(self):
        state = StabilizerState(1, rng=random.Random(0))
        state.apply_gate("x90", (0,))
        assert state.probability_of_one(0) == 0.5
        state.apply_gate("x90", (0,))
        assert state.probability_of_one(0) == 1.0

    def test_s_sdg_cancel(self):
        state = StabilizerState(1, rng=random.Random(0))
        state.apply_gate("h", (0,))
        state.apply_gate("s", (0,))
        state.apply_gate("sdg", (0,))
        state.apply_gate("h", (0,))
        assert state.probability_of_one(0) == 0.0

    def test_swap(self):
        state = StabilizerState(2, rng=random.Random(0))
        state.apply_gate("x", (0,))
        state.apply_gate("swap", (0, 1))
        assert state.probability_of_one(0) == 0.0
        assert state.probability_of_one(1) == 1.0

    def test_cz_symmetry(self):
        # CZ sandwiched in Hadamards on the target acts as CNOT.
        state = StabilizerState(2, rng=random.Random(0))
        state.apply_gate("x", (0,))
        state.apply_gate("h", (1,))
        state.apply_gate("cz", (0, 1))
        state.apply_gate("h", (1,))
        assert state.probability_of_one(1) == 1.0

    def test_reset_from_superposition(self):
        for seed in range(8):
            state = StabilizerState(1, rng=random.Random(seed))
            state.apply_gate("h", (0,))
            state.reset(0)
            assert state.probability_of_one(0) == 0.0

    def test_non_clifford_gate_rejected(self):
        state = StabilizerState(1, rng=random.Random(0))
        with pytest.raises(NonCliffordGateError, match="statevector"):
            state.apply_gate("t", (0,))
        with pytest.raises(NonCliffordGateError):
            state.apply_gate("rx", (0,), params=(0.3,))

    def test_raw_unitary_rejected(self):
        import numpy as np
        state = StabilizerState(1, rng=random.Random(0))
        with pytest.raises(NonCliffordGateError):
            state.apply_unitary(np.eye(2, dtype=complex), (0,))

    def test_qubit_range_checked(self):
        state = StabilizerState(2, rng=random.Random(0))
        with pytest.raises(ValueError):
            state.apply_gate("x", (2,))
        with pytest.raises(ValueError):
            state.apply_gate("cnot", (0, 0))

    def test_copy_is_independent(self):
        state = StabilizerState(2, rng=random.Random(0))
        state.apply_gate("h", (0,))
        clone = state.copy()
        clone.apply_gate("x", (1,))
        assert state.probability_of_one(1) == 0.0
        assert clone.probability_of_one(1) == 1.0

    def test_hundred_qubit_ghz(self):
        state = StabilizerState(100, rng=random.Random(7))
        state.apply_gate("h", (0,))
        for qubit in range(99):
            state.apply_gate("cnot", (qubit, qubit + 1))
        outcomes = {state.measure(q) for q in range(100)}
        assert len(outcomes) == 1


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert set(backend_names()) >= {"statevector", "stabilizer"}

    def test_make_backend_by_name(self):
        backend = make_backend("stabilizer", 30)
        assert isinstance(backend, StabilizerState)
        assert backend.n_qubits == 30

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            make_backend("tensor-network", 2)

    def test_dense_backend_refuses_beyond_cap(self):
        with pytest.raises(ValueError, match="stabilizer"):
            make_backend("statevector", 51)


class TestStabilizerQPU:
    def test_device_runs_clifford_ops(self):
        qpu = StabilizerQPU(40, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(20, "cnot", (0, 39))
        first = qpu.measure(60, 0)
        assert qpu.measure(360, 39) == first
        assert qpu.measure_ground_probabilities[0] == pytest.approx(0.5)

    def test_device_restart(self):
        qpu = StabilizerQPU(5, seed=0)
        qpu.apply_gate(0, "x", (2,))
        qpu.restart()
        assert qpu.state.probability_of_one(2) == 0.0
        assert len(qpu.operation_log) == 1

    def test_non_clifford_propagates(self):
        qpu = StabilizerQPU(2, seed=0)
        with pytest.raises(NonCliffordGateError):
            qpu.apply_gate(0, "t", (0,))

    def test_decoherence_raises_once_decay_fires(self):
        # T1 damping is not a stabilizer channel: a device carrying it
        # runs until the first idle gap, then raises.
        qpu = StabilizerQPU(2, seed=0, noise=NoiseModel(
            decoherence=DecoherenceNoise(t1_us=50.0, t2_us=40.0)))
        qpu.apply_gate(0, "h", (0,))  # no idle gap yet
        with pytest.raises(NonCliffordGateError, match="statevector"):
            qpu.apply_gate(500, "h", (0,))
