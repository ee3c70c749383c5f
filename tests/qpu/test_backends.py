"""Cross-validation of the simulation backends on Clifford circuits.

The stabilizer tableau and the dense statevector are entirely
different representations of the same physics; on Clifford circuits
they must agree *exactly*.  Both backends consume one rng draw per
measurement (compared against the pre-collapse probability), so
identically seeded backends must produce identical outcome streams —
not merely identical distributions.
"""

import random

import pytest

from repro.experiments.clifford import clifford_table
from repro.qpu import StabilizerState, StateVector

ONE_QUBIT_CLIFFORDS = ("i", "x", "y", "z", "h", "s", "sdg",
                       "x90", "xm90", "y90", "ym90")
TWO_QUBIT_CLIFFORDS = ("cnot", "cz", "swap", "iswap")


def random_clifford_ops(gen: random.Random, n_qubits: int,
                        length: int) -> list[tuple[str, tuple[int, ...]]]:
    """A random Clifford circuit with interleaved measure/reset ops."""
    table = clifford_table()
    ops: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(length):
        draw = gen.random()
        if draw < 0.3 and n_qubits >= 2:
            pair = tuple(gen.sample(range(n_qubits), 2))
            ops.append((gen.choice(TWO_QUBIT_CLIFFORDS), pair))
        elif draw < 0.5:
            # A full group element from the RB table, as its native
            # pulse decomposition.
            element = table[gen.randrange(len(table))]
            qubit = gen.randrange(n_qubits)
            ops.extend((gate, (qubit,)) for gate in element.gates)
        else:
            ops.append((gen.choice(ONE_QUBIT_CLIFFORDS),
                        (gen.randrange(n_qubits),)))
        tail = gen.random()
        if tail < 0.15:
            ops.append(("measure", (gen.randrange(n_qubits),)))
        elif tail < 0.2:
            ops.append(("reset", (gen.randrange(n_qubits),)))
    for qubit in range(n_qubits):
        ops.append(("measure", (qubit,)))
    return ops


def replay(backend, ops):
    """Apply ops; returns (pre-collapse probabilities, outcomes)."""
    probabilities = []
    outcomes = []
    for gate, qubits in ops:
        if gate == "measure":
            probabilities.append(backend.probability_of_one(qubits[0]))
            outcomes.append(backend.measure(qubits[0]))
        elif gate == "reset":
            backend.reset(qubits[0])
        else:
            backend.apply_gate(gate, qubits)
    return probabilities, outcomes


#: Random circuits the two backends must agree on.  The stabilizer's
#: kernel is also the trace cache's sign compiler, so the replay fuzz
#: suites cannot check it independently: this dense comparison does.
TRIALS = 40


def trial_circuit(trial: int) -> tuple[int, list]:
    """Trial ``trial``'s register size (2-8 qubits) and circuit."""
    gen = random.Random(trial)
    n_qubits = gen.randrange(2, 9)
    return n_qubits, random_clifford_ops(gen, n_qubits, length=60)


class TestBackendCrossValidation:
    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_identical_streams_on_random_clifford_circuits(self, trial):
        n_qubits, ops = trial_circuit(trial)
        seed = 1000 + trial
        dense_p, dense_out = replay(
            StateVector(n_qubits, rng=random.Random(seed)), ops)
        stab_p, stab_out = replay(
            StabilizerState(n_qubits, rng=random.Random(seed)), ops)
        assert dense_out == stab_out
        assert dense_p == pytest.approx(stab_p, abs=1e-9)

    def test_trials_cover_every_measurement_kind(self):
        """The trials together measure random outcomes (P(1) = 1/2)
        and determined ones of both values, and reset."""
        probabilities = set()
        resets = 0
        for trial in range(TRIALS):
            n_qubits, ops = trial_circuit(trial)
            stab_p, _ = replay(StabilizerState(
                n_qubits, rng=random.Random(1000 + trial)), ops)
            probabilities.update(stab_p)
            resets += sum(gate == "reset" for gate, _qubits in ops)
        assert probabilities == {0.0, 0.5, 1.0}
        assert resets > 0

    def test_stabilizer_probabilities_are_exact(self):
        # Every pre-collapse probability of a stabilizer state is
        # exactly 0, 1/2 or 1; the dense backend agrees to rounding.
        gen = random.Random(99)
        ops = random_clifford_ops(gen, 4, length=40)
        stab_p, _ = replay(
            StabilizerState(4, rng=random.Random(5)), ops)
        assert set(stab_p) <= {0.0, 0.5, 1.0}

    def test_identical_distributions_over_shots(self):
        # Same circuit, many shots: the histograms must be identical
        # because each seeded shot produces the identical bitstring.
        gen = random.Random(7)
        ops = random_clifford_ops(gen, 3, length=20)
        dense_counts: dict[tuple[int, ...], int] = {}
        stab_counts: dict[tuple[int, ...], int] = {}
        for shot in range(100):
            _, dense_out = replay(
                StateVector(3, rng=random.Random(shot)), ops)
            _, stab_out = replay(
                StabilizerState(3, rng=random.Random(shot)), ops)
            dense_counts[tuple(dense_out)] = \
                dense_counts.get(tuple(dense_out), 0) + 1
            stab_counts[tuple(stab_out)] = \
                stab_counts.get(tuple(stab_out), 0) + 1
        assert dense_counts == stab_counts
        assert len(dense_counts) > 1  # the circuit is not trivial


class TestSnapshotRestore:
    """The checkpoint hooks the divergence-frontier resume relies on."""

    def test_statevector_round_trip(self):
        gen = random.Random(11)
        ops = random_clifford_ops(gen, 3, length=25)
        state = StateVector(3, rng=random.Random(4))
        replay(state, ops)
        snap = state.snapshot()
        reference = state.copy()
        # Mutate past the checkpoint, then restore.
        state.apply_gate("h", (0,))
        state.measure(1)
        state.restore(snap)
        assert state.fidelity_with(reference) == pytest.approx(1.0)
        # The snapshot is defensive: later evolution must not leak
        # back into it.
        state.apply_gate("x", (2,))
        state.restore(snap)
        assert state.fidelity_with(reference) == pytest.approx(1.0)

    def test_stabilizer_round_trip(self):
        gen = random.Random(12)
        ops = random_clifford_ops(gen, 4, length=30)
        state = StabilizerState(4, rng=random.Random(4))
        replay(state, ops)
        snap = state.snapshot()
        reference = state.stabilizer_strings()
        state.apply_gate("h", (0,))
        state.apply_gate("cnot", (1, 2))
        state.measure(3)
        state.restore(snap)
        assert state.stabilizer_strings() == reference

    def test_restore_keeps_identity_and_rng(self):
        state = StabilizerState(2, rng=random.Random(9))
        snap = state.snapshot()
        rng = state.rng
        state.apply_gate("h", (0,))
        state.restore(snap)
        assert state.rng is rng  # rng is not part of the snapshot

    def test_shape_mismatch_rejected(self):
        small = StateVector(2)
        big = StateVector(3)
        with pytest.raises(ValueError):
            big.restore(small.snapshot())
        with pytest.raises(ValueError):
            StabilizerState(3).restore(StabilizerState(2).snapshot())
        # Right column count, but a bit past the 2n tableau rows.
        state = StabilizerState(3)
        x, z, r = state.snapshot()
        with pytest.raises(ValueError):
            state.restore(((1 << 6,) + x[1:], z, r))
        with pytest.raises(ValueError):
            state.restore((x, z, 1 << 6))
