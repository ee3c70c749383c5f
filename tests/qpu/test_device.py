"""Unit tests for QPU device models and topologies."""

import pytest

from repro.qpu import (PRNGQPU, PRNGReadout, SimulatedQPU,
                       StateVectorQPU, Topology, ZZCrosstalk, NoiseModel,
                       full_topology, linear_topology)
from repro.qpu.readout import DeterministicReadout


class TestTopology:
    def test_linear_couplings(self):
        topo = linear_topology(4)
        assert topo.are_coupled(0, 1)
        assert topo.are_coupled(1, 0)
        assert not topo.are_coupled(0, 2)
        assert topo.neighbors(1) == {0, 2}

    def test_full_couplings(self):
        topo = full_topology(5)
        assert all(topo.are_coupled(a, b)
                   for a in range(5) for b in range(5) if a != b)

    def test_validate_gate(self):
        topo = linear_topology(3)
        topo.validate_gate((0, 1))
        with pytest.raises(ValueError):
            topo.validate_gate((0, 2))
        with pytest.raises(ValueError):
            topo.validate_gate((0, 9))

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, frozenset({(1, 1)}))

    def test_out_of_range_coupling_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, frozenset({(0, 5)}))


class TestStateVectorQPU:
    def test_gates_update_state(self):
        qpu = StateVectorQPU(2, seed=0)
        qpu.apply_gate(0, "x", (0,))
        assert qpu.state.probability_of_one(0) == pytest.approx(1.0)

    def test_measure_records_ground_probability(self):
        qpu = StateVectorQPU(2, seed=0)
        qpu.apply_gate(0, "x", (1,))
        qpu.measure(20, 1)
        assert qpu.measure_ground_probabilities[1] == pytest.approx(0.0)

    def test_operation_log(self):
        qpu = StateVectorQPU(2, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(20, "cnot", (0, 1))
        assert [op.gate for op in qpu.operation_log] == ["h", "cnot"]
        assert qpu.operation_log[1].time_ns == 20

    def test_timing_violation_detected(self):
        qpu = StateVectorQPU(2, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(10, "x", (0,))  # arrives mid-pulse (h runs to 20)
        assert len(qpu.timing_violations) == 1

    def test_no_violation_for_back_to_back(self):
        qpu = StateVectorQPU(2, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(20, "x", (0,))
        assert qpu.timing_violations == []

    def test_coupling_enforced(self):
        qpu = StateVectorQPU(linear_topology(3), seed=0)
        with pytest.raises(ValueError):
            qpu.apply_gate(0, "cnot", (0, 2))

    def test_reset_operation(self):
        qpu = StateVectorQPU(1, seed=0)
        qpu.apply_gate(0, "x", (0,))
        qpu.reset(20, 0)
        assert qpu.state.probability_of_one(0) == pytest.approx(0.0)

    def test_measure_via_apply_gate_rejected(self):
        qpu = StateVectorQPU(1, seed=0)
        with pytest.raises(ValueError):
            qpu.apply_gate(0, "measure", (0,))

    def test_restart_clears_state_keeps_log(self):
        qpu = StateVectorQPU(1, seed=0)
        qpu.apply_gate(0, "x", (0,))
        qpu.restart()
        assert qpu.state.probability_of_one(0) == pytest.approx(0.0)
        assert len(qpu.operation_log) == 1

    def test_restart_refuses_negative_seed(self):
        # random.Random(-k) seeds like random.Random(k); None keeps
        # the rng where it is.
        qpu = StateVectorQPU(1, seed=0)
        with pytest.raises(ValueError, match="negative seed -2"):
            qpu.restart(seed=-2)
        qpu.restart(seed=2)
        drawn = qpu._rng.getstate()
        qpu.restart()
        assert qpu._rng.getstate() == drawn

    def test_zz_applied_for_simultaneous_windows(self):
        noise = NoiseModel(zz=ZZCrosstalk(zeta_hz=12.5e6,
                                          pairs=((0, 1),)), seed=0)
        qpu = StateVectorQPU(2, noise=noise, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(0, "h", (1,))  # overlapping drive window
        reference = StateVectorQPU(2, seed=0)
        reference.apply_gate(0, "h", (0,))
        reference.apply_gate(20, "h", (1,))  # sequential: no overlap
        assert qpu.state.fidelity_with(reference.state) < 0.999

    def test_no_zz_for_sequential_windows(self):
        noise = NoiseModel(zz=ZZCrosstalk(zeta_hz=12.5e6,
                                          pairs=((0, 1),)), seed=0)
        qpu = StateVectorQPU(2, noise=noise, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(20, "h", (1,))
        reference = StateVectorQPU(2, seed=0)
        reference.apply_gate(0, "h", (0,))
        reference.apply_gate(20, "h", (1,))
        assert qpu.state.fidelity_with(reference.state) == \
            pytest.approx(1.0)


#: Gates after which measuring q0, q1, q2 in turn reads a coin, an
#: outcome q0's fixes, and a deterministic 1 (stabilizer) or a
#: biased coin (statevector).
PREPARE = {
    "statevector": [("ry", (0,), (0.7,)), ("cnot", (0, 1), ()),
                    ("ry", (2,), (2.1,))],
    "stabilizer": [("h", (0,), ()), ("cnot", (0, 1), ()),
                   ("x", (2,), ())],
}


class TestMeasureProbability:
    """``measure`` computes P(1) once, inside the backend's measurement."""

    @pytest.mark.parametrize("backend", sorted(PREPARE))
    @pytest.mark.parametrize("seed", range(4))
    def test_ground_probability_without_a_second_reduction(
            self, backend, seed, monkeypatch):
        device, reference = (SimulatedQPU(3, seed=seed, backend=backend)
                             for _ in range(2))
        for qpu in (device, reference):
            for gate, qubits, params in PREPARE[backend]:
                qpu.apply_gate(0, gate, qubits, params)
        expected = {}
        for qubit in (0, 1, 2):
            expected[qubit] = (
                1.0 - reference.state.probability_of_one(qubit),
                reference.state.measure(qubit))

        def refused(self, qubit):
            raise AssertionError("probability_of_one called")

        monkeypatch.setattr(type(device.state), "probability_of_one",
                            refused)
        for qubit in (0, 1, 2):
            outcome = device.measure(10, qubit)
            ground = device.measure_ground_probabilities[qubit]
            assert (ground, outcome) == expected[qubit]
        assert device.state.rng.getstate() == \
            reference.state.rng.getstate()


class TestDriveWindowAccounting:
    """Drive-window pruning and per-pair ZZ overlap bookkeeping."""

    def zz_noise(self, pairs=((0, 1), (0, 2), (1, 2))):
        return NoiseModel(zz=ZZCrosstalk(zeta_hz=12.5e6, pairs=pairs),
                          seed=0)

    def test_expired_windows_are_pruned(self):
        # Regression: _note_window used to keep every qubit ever
        # driven, so the dict grew without bound over a long shot.
        qpu = StateVectorQPU(4, noise=self.zz_noise(), seed=0)
        time_ns = 0
        for step in range(50):
            qpu.apply_gate(time_ns, "h", (step % 4,))
            time_ns += 100  # far beyond the 20 ns pulse: no overlap
        assert len(qpu._windows) == 1  # only the still-open window

    def test_concurrent_windows_are_kept(self):
        qpu = StateVectorQPU(4, noise=self.zz_noise(()), seed=0)
        for qubit in range(4):
            qpu.apply_gate(5 * qubit, "h", (qubit,))  # all overlap
        assert len(qpu._windows) == 4

    def test_restart_clears_windows(self):
        qpu = StateVectorQPU(2, noise=self.zz_noise(()), seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.restart(seed=1)
        assert qpu._windows == {}

    def test_three_qubit_unequal_overlaps_apply_per_pair(self):
        # Three concurrently driven qubits with three *different*
        # pairwise overlaps: h q0 @0 (window 0-20), h q1 @5 (5-25),
        # h q2 @12 (12-32) give overlaps (0,1)=15, (0,2)=8, (1,2)=13.
        # Regression: the old accounting collapsed the driven set into
        # one max-overlap event shared by every pair.
        noise = self.zz_noise()
        qpu = StateVectorQPU(3, noise=noise, seed=0)
        qpu.apply_gate(0, "h", (0,))
        qpu.apply_gate(5, "h", (1,))
        qpu.apply_gate(12, "h", (2,))

        reference = StateVectorQPU(3, seed=0)
        for qubit in ("0", "1", "2"):
            reference.apply_gate(0, "h", (int(qubit),))
        zz = noise.zz
        zz.apply_pair(reference.state, 0, 1, 15)
        zz.apply_pair(reference.state, 0, 2, 8)
        zz.apply_pair(reference.state, 1, 2, 13)
        assert qpu.state.fidelity_with(reference.state) == \
            pytest.approx(1.0)

        # ...and the collapsed max-overlap model is measurably wrong.
        collapsed = StateVectorQPU(3, seed=0)
        for qubit in range(3):
            collapsed.apply_gate(0, "h", (qubit,))
        for left, right in ((0, 1), (0, 2), (1, 2)):
            zz.apply_pair(collapsed.state, left, right, 15)
        assert qpu.state.fidelity_with(collapsed.state) < 0.9999

    def test_window_events_skip_pairs_internal_to_one_gate(self):
        zz = ZZCrosstalk(zeta_hz=1e6, pairs=((0, 1),))
        assert zz.window_events({}, 0, 60, (0, 1)) == []

    def test_window_events_ignore_untouched_pairs(self):
        zz = ZZCrosstalk(zeta_hz=1e6, pairs=((2, 3),))
        windows = {2: (0, 20), 3: (0, 20)}
        assert zz.window_events(windows, 10, 30, (0,)) == []


class TestProfileAwareBookkeeping:
    """Calibrated durations drive busy/violation/window accounting."""

    def profile(self):
        from repro.qpu.profile import DeviceProfile
        return DeviceProfile.from_dict({
            "name": "slow-q0",
            "defaults": {"gates": {"x90": 20}},
            "qubits": {"0": {"gates": {"x90": 40}}},
        })

    def test_violation_follows_calibrated_duration(self):
        qpu = StateVectorQPU(2, seed=0, profile=self.profile())
        qpu.apply_gate(0, "x90", (0,))
        qpu.apply_gate(20, "x90", (0,))  # mid-pulse: q0's x90 is 40 ns
        assert len(qpu.timing_violations) == 1
        qpu.apply_gate(60, "x90", (0,))  # back-to-back at 40 ns pitch
        assert len(qpu.timing_violations) == 1

    def test_uncalibrated_qubit_uses_profile_default(self):
        qpu = StateVectorQPU(2, seed=0, profile=self.profile())
        qpu.apply_gate(0, "x90", (1,))
        qpu.apply_gate(20, "x90", (1,))  # defaults say 20 ns: fine
        assert qpu.timing_violations == []

    def test_profile_composes_noise_at_construction(self):
        from repro.qpu.profile import DeviceProfile
        from repro.qpu.noise import QubitReadoutError
        profile = DeviceProfile.from_dict(
            {"defaults": {"readout": {"p0_given_1": 1.0}}})
        qpu = StateVectorQPU(1, seed=0, profile=profile)
        assert isinstance(qpu.noise.readout, QubitReadoutError)
        qpu.apply_gate(0, "x", (0,))
        assert qpu.measure(20, 0) == 0  # |1> always misread as 0


class TestPRNGQPU:
    def test_measurement_outcomes_follow_readout(self):
        qpu = PRNGQPU(3, DeterministicReadout(outcomes={2: [1, 0]}))
        assert qpu.measure(0, 2) == 1
        assert qpu.measure(10, 2) == 0

    def test_gates_are_logged_not_simulated(self):
        qpu = PRNGQPU(40, PRNGReadout(seed=0))
        qpu.apply_gate(0, "h", (39,))
        assert qpu.operation_log[0].qubits == (39,)

    def test_reset_logged(self):
        qpu = PRNGQPU(2, PRNGReadout(seed=0))
        qpu.reset(0, 1)
        assert qpu.operation_log[0].gate == "reset"
