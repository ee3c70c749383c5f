"""Automatic backend routing and calibrated bit identity.

Three contracts in one module:

* the :func:`~repro.qcp.routing.route_backend` decision table —
  Clifford analysis, noise compatibility, profile pins — and the
  register-size fusion width every dense engine compiles with,
  routed or not;
* fail-closed backend construction — unknown names (including a raw
  ``"auto"`` that escaped resolution) raise naming every registered
  backend;
* the calibrated acceptance bit-identity matrix — a calibrated noisy
  sweep agrees across cycle-accurate x trace-cache x batched
  execution, histogram and total_ns alike.
"""

from __future__ import annotations

import json

import pytest

from repro.isa.builder import ProgramBuilder
from repro.qcp import QuAPESystem, ShotEngine, scalar_config
from repro.qcp.routing import (RoutingDecision, is_clifford_program,
                               route_backend)
from repro.qpu.backend import backend_names, make_backend
from repro.qpu.noise import NoiseModel, PauliChannel, ZZCrosstalk
from repro.qpu.profile import DeviceProfile
from tests.replay_paths import histogram, served


def clifford_program(n_qubits=2):
    builder = ProgramBuilder("clifford")
    builder.qop("h", [0], timing=2)
    for qubit in range(1, n_qubits):
        builder.qop("cnot", [qubit - 1, qubit], timing=2)
    for qubit in range(n_qubits):
        builder.qmeas(qubit, timing=2)
    builder.halt()
    return builder.build()


def t_gate_program():
    builder = ProgramBuilder("magic")
    builder.qop("h", [0], timing=2)
    builder.qop("t", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.halt()
    return builder.build()


def entangling_t_program(n_qubits):
    """A T gate, then a CNOT ladder across the whole register."""
    builder = ProgramBuilder("ladder")
    builder.qop("h", [0], timing=2)
    builder.qop("t", [0], timing=2)
    for qubit in range(1, n_qubits):
        builder.qop("cnot", [qubit - 1, qubit], timing=2)
    for qubit in range(n_qubits):
        builder.qmeas(qubit, timing=2)
    builder.halt()
    return builder.build()


def parametric_program():
    builder = ProgramBuilder("rotation")
    builder.qop("rz", [0], timing=2, params=[0.125])
    builder.qmeas(0, timing=2)
    builder.halt()
    return builder.build()


def mrce_t_program():
    builder = ProgramBuilder("mrce-t")
    builder.qop("h", [0], timing=2)
    builder.qmeas(0, timing=2)
    builder.mrce(0, 1, op_if_zero="i", op_if_one="t")
    builder.qmeas(1, timing=2)
    builder.halt()
    return builder.build()


def zz_noise():
    return NoiseModel(zz=ZZCrosstalk(zeta_hz=1e6, pairs=((0, 1),)))


#: A profile whose only channels are T1/T2 decoherence.
T1T2 = {"name": "t1t2", "defaults": {"t1_us": 60.0, "t2_us": 45.0}}


class TestDecisionTable:
    def test_clifford_ideal_routes_stabilizer(self):
        decision = route_backend(clifford_program(), 2)
        assert decision.backend == "stabilizer"
        assert decision.clifford_only
        assert not decision.forced

    def test_t_gate_routes_statevector(self):
        decision = route_backend(t_gate_program(), 1)
        assert decision.backend == "statevector"
        assert not decision.clifford_only

    def test_parametric_clifford_angle_routes_statevector(self):
        # Even an rz whose angle happens to be Clifford: params => dense.
        assert route_backend(parametric_program(), 1).backend == \
            "statevector"

    def test_mrce_arm_participates_in_the_analysis(self):
        assert not is_clifford_program(mrce_t_program())
        assert route_backend(mrce_t_program(), 2).backend == \
            "statevector"

    def test_pauli_noise_keeps_stabilizer(self):
        noise = NoiseModel(pauli=PauliChannel(px=0.01))
        assert route_backend(clifford_program(), 2,
                             noise=noise).backend == "stabilizer"

    def test_amplitude_level_noise_forces_statevector(self):
        decision = route_backend(clifford_program(), 2, noise=zz_noise())
        assert decision.backend == "statevector"
        assert decision.clifford_only  # the program itself was fine
        assert "noise" in decision.reason

    def test_profile_pin_wins_and_is_forced(self):
        profile = DeviceProfile.from_dict({"name": "pinned",
                                           "backend": "statevector"})
        decision = route_backend(clifford_program(), 2, profile=profile)
        assert decision.backend == "statevector"
        assert decision.forced
        assert "pinned" in decision.reason

    def test_profile_decoherence_forces_statevector(self):
        # No base noise model: the profile's own T1/T2 channels need
        # amplitudes, as the device composes them over the base.
        decision = route_backend(clifford_program(), 2,
                                 profile=DeviceProfile.from_dict(T1T2))
        assert decision.backend == "statevector"
        assert decision.clifford_only and not decision.forced
        assert "noise" in decision.reason

    def test_profile_readout_keeps_stabilizer(self):
        profile = DeviceProfile.from_dict(
            {"defaults": {"readout": {"p0_given_1": 0.05}}})
        noise = NoiseModel(pauli=PauliChannel(px=0.01))
        assert route_backend(clifford_program(), 2, noise=noise,
                             profile=profile).backend == "stabilizer"

    def test_decision_round_trips_to_json(self):
        decision = route_backend(t_gate_program(), 5)
        rendered = json.loads(json.dumps(decision.as_dict()))
        assert RoutingDecision(**rendered) == decision


class TestEngineAutoResolution:
    def test_clifford_engine_resolves_stabilizer(self):
        engine = ShotEngine(clifford_program(), backend="auto",
                            n_qubits=2)
        assert engine.backend == "stabilizer"
        assert engine.routing is not None
        assert engine.routing.backend == "stabilizer"

    def test_non_clifford_engine_resolves_statevector(self):
        engine = ShotEngine(t_gate_program(), backend="auto",
                            n_qubits=5)
        assert engine.backend == "statevector"

    @pytest.mark.parametrize("backend", ["auto", "statevector"])
    @pytest.mark.parametrize("n_qubits,width", [(5, 5), (7, 3)])
    def test_dense_replay_fuses_to_the_register_width(
            self, monkeypatch, backend, n_qubits, width):
        # Routed or explicit, a dense engine fuses a gate run across
        # its whole register on 4-6 qubits, and three qubits at a
        # time above that.
        from repro.qcp import tracecache
        supports = []
        bind = tracecache._bind_cohort

        def spy(steps, n):
            supports.extend(step[2] for step in steps
                            if step[0] == tracecache._V_UNITARY)
            return bind(steps, n)
        monkeypatch.setattr(tracecache, "_bind_cohort", spy)
        engine = ShotEngine(entangling_t_program(n_qubits),
                            backend=backend, n_qubits=n_qubits)
        assert engine.backend == "statevector"
        engine.run(2)
        assert max(len(support) for support in supports) == width

    def test_single_run_routes_with_the_config_profile(self, tmp_path):
        # The cycle-accurate system routes "auto" from the config's
        # profile path, with the profile's channels, as the engine does.
        path = tmp_path / "t1t2.json"
        path.write_text(json.dumps(T1T2))
        system = QuAPESystem(
            program=clifford_program(),
            config=scalar_config(device_profile=str(path)),
            qpu_backend="auto")
        assert system.qpu.backend_name == "statevector"
        assert system.run().total_ns > 0

    def test_explicit_backend_sets_no_routing(self):
        engine = ShotEngine(clifford_program(), backend="stabilizer",
                            n_qubits=2)
        assert engine.routing is None

    def test_auto_matches_explicit_backends_bit_for_bit(self):
        for program, resolved in ((clifford_program(), "stabilizer"),
                                  (t_gate_program(), "statevector")):
            auto = ShotEngine(program, backend="auto", n_qubits=2)
            explicit = ShotEngine(program, backend=resolved, n_qubits=2)
            for seed in range(8):
                assert auto.run_shot(seed) == explicit.run_shot(seed)


class TestFailClosedBackends:
    def test_unknown_backend_names_the_registry(self):
        with pytest.raises(ValueError) as excinfo:
            make_backend("tensor-network", 2)
        for name in backend_names():
            assert name in str(excinfo.value)

    def test_raw_auto_is_not_a_registered_backend(self):
        # "auto" must be resolved by the routing layer before any
        # state is built; reaching make_backend with it is a bug and
        # fails with the same self-describing error.
        with pytest.raises(ValueError) as excinfo:
            make_backend("auto", 2)
        assert "auto" in str(excinfo.value)
        for name in backend_names():
            assert name in str(excinfo.value)


PROFILE_DOC = {
    "name": "identity5q",
    "defaults": {
        "t1_us": 60.0, "t2_us": 45.0,
        "readout": {"p0_given_1": 0.05, "p1_given_0": 0.03},
        "gates": {"h": 24, "x": 24},
    },
    "qubits": {
        "0": {"t1_us": 38.0, "gates": {"h": 32}},
        "1": {"readout": {"p0_given_1": 0.11}},
        "2": {"t2_us": 30.0},
    },
    "couplings": [
        {"pair": [0, 1], "zz_khz": 2600.0},
        {"pair": [1, 2], "zz_khz": 1400.0},
        {"pair": [0, 2], "zz_khz": 900.0},
    ],
}


def profile_program():
    """Branchy 3-qubit workload with concurrent drive on all pairs."""
    builder = ProgramBuilder("calibrated")
    builder.qop("h", [0], timing=2)
    builder.qop("h", [1], timing=2)
    builder.qop("h", [2], timing=2)  # three staggered open windows
    builder.qop("cnot", [0, 1], timing=2)
    builder.qmeas(1, timing=2)
    builder.fmr(1, 1)
    skip = builder.fresh_label("skip")
    builder.beq(1, 0, skip)
    builder.qop("x", [2], timing=2)
    builder.label(skip)
    builder.qop("h", [2], timing=2)
    for qubit in range(3):
        builder.qmeas(qubit, timing=2)
    builder.halt()
    return builder.build()


def calibrated_engine(profile_doc, **config_changes):
    return ShotEngine(profile_program(),
                      config=scalar_config(**config_changes),
                      backend="statevector", n_qubits=3,
                      profile=DeviceProfile.from_dict(profile_doc))


SWEEP_SHOTS = 24


class TestCalibratedBitIdentityMatrix:
    """The acceptance matrix: one calibrated noisy sweep, every
    execution strategy, identical histograms *and* total_ns."""

    def test_cycle_accurate_cached_and_batched_agree(self):
        reference = calibrated_engine(
            PROFILE_DOC, trace_cache=False).run(SWEEP_SHOTS)
        assert len(reference.counts) > 1  # the noise actually acts

        cached = calibrated_engine(PROFILE_DOC)
        result = cached.run(SWEEP_SHOTS)
        assert result.counts == reference.counts
        assert result.total_ns == reference.total_ns
        assert result.measured_qubits == reference.measured_qubits
        assert cached.trace_cache.hits > 0

        result = histogram(served(calibrated_engine(PROFILE_DOC),
                                  range(SWEEP_SHOTS), 7))
        assert result.counts == reference.counts
        assert result.total_ns == reference.total_ns

    def test_batchable_profile_actually_batches(self):
        # T1/T2 decay included, the lockstep cohorts must both engage
        # and stay bit-identical.
        reference = served(calibrated_engine(PROFILE_DOC,
                                             trace_cache=False),
                           range(SWEEP_SHOTS))
        batched = calibrated_engine(PROFILE_DOC)
        assert served(batched, range(SWEEP_SHOTS), 7) == reference
        assert batched.trace_cache.batched_shots > 0

    def test_edited_calibration_changes_results_not_just_keys(self):
        # The calibration is load-bearing: cranking qubit 1's readout
        # flip probability changes the delivered outcomes under the
        # same seeds.  Guards against the profile being carried in the
        # identity keys but ignored by the execution.
        edited = json.loads(json.dumps(PROFILE_DOC))
        edited["qubits"]["1"]["readout"]["p0_given_1"] = 0.95
        base = calibrated_engine(PROFILE_DOC, trace_cache=False)
        lossy = calibrated_engine(edited, trace_cache=False)
        base_shots = [base.run_shot(seed) for seed in range(40)]
        lossy_shots = [lossy.run_shot(seed) for seed in range(40)]
        assert base_shots != lossy_shots

    def test_calibrated_durations_change_the_zz_windows(self):
        # Longer calibrated pulses keep drive windows open longer, so
        # the per-pair overlaps — and with them the accumulated
        # conditional phases — grow.  Same seeds, different physics.
        slow = json.loads(json.dumps(PROFILE_DOC))
        slow["defaults"]["gates"] = {"h": 240, "x": 240}
        slow["qubits"]["0"]["gates"] = {"h": 320}
        fast = calibrated_engine(PROFILE_DOC, trace_cache=False)
        slowed = calibrated_engine(slow, trace_cache=False)
        fast_shots = [fast.run_shot(seed) for seed in range(40)]
        slow_shots = [slowed.run_shot(seed) for seed in range(40)]
        assert fast_shots != slow_shots
