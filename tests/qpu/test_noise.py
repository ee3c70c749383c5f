"""Unit tests for noise channels."""

import math
import random

import pytest

from repro.qpu import (DepolarizingNoise, NoiseModel, PRNGReadout,
                       ReadoutError, StateVector, ZZCrosstalk,
                       ideal_noise_model, paper_noise_model)
from repro.qpu.readout import DeterministicReadout


class TestDepolarizing:
    def test_infidelity_formula(self):
        assert DepolarizingNoise(0.03).average_gate_infidelity == \
            pytest.approx(0.02)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            DepolarizingNoise(-0.1)
        with pytest.raises(ValueError):
            DepolarizingNoise(1.1)

    def test_injection_rate(self):
        channel = DepolarizingNoise(0.5)
        rng = random.Random(0)
        flipped = 0
        for _ in range(1000):
            state = StateVector(1)
            channel.apply(state, (0,), rng)
            # Any injected X or Y moves population out of |0>.
            if state.probability_of_one(0) > 0.5:
                flipped += 1
        # 0.5 injection rate, 2/3 of Paulis flip the population.
        assert 250 < flipped < 420

    def test_zero_probability_never_injects(self):
        channel = DepolarizingNoise(0.0)
        rng = random.Random(0)
        state = StateVector(1)
        for _ in range(100):
            channel.apply(state, (0,), rng)
        assert state.probability_of_one(0) == pytest.approx(0.0)


class TestZZCrosstalk:
    def test_conditional_phase_value(self):
        zz = ZZCrosstalk(zeta_hz=1e6, pairs=((0, 1),))
        assert zz.conditional_phase(20) == \
            pytest.approx(2 * math.pi * 1e6 * 20e-9)

    def test_phase_applied_only_to_coupled_driven_pairs(self):
        zz = ZZCrosstalk(zeta_hz=12.5e6, pairs=((0, 1),))  # pi/2 in 20ns
        state = StateVector(3)
        for qubit in range(3):
            state.apply_gate("h", (qubit,))
        reference = state.copy()
        zz.apply_simultaneous(state, driven={0, 1}, duration_ns=20)
        assert state.fidelity_with(reference) < 0.99
        untouched = reference.copy()
        zz.apply_simultaneous(untouched, driven={1, 2}, duration_ns=20)
        assert untouched.fidelity_with(reference) == pytest.approx(1.0)

    def test_non_finite_coupling_rejected(self):
        from repro.qpu.noise import PairZZCrosstalk
        for channel in (ZZCrosstalk, PairZZCrosstalk):
            with pytest.raises(ValueError, match="finite"):
                channel(zeta_hz=float("nan"))

    def test_zero_coupling_is_identity(self):
        zz = ZZCrosstalk(zeta_hz=0.0, pairs=((0, 1),))
        state = StateVector(2)
        state.apply_gate("h", (0,))
        reference = state.copy()
        zz.apply_simultaneous(state, driven={0, 1}, duration_ns=20)
        assert state.fidelity_with(reference) == pytest.approx(1.0)


class TestDecoherence:
    @pytest.mark.parametrize("t1_us, t2_us", [
        (float("nan"), 60.0), (75.0, float("nan"))])
    def test_non_finite_coherence_times_rejected(self, t1_us, t2_us):
        from repro.qpu.noise import DecoherenceNoise
        with pytest.raises(ValueError, match="finite"):
            DecoherenceNoise(t1_us=t1_us, t2_us=t2_us)


class TestReadoutError:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ReadoutError(p0_given_1=2.0)

    def test_asymmetric_flips(self):
        error = ReadoutError(p0_given_1=1.0, p1_given_0=0.0)
        rng = random.Random(0)
        assert error.corrupt(1, rng) == 0
        assert error.corrupt(0, rng) == 0


class TestNoiseModel:
    def test_ideal_model_has_no_channels(self):
        model = ideal_noise_model()
        assert model.depolarizing is None
        assert model.zz is None
        assert model.corrupt_readout(1) == 1

    def test_paper_model_calibration(self):
        model = paper_noise_model(seed=0)
        # Per-gate infidelity target ~0.5 %.
        assert model.depolarizing.average_gate_infidelity == \
            pytest.approx(0.005)
        assert model.zz.zeta_hz > 0

    def test_two_qubit_channel_selected_for_two_qubit_gates(self):
        model = NoiseModel(
            depolarizing=DepolarizingNoise(0.0),
            two_qubit_depolarizing=DepolarizingNoise(1.0), seed=1)
        state = StateVector(2)
        model.after_gate(state, "cnot", (0, 1))
        # The 2q channel always injects: population must have moved
        # unless both injected Paulis were Z (probability (1/3)^2).
        assert state.norm() == pytest.approx(1.0)


class TestReadoutSources:
    def test_prng_rates(self):
        readout = PRNGReadout(failure_rate=0.25, seed=3)
        samples = [readout.sample(0) for _ in range(2000)]
        assert 0.2 < sum(samples) / 2000 < 0.3

    def test_per_qubit_override(self):
        readout = PRNGReadout(failure_rate=0.0, per_qubit={3: 1.0},
                              seed=0)
        assert readout.sample(0) == 0
        assert readout.sample(3) == 1

    def test_reseed_reproduces(self):
        readout = PRNGReadout(failure_rate=0.5, seed=9)
        first = [readout.sample(0) for _ in range(20)]
        readout.reseed(9)
        assert [readout.sample(0) for _ in range(20)] == first

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            PRNGReadout(failure_rate=1.5)
        with pytest.raises(ValueError):
            PRNGReadout(per_qubit={0: -0.1})

    def test_deterministic_queue(self):
        readout = DeterministicReadout(outcomes={0: [1, 0, 1]},
                                       default=0)
        assert [readout.sample(0) for _ in range(4)] == [1, 0, 1, 0]
        assert readout.sample(5) == 0


class TestPauliOnlyGate:
    """is_pauli_only must fail closed for unvetted channel fields."""

    def test_pauli_and_readout_qualify(self):
        from repro.qpu.noise import (NoiseModel, PauliChannel,
                                     DepolarizingNoise, ReadoutError)
        model = NoiseModel(
            depolarizing=DepolarizingNoise(p=0.01),
            two_qubit_depolarizing=DepolarizingNoise(p=0.02),
            pauli=PauliChannel(px=0.01),
            readout=ReadoutError(p1_given_0=0.01))
        assert model.is_pauli_only
        assert NoiseModel().is_pauli_only  # ideal is trivially Pauli-only

    def test_non_clifford_channels_disqualify(self):
        from repro.qpu.noise import (DecoherenceNoise, NoiseModel,
                                     ZZCrosstalk)
        assert not NoiseModel(zz=ZZCrosstalk(zeta_hz=1e3)).is_pauli_only
        assert not NoiseModel(decoherence=DecoherenceNoise()).is_pauli_only

    def test_unknown_future_channel_fails_closed(self):
        # A channel field added later must not silently qualify for
        # the sign-trace replay before being vetted.
        import dataclasses
        from repro.qpu.noise import NoiseModel

        @dataclasses.dataclass
        class Extended(NoiseModel):
            leakage: object | None = None

        assert Extended(leakage=object()).is_pauli_only is False
        assert Extended().is_pauli_only is True


class TestDenseCompilableGating:
    """is_dense_compilable gates the compiled noise-site replay."""

    def test_every_shipped_channel_is_compilable(self):
        from repro.qpu.noise import (DecoherenceNoise, NoiseModel,
                                     PauliChannel, ReadoutError,
                                     ZZCrosstalk)
        model = NoiseModel(
            depolarizing=DepolarizingNoise(p=0.01),
            two_qubit_depolarizing=DepolarizingNoise(p=0.02),
            pauli=PauliChannel(px=0.01),
            zz=ZZCrosstalk(zeta_hz=1e3, pairs=((0, 1),)),
            decoherence=DecoherenceNoise(),
            readout=ReadoutError(p0_given_1=0.01))
        assert model.is_dense_compilable
        assert NoiseModel().is_dense_compilable

    def test_unknown_enabled_channel_fails_closed(self):
        # An active channel the noise-site compiler predates must
        # disable the trace cache (every shot then runs the live
        # device), not be silently dropped from the compiled program.
        import dataclasses
        from repro.qpu.noise import NoiseModel

        @dataclasses.dataclass
        class Extended(NoiseModel):
            leakage: object | None = None

        assert Extended(leakage=object()).is_dense_compilable is False
        assert Extended().is_dense_compilable is True
