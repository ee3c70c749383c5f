"""Unit tests for calibrated device profiles (repro.qpu.profile).

Covers the tentpole identity contract: JSON round-trips losslessly,
unknown fields fail closed naming the offending key, and the
fingerprint is *content*-addressed — editing one T1 changes it, while
the file's path or name on disk never does.
"""

import json
import pathlib

import pytest

from repro.qpu.noise import (DecoherenceNoise, DepolarizingNoise,
                             NoiseModel, PairZZCrosstalk,
                             QubitDecoherenceNoise, QubitReadoutError,
                             ReadoutError)
from repro.qpu.profile import (DeviceProfile, QubitCalibration,
                               load_device_profile)

EXAMPLE = (pathlib.Path(__file__).resolve().parents[2]
           / "examples" / "profiles" / "paper_37q.json")

DOC = {
    "name": "unit5q",
    "defaults": {
        "t1_us": 70.0, "t2_us": 55.0,
        "readout": {"p0_given_1": 0.02, "p1_given_0": 0.01},
        "gates": {"x90": 24, "measure": 300},
    },
    "qubits": {
        "0": {"t1_us": 45.0, "gates": {"x90": 30}},
        "2": {"readout": {"p0_given_1": 0.08}},
    },
    "couplings": [
        {"pair": [0, 1], "zz_khz": 90.0},
        {"pair": [1, 2], "zz_khz": 40.0},
    ],
}


class TestRoundTrip:
    def test_canonical_round_trips(self):
        profile = DeviceProfile.from_dict(DOC)
        again = DeviceProfile.from_dict(profile.canonical())
        assert again == profile
        assert again.fingerprint() == profile.fingerprint()

    def test_example_profile_loads(self):
        profile = load_device_profile(EXAMPLE)
        assert profile.name == "paper_37q"
        assert len(profile.qubits) == 37
        assert len(profile.couplings) == 42
        # Round-trips through its own canonical rendering too.
        assert DeviceProfile.from_dict(profile.canonical()) == profile

    def test_file_load_equals_dict_load(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(DOC))
        assert load_device_profile(path) == DeviceProfile.from_dict(DOC)

    def test_coupling_pairs_normalized(self):
        flipped = dict(DOC, couplings=[{"pair": [1, 0], "zz_khz": 90.0},
                                       {"pair": [2, 1], "zz_khz": 40.0}])
        assert DeviceProfile.from_dict(flipped).fingerprint() == \
            DeviceProfile.from_dict(DOC).fingerprint()


class TestFailClosed:
    """A typo'd calibration field must never be silently ignored."""

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ValueError, match="t1_times"):
            DeviceProfile.from_dict({"t1_times": {}})

    def test_unknown_qubit_key_named(self):
        with pytest.raises(ValueError, match="t1_ns"):
            DeviceProfile.from_dict({"qubits": {"0": {"t1_ns": 3.0}}})

    def test_unknown_readout_key_named(self):
        with pytest.raises(ValueError, match="fidelity"):
            DeviceProfile.from_dict(
                {"defaults": {"readout": {"fidelity": 0.99}}})

    def test_unknown_coupling_key_named(self):
        with pytest.raises(ValueError, match="zz_hz"):
            DeviceProfile.from_dict(
                {"couplings": [{"pair": [0, 1], "zz_hz": 1e5}]})

    def test_unknown_gate_named(self):
        with pytest.raises(ValueError, match="xx90"):
            DeviceProfile.from_dict(
                {"defaults": {"gates": {"xx90": 20}}})

    def test_unregistered_backend_pin_rejected(self):
        with pytest.raises(ValueError, match="statevector"):
            DeviceProfile.from_dict({"backend": "tensor-network"})

    def test_invalid_json_file_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            load_device_profile(path)

    @pytest.mark.parametrize("value", [0, -3.5, "fast", True,
                                       float("nan"), float("inf")])
    def test_bad_times_rejected(self, value):
        with pytest.raises(ValueError, match="t1_us"):
            DeviceProfile.from_dict({"defaults": {"t1_us": value}})

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(ValueError, match="zz_khz"):
            DeviceProfile.from_dict(
                {"couplings": [{"pair": [0, 1], "zz_khz": float("nan")}]})

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="p0_given_1"):
            DeviceProfile.from_dict(
                {"defaults": {"readout": {"p0_given_1": 1.5}}})

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            DeviceProfile.from_dict(
                {"couplings": [{"pair": [2, 2], "zz_khz": 10.0}]})


class TestFingerprint:
    """Content-addressed identity: content changes it, paths never do."""

    def test_one_t1_changes_the_fingerprint(self):
        edited = json.loads(json.dumps(DOC))
        edited["qubits"]["0"]["t1_us"] = 45.1
        assert DeviceProfile.from_dict(edited).fingerprint() != \
            DeviceProfile.from_dict(DOC).fingerprint()

    def test_file_rename_keeps_the_fingerprint(self, tmp_path):
        first = tmp_path / "calibration_2026_08.json"
        second = tmp_path / "renamed" / "current.json"
        second.parent.mkdir()
        first.write_text(json.dumps(DOC))
        second.write_text(json.dumps(DOC, indent=4))  # formatting too
        assert load_device_profile(first).fingerprint() == \
            load_device_profile(second).fingerprint()

    def test_key_order_is_irrelevant(self):
        reordered = {"couplings": DOC["couplings"],
                     "qubits": DOC["qubits"], "name": DOC["name"],
                     "defaults": DOC["defaults"]}
        assert DeviceProfile.from_dict(reordered).fingerprint() == \
            DeviceProfile.from_dict(DOC).fingerprint()


class TestResolution:
    def test_gate_duration_per_qubit_over_defaults_over_library(self):
        profile = DeviceProfile.from_dict(DOC)
        assert profile.gate_duration_ns("x90", (0,)) == 30   # per-qubit
        assert profile.gate_duration_ns("x90", (1,)) == 24   # defaults
        assert profile.gate_duration_ns("sx", (1,)) == 24    # via alias
        from repro.circuit.gates import lookup_gate
        assert profile.gate_duration_ns("h", (1,)) == \
            lookup_gate("h").duration_ns                     # library

    def test_multi_qubit_gate_takes_the_slowest_qubit(self):
        doc = dict(DOC, qubits={"0": {"gates": {"cz": 80}},
                                "1": {"gates": {"cz": 50}}})
        profile = DeviceProfile.from_dict(doc)
        assert profile.gate_duration_ns("cz", (0, 1)) == 80
        assert profile.gate_duration_ns("cz", (1, 0)) == 80

    def test_calibration_for_unlisted_qubit_is_empty(self):
        profile = DeviceProfile.from_dict(DOC)
        assert profile.calibration_for(4) == QubitCalibration()


class TestNoiseComposition:
    def test_channels_are_per_qubit_and_per_pair(self):
        noise = DeviceProfile.from_dict(DOC).noise_model()
        assert isinstance(noise.readout, QubitReadoutError)
        assert isinstance(noise.decoherence, QubitDecoherenceNoise)
        assert isinstance(noise.zz, PairZZCrosstalk)
        assert noise.readout.for_qubit(2).p0_given_1 == 0.08
        assert noise.readout.for_qubit(1).p0_given_1 == 0.02
        assert noise.decoherence.for_qubit(0).t1_us == 45.0
        assert noise.decoherence.for_qubit(1).t1_us == 70.0
        assert noise.zz.zeta_for(0, 1) == pytest.approx(90e3)
        assert noise.zz.zeta_for(1, 2) == pytest.approx(40e3)

    def test_base_gate_channels_survive_composition(self):
        base = NoiseModel(depolarizing=DepolarizingNoise(p=0.01),
                          readout=ReadoutError(p0_given_1=0.5))
        noise = DeviceProfile.from_dict(DOC).noise_model(base=base)
        assert noise.depolarizing == base.depolarizing
        # ...but the profile's calibrated readout replaces the base's.
        assert isinstance(noise.readout, QubitReadoutError)
        assert noise.readout.p0_given_1 == 0.02

    def test_empty_profile_composes_to_none(self):
        assert DeviceProfile.from_dict({"name": "bare"}) \
            .noise_model() is None

    def test_profile_channels_stay_dense_compilable(self):
        noise = DeviceProfile.from_dict(DOC).noise_model()
        assert noise.is_dense_compilable
        assert not noise.is_pauli_only        # ZZ + decoherence
        # Serial replay and cohorts run decoherence through one decay
        # kernel, fed each qubit's calibrated (or default) constants.
        for qubit, t1_us in ((0, 45.0), (1, 70.0)):
            assert (noise.decoherence.for_qubit(qubit)
                    .decay_constants(500)
                    == DecoherenceNoise(t1_us=t1_us, t2_us=55.0)
                    .decay_constants(500)), qubit
