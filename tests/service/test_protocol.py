"""Tests for the service wire protocol and job identity model."""

import functools
import hashlib
import pathlib
from collections import OrderedDict

import pytest

from repro.benchlib.steane import build_shor_syndrome_program
from repro.qcp import run_shots
from repro.service import protocol
from repro.service.protocol import (BACKENDS, JobSpec, ProtocolError,
                                    build_noise_model, decode_line,
                                    encode_message, program_from_text,
                                    result_from_payload, result_payload)

ASM = """
.block main prio=0
    qop 0, h, q0
    qmeas 2, q0
    halt
.endblock
"""

QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
creg c[1];
h q[0];
measure q[0] -> c[0];
"""

NO_MEASURE_ASM = """
.block main prio=0
    qop 0, h, q0
    halt
.endblock
"""


def job(**overrides):
    raw = {"program": ASM, "shots": 10}
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_job_accepted(self):
        spec = JobSpec.from_dict(job())
        assert spec.shots == 10
        assert spec.seed == 0
        assert spec.resolved_backend == "statevector"

    def test_openqasm_program_accepted(self):
        spec = JobSpec.from_dict(job(program=QASM))
        assert spec.program == QASM

    @pytest.mark.parametrize("raw, code", [
        ("not a dict", "bad_job"),
        (job(bogus=1), "bad_job"),
        (job(program=""), "bad_program"),
        (job(program="qqop nonsense"), "bad_program"),
        (job(shots=0), "bad_shots"),
        (job(shots=True), "bad_shots"),
        (job(shots="10"), "bad_shots"),
        (job(seed="zero"), "bad_seed"),
        (job(backend="tensor_network"), "bad_backend"),
        (job(config={"nonexistent_field": 1}), "bad_config"),
        (job(config="fast"), "bad_config"),
        (job(noise={"cosmic_rays": {}}), "bad_noise"),
        (job(noise={"pauli": {"pq": 1.0}}), "bad_noise"),
        (job(noise={"pauli": 0.1}), "bad_noise"),
        (job(n_processors=0), "bad_job"),
        (job(timeout_s=-1), "bad_job"),
        (job(shard_shots=0), "bad_job"),
        (job(program=NO_MEASURE_ASM), "no_measurements"),
        (job(config={"artifact_cache_dir": "/tmp/x"}), "bad_config"),
        (job(config={"artifact_cache_max_bytes": 1}), "bad_config"),
        (job(fault={"kill_shard_start": 0, "once_token": "/tmp/x"}),
         "bad_job"),
        (job(fault="kill"), "bad_job"),
        (job(fault={"kill_shard_start": -1}), "bad_job"),
        (job(fault={"kill_shard_start": True}), "bad_job"),
        (job(fault={}), "bad_job"),
        (job(n_processors=True), "bad_job"),
        (job(shard_shots=True), "bad_job"),
        (job(timeout_s=True), "bad_job"),
        (job(config={"trace_cache_batch": False}), "bad_config"),
        (job(config={"trace_cache_batch_width": 8}), "bad_config"),
        (job(config={"trace_cache_dense_fusion": False}), "bad_config"),
        (job(config={"fuse_max_qubits": 5}), "bad_config"),
        (job(timeout_s=float("nan")), "bad_job"),
        (job(timeout_s=float("inf")), "bad_job"),
        (job(profile={"defaults": {"t1_us": float("nan")}}),
         "bad_profile"),
        (job(noise={"decoherence": {"t1_us": float("nan")}}),
         "bad_noise"),
        (job(noise={"zz": {"zeta_hz": float("nan")}}), "bad_noise"),
    ])
    def test_rejections_carry_machine_readable_codes(self, raw, code):
        with pytest.raises(ProtocolError) as excinfo:
            JobSpec.from_dict(raw)
        assert excinfo.value.code == code

    def test_negative_seed_rejected(self):
        # random.Random(-k) seeds like random.Random(k): the 16-shot
        # sweep of seed -8 (shot seeds -8..7) would repeat the outcomes
        # of shot seeds 1..7.
        with pytest.raises(ProtocolError) as excinfo:
            JobSpec.from_dict(job(seed=-8))
        assert excinfo.value.code == "bad_seed"
        assert JobSpec.from_dict(job(seed=0)).seed == 0

    def test_no_measurement_openqasm_rejected(self):
        qasm = ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                "qreg q[1];\nh q[0];\n")
        with pytest.raises(ProtocolError) as excinfo:
            JobSpec.from_dict(job(program=qasm))
        assert excinfo.value.code == "no_measurements"


MAGIC_QASM = (pathlib.Path(__file__).resolve().parents[2] / "examples"
              / "magic.qasm").read_text()


@functools.cache
def shor_text() -> str:
    """The 37-qubit Shor syndrome program: Clifford, beyond the dense
    simulator's limit."""
    return build_shor_syndrome_program(rounds=1).to_asm()


class TestBackendFitsProgram:
    """A job whose resolved backend cannot run its program is refused,
    however the backend was chosen: a worker would only fail it."""

    @pytest.mark.parametrize("overrides", [
        {"backend": "stabilizer"},
        {"config": {"qpu_backend": "stabilizer"}},
        {"backend": "auto",
         "profile": {"name": "pinned", "backend": "stabilizer"}},
    ], ids=["backend", "config", "profile-pin"])
    def test_non_clifford_program_refused_on_the_stabilizer(
            self, overrides):
        with pytest.raises(ProtocolError) as excinfo:
            JobSpec.from_dict(job(program=MAGIC_QASM, **overrides))
        assert excinfo.value.code == "bad_backend"
        assert "non-Clifford" in str(excinfo.value)

    def test_wide_program_refused_on_the_statevector(self):
        with pytest.raises(ProtocolError) as excinfo:
            JobSpec.from_dict(job(program=shor_text(),
                                  backend="statevector"))
        assert excinfo.value.code == "bad_backend"
        assert "37 qubits exceeds" in str(excinfo.value)

    def test_programs_accepted_where_they_run(self):
        spec = JobSpec.from_dict(job(program=MAGIC_QASM, backend="auto"))
        assert spec.resolved_backend == "statevector"
        spec = JobSpec.from_dict(job(program=shor_text(),
                                     backend="stabilizer"))
        assert spec.resolved_backend == "stabilizer"


@pytest.fixture
def parses(monkeypatch):
    """The texts parsed from here on, starting from an empty table."""
    monkeypatch.setattr(protocol, "_validated", OrderedDict())
    texts = []
    parse = protocol.program_from_text

    def counted(text, name="job"):
        texts.append(text)
        return parse(text, name)

    monkeypatch.setattr(protocol, "program_from_text", counted)
    return texts


class TestValidationTable:
    def test_repeated_text_parses_once(self, parses):
        JobSpec.from_dict(job())
        JobSpec.from_dict(job(shots=11, seed=3, backend="auto"))
        assert parses == [ASM]

    def test_unparseable_text_is_rejected_every_time(self, parses):
        for _ in range(2):
            with pytest.raises(ProtocolError) as excinfo:
                JobSpec.from_dict(job(program="qqop nonsense"))
            assert excinfo.value.code == "bad_program"
        assert len(parses) == 2
        assert len(protocol._validated) == 0

    def test_measurement_free_text_stays_rejected(self, parses):
        for _ in range(2):
            with pytest.raises(ProtocolError) as excinfo:
                JobSpec.from_dict(job(program=NO_MEASURE_ASM))
            assert excinfo.value.code == "no_measurements"
        assert parses == [NO_MEASURE_ASM]

    def test_table_is_bounded_and_holds_only_digests_and_facts(
            self, parses):
        bound = protocol.VALIDATED_TEXTS
        texts = [f"{ASM}; text {index}\n" for index in range(bound + 8)]
        for text in texts:
            JobSpec.from_dict(job(program=text))
            JobSpec.from_dict(job(program=texts[0]))  # kept recent
            assert len(protocol._validated) <= bound
        assert len(protocol._validated) == bound
        for digest, facts in protocol._validated.items():
            assert isinstance(digest, bytes) and len(digest) == 32
            assert facts == (True, True, 1)
        parses.clear()
        for text in (texts[0], texts[-1], texts[1]):
            JobSpec.from_dict(job(program=text))
        assert parses == [texts[1]]  # the least recently used went


class TestKeys:
    #: A spec with every identity field set: an inline profile, noise,
    #: a config override and an ``auto`` backend.
    FIXED = {"program": ASM, "shots": 10, "seed": 7, "backend": "auto",
             "config": {"trace_cache": False},
             "noise": {"pauli": {"px": 0.001}},
             "profile": {"name": "keys", "defaults": {"readout": {
                 "p0_given_1": 0.02, "p1_given_0": 0.01}}}}

    def test_keys_of_a_fixed_spec(self):
        spec = JobSpec.from_dict(dict(self.FIXED))
        assert spec.engine_key() == (
            "3f6f9db8e494fc211b3b3aff752d9c7d7aa5b163f9d39b192ce1b1b0f4be09b0")
        assert spec.job_key() == (
            "0ccc8b858481d326e0185eb1679df9cd22630e1d77332b4e0eb332b5aba2df5b")
        # Asking again changes nothing: job_key copies the identity.
        assert spec.engine_key() == JobSpec.from_dict(
            dict(self.FIXED, shots=99)).engine_key()
        assert spec.job_key() == JobSpec.from_dict(
            dict(self.FIXED)).job_key()

    def test_one_submit_hashes_the_text_and_parses_the_profile_once(
            self, monkeypatch):
        from repro.service.jobs import JobManager

        spec = JobSpec.from_dict(dict(self.FIXED))
        hashed = []
        parsed = []
        sha256 = hashlib.sha256

        def counted_sha256(data=b"", **kwargs):
            hashed.append(data)
            return sha256(data, **kwargs)

        from_dict = protocol.DeviceProfile.from_dict.__func__

        def counted_from_dict(cls, data):
            parsed.append(data)
            return from_dict(cls, data)

        monkeypatch.setattr(protocol.hashlib, "sha256", counted_sha256)
        monkeypatch.setattr(protocol.DeviceProfile, "from_dict",
                            classmethod(counted_from_dict))
        # Not started: submit only queues, and no pool exists to stop.
        manager = JobManager(n_workers=1, queue_size=4)
        job_, deduped = manager.submit(spec)
        assert not deduped and job_.key == spec.job_key()
        assert spec.payload()["engine_key"] == spec.engine_key()
        assert hashed.count(ASM.encode()) == 1
        assert parsed == [self.FIXED["profile"]]

    def test_job_key_is_stable(self):
        assert JobSpec.from_dict(job()).job_key() == \
            JobSpec.from_dict(job()).job_key()

    def test_result_fields_change_job_key(self):
        base = JobSpec.from_dict(job()).job_key()
        assert JobSpec.from_dict(job(shots=11)).job_key() != base
        assert JobSpec.from_dict(job(seed=1)).job_key() != base
        assert JobSpec.from_dict(
            job(backend="stabilizer")).job_key() != base
        assert JobSpec.from_dict(
            job(noise={"pauli": {"px": 1e-3}})).job_key() != base
        assert JobSpec.from_dict(
            job(config={"trace_cache": False})).job_key() != base

    def test_steering_fields_do_not_change_job_key(self):
        base = JobSpec.from_dict(job()).job_key()
        assert JobSpec.from_dict(job(timeout_s=9.0)).job_key() == base
        assert JobSpec.from_dict(job(shard_shots=3)).job_key() == base

    def test_engine_key_ignores_shots_and_seed(self):
        base = JobSpec.from_dict(job()).engine_key()
        assert JobSpec.from_dict(job(shots=99, seed=5)).engine_key() == \
            base
        assert JobSpec.from_dict(
            job(backend="stabilizer")).engine_key() != base

    def test_explicit_backend_matches_config_backend(self):
        # Resolution means "backend": "statevector" and
        # config.qpu_backend = "statevector" are the same engine.
        explicit = JobSpec.from_dict(job(backend="statevector"))
        via_config = JobSpec.from_dict(
            job(config={"qpu_backend": "statevector"}))
        assert explicit.resolved_backend == \
            via_config.resolved_backend == "statevector"


class TestFraming:
    def test_round_trip(self):
        line = encode_message({"op": "ping", "n": 3})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"op": "ping", "n": 3}

    def test_bad_json_raises(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"{nope\n")
        assert excinfo.value.code == "bad_json"

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"[1, 2]\n")
        assert excinfo.value.code == "bad_json"


class TestResultPayload:
    def test_round_trips_shot_result(self):
        program = program_from_text(ASM)
        result = run_shots(program, shots=12, backend="stabilizer")
        clone = result_from_payload(result_payload(result))
        assert clone.shots == result.shots
        assert clone.counts == result.counts
        assert clone.measured_qubits == result.measured_qubits
        assert clone.total_ns == result.total_ns


class TestNoiseModel:
    def test_builds_channels(self):
        model = build_noise_model({
            "pauli": {"px": 1e-3},
            "readout": {"p0_given_1": 0.005, "p1_given_0": 0.002}})
        assert model is not None

    def test_none_and_empty_mean_ideal(self):
        assert build_noise_model(None) is None
        assert build_noise_model({}) is None
