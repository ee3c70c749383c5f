"""Service-level auto routing and inline calibrated profiles.

The spec-level tests pin the protocol contract — ``"auto"`` resolves
at validation time, the *routed* backend and the profile's canonical
content enter the identity keys, and filesystem-path profile overrides
are rejected.  The live-service tests then run ``backend="auto"``
sweeps with inline calibrations through a real 2-worker pool and
demand bit-identity with a local engine, with the routing decision
surfaced through ``/stats``.
"""

import json

import pytest

from repro.qcp import QCPConfig
from repro.qcp.routing import route_backend
from repro.qcp.shots import ShotEngine
from repro.qcp.system import infer_qubit_count
from repro.qpu.profile import DeviceProfile
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (JobSpec, ProtocolError,
                                    build_noise_model, program_from_text)
from repro.service.server import ServiceHandle

CLIFFORD = """
.block main prio=0
    qop 0, h, q0
    qop 2, cnot, q0, q1
    qmeas 2, q0
    fmr r1, q0
    beq r1, r0, skip
    qop 2, x, q2
skip:
    qmeas 2, q1
    qmeas 2, q2
    halt
.endblock
"""

MAGIC = """
.block main prio=0
    qop 0, h, q0
    qop 2, t, q0
    qop 2, h, q0
    qmeas 2, q0
    qop 0, h, q1
    qmeas 2, q1
    halt
.endblock
"""

#: Pauli-compatible calibration: readout flips only, so a Clifford
#: program stays routable to the stabilizer tableau.
READOUT_PROFILE = {
    "name": "svc-readout",
    "defaults": {"readout": {"p0_given_1": 0.06, "p1_given_0": 0.03}},
    "qubits": {"1": {"readout": {"p0_given_1": 0.12}}},
}

#: Amplitude-level calibration (T1/T2 + per-pair ZZ): dense only.
DENSE_PROFILE = {
    "name": "svc-dense",
    "defaults": {"t1_us": 55.0, "t2_us": 40.0,
                 "readout": {"p0_given_1": 0.04, "p1_given_0": 0.02}},
    "qubits": {"0": {"t1_us": 30.0}},
    "couplings": [{"pair": [0, 1], "zz_khz": 2200.0}],
}

SHOTS = 18


def spec(**overrides):
    job = {"program": CLIFFORD, "shots": SHOTS}
    job.update(overrides)
    return JobSpec.from_dict(job)


class TestJobSpecRouting:
    def test_auto_clifford_resolves_stabilizer(self):
        job = spec(backend="auto")
        assert job.resolved_backend == "stabilizer"
        assert job.routing["backend"] == "stabilizer"
        assert job.routing["clifford_only"]

    def test_auto_non_clifford_resolves_statevector(self):
        job = spec(program=MAGIC, backend="auto")
        assert job.resolved_backend == "statevector"
        assert not job.routing["clifford_only"]

    def test_explicit_backend_has_no_routing(self):
        job = spec(backend="stabilizer")
        assert job.routing is None
        assert job.resolved_backend == "stabilizer"

    def test_profile_pin_forces_the_routed_backend(self):
        pinned = dict(READOUT_PROFILE, backend="statevector")
        job = spec(backend="auto", profile=pinned)
        assert job.resolved_backend == "statevector"
        assert job.routing["forced"]

    def test_dense_profile_routes_clifford_program_dense(self):
        job = spec(backend="auto", profile=DENSE_PROFILE)
        assert job.resolved_backend == "statevector"
        assert job.routing["clifford_only"]  # the *noise* forced it

    @pytest.mark.parametrize("program, profile, noise", [
        (CLIFFORD, None, None),
        (MAGIC, None, None),
        (CLIFFORD, None, {"decoherence": {"t1_us": 50.0}}),
        (CLIFFORD, DENSE_PROFILE, None),
        # A pin that overrides the program analysis (a pin the
        # program cannot run on is refused, see test_protocol).
        (CLIFFORD, dict(READOUT_PROFILE, backend="statevector"), None),
    ])
    def test_auto_routing_is_route_backend_of_the_parsed_program(
            self, program, profile, noise):
        parsed = program_from_text(program)
        profile_obj = (None if profile is None
                       else DeviceProfile.from_dict(profile))
        expected = route_backend(parsed, infer_qubit_count(parsed),
                                 noise=build_noise_model(noise),
                                 profile=profile_obj).as_dict()
        # The second validation routes from the facts the first kept.
        for _ in range(2):
            assert spec(program=program, backend="auto", profile=profile,
                        noise=noise).routing == expected

    def test_auto_job_shares_engine_key_with_explicit_backend(self):
        # The identity carries the routed backend, never "auto": an
        # auto job that resolves to stabilizer reuses the compiled
        # engine of an explicit stabilizer job.
        assert spec(backend="auto").engine_key() == \
            spec(backend="stabilizer").engine_key()

    def test_profile_content_is_part_of_the_engine_key(self):
        bare = spec(backend="stabilizer")
        calibrated = spec(backend="stabilizer", profile=READOUT_PROFILE)
        assert bare.engine_key() != calibrated.engine_key()

    def test_one_t1_edit_changes_the_engine_key(self):
        edited = json.loads(json.dumps(DENSE_PROFILE))
        edited["qubits"]["0"]["t1_us"] = 30.5
        assert spec(profile=DENSE_PROFILE).engine_key() != \
            spec(profile=edited).engine_key()

    def test_equal_profile_content_shares_the_engine_key(self):
        reordered = {key: DENSE_PROFILE[key]
                     for key in reversed(list(DENSE_PROFILE))}
        assert spec(profile=DENSE_PROFILE).engine_key() == \
            spec(profile=reordered).engine_key()

    def test_device_profile_config_override_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            spec(config={"device_profile": "/etc/cal.json"})
        assert excinfo.value.code == "bad_config"
        assert "profile" in str(excinfo.value)

    def test_unknown_profile_field_rejected_naming_the_key(self):
        with pytest.raises(ProtocolError) as excinfo:
            spec(profile={"t1_times": {}})
        assert excinfo.value.code == "bad_profile"
        assert "t1_times" in str(excinfo.value)

    def test_non_object_profile_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            spec(profile=[1, 2])
        assert excinfo.value.code == "bad_profile"


@pytest.fixture(scope="module")
def service():
    with ServiceHandle.start(n_workers=2) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.host, service.port)


def local_reference(program_text, profile_doc):
    engine = ShotEngine(program_from_text(program_text),
                        config=QCPConfig(), backend="auto",
                        profile=DeviceProfile.from_dict(profile_doc))
    return engine, engine.run(SHOTS)


class TestServiceAutoRouting:
    """The 2-worker acceptance cell: auto + inline profile, sharded
    across processes, bit-identical to a local engine."""

    @pytest.mark.parametrize("program_text,profile_doc,expected", [
        (CLIFFORD, READOUT_PROFILE, "stabilizer"),
        (CLIFFORD, DENSE_PROFILE, "statevector"),
        (MAGIC, DENSE_PROFILE, "statevector"),
    ])
    def test_auto_profile_sweep_matches_local(self, client, program_text,
                                              profile_doc, expected):
        from repro.service.protocol import result_from_payload

        engine, reference = local_reference(program_text, profile_doc)
        assert engine.backend == expected
        event = client.submit({"program": program_text, "shots": SHOTS,
                               "backend": "auto", "shard_shots": 5,
                               "profile": profile_doc})
        result = result_from_payload(event["result"])
        assert result.counts == reference.counts
        assert result.total_ns == reference.total_ns
        assert result.measured_qubits == reference.measured_qubits
        assert event["shards"] == 4  # it really ran sharded

    def test_stats_surface_the_routing_decision(self, client):
        client.submit({"program": MAGIC, "shots": SHOTS,
                       "backend": "auto", "profile": DENSE_PROFILE})
        stats = client.stats()
        routed = [worker for worker in stats["worker_cache"].values()
                  if worker.get("routing") is not None]
        assert routed, "no worker reported a routing decision"
        decision = routed[-1]["routing"]
        assert decision["backend"] == routed[-1]["backend"]
        assert decision["reason"]

    def test_bad_inline_profile_rejected_over_the_wire(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"program": CLIFFORD, "shots": 4,
                           "profile": {"zz_map": []}})
        assert excinfo.value.code == "bad_profile"
        assert "zz_map" in str(excinfo.value)
