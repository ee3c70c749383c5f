"""Wire protocol and job model of the shot-sweep service.

The service speaks **newline-delimited JSON** over a stream socket:
every request and every event is one JSON object terminated by ``\\n``.
Requests carry an ``op`` field; server messages carry an ``event``
field.  See ``docs/service.md`` for the full message catalogue.

Job identity
============

Two keys are derived from a job, both SHA-256 over a canonical JSON
rendering (sorted keys, no whitespace):

* :meth:`JobSpec.engine_key` — the fields that determine the compiled
  execution artifacts: program text, resolved backend, config
  overrides, noise spec and processor count.  Workers cache one
  compile-once :class:`~repro.qcp.shots.ShotEngine` per engine key.
* :meth:`JobSpec.job_key` — the engine key fields plus ``shots`` and
  ``seed``: everything that determines the *result*.  Jobs are pure
  functions of their job key (PR 4's salted per-shot seed derivation),
  which is what makes dedup safe: concurrent submissions with equal
  keys can share one execution and each receive the bit-identical
  result.

Execution-steering fields (``timeout_s``, ``shard_shots``, the
test-only ``fault`` hook) are deliberately **excluded** from both keys:
they change how a sweep is run, never what it computes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.qcp.config import QCPConfig
from repro.qcp.routing import is_clifford_program, route_analysed
from repro.qcp.shots import ShotResult, program_has_measurement
from repro.qcp.system import infer_qubit_count
from repro.qpu.noise import (DecoherenceNoise, DepolarizingNoise,
                             NoiseModel, PauliChannel, ReadoutError,
                             ZZCrosstalk)
from repro.qpu.profile import DeviceProfile
from repro.qpu.statevector import DENSE_QUBIT_LIMIT

#: Protocol revision announced by the server and checked by clients.
PROTOCOL_VERSION = 1

#: Largest accepted request line (bytes); also the asyncio stream limit.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: ``"auto"`` routes per program (see :mod:`repro.qcp.routing`); the
#: decision is resolved at validation time and carried in the job's
#: identity, so two jobs that route differently never share an engine.
BACKENDS = ("statevector", "stabilizer", "auto")

#: Noise-spec channel name -> channel class.  Parameters are passed as
#: keyword arguments, e.g. ``{"pauli": {"px": 1e-3},
#: "readout": {"p0_given_1": 0.005}}``.
NOISE_CHANNELS = {
    "depolarizing": DepolarizingNoise,
    "two_qubit_depolarizing": DepolarizingNoise,
    "pauli": PauliChannel,
    "zz": ZZCrosstalk,
    "readout": ReadoutError,
    "decoherence": DecoherenceNoise,
}

_CONFIG_FIELDS = frozenset(QCPConfig.__dataclass_fields__)

_SPEC_FIELDS = frozenset({
    "program", "shots", "seed", "backend", "config", "noise",
    "n_processors", "timeout_s", "shard_shots", "fault", "profile",
})

#: Program texts whose validation facts :func:`program_facts` keeps.
VALIDATED_TEXTS = 256

#: SHA-256 digest of a program text -> its :func:`program_facts`,
#: least recently used first.  It holds neither the text nor the
#: parsed program: a request line may carry megabytes of text, and a
#: parsed program is several times larger than its text.
_validated: OrderedDict[bytes, tuple[bool, bool, int]] = OrderedDict()


class ProtocolError(ValueError):
    """A malformed or invalid request; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def program_from_text(text: str, name: str = "job"):
    """Parse job program text: OpenQASM 2.0 or timed-QASM assembly.

    The same sniff the CLI applies to files: a leading ``OPENQASM``
    keyword selects the circuit front end (compiled down to timed
    QASM); anything else is assembled directly.
    """
    if text.lstrip().upper().startswith("OPENQASM"):
        from repro.circuit.openqasm import from_openqasm
        from repro.compiler import compile_circuit

        circuit = from_openqasm(text, name=name)
        return compile_circuit(circuit, name=name).program
    from repro.isa import parse_asm

    return parse_asm(text, name=name)


def program_facts(text: str) -> tuple[bool, bool, int]:
    """What job validation needs to know about a program text.

    Returns ``(measures, clifford_only, n_qubits)``:
    :func:`~repro.qcp.shots.program_has_measurement`,
    :func:`~repro.qcp.routing.is_clifford_program` and
    :func:`~repro.qcp.system.infer_qubit_count` of the parsed program.
    A text this process has validated before is not parsed again: the
    facts are kept under the text's digest for the last
    :data:`VALIDATED_TEXTS` texts.  A text that does not parse raises
    :class:`ProtocolError` (``bad_program``) and is not kept, so it is
    parsed, and rejected, on every submission.
    """
    digest = hashlib.sha256(text.encode()).digest()
    # Pop and re-insert, each one atomic: service event loops on
    # other threads may use the table at the same time.
    facts = _validated.pop(digest, None)
    if facts is None:
        try:
            parsed = program_from_text(text)
        except Exception as exc:
            raise ProtocolError(
                "bad_program", f"program does not parse: {exc}") from exc
        facts = (program_has_measurement(parsed),
                 is_clifford_program(parsed), infer_qubit_count(parsed))
    _validated[digest] = facts
    if len(_validated) > VALIDATED_TEXTS:
        _validated.popitem(last=False)
    return facts


def build_noise_model(spec: dict | None) -> NoiseModel | None:
    """Instantiate a :class:`NoiseModel` from its JSON spec (or None)."""
    if not spec:
        return None
    channels: dict[str, Any] = {}
    for name, params in spec.items():
        cls = NOISE_CHANNELS.get(name)
        if cls is None:
            raise ProtocolError(
                "bad_noise", f"unknown noise channel {name!r} "
                f"(known: {sorted(NOISE_CHANNELS)})")
        if not isinstance(params, dict):
            raise ProtocolError(
                "bad_noise", f"noise channel {name!r} parameters must "
                f"be an object, got {type(params).__name__}")
        try:
            channels[name] = cls(**params)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad_noise", f"noise channel {name!r}: {exc}") from exc
    return NoiseModel(**channels)


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """A validated shot-sweep job.

    ``program`` is source text (timed-QASM or OpenQASM 2.0); shot ``i``
    of the sweep runs with seed ``seed + i`` (``seed >= 0``), so a job
    is sharded into contiguous shot-index ranges without any
    coordination between workers.  ``config`` holds
    :class:`QCPConfig` field overrides, ``noise`` a channel spec for
    :func:`build_noise_model`.
    """

    program: str
    shots: int
    seed: int = 0
    backend: str | None = None
    config: dict = field(default_factory=dict)
    noise: dict | None = None
    n_processors: int = 1
    timeout_s: float | None = None
    shard_shots: int | None = None
    #: Inline calibrated device profile (the JSON object a
    #: :class:`~repro.qpu.profile.DeviceProfile` parses).  Inline
    #: because workers share no filesystem contract with clients —
    #: the config override ``device_profile`` (a local path) is
    #: rejected.  Part of both identity keys via its *canonical
    #: content* rendering.
    profile: dict | None = None
    #: The resolved ``"auto"`` routing decision
    #: (:meth:`~repro.qcp.routing.RoutingDecision.as_dict`), computed
    #: at validation time; ``None`` for explicit backends.  Derived
    #: from the other fields, so it is excluded from the identity
    #: keys — the *routed* backend they contain already pins it.
    routing: dict | None = None
    #: Test-only fault injection consumed by the workers, validated
    #: as ``{"kill_shard_start": <int >= 0>}`` (see
    #: ``repro.service.workers``); never part of the job identity.
    fault: dict | None = None

    @classmethod
    def from_dict(cls, raw: Any) -> "JobSpec":
        """Validate an incoming job object; raises :class:`ProtocolError`.

        Validation is eager: the program parses, contains at least one
        measurement, the config overrides construct a
        :class:`QCPConfig`, the noise spec constructs a
        :class:`NoiseModel`, and the resolved backend can represent the
        program — the stabilizer only Clifford gates, the statevector
        at most :data:`~repro.qpu.statevector.DENSE_QUBIT_LIMIT` qubits
        (``bad_backend`` otherwise).  The program checks, and the
        analysis ``"auto"`` routes by, come from
        :func:`program_facts`, which parses each text once per process.

        One failure is left to the workers: non-Pauli noise
        (decoherence, ZZ) on the stabilizer raises
        ``NonCliffordGateError`` only once a channel fires, which
        depends on its parameters and on the program's idle gaps and
        drive overlaps.  A static refusal would also refuse jobs that
        run, so such a job is accepted and may fail as ``worker_error``.
        """
        if not isinstance(raw, dict):
            raise ProtocolError("bad_job", "job must be an object")
        unknown = set(raw) - _SPEC_FIELDS
        if unknown:
            raise ProtocolError(
                "bad_job", f"unknown job fields: {sorted(unknown)}")
        program = raw.get("program")
        if not isinstance(program, str) or not program.strip():
            raise ProtocolError(
                "bad_program", "job needs non-empty 'program' text")
        shots = raw.get("shots")
        if not isinstance(shots, int) or isinstance(shots, bool) \
                or shots < 1:
            raise ProtocolError(
                "bad_shots", f"'shots' must be a positive integer, "
                f"got {shots!r}")
        seed = raw.get("seed", 0)
        # random.Random(-k) seeds like random.Random(k): a negative
        # job seed would repeat the outcomes of positive shot seeds.
        if not isinstance(seed, int) or isinstance(seed, bool) \
                or seed < 0:
            raise ProtocolError(
                "bad_seed", f"'seed' must be a non-negative integer, "
                f"got {seed!r}")
        backend = raw.get("backend")
        if backend is not None and backend not in BACKENDS:
            raise ProtocolError(
                "bad_backend", f"unknown backend {backend!r} "
                f"(known: {BACKENDS})")
        config = raw.get("config") or {}
        if not isinstance(config, dict):
            raise ProtocolError("bad_config", "'config' must be an object")
        unknown = set(config) - _CONFIG_FIELDS
        if unknown:
            raise ProtocolError(
                "bad_config",
                f"unknown QCPConfig fields: {sorted(unknown)}")
        if "device_profile" in config:
            raise ProtocolError(
                "bad_config",
                "'device_profile' is a worker-local filesystem path "
                "and cannot be a config override; send the calibration "
                "inline via the job's 'profile' field instead")
        try:
            QCPConfig().with_(**config)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_config", str(exc)) from exc
        profile = raw.get("profile")
        profile_obj = None
        if profile is not None:
            if not isinstance(profile, dict):
                raise ProtocolError(
                    "bad_profile", "'profile' must be an object")
            try:
                profile_obj = DeviceProfile.from_dict(profile)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    "bad_profile", f"invalid device profile: {exc}"
                ) from exc
        noise = raw.get("noise")
        if noise is not None and not isinstance(noise, dict):
            raise ProtocolError("bad_noise", "'noise' must be an object")
        noise_model = build_noise_model(noise)
        n_processors = raw.get("n_processors", 1)
        if not isinstance(n_processors, int) \
                or isinstance(n_processors, bool) or n_processors < 1:
            raise ProtocolError(
                "bad_job", f"'n_processors' must be a positive "
                f"integer, got {n_processors!r}")
        timeout_s = raw.get("timeout_s")
        if timeout_s is not None and (
                not isinstance(timeout_s, (int, float))
                or isinstance(timeout_s, bool)
                or not math.isfinite(timeout_s) or timeout_s <= 0):
            raise ProtocolError(
                "bad_job", f"'timeout_s' must be a finite positive "
                f"number, got {timeout_s!r}")
        shard_shots = raw.get("shard_shots")
        if shard_shots is not None and (
                not isinstance(shard_shots, int)
                or isinstance(shard_shots, bool) or shard_shots < 1):
            raise ProtocolError(
                "bad_job", f"'shard_shots' must be a positive integer, "
                f"got {shard_shots!r}")
        fault = raw.get("fault")
        if fault is not None:
            start = (fault.get("kill_shard_start")
                     if isinstance(fault, dict) and len(fault) == 1
                     else None)
            if (not isinstance(start, int) or isinstance(start, bool)
                    or start < 0):
                raise ProtocolError(
                    "bad_job", f"'fault' must be an object whose one "
                    f"key, 'kill_shard_start', is a non-negative "
                    f"integer, got {fault!r}")
        measures, clifford, n_qubits = program_facts(program)
        if not measures:
            raise ProtocolError(
                "no_measurements",
                "program never measures a qubit: every shot would "
                "produce the empty outcome, so there is no histogram "
                "to sweep — add a qmeas (or OpenQASM measure)")
        routing = None
        requested = (backend if backend is not None
                     else config.get("qpu_backend",
                                     QCPConfig.qpu_backend))
        if requested == "auto":
            # Resolve once, on the front end: workers reproduce the
            # same decision deterministically, but the identity keys
            # must carry the *routed* backend so Clifford and
            # non-Clifford jobs never collide on one engine.
            routing = route_analysed(
                clifford, n_qubits, noise=noise_model,
                profile=profile_obj).as_dict()
        spec = cls(program=program, shots=shots, seed=seed,
                   backend=backend, config=dict(config), noise=noise,
                   n_processors=n_processors, timeout_s=timeout_s,
                   shard_shots=shard_shots, profile=profile,
                   routing=routing, fault=fault)
        resolved = spec.resolved_backend
        if resolved == "stabilizer" and not clifford:
            raise ProtocolError(
                "bad_backend", "the program has non-Clifford gates, "
                "which the 'stabilizer' backend cannot run; use "
                "'statevector'")
        if resolved == "statevector" and n_qubits > DENSE_QUBIT_LIMIT:
            raise ProtocolError(
                "bad_backend", f"{n_qubits} qubits exceeds the dense "
                f"simulator limit ({DENSE_QUBIT_LIMIT}); Clifford "
                f"programs can use 'stabilizer'")
        return spec

    @property
    def resolved_backend(self) -> str:
        """The backend the engine will actually use (never ``"auto"``)."""
        requested = self.backend
        if requested is None:
            requested = self.config.get("qpu_backend",
                                        QCPConfig.qpu_backend)
        if requested == "auto" and self.routing is not None:
            return self.routing["backend"]
        return requested

    @functools.cached_property
    def device_profile(self) -> DeviceProfile | None:
        """The inline profile, parsed once per spec."""
        return (None if self.profile is None
                else DeviceProfile.from_dict(self.profile))

    @functools.cached_property
    def _engine_identity(self) -> dict:
        """The engine-key fields, computed once per spec: the program
        text is hashed only here."""
        return {
            "program_sha": _sha(self.program),
            "backend": self.resolved_backend,
            "config": self.config,
            "noise": self.noise,
            "n_processors": self.n_processors,
            "profile": (None if self.device_profile is None
                        else self.device_profile.canonical()),
        }

    def engine_key(self) -> str:
        """Identity of the compiled artifacts a worker can reuse."""
        return _sha(_canonical(self._engine_identity))

    def job_key(self) -> str:
        """Identity of the result — the dedup key."""
        identity = dict(self._engine_identity, shots=self.shots,
                        seed=self.seed)
        return _sha(_canonical(identity))

    def payload(self) -> dict:
        """Plain-dict form shipped to worker processes (picklable)."""
        return {
            "program": self.program,
            "shots": self.shots,
            "seed": self.seed,
            # Raw, not routed: a worker engine given "auto" re-derives
            # the same decision (a pure function of the payload) and
            # keeps it on the engine, so a worker's /stats reports it.
            "backend": self.backend,
            "config": self.config,
            "noise": self.noise,
            "n_processors": self.n_processors,
            "engine_key": self.engine_key(),
            "profile": self.profile,
            "routing": self.routing,
            "fault": self.fault,
        }


# -- wire framing ---------------------------------------------------------

def encode_message(message: dict) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one received line; raises :class:`ProtocolError`."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_json", f"undecodable line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("bad_json", "message must be a JSON object")
    return message


# -- result serialization -------------------------------------------------

def result_payload(result: ShotResult) -> dict:
    """JSON form of a :class:`ShotResult` (client reconstructs it)."""
    return {
        "shots": result.shots,
        "measured_qubits": list(result.measured_qubits),
        "counts": dict(result.counts),
        "total_ns": result.total_ns,
    }


def result_from_payload(payload: dict) -> ShotResult:
    """Inverse of :func:`result_payload`."""
    from collections import Counter

    return ShotResult(shots=payload["shots"],
                      measured_qubits=tuple(payload["measured_qubits"]),
                      counts=Counter(payload["counts"]),
                      total_ns=payload["total_ns"])
