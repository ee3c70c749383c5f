"""Calibration-style device profiles: per-qubit timing and noise.

Real control stacks are programmed against a *calibration database*:
each qubit has its own coherence times, readout fidelities and pulse
durations, and each coupler its own residual ZZ strength.  A
:class:`DeviceProfile` is this reproduction's equivalent — a JSON
document loaded once and threaded through the whole stack:

* ``qpu/device.py`` reads per-qubit **gate durations** from it, so the
  busy/violation bookkeeping and drive-window (ZZ) accounting follow
  the calibrated pulse lengths instead of the library defaults;
* ``qpu/noise.py`` channels are built from it
  (:class:`~repro.qpu.noise.QubitReadoutError`,
  :class:`~repro.qpu.noise.QubitDecoherenceNoise`,
  :class:`~repro.qpu.noise.PairZZCrosstalk`), giving every qubit its
  own T1/T2 and readout flip probabilities and every coupling pair its
  own ZZ coefficient;
* the trace cache compiles durations and channel parameters from the
  profile at compile time, so cached and batched replay stays
  bit-identical to the cycle-accurate simulation;
* the service's engine keys include the profile's canonical content,
  making the profile part of compile identity (content-addressed:
  renaming the file changes nothing, editing one T1 gives a new
  engine).

Parsing fails **closed**: an unknown key anywhere in the document
raises :class:`ValueError` naming the offending key, in the same
spirit as the :class:`~repro.qpu.noise.NoiseModel` allow-lists — a
typo'd calibration field must never be silently ignored.

JSON schema (see ``docs/device_profiles.md``)::

    {
      "name": "paper_37q",
      "backend": "statevector",          # optional routing override
      "defaults": {
        "t1_us": 80.0, "t2_us": 60.0,
        "readout": {"p0_given_1": 0.02, "p1_given_0": 0.01},
        "gates": {"x90": 18, "measure": 320}
      },
      "qubits": {
        "0": {"t1_us": 72.5, "gates": {"x90": 22}},
        "1": {"readout": {"p0_given_1": 0.035}}
      },
      "couplings": [
        {"pair": [0, 1], "zz_khz": 2400.0}
      ]
    }

Every section is optional; per-qubit entries override ``defaults``
field by field, and anything neither specifies falls back to the gate
library durations / :class:`~repro.qpu.noise.DecoherenceNoise` class
defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field

from repro.circuit.gates import GATE_ALIASES, GATE_LIBRARY, lookup_gate
from repro.qpu.noise import (NoiseModel, PairZZCrosstalk,
                             QubitDecoherenceNoise, QubitReadoutError)

_TOP_KEYS = ("name", "backend", "defaults", "qubits", "couplings")
_QUBIT_KEYS = ("t1_us", "t2_us", "readout", "gates")
_READOUT_KEYS = ("p0_given_1", "p1_given_0")
_COUPLING_KEYS = ("pair", "zz_khz")


def _unknown(kind: str, key: object, allowed: tuple[str, ...]) -> ValueError:
    return ValueError(
        f"unknown device-profile {kind} field {key!r} "
        f"(allowed: {', '.join(allowed)})")


def _canonical_gate(name: object, where: str) -> str:
    if not isinstance(name, str):
        raise ValueError(f"device-profile {where}: gate name must be a "
                         f"string, got {name!r}")
    key = name.lower()
    key = GATE_ALIASES.get(key, key)
    if key not in GATE_LIBRARY:
        raise ValueError(f"device-profile {where}: unknown gate {name!r}")
    return key


def _check_time(value: object, key: str, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value <= 0:
        raise ValueError(f"device-profile {where}: {key} must be a "
                         f"positive finite number, got {value!r}")
    return float(value)


def _check_probability(value: object, key: str, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not 0.0 <= value <= 1.0:
        raise ValueError(f"device-profile {where}: {key} must be a "
                         f"probability in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class QubitCalibration:
    """Calibration data for one qubit (or the ``defaults`` section).

    ``None`` fields are *unspecified*: resolution falls through to the
    profile defaults and then to the library/class defaults, field by
    field.  ``gate_ns`` holds per-gate duration overrides keyed by
    canonical gate name.
    """

    t1_us: float | None = None
    t2_us: float | None = None
    p0_given_1: float | None = None
    p1_given_0: float | None = None
    gate_ns: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "QubitCalibration":
        if not isinstance(data, dict):
            raise ValueError(f"device-profile {where}: expected an "
                             f"object, got {data!r}")
        for key in data:
            if key not in _QUBIT_KEYS:
                raise _unknown(f"{where}", key, _QUBIT_KEYS)
        t1 = t2 = None
        if data.get("t1_us") is not None:
            t1 = _check_time(data["t1_us"], "t1_us", where)
        if data.get("t2_us") is not None:
            t2 = _check_time(data["t2_us"], "t2_us", where)
        p0 = p1 = None
        readout = data.get("readout")
        if readout is not None:
            if not isinstance(readout, dict):
                raise ValueError(f"device-profile {where}: readout must "
                                 f"be an object, got {readout!r}")
            for key in readout:
                if key not in _READOUT_KEYS:
                    raise _unknown(f"{where} readout", key, _READOUT_KEYS)
            if readout.get("p0_given_1") is not None:
                p0 = _check_probability(readout["p0_given_1"],
                                        "p0_given_1", where)
            if readout.get("p1_given_0") is not None:
                p1 = _check_probability(readout["p1_given_0"],
                                        "p1_given_0", where)
        gate_ns = []
        gates = data.get("gates")
        if gates is not None:
            if not isinstance(gates, dict):
                raise ValueError(f"device-profile {where}: gates must be "
                                 f"an object, got {gates!r}")
            for name, duration in gates.items():
                canonical = _canonical_gate(name, where)
                if not isinstance(duration, int) \
                        or isinstance(duration, bool) or duration < 1:
                    raise ValueError(
                        f"device-profile {where}: duration of "
                        f"{name!r} must be a positive integer number "
                        f"of ns, got {duration!r}")
                gate_ns.append((canonical, duration))
        return cls(t1_us=t1, t2_us=t2, p0_given_1=p0, p1_given_0=p1,
                   gate_ns=tuple(sorted(gate_ns)))

    def canonical(self) -> dict:
        entry: dict = {}
        if self.t1_us is not None:
            entry["t1_us"] = self.t1_us
        if self.t2_us is not None:
            entry["t2_us"] = self.t2_us
        readout = {}
        if self.p0_given_1 is not None:
            readout["p0_given_1"] = self.p0_given_1
        if self.p1_given_0 is not None:
            readout["p1_given_0"] = self.p1_given_0
        if readout:
            entry["readout"] = readout
        if self.gate_ns:
            entry["gates"] = dict(self.gate_ns)
        return entry

    @property
    def has_decoherence(self) -> bool:
        return self.t1_us is not None or self.t2_us is not None

    @property
    def has_readout(self) -> bool:
        return self.p0_given_1 is not None or self.p1_given_0 is not None


@dataclass(frozen=True)
class DeviceProfile:
    """A loaded calibration document (see the module docstring).

    Instances are immutable and content-addressed:
    :meth:`fingerprint` hashes :meth:`canonical`, which depends only on
    the calibration *content* — never on the file path it was loaded
    from.
    """

    name: str = ""
    backend: str | None = None
    defaults: QubitCalibration = field(default_factory=QubitCalibration)
    qubits: tuple[tuple[int, QubitCalibration], ...] = ()
    couplings: tuple[tuple[int, int, float], ...] = ()  # (a, b, zz_hz)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_qubit", dict(self.qubits))
        object.__setattr__(self, "_default_gate_ns",
                           dict(self.defaults.gate_ns))
        object.__setattr__(
            self, "_gate_ns",
            {qubit: dict(calibration.gate_ns)
             for qubit, calibration in self.qubits})

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceProfile":
        """Parse a calibration document; fails closed on unknown keys."""
        if not isinstance(data, dict):
            raise ValueError(
                f"device profile must be a JSON object, got {data!r}")
        for key in data:
            if key not in _TOP_KEYS:
                raise _unknown("", key, _TOP_KEYS)
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"device-profile name must be a string, "
                             f"got {name!r}")
        backend = data.get("backend")
        if backend is not None:
            from repro.qpu.backend import backend_names
            if backend not in backend_names():
                raise ValueError(
                    f"device-profile backend {backend!r} is not a "
                    f"registered simulation backend (available: "
                    f"{', '.join(backend_names())})")
        defaults = QubitCalibration.from_dict(data.get("defaults", {}),
                                              "defaults")
        qubits = []
        for label, entry in (data.get("qubits") or {}).items():
            try:
                index = int(label)
            except (TypeError, ValueError):
                raise ValueError(f"device-profile qubit key {label!r} "
                                 f"is not a qubit index") from None
            if index < 0:
                raise ValueError(f"device-profile qubit key {label!r} "
                                 f"is not a qubit index")
            qubits.append((index, QubitCalibration.from_dict(
                entry, f"qubit {index}")))
        couplings = []
        for entry in data.get("couplings") or ():
            if not isinstance(entry, dict):
                raise ValueError(f"device-profile coupling must be an "
                                 f"object, got {entry!r}")
            for key in entry:
                if key not in _COUPLING_KEYS:
                    raise _unknown("coupling", key, _COUPLING_KEYS)
            pair = entry.get("pair")
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(q, int)
                               and not isinstance(q, bool)
                               and q >= 0 for q in pair)
                    or pair[0] == pair[1]):
                raise ValueError(f"device-profile coupling pair must be "
                                 f"two distinct qubit indices, got "
                                 f"{pair!r}")
            zz_khz = entry.get("zz_khz")
            if not isinstance(zz_khz, (int, float)) \
                    or isinstance(zz_khz, bool) \
                    or not math.isfinite(zz_khz):
                raise ValueError(f"device-profile coupling zz_khz must "
                                 f"be a finite number, got {zz_khz!r}")
            left, right = sorted(pair)
            couplings.append((left, right, float(zz_khz) * 1e3))
        return cls(name=name, backend=backend, defaults=defaults,
                   qubits=tuple(sorted(qubits)),
                   couplings=tuple(sorted(couplings)))

    # -- identity ---------------------------------------------------------

    def canonical(self) -> dict:
        """Round-trippable, content-only JSON form (sorted, path-free)."""
        return {
            "name": self.name,
            "backend": self.backend,
            "defaults": self.defaults.canonical(),
            "qubits": {str(qubit): calibration.canonical()
                       for qubit, calibration in self.qubits},
            "couplings": [{"pair": [left, right], "zz_khz": zz_hz / 1e3}
                          for left, right, zz_hz in self.couplings],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical content; the compile-identity key."""
        rendered = json.dumps(self.canonical(), sort_keys=True,
                              separators=(",", ":"))
        return hashlib.sha256(rendered.encode()).hexdigest()

    # -- resolution -------------------------------------------------------

    def gate_duration_ns(self, gate: str, qubits: tuple[int, ...]) -> int:
        """Calibrated duration of ``gate`` driven on ``qubits``.

        Per-qubit override, else the ``defaults`` section, else the
        gate library.  Multi-qubit gates take the slowest involved
        qubit's duration — the pulse ends when the last channel does.
        """
        key = gate.lower()
        key = GATE_ALIASES.get(key, key)
        duration = 0
        for qubit in qubits:
            per_qubit = self._gate_ns.get(qubit)
            value = None if per_qubit is None else per_qubit.get(key)
            if value is None:
                value = self._default_gate_ns.get(key)
            if value is None:
                value = lookup_gate(key).duration_ns
            duration = max(duration, value)
        return duration if qubits else lookup_gate(key).duration_ns

    def calibration_for(self, qubit: int) -> QubitCalibration:
        return self._by_qubit.get(qubit, QubitCalibration())

    @property
    def has_readout(self) -> bool:
        return self.defaults.has_readout or any(
            calibration.has_readout for _, calibration in self.qubits)

    @property
    def has_decoherence(self) -> bool:
        return self.defaults.has_decoherence or any(
            calibration.has_decoherence for _, calibration in self.qubits)

    @property
    def has_channels(self) -> bool:
        return (self.has_readout or self.has_decoherence
                or bool(self.couplings))

    # -- noise composition ------------------------------------------------

    def noise_model(self, base: NoiseModel | None = None,
                    seed: int | None = None) -> NoiseModel | None:
        """Compose the profile's channels over an optional base model.

        Gate channels (depolarizing/Pauli) come from ``base``
        untouched; readout, decoherence and ZZ are *replaced* by the
        profile's per-qubit/per-pair channels when the profile defines
        them, and inherited from ``base`` otherwise.  With no base and
        no profile channels the result is ``None`` (ideal).
        """
        if base is None and not self.has_channels:
            return None
        readout = base.readout if base is not None else None
        decoherence = base.decoherence if base is not None else None
        zz = base.zz if base is not None else None
        if self.has_readout:
            default_p0 = self.defaults.p0_given_1 or 0.0
            default_p1 = self.defaults.p1_given_0 or 0.0
            per_qubit = []
            for qubit, calibration in self.qubits:
                if not calibration.has_readout:
                    continue
                p0 = calibration.p0_given_1
                p1 = calibration.p1_given_0
                per_qubit.append((qubit,
                                  default_p0 if p0 is None else p0,
                                  default_p1 if p1 is None else p1))
            readout = QubitReadoutError(p0_given_1=default_p0,
                                        p1_given_0=default_p1,
                                        per_qubit=tuple(per_qubit))
        if self.has_decoherence:
            default_t1 = self.defaults.t1_us or 75.0
            default_t2 = self.defaults.t2_us or 60.0
            per_qubit = []
            for qubit, calibration in self.qubits:
                if not calibration.has_decoherence:
                    continue
                t1 = calibration.t1_us
                t2 = calibration.t2_us
                per_qubit.append((qubit,
                                  default_t1 if t1 is None else t1,
                                  default_t2 if t2 is None else t2))
            decoherence = QubitDecoherenceNoise(
                t1_us=default_t1, t2_us=default_t2,
                per_qubit=tuple(per_qubit))
        if self.couplings:
            zz = PairZZCrosstalk(
                zeta_hz=0.0,
                pairs=tuple((left, right)
                            for left, right, _ in self.couplings),
                pair_zeta_hz=self.couplings)
        if base is not None:
            return NoiseModel(
                depolarizing=base.depolarizing,
                two_qubit_depolarizing=base.two_qubit_depolarizing,
                pauli=base.pauli, zz=zz, readout=readout,
                decoherence=decoherence,
                seed=base.seed if seed is None else seed)
        return NoiseModel(zz=zz, readout=readout,
                          decoherence=decoherence, seed=seed)


def load_device_profile(path: str | pathlib.Path) -> DeviceProfile:
    """Load and validate a calibration JSON file (fail closed)."""
    text = pathlib.Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"device profile {str(path)!r} is not valid JSON: {exc}"
        ) from None
    return DeviceProfile.from_dict(data)
