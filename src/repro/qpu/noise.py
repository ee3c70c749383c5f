"""Monte-Carlo noise channels for the QPU simulator.

The RB/simRB experiment of Figure 14 needs two error mechanisms:

* a per-gate *depolarizing* channel setting the individual-RB fidelity
  (~99.5 % per single-qubit gate in the paper), and
* an always-on *ZZ interaction* between neighbouring qubits that only
  matters while both qubits are being driven simultaneously — the paper
  attributes the simRB fidelity drop (99.5 % -> 98.7 %) to "the
  inevitable ZZ interaction between the qubits".

Channels are applied as stochastic Pauli/phase insertions on the pure
state (quantum-trajectory style), so repeated runs average to the CPTP
channel.

Seeding and reproducibility
===========================

Every :class:`NoiseModel` owns a dedicated ``random.Random`` — the
*noise rng* — that is **separate** from the measurement rng of the
simulation backend.  Channel draws therefore never perturb measurement
outcomes on an otherwise identical circuit, and vice versa.

:meth:`NoiseModel.reseed` restarts the noise rng from a per-shot seed
(the device's :meth:`~repro.qpu.device.SimulatedQPU.restart` calls it
with a salted derivation of the shot seed).  That makes the entire
noisy trajectory of a shot — which Paulis were injected where, which
readouts were flipped — a pure function of ``(program, shot seed)``,
which is what lets the trace cache (:mod:`repro.qcp.tracecache`)
replay noisy shots bit-identically: a replay consumes the noise rng
*positionally*, drawing at exactly the sites the cycle-accurate
simulation would, so both paths see the same stream.  See
``docs/noise.md`` for the full reproducibility contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

import numpy as np

from repro.qpu.statevector import StateVector

_PAULIS = ("x", "y", "z")

#: Salt XORed into the shot seed when deriving the noise-rng seed, so
#: the noise stream never coincides with the measurement stream of the
#: identically seeded backend rng (see :meth:`NoiseModel.reseed`).
NOISE_SEED_SALT = 0x6E6F6973  # "nois"


@dataclass
class DepolarizingNoise:
    """Depolarizing channel of strength ``p`` per gate.

    With probability ``p`` a uniformly random Pauli (X, Y or Z) is
    injected on each qubit the gate touched.  The average gate fidelity
    of this channel on one qubit is ``1 - 2p/3`` (it equals a textbook
    depolarizing channel of strength ``4p/3``).
    """

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability out of range: {self.p}")

    @property
    def average_gate_infidelity(self) -> float:
        """1 - F_avg for a single-qubit gate followed by this channel."""
        return 2.0 * self.p / 3.0

    def apply(self, state: StateVector, qubits: tuple[int, ...],
              rng: random.Random) -> None:
        for qubit in qubits:
            if rng.random() < self.p:
                state.apply_gate(rng.choice(_PAULIS), (qubit,))


@dataclass
class PauliChannel:
    """Independent X/Y/Z injection with separate probabilities.

    Generalises :class:`DepolarizingNoise`; e.g. ``PauliChannel(px=p)``
    is a pure bit-flip channel — the error model a repetition code is
    designed to correct.
    """

    px: float = 0.0
    py: float = 0.0
    pz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("px", "py", "pz"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.px + self.py + self.pz > 1.0:
            raise ValueError("Pauli probabilities exceed 1")

    def apply(self, state: StateVector, qubits: tuple[int, ...],
              rng: random.Random) -> None:
        for qubit in qubits:
            draw = rng.random()
            if draw < self.px:
                state.apply_gate("x", (qubit,))
            elif draw < self.px + self.py:
                state.apply_gate("y", (qubit,))
            elif draw < self.px + self.py + self.pz:
                state.apply_gate("z", (qubit,))


@dataclass
class ZZCrosstalk:
    """Always-on ZZ coupling between qubit pairs.

    ``zeta_hz`` is the ZZ coefficient (Hz): during a window of ``t``
    seconds in which *both* qubits of a coupled pair are simultaneously
    driven, the pair accumulates a conditional phase
    ``phi = 2 pi * zeta * t`` applied as ``diag(1, 1, 1, e^{i phi})``.

    When only one qubit is driven the echo of the individual-RB pulse
    train largely cancels the coupling, which is why individual RB does
    not see this error; simultaneous RB does (Section 8).
    """

    zeta_hz: float
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.zeta_hz):
            raise ValueError("ZZ coefficient must be finite")

    def conditional_phase(self, duration_ns: float) -> float:
        """Phase (radians) accumulated over ``duration_ns``."""
        return 2.0 * math.pi * self.zeta_hz * duration_ns * 1e-9

    def zeta_for(self, left: int, right: int) -> float:
        """ZZ coefficient (Hz) of one coupling pair.

        The uniform channel ignores the pair;
        :class:`PairZZCrosstalk` overrides this with calibrated
        per-pair strengths.
        """
        return self.zeta_hz

    def pair_unitary(self, left: int, right: int,
                     duration_ns: float) -> "np.ndarray | None":
        """``diag(1, 1, 1, e^{i phi})`` for one pair's overlap window.

        ``None`` when the accumulated phase is exactly zero (the event
        can be elided entirely, which keeps compiled replay free of
        no-op unitaries).
        """
        phi = 2.0 * math.pi * self.zeta_for(left, right) \
            * duration_ns * 1e-9
        if phi == 0.0:
            return None
        return np.diag([1.0, 1.0, 1.0,
                        np.exp(1j * phi)]).astype(complex)

    def apply_pair(self, state: StateVector, left: int, right: int,
                   duration_ns: float) -> None:
        """Apply one pair's conditional phase for an overlap window."""
        matrix = self.pair_unitary(left, right, duration_ns)
        if matrix is not None:
            state.apply_unitary(matrix, (left, right))

    def window_events(self, windows: dict, time_ns: int, end: int,
                      gate_qubits: tuple[int, ...]) -> list:
        """Per-pair ``(left, right, overlap_ns)`` events for one drive.

        ``windows`` maps qubit -> ``(start, stop)`` of its still-open
        drive window; the gate being issued drives ``gate_qubits``
        over ``[time_ns, end)``.  A coupled pair accumulates
        conditional phase when one of its qubits is in the gate while
        the other's window overlaps the gate's — each pair with its
        *own* overlap duration, never a collapsed maximum over the
        whole driven set.  Pairs internal to one gate are skipped (a
        calibrated two-qubit gate already includes its static ZZ), and
        pairs not touching the current gate are skipped too: their
        interaction was accounted when *their* later-driven qubit was
        issued.  Events are emitted in the channel's declared pair
        order so every execution path — cycle-accurate, compiled
        dense, batched — applies the unitaries identically.

        This is the single implementation all paths share; see
        ``SimulatedQPU._note_window`` and the trace cache's dense step
        compiler.
        """
        events = []
        for left, right in self.pairs:
            if left in gate_qubits:
                if right in gate_qubits:
                    continue
                other = right
            elif right in gate_qubits:
                other = left
            else:
                continue
            window = windows.get(other)
            if window is None:
                continue
            overlap = min(end, window[1]) - max(time_ns, window[0])
            if overlap > 0:
                events.append((left, right, overlap))
        return events

    def apply_simultaneous(self, state: StateVector,
                           driven: set[int], duration_ns: float) -> None:
        """Apply the conditional phase for a simultaneous-drive window."""
        phi = self.conditional_phase(duration_ns)
        if phi == 0.0:
            return
        matrix = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)
        for left, right in self.pairs:
            if left in driven and right in driven:
                state.apply_unitary(matrix, (left, right))


@dataclass
class PairZZCrosstalk(ZZCrosstalk):
    """ZZ crosstalk with calibrated per-pair coefficients.

    ``pair_zeta_hz`` holds ``(left, right, zeta_hz)`` triples from a
    :class:`~repro.qpu.profile.DeviceProfile`; pairs not listed fall
    back to the uniform ``zeta_hz``.  Declared as a *subclass* so the
    name-based :class:`NoiseModel` allow-lists admit it unchanged.
    """

    pair_zeta_hz: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        table = {}
        for left, right, zeta in self.pair_zeta_hz:
            table[(left, right)] = zeta
            table[(right, left)] = zeta
        self._pair_table = table

    def zeta_for(self, left: int, right: int) -> float:
        return self._pair_table.get((left, right), self.zeta_hz)


@dataclass
class DecoherenceNoise:
    """T1 relaxation and T2 dephasing applied to *idle* qubits.

    This is the error source the paper's whole design fights: "any
    delay in quantum operations issued from the microarchitecture can
    result in additional accumulated quantum errors" (Section 1).  A
    control processor that issues operations late leaves qubits idle
    longer, and this channel converts that idle time into decay.

    ``t1_us``/``t2_us`` follow the paper's 50-100 us coherence range.
    Trajectory implementation: amplitude damping with
    ``gamma = 1 - exp(-t/T1)`` plus a stochastic Z with the pure
    dephasing probability derived from ``1/Tphi = 1/T2 - 1/(2 T1)``.
    """

    t1_us: float = 75.0
    t2_us: float = 60.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1_us) and math.isfinite(self.t2_us)):
            raise ValueError("coherence times must be finite")
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise ValueError("coherence times must be positive")
        if self.t2_us > 2 * self.t1_us:
            raise ValueError("T2 cannot exceed 2*T1")

    def gamma(self, duration_ns: float) -> float:
        """Amplitude-damping probability over ``duration_ns``."""
        t1_ns = self.t1_us * 1e3
        return 1.0 - math.exp(-duration_ns / t1_ns)

    def dephasing_probability(self, duration_ns: float) -> float:
        """Stochastic-Z probability over ``duration_ns``."""
        rate_phi_per_us = 1.0 / self.t2_us - 1.0 / (2.0 * self.t1_us)
        if rate_phi_per_us <= 0:
            return 0.0
        p_keep = math.exp(-duration_ns * 1e-3 * rate_phi_per_us)
        return (1.0 - p_keep) / 2.0

    def decay_constants(self, duration_ns: float
                        ) -> tuple[float, float, float]:
        """``(gamma, sqrt(1 - gamma), dephasing probability)`` for
        ``duration_ns`` of idle time — the arguments of the backend's
        ``apply_decay`` kernel, which compiled replay precomputes once
        per idle site."""
        gamma = self.gamma(duration_ns)
        return (gamma, math.sqrt(1.0 - gamma),
                self.dephasing_probability(duration_ns))

    def apply_idle(self, state: StateVector, qubit: int,
                   duration_ns: float, rng: random.Random) -> None:
        """Decay ``qubit`` for ``duration_ns`` of idle time.

        Resolves the qubit's channel (:meth:`for_qubit`), so
        calibrated subclasses need no override.
        """
        if duration_ns <= 0:
            return
        state.apply_decay(
            qubit, *self.for_qubit(qubit).decay_constants(duration_ns),
            rng)

    def for_qubit(self, qubit: int) -> "DecoherenceNoise":
        """The channel governing ``qubit`` (uniform: always ``self``)."""
        return self


@dataclass
class QubitDecoherenceNoise(DecoherenceNoise):
    """T1/T2 decay with calibrated per-qubit coherence times.

    ``per_qubit`` holds ``(qubit, t1_us, t2_us)`` triples from a
    :class:`~repro.qpu.profile.DeviceProfile`; unlisted qubits use the
    inherited ``t1_us``/``t2_us`` defaults.  A subclass so the
    name-based allow-lists pick it up unchanged, and
    so serial and batched replay compile its per-qubit decay exactly
    like its base's (through :meth:`for_qubit`).
    """

    per_qubit: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        self._table = {qubit: DecoherenceNoise(t1_us=t1, t2_us=t2)
                       for qubit, t1, t2 in self.per_qubit}

    def for_qubit(self, qubit: int) -> DecoherenceNoise:
        return self._table.get(qubit, self)


@dataclass
class ReadoutError:
    """Classical bit-flip error on measurement outcomes."""

    p0_given_1: float = 0.0  # probability of reading 0 when the state was 1
    p1_given_0: float = 0.0  # probability of reading 1 when the state was 0

    def __post_init__(self) -> None:
        for name in ("p0_given_1", "p1_given_0"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")

    def corrupt(self, outcome: int, rng: random.Random) -> int:
        flip = self.p0_given_1 if outcome else self.p1_given_0
        if rng.random() < flip:
            return 1 - outcome
        return outcome

    def for_qubit(self, qubit: int | None) -> "ReadoutError":
        """The flip probabilities governing ``qubit``'s readout line.

        The uniform channel returns itself;
        :class:`QubitReadoutError` resolves the calibrated per-qubit
        entry.  Replays resolve this per measurement *site* (the qubit
        is known at compile/replay time), and every resolved channel
        draws exactly one ``rng.random()`` per measurement, keeping
        the positional noise-rng contract intact.
        """
        return self


@dataclass
class QubitReadoutError(ReadoutError):
    """Readout error with calibrated per-qubit flip probabilities.

    ``per_qubit`` holds ``(qubit, p0_given_1, p1_given_0)`` triples
    from a :class:`~repro.qpu.profile.DeviceProfile`; unlisted qubits
    use the inherited uniform probabilities.  A subclass, so the
    fail-closed allow-lists (``is_pauli_only`` keeps sign-trace replay
    available) admit it without edits.
    """

    per_qubit: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        self._table = {qubit: ReadoutError(p0_given_1=p0, p1_given_0=p1)
                       for qubit, p0, p1 in self.per_qubit}

    def for_qubit(self, qubit: int | None) -> ReadoutError:
        if qubit is None:
            return self
        return self._table.get(qubit, self)


@dataclass
class NoiseModel:
    """Bundle of all channels, applied by :class:`~repro.qpu.device.QPUDevice`."""

    depolarizing: DepolarizingNoise | None = None
    two_qubit_depolarizing: DepolarizingNoise | None = None
    pauli: PauliChannel | None = None
    zz: ZZCrosstalk | None = None
    readout: ReadoutError | None = None
    decoherence: DecoherenceNoise | None = None
    seed: int | None = None
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def reseed(self, seed: int | None) -> None:
        """Restart the noise rng for one shot.

        ``seed`` is the *shot* seed; the rng is seeded with a salted
        derivation (``seed ^ NOISE_SEED_SALT``) so the noise stream is
        decorrelated from the measurement stream even though both
        derive from the same shot seed.  ``None`` reseeds from system
        entropy (non-reproducible, matching ``random.Random(None)``).

        Per-shot reseeding is the property the trace cache relies on:
        it makes a shot's noise trajectory a function of its seed
        alone, so a replayed shot that consumes the rng positionally
        draws the identical stream the cycle-accurate simulation
        would, and a divergence-frontier resume can continue from the
        rng position the replay prefix left behind.
        """
        if seed is None:
            self.rng.seed(None)
        else:
            self.rng.seed(seed ^ NOISE_SEED_SALT)

    @property
    def is_ideal(self) -> bool:
        """True when every channel is disabled.

        Ideal noise never touches the state or the rng, which is what
        makes a shot's behaviour a pure function of its measurement
        outcomes — the property the trace cache
        (:mod:`repro.qcp.tracecache`) relies on.
        """
        return (self.depolarizing is None
                and self.two_qubit_depolarizing is None
                and self.pauli is None and self.zz is None
                and self.readout is None and self.decoherence is None)

    @property
    def is_pauli_only(self) -> bool:
        """True when every enabled channel is a Pauli injection or a
        classical readout flip.

        Such channels commute with the stabilizer formalism: a Pauli
        insertion only flips tableau *signs* (the x/z bit matrices are
        untouched), and a readout flip never touches the state at all.
        This is the condition under which the trace cache can keep its
        compiled sign-trace replay on noisy stabilizer substrates —
        ZZ crosstalk and amplitude damping are not Clifford channels,
        so a stabilizer engine carrying them runs cycle-accurately.

        Fails **closed**: the Pauli-compatible channels are an
        allow-list, so a channel field added to :class:`NoiseModel`
        later is non-cacheable until it is explicitly vetted here.
        """
        pauli_compatible = {"depolarizing", "two_qubit_depolarizing",
                            "pauli", "readout", "seed", "rng"}
        return all(getattr(self, spec.name) is None
                   for spec in fields(self)
                   if spec.name not in pauli_compatible)

    @property
    def is_dense_compilable(self) -> bool:
        """True when the compiled dense noise-site replay models every
        channel this model *could* carry.

        Fails **closed**, like :attr:`is_pauli_only`: the supported
        channel fields are an allow-list, so an *enabled* channel
        added to :class:`NoiseModel` later leaves the engine without a
        trace cache — every shot runs the live device code, which
        picks the new channel up automatically — until the compiler
        is explicitly taught about it.
        """
        compilable = {"depolarizing", "two_qubit_depolarizing",
                      "pauli", "zz", "readout", "decoherence",
                      "seed", "rng"}
        return all(getattr(self, spec.name) is None
                   for spec in fields(self)
                   if spec.name not in compilable)

    def after_gate(self, state: StateVector, gate: str,
                   qubits: tuple[int, ...]) -> None:
        """Inject gate-dependent noise after a unitary.

        Iterates :meth:`gate_site_specs` so the channel selection has
        exactly one implementation shared with the compiled replays.
        """
        for _kind, channel in self.gate_site_specs(qubits):
            channel.apply(state, qubits, self.rng)

    def gate_site_specs(self, qubits: tuple[int, ...]) -> tuple:
        """Declarative form of :meth:`after_gate`'s channel sequence.

        Returns ``(kind, channel)`` pairs — ``("dep", channel)`` for
        the (qubit-count-selected) depolarizing channel, ``("pauli",
        channel)`` for the Pauli channel — in exactly the order
        :meth:`after_gate` applies them.  This is the single source
        of truth compiled replays derive their noise sites from, so
        the channel-selection logic cannot drift between the live
        device path and any compiled path.  Empty when no gate
        channel is enabled (the site can then be elided entirely,
        which is what lets GEMM fusion run through it).
        """
        specs = []
        channel = self.depolarizing
        if len(qubits) == 2 and self.two_qubit_depolarizing is not None:
            channel = self.two_qubit_depolarizing
        if channel is not None:
            specs.append(("dep", channel))
        if self.pauli is not None:
            specs.append(("pauli", self.pauli))
        return tuple(specs)

    def zz_window_events(self, windows: dict, time_ns: int, end: int,
                         gate_qubits: tuple[int, ...]) -> list:
        """Per-pair ZZ events for a gate driven over ``[time_ns, end)``.

        Delegates to :meth:`ZZCrosstalk.window_events` — the single
        shared implementation of the drive-window overlap accounting —
        so the cycle-accurate device and every compiled replay
        derive their events from identical logic.  Empty without a ZZ
        channel.
        """
        if self.zz is None:
            return []
        return self.zz.window_events(windows, time_ns, end, gate_qubits)

    def apply_zz_events(self, state: StateVector, events: list) -> None:
        """Apply per-pair conditional phases from :meth:`zz_window_events`."""
        zz = self.zz
        for left, right, overlap_ns in events:
            zz.apply_pair(state, left, right, overlap_ns)

    def corrupt_readout(self, outcome: int,
                        qubit: int | None = None) -> int:
        if self.readout is None:
            return outcome
        return self.readout.for_qubit(qubit).corrupt(outcome, self.rng)

    def idle_decay(self, state: StateVector, qubit: int,
                   duration_ns: float) -> None:
        """Apply T1/T2 decay for ``duration_ns`` of idle time."""
        if self.decoherence is not None:
            self.decoherence.apply_idle(state, qubit, duration_ns,
                                        self.rng)


def ideal_noise_model(seed: int | None = None) -> NoiseModel:
    """A noise model with every channel disabled."""
    return NoiseModel(seed=seed)


def paper_noise_model(seed: int | None = None,
                      pairs: tuple[tuple[int, int], ...] = ((0, 1),),
                      single_qubit_error: float = 5e-3,
                      zz_khz: float = 2500.0) -> NoiseModel:
    """Noise calibrated to the paper's Figure 14 QPU.

    ``single_qubit_error`` is the target average *per-gate* infidelity
    (~0.5 %, giving the paper's individual-RB fidelities of ~99.5 %);
    the uniform-Pauli injection probability is ``1.5x`` that value
    because the channel's infidelity is ``2p/3``.  ``zz_khz`` sets the
    additional simultaneous-drive error that pulls simRB down to
    ~98.7-99.1 %; it is an *effective* drive-frame coupling (the bare
    chip ZZ is partially echoed away in individual RB).
    """
    return NoiseModel(
        depolarizing=DepolarizingNoise(p=1.5 * single_qubit_error),
        two_qubit_depolarizing=DepolarizingNoise(p=3 * single_qubit_error),
        zz=ZZCrosstalk(zeta_hz=zz_khz * 1e3, pairs=pairs),
        readout=ReadoutError(p0_given_1=0.02, p1_given_0=0.01),
        seed=seed,
    )
