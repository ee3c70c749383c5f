"""Decision-keyed trace cache: replay shots without the event kernel.

The paper's central observation — control flow is deterministic between
measurement results — makes shot execution cacheable: for a fixed
program, everything a shot does is a pure function of the *control-flow
decisions* taken so far, and every decision is itself a pure function
of the measurement outcomes the classical code has consumed.  Two
shots that resolve the same decision sequence execute identical
control-stack behaviour: the same quantum operations reach the QPU in
the same order at the same simulated times, however their individual
measurement outcomes differ.

That last point is what makes the cache effective on QEC workloads: a
Shor-syndrome shot draws dozens of random readout bits, but folds them
into parities whose *votes* are identical shot after shot — so all
those shots share one decision path and replay from a trie that stays
a handful of nodes deep.

:class:`TraceCache` stores executed shots in a trie keyed by the
decision sequence.  A node holds the *segment* of work between two
decisions as the recording stream's own entries (``REC_*`` below), in
chronological (kernel-event) order, every time on the identity arms'
clock (see "Pauli-arm folds"):

* ``REC_GATE``/``REC_RESET`` — device-level backend operations with
  their issue times;
* ``REC_MEAS`` — measurements, without the recorded delivered value:
  executed **live** against the backend so each shot draws its own
  outcomes (one rng draw per measurement/reset keeps the replay
  draw-for-draw aligned with the recording simulation);
* ``REC_CLS``/``REC_FMR`` — the executed classical micro-ops
  (register/shared-memory writes) and measurement-result fetches —
  recorded in full, but replayed only as far as a recorded branch
  depends on them (the *decision slice*, below), against a lightweight
  register-file facade: the next decision must be *computed* from this
  shot's own outcomes, not assumed from the recording.

Each node compiles once into the one program its substrate's replay
loops read — a sign trace on the stabilizer tableau, a noise-site step
list on the dense statevector (see :func:`replay_mode`) — chained from
its parent's compile-time exit state.

Edges leave a node at its recorded decision point: a data-dependent
branch (keyed by taken/not-taken, evaluated by re-running the compiled
branch micro-op on the facade) or an MRCE resolution (keyed by the
consumed result bit).  Leaves record the shot's completion time, which
is equally decision-determined.

* The **first** shot down any decision path runs the full
  cycle-accurate simulation (kernel events, processor cycles,
  scheduler, emitter) with a :class:`RecordingQPU` proxy and processor
  recording hooks capturing the chronological stream, which a
  :class:`TraceRecorder` inserts into the trie segment by segment.
* **Every subsequent** shot re-computes its decisions during replay; a
  decision with no matching edge is a *miss* handled by
  **checkpoint-resume at the divergence frontier** or, at a quiet MRCE
  on a folding engine, by a **restart** from a control-stack snapshot
  (both below); either way the shot's replay context is the miss's
  only record.

Noise-aware replay
==================

Noisy :class:`~repro.qpu.device.SimulatedQPU` substrates are cacheable
because :meth:`~repro.qpu.device.SimulatedQPU.restart` reseeds the
noise rng per shot (see :mod:`repro.qpu.noise`): the noise trajectory
is then a pure function of the shot seed, and a replay reproduces it
by consuming the noise rng *positionally* — drawing at exactly the
sites the cycle-accurate simulation would:

* On the **stabilizer** backend with Pauli-only noise (depolarizing /
  Pauli channels plus classical readout flips — everything the tableau
  can represent, :attr:`~repro.qpu.noise.NoiseModel.is_pauli_only`),
  noise folds into the compiled sign-trace: a Pauli injection never
  touches the tableau's x/z bits, so the x/z evolution along a
  decision path stays shot-invariant and each potential injection site
  compiles to pre-computed sign masks (``_S_NOISE``).  Readout flips
  are drawn live at each compiled measurement.  One compiled op list
  serves both sign loops: each op carries the serial loop's packed
  masks and the bit-plane cohort walker's row tuples.
* On the **dense** backend, each node compiles once into a
  state-free *step list* (:func:`_compile_dense_steps`): the device's
  per-op timed behaviour is pre-resolved against one model of its
  busy-until and drive-window bookkeeping into unitaries (ZZ
  crosstalk windows become per-pair phase unitaries with precomputed
  overlaps), gate-channel sites with their Pauli corrections,
  idle-decay sites with precomputed durations, resets, live
  measurements and classical ops — analogous to the stabilizer
  ``_S_NOISE`` sites.  The list is bound once, to closures over a
  cohort (:meth:`TraceNode.dense_program`), and the wavefront walker
  that runs sign cohorts runs it too (:meth:`TraceCache._replay_cohort`):
  a serial shot is a cohort of one that draws the live device's own
  rngs (:meth:`TraceCache.replay`).
  Every stochastic step draws exactly as the device's channel does,
  so the replay is draw-for-draw identical; only the *structure*
  (which sites exist, with which constants) is hoisted out of the
  per-shot loop.  An ideal substrate compiles the same list with no
  noise sites.

Dense GEMM fusion
=================

Decision-free unitary runs on the statevector backend are fused into
precomposed block operators (:class:`_DenseBlockCompiler`) before
replay — one batched matmul per run instead of one dispatch per gate,
on blocks as wide as :func:`~repro.qpu.statevector.fusion_width`
allows for the register.
Fusion is keyed per :class:`TraceNode` and never crosses a decision,
a measurement, a reset, or a state-reading noise site, so the rng draw
sequence (and with it every delivered outcome, histogram and timing
under a fixed seed) is identical to unfused replay; intermediate
amplitudes may differ in the last ulp.  The compiler's private
``fuse=False`` mode, which the amplitude-exactness tests use, makes
every gate, channel correction and ZZ phase its own step on its own
qubits, applied to each cohort row through
:func:`~repro.qpu.statevector.batch_block_applier`, which is
bit-for-bit identical to the device's ``apply_unitary`` — amplitudes
included.

Readout corruption is drawn exactly as the device draws it, so the
*delivered* bit (which the control stack keys decisions on) and the
*collapsed* state (which stays uncorrupted) both match the
cycle-accurate path bit for bit.

Decision-slice classical replay
===============================

A replay hit returns only the delivered bits and ``total_ns``, and a
resumed shot re-runs its whole classical stream cycle-accurately, so
register and shared-memory state matters to a replay only where a
recorded branch reads it.  Each node therefore keeps a *live set*
(:attr:`TraceNode.live`): the locations — registers per processor,
shared-memory words — its own branch reads, plus those its recorded
children need on entry.  The compilers read a live view of the
recorded items (:meth:`TraceNode.live_items`): a backward pass over
the def/use sets :mod:`repro.qcp.decode` attaches to every micro-op
keeps a classical item only when it defines a location that is live
after it.  On the Shor syndrome benchmark that leaves the 18
verification fetches of the 236 classical ops on its decision path.

Live sets only grow.  :meth:`TraceCache.record` updates them leaf to
root along the path it just recorded and drops a node's compiled
program when its live set grows — a branch recorded later can revive
an op an earlier path left dead.  The pass fails closed: an item whose
micro-op carries no def/use sets is kept, and so is every classical
item before it on the path (:data:`_LIVE_ALL`).

Checkpoint-resume at the divergence frontier
============================================

A replay that reaches a decision with no recorded edge has already
done real work: the backend state, the rng positions (measurement and
noise) and the delivered-outcome history are all exactly at the last
shared trie node.  Instead of discarding that and re-simulating the
whole shot, the cache returns the shot's own :class:`_ReplayContext`,
which holds the device operations the replay applied (``skip_ops``),
the delivered bits in order (``outcomes``) and, for a sign shot, the
node it left at.  The shot engine re-runs the cycle-accurate
simulation behind the one :class:`RecordingQPU` of the run, built from
that context: the first ``skip_ops`` device operations (the shared
prefix the control stack re-issues) are *skipped* — the state already
includes them — and prefix measurements return the recorded delivered
bits.  Only the divergent suffix is simulated against the live
backend, after which the newly discovered path is recorded into the
trie as usual.  The sign-trace replay materializes
the frontier tableau first (its compile-time x/z model plus the live
packed sign column), and a dense replay its cohort-of-one row, through
:meth:`~repro.qpu.backend.SimulationBackend.restore`.  A miss at a
quiet MRCE on a folding engine skips the prefix re-run altogether (see
"Restart and rejoin at quiet decisions" below).  A shot whose lane
left a replay cohort resumes at that lane's own frontier, with the
state the cohort computed for it, and is walked from the root only
when an earlier shot's recording moved the frontier
(:meth:`TraceCache.replay_handoff`).

LRU bound
=========

High-path-entropy workloads (RUS loops driven by fair coins) record a
new path per novel decision sequence and would grow the trie without
bound.  ``QCPConfig.trace_cache_max_nodes`` caps the node count:
after each recording that exceeds the bound, the least-recently-used
subtrees (by last replay/record visit) are evicted until the trie
fits.  Recency is tracked **amortized**: every node sits in an
ordered dict by last touch, so a touch is one O(1) ``move_to_end``
and an eviction pass pops only the cold front plus the evicted nodes
themselves — no full-trie scoring scan per overflow (which made small
bounds on hot RUS loops quadratic).  Because a shot touches nodes
root-to-leaf, a parent is always at least as recent as its
descendants, so detaching the coldest node always removes a
coldest-first *subtree*.  The path touched by the current shot is
never evicted, so the bound is best-effort when a single path is
longer than the cap.

Pauli-arm folds
===============

Simple feedback control (MRCE) makes every resolution a trie key, so
a surface-code shot that resets dozens of ancillas through MRCE almost
never repeats a recorded path.  But an arm that adds one Pauli only
flips tableau signs (Aaronson–Gottesman), so on sign-trace engines
such a decision folds into one canonical child:

* **Rule**, checked when an MRCE node gets its second recorded arm
  (:meth:`TraceCache._fold`).  The engine folds at all only in
  ``"signs"`` mode on one scalar core without fast context switch.
  One arm's segment must equal the other's op for op, plus one
  leading ``x``/``y``/``z`` on the MRCE target.  And their next points
  must translate: both arms end at leaves (``δ`` is the difference of
  their totals), or both end at the same MRCE resolved on the stall
  path with equal quiescence signatures (see
  :meth:`~repro.qcp.processor.ProcessorCore._record_mrce`; ``δ`` is
  the difference of the two decision times).  At such a quiet
  decision nothing in the control stack reads absolute time, so the
  Pauli arm's whole future is the identity arm's, ``δ`` later.
  Anything else declines — a branch, a sync-path or fast-switch
  MRCE, a stall with events still pending: a branch decided at
  processor time can absorb the shift, so equal segments alone prove
  nothing.
* **Times** are kept on the identity arms' clock: the
  :class:`TraceRecorder` subtracts the ``δ`` of every fold the
  recording shot took on its Pauli arm, a leaf stores a base total,
  and a shot reports the base plus the ``δ`` of each fold it fired.
* **Graft.**  The fold drops the Pauli arm and merges its recorded
  subtree into the identity arm's, ``δ`` earlier
  (:meth:`TraceCache._graft`); a decision the merge gives a second arm
  is checked in turn.
* **Replay.**  A Pauli-arm shot XORs the Pauli's sign mask, draws its
  gate-noise site (the device's noise for the MRCE-issued gate), adds
  ``δ`` to its time offset, counts the Pauli in ``skip_ops`` and
  continues in the identity arm — in the serial epilogue and, without
  splitting, in sign cohorts.
* **Fail closed.**  A recording that takes a fold's Pauli arm
  re-checks it (the Pauli first, then the canonical ops, the next
  point ``δ`` later) and raises :class:`TraceDivergenceError` on a
  mismatch, as for any decision mismatch: shots already served would
  be wrong, so there is no silent unfold.  Evicting a fold's child
  drops the fold.

Restart and rejoin at quiet decisions
=====================================

A shot that leaves the trie runs on the cycle-accurate simulator, and
a :class:`TraceRecorder` inserts what it does into the trie, segment
by segment, from the stream the control stack and the
:class:`RecordingQPU` append to.  On a folding engine a miss simulates
one segment, not a shot:

* **Snapshot.**  At a quiet MRCE stall (see
  :meth:`~repro.qcp.processor.ProcessorCore._record_mrce`) nothing is
  pending, so the control stack is plain data:
  :meth:`QuAPESystem.snapshot <repro.qcp.system.QuAPESystem.snapshot>`
  takes the core's pc, block and relative times, the scheduler's
  entries and flags, the cache banks and the result registers' valid
  flags, with no result values.  A freshly recorded quiet MRCE node
  keeps it, unless the path above has a classical entry (registers and
  shared words are at reset only without one).  Every shot that
  reaches the node shares it: the fold rule makes arms time
  translates, so a snapshot is clock-free, and a graft requires merged
  nodes' snapshots to be equal (:class:`TraceDivergenceError`
  otherwise).
* **Restart.**  A serial miss at a node with a snapshot
  (:meth:`TraceRecorder.start`, reading the node from the shot's
  context) materializes the tableau as for a resume, then restores a
  fresh system at the node's decision time on the shot's own clock;
  the valid result registers take the shot's delivered bits and the
  MRCE resolves with the shot's bit.  Recording starts at the node,
  and the run's :class:`RecordingQPU` skips nothing.
* **Rejoin.**  At every quiet MRCE a recording run reaches, the
  recorder (:meth:`TraceRecorder.quiet`) closes the segment and offers
  the decision where the run left the trie to :meth:`TraceCache._fold`.
  If a fold put the shot's next segment back in the trie, the run
  stops there and the shot continues in serial sign replay
  (:meth:`TraceCache.rejoin`), after two checks that fail closed to
  running on: the live quiet signature and x/z tableau are the node's.
  ``restarts`` and ``rejoins`` count both; a shot that touched the
  simulator is one miss however often it rejoined.

Not cacheable (the shot engine falls back to cycle-accurate
execution): substrates :func:`replay_mode` has no compiled program
for — non-Pauli noise on the stabilizer tableau, channels outside
:attr:`~repro.qpu.noise.NoiseModel.is_dense_compilable` on the
statevector — and custom ``qpu_factory`` devices, which the cache
cannot see inside.
"""

from __future__ import annotations

import _random
import random
from collections import OrderedDict

import numpy as np

from repro.circuit.gates import lookup_gate
from repro.qcp.config import QCPConfig
from repro.qcp.decode import LOC_REG, LOC_SHARED
from repro.qcp.registers import RegisterFile, SharedRegisters
from repro.qpu.device import SimulatedQPU
from repro.qpu.noise import NOISE_SEED_SALT, NoiseModel, ReadoutError
from repro.qpu.stabilizer import StabilizerState
from repro.qpu.statevector import (BatchStateVector, _lift,
                                   batch_block_applier, cached_unitary,
                                   fuse_into, fusion_width)

# Chronological-stream entry tags.  A node's segment keeps the entries
# themselves (a measurement without its delivered value, every time on
# the identity arms' clock).  REC_GATE/REC_RESET double as the
# BackendOp kind strings, so an entry's first four fields are a
# ready-made BackendOp.
REC_GATE = "gate"   # (REC_GATE, name, qubits, params, time_ns)
REC_RESET = "reset"  # (REC_RESET, "reset", (qubit,), (), time_ns)
REC_MEAS = "meas"   # (REC_MEAS, qubit, time_ns, delivered value)
REC_CLS = "cls"     # (REC_CLS, proc_id, run)
REC_FMR = "fmr"     # (REC_FMR, proc_id, rd, qubit)
REC_DEC = "dec"     # (REC_DEC, proc_id, run, taken)
REC_MDEC = "mdec"   # (REC_MDEC, result_qubit, value, target, time_ns,
#                     quiescence signature or None)

# Decision kinds.
_D_BRANCH = 0  # (_D_BRANCH, proc_id, run)
_D_MRCE = 1    # (_D_MRCE, result_qubit, target_qubit)

# Compiled *sign-trace* op codes (stabilizer backend only, see
# _compile_sign_node).  Every op carries both operand forms: first the
# packed integer masks of the serial loop, whose state is one
# arbitrary-precision integer holding the tableau's sign column (bit i
# is row i), then the row-index tuples of the cohort walker, whose state
# is one bit-plane integer per row (bit b is shot b).  A measurement's
# target is its qubit in both forms, a reset's its zmask and its rows.
_S_XOR = 0      # (_S_XOR, mask, rows)                r ^= mask
_S_MEAS_R = 1   # (_S_MEAS_R, pivot, pm, tmask, gmask, qubit,
#                  t_rows, g_rows, draw, qubit)
_S_MEAS_D = 2   # (_S_MEAS_D, rowsmask, ghalf, qubit, rows, qubit)
_S_RESET_R = 3  # (_S_RESET_R, pivot, pm, tmask, gmask, zmask,
#                  t_rows, g_rows, draw, z_rows)
_S_RESET_D = 4  # (_S_RESET_D, rowsmask, ghalf, zmask, rows, z_rows)
_S_CLS = 5      # (_S_CLS, proc_id, run, defs, uses)
_S_FMR = 6      # (_S_FMR, proc_id, rd, qubit, (proc_id, rd))
_S_NOISE = 7    # (_S_NOISE, dep_p, per_qubit_masks, pauli_cumulative,
#                  per_qubit_rows)

# Compiled *dense step* codes (statevector backend, see
# _compile_dense_steps): a state-free list that _bind_cohort turns into
# closures, so the hot loop is nothing but ``step(cohort)``.
_V_UNITARY = 0  # (_V_UNITARY, matrix, support)
_V_CHANNEL = 1  # (_V_CHANNEL, kind, params, ((support, (X, Y, Z)), ...))
_V_DECAY = 2    # (_V_DECAY, qubit, gamma, sqrt(1 - gamma), p_dephase)
_V_RESET = 3    # (_V_RESET, qubit)
_V_MEAS = 4     # (_V_MEAS, qubit)
_V_CLS = 5      # (_V_CLS, run, defs, uses)
_V_FMR = 6      # (_V_FMR, location, qubit)

#: Sentinel returned by the shared replay epilogue when a shot
#: completed at a recorded leaf.
_HIT = object()

#: The live set past a classical item whose micro-op has no def/use
#: sets: every location, so the item and everything before it is kept.
_LIVE_ALL = frozenset({("*", "*")})

#: Index alias for ``random.Random.choice`` at noise sites: consuming
#: the rng through ``choice`` on a length-3 sequence is draw-for-draw
#: identical to ``DepolarizingNoise``'s ``rng.choice(("x","y","z"))``,
#: and the returned index selects the matching sign mask directly.
_PAULI_INDICES = (0, 1, 2)

#: The gate names of those indices, the order of every (X, Y, Z)
#: correction triple.
_PAULIS = ("x", "y", "z")

#: One shot's outcome as a hashable key: ``(measured, bits)``, the
#: sorted tuple of the qubits the shot measured and one int whose bit
#: ``i`` is the last delivered value of ``measured[i]``.  A key does
#: not depend on which other shots ran alongside it, so the histograms
#: of any seed ranges merge by counter addition
#: (:func:`~repro.qcp.shots.merge_shard_outcomes`).
OutcomeKey = tuple[tuple[int, ...], int]


def outcome_key(last_value: dict[int, int]) -> OutcomeKey:
    """The :data:`OutcomeKey` of a shot's last value per qubit."""
    measured = tuple(sorted(last_value))
    bits = 0
    for index, qubit in enumerate(measured):
        if last_value[qubit]:
            bits |= 1 << index
    return measured, bits


class TraceDivergenceError(RuntimeError):
    """A recorded shot contradicted the trie.

    Control flow stopped being a pure function of the decision history
    — e.g. an externally mutated substrate or a non-positional rng
    consumer slipped past the cacheability gate.
    """


class _ReplayProcessor:
    """Register-level facade a compiled classical micro-op runs against.

    Presents exactly the attributes the micro-ops touch: the register
    file, the shared registers, the config (branch penalties) and a
    throwaway ``pc`` for branch targets.
    """

    __slots__ = ("registers", "shared", "config", "pc")

    def __init__(self, shared: SharedRegisters, config: QCPConfig) -> None:
        self.registers = RegisterFile()
        self.shared = shared
        self.config = config
        self.pc = 0

    def load(self, location: tuple, value: int) -> None:
        """Set a live-set location (:func:`_located`): a shared word,
        or a register of this facade whichever processor owns it."""
        if location[0] == LOC_SHARED:
            self.shared.write(location[1], value)
        else:
            self.registers.write(location[1], value)

    def value(self, location: tuple) -> int:
        """Read a live-set location back (see :meth:`load`)."""
        if location[0] == LOC_SHARED:
            return self.shared.read(location[1])
        return self.registers.read(location[1])


class _CohortState:
    """The classical state of a cohort, shared by all its sub-cohorts.

    Every cohort walk (:meth:`TraceCache._replay_cohort`), sign or
    dense, keeps one.  Delivered outcomes are one lane word per qubit
    (``words``: bit ``slot`` is that shot's latest delivered bit), and
    ``log`` holds every word delivered, in order, with the lanes it
    went to: a lane's bits of its words are its outcome stream
    (:meth:`outcomes`).  ``shifts`` maps each summed fold ``δ`` to the
    lanes that fired those folds, and ``fired`` holds the lanes of
    each fold firing, in order.

    Registers and shared words are value partitions:
    ``partitions[location]`` maps each value the location holds in
    some lane to the mask of the lanes holding it.  Locations are
    keyed like the decision slice's live sets (:func:`_located`); a
    location never written holds 0 in every lane.  No micro-op reads
    the zero register as a location: the scratch facade reads it as 0.
    Sub-cohorts share one state through masked writes, so a split
    copies nothing, and the lanes that leave a walk keep their values
    as they left (:class:`_Frontier`).

    Micro-ops run through :meth:`execute` and :meth:`decide`: the
    recorded closure runs once per distinct combination of its input
    values present in the cohort, on one reused scratch facade, and
    the lanes are grouped by its result.  Only :meth:`deliver` draws
    an rng: a readout flip per lane.
    """

    __slots__ = ("lanes", "partitions", "scratch", "readout", "words",
                 "log", "shifts", "fired")

    def __init__(self, lanes: int, config: QCPConfig,
                 readout: ReadoutError | None = None) -> None:
        #: Every lane of the cohort (the initial wavefront).
        self.lanes = lanes
        self.partitions: dict[tuple, dict[int, int]] = {}
        self.scratch = _ReplayProcessor(SharedRegisters(), config)
        self.readout = readout
        self.words: dict[int, int] = {}
        self.log: list[tuple[int, int]] = []
        self.shifts = {0: lanes}
        self.fired: list[int] = []

    def deliver(self, qubit: int, raw: int, cohort: "_Cohort") -> None:
        """Deliver ``cohort``'s raw outcome word for ``qubit``.

        The qubit's readout channel flips each lane's bit as
        ``ReadoutError.corrupt`` does, with one draw of the lane's
        noise rng.
        """
        if self.readout is not None:
            # Per-qubit calibration resolves at the measurement site
            # (identity on the uniform channel).
            site = self.readout.for_qubit(qubit)
            for slot, nrng in zip(cohort.slots, cohort.nrngs):
                if nrng.random() < (site.p0_given_1 if (raw >> slot) & 1
                                    else site.p1_given_0):
                    raw ^= 1 << slot
        self.words[qubit] = (self.words.get(qubit, 0) & ~cohort.lanes) | raw
        self.log.append((cohort.lanes, raw))

    def outcomes(self, slot: int) -> list[int]:
        """Lane ``slot``'s delivered bits, in delivery order."""
        return [(word >> slot) & 1 for lanes, word in self.log
                if (lanes >> slot) & 1]

    def fetch(self, location: tuple, qubit: int, lanes: int) -> None:
        """Replay a result fetch: each lane's delivered bit."""
        word = self.words[qubit] & lanes
        self.write(location, {1: word, 0: lanes ^ word}, lanes)

    def read(self, location: tuple, lanes: int) -> dict[int, int]:
        """``location``'s value partition restricted to ``lanes``."""
        partition = self.partitions.get(location)
        if partition is None:
            return {0: lanes}
        restricted = {}
        for value, mask in partition.items():
            mask &= lanes
            if mask:
                restricted[value] = mask
        return restricted

    def write(self, location: tuple, partition: dict[int, int],
              lanes: int) -> None:
        """Masked write: ``partition`` (disjoint masks covering
        ``lanes``) replaces ``location``'s values in ``lanes``; every
        other lane keeps its value."""
        old = self.partitions.get(location)
        if old is None:
            old = {0: self.lanes}
        keep = ~lanes
        merged = {}
        for value, mask in old.items():
            mask &= keep
            if mask:
                merged[value] = mask
        for value, mask in partition.items():
            if mask:
                merged[value] = merged.get(value, 0) | mask
        self.partitions[location] = merged

    def combinations(self, locations: tuple, lanes: int) -> list:
        """The distinct value combinations of ``locations`` in
        ``lanes``: ``[(values, mask)]`` with disjoint masks covering
        ``lanes``.

        Each location refines the combinations so far by its values.
        A combination stops refining once its lanes are used up; when
        both sides are many-valued, one pass over the lanes replaces
        the pairwise masks, so the work never exceeds the lane count
        per location.
        """
        combos = [((), lanes)]
        for location in locations:
            partition = self.read(location, lanes)
            refined = []
            if len(combos) * len(partition) <= lanes.bit_count():
                for values, mask in combos:
                    for value, value_mask in partition.items():
                        both = mask & value_mask
                        if both:
                            refined.append((values + (value,), both))
                            mask ^= both
                            if not mask:
                                break
            else:
                owner = {}
                for value, value_mask in partition.items():
                    while value_mask:
                        lane = value_mask & -value_mask
                        owner[lane] = value
                        value_mask ^= lane
                for values, mask in combos:
                    groups: dict[int, int] = {}
                    while mask:
                        lane = mask & -mask
                        value = owner[lane]
                        groups[value] = groups.get(value, 0) | lane
                        mask ^= lane
                    refined.extend((values + (value,), group)
                                   for value, group in groups.items())
            combos = refined
        return combos

    def _evaluate(self, run, uses: tuple, lanes: int):
        """Run ``run`` once per input combination on the scratch
        facade; yield its disposition and the combination's lanes."""
        scratch = self.scratch
        for values, mask in self.combinations(uses, lanes):
            for location, value in zip(uses, values):
                scratch.load(location, value)
            yield run(scratch)[0], mask

    def execute(self, run, defs: tuple, uses: tuple, lanes: int) -> None:
        """Replay a classical micro-op over the cohort's ``lanes``."""
        results: list[dict[int, int]] = [{} for _ in defs]
        value = self.scratch.value
        for _disposition, mask in self._evaluate(run, uses, lanes):
            for partition, location in zip(results, defs):
                result = value(location)
                partition[result] = partition.get(result, 0) | mask
        for location, partition in zip(defs, results):
            self.write(location, partition, lanes)

    def decide(self, decision: tuple, uses: tuple | None,
               lanes: int) -> int:
        """The ``lanes`` that take edge 1 at a recorded decision: an
        MRCE reads its outcome word, a branch (reading ``uses``) runs
        its micro-op."""
        if decision[0] == _D_MRCE:
            return self.words[decision[1]] & lanes
        taken = 0
        for disposition, mask in self._evaluate(decision[2], uses, lanes):
            if disposition == "taken":
                taken |= mask
        return taken

    def shift(self, lanes: int, delta_ns: int) -> None:
        """Run ``lanes`` ``delta_ns`` later: a fold's Pauli arm."""
        self.fired.append(lanes)
        moved: dict[int, int] = {}
        for shift, mask in self.shifts.items():
            for key, part in ((shift, mask & ~lanes),
                              (shift + delta_ns, mask & lanes)):
                if part:
                    moved[key] = moved.get(key, 0) | part
        self.shifts = moved

    def group(self, measured: tuple, lanes: int, total_ns: int,
              groups: list) -> None:
        """Complete ``lanes`` at a leaf whose path measured
        ``measured``: append one ``(lanes, key, total_ns)`` per
        outcome and time offset to ``groups``.

        The lanes are refined by each measured qubit's word in
        sorted-qubit order, so a group's value word is its
        :data:`OutcomeKey`'s ``bits``; histograms concentrate, so the
        groups are few.
        """
        order = tuple(sorted(measured))
        refined = [(lanes, 0)]
        for index, qubit in enumerate(order):
            word = self.words[qubit]
            split = []
            for part, values in refined:
                ones = part & word
                if ones:
                    split.append((ones, values | 1 << index))
                if ones != part:
                    split.append((part ^ ones, values))
            refined = split
        for part, values in refined:
            key = (order, values)
            for shift, mask in self.shifts.items():
                mask &= part
                if mask:
                    groups.append((mask, key, total_ns + shift))


class _ReplayContext:
    """Per-shot classical replay state of the serial sign loop.

    Owns the pieces that loop needs — the delivered-outcome map, the
    chronological outcome list, the skipped-devop count, the time
    offset of the folds fired (``shift_ns``; ``pauli`` is the fold
    whose Pauli the next node replays first), and the lazily created
    per-processor register facades over one shared register file — so
    a shot's decision (:func:`_decide`), the loop's decide/hit/resume
    epilogue (:meth:`TraceCache._epilogue`) and the recorder's
    hand-over back to it are written once against this object.  Every
    shot gets a fresh one.  Cohorts keep no per-shot context: their
    classical state is a :class:`_CohortState`, and a lane a cohort
    hands back gets its context from it (:meth:`_Frontier.context`).

    A miss returns the shot's context as its record: ``skip_ops`` and
    ``outcomes`` are the prefix a t = 0 re-run skips and serves
    (:class:`RecordingQPU`), and ``node``, set by a sign miss, is
    where the shot left replay, from which a restart starts
    (:meth:`TraceRecorder.start`).  A dense cohort of one that misses
    returns its lane's context, with no ``node``.
    """

    __slots__ = ("config", "delivered", "outcomes", "skip_ops",
                 "shift_ns", "pauli", "shared", "procs", "simulated",
                 "node")

    def __init__(self, config: QCPConfig) -> None:
        self.config = config
        self.delivered: dict[int, int] = {}
        self.outcomes: list[int] = []
        self.skip_ops = 0
        self.shift_ns = 0
        self.pauli: _Fold | None = None
        self.shared = SharedRegisters()
        self.procs: dict[int, _ReplayProcessor] = {}
        #: The shot has run on the simulator: it is one miss, however
        #: often it rejoins, and its leaf counts no hit.
        self.simulated = False
        #: Set by a sign miss: the node whose decision had no edge.
        self.node: TraceNode | None = None

    def proc(self, proc_id: int) -> _ReplayProcessor:
        """The register facade for ``proc_id`` (created on first use)."""
        proc = self.procs.get(proc_id)
        if proc is None:
            proc = self.procs[proc_id] = _ReplayProcessor(
                self.shared, self.config)
        return proc

    def deliver(self, qubit: int, value: int) -> None:
        """Record one live measurement outcome."""
        self.delivered[qubit] = value
        self.outcomes.append(value)


def _decide(decision: tuple, ctx: _ReplayContext) -> int:
    """The edge one shot takes at a recorded decision.

    A data-dependent branch re-runs its compiled micro-op on the shot's
    register facade (1 when taken); an MRCE resolution reads the shot's
    delivered bit.
    """
    if decision[0] == _D_BRANCH:
        return 1 if decision[2](ctx.proc(decision[1]))[0] == "taken" else 0
    return ctx.delivered[decision[1]]


def _located(proc_id: int, locations: tuple) -> list:
    """A micro-op's locations as live-set keys: registers are
    per processor, shared-memory words are global."""
    return [(proc_id, index) if space == LOC_REG else (space, index)
            for space, index in locations]


def _join(live, more):
    """The union of two live sets (``None`` is empty).

    Returns ``live`` itself when ``more`` adds nothing, so callers
    detect growth by identity.
    """
    if not more or live is _LIVE_ALL:
        return live
    if more is _LIVE_ALL:
        return _LIVE_ALL
    if live is None:
        return frozenset(more)
    return live if live.issuperset(more) else live.union(more)


def _decision_uses(decision: tuple | None):
    """The live-set keys a recorded decision reads (``None``: none).

    An MRCE resolution reads a delivered bit, which a replay always
    has; a branch reads its two registers.
    """
    if decision is None or decision[0] != _D_BRANCH:
        return None
    effects = getattr(decision[2], "effects", None)
    if effects is None:
        return _LIVE_ALL
    return _located(decision[1], effects[1])


def _slice(items: tuple, live) -> tuple[set, frozenset | None]:
    """One backward liveness pass over a node's recorded items.

    ``live`` is the node's live set at its decision point.  Returns
    ``(dead, entry)``: the positions of the classical items no live
    location depends on, and the live set at node entry.  An item
    whose micro-op has no def/use sets ends the pass: it and every
    item before it stay, and the entry set is :data:`_LIVE_ALL`.
    """
    dead: set = set()
    if live is _LIVE_ALL:
        return dead, _LIVE_ALL
    current = set(live) if live else set()
    for index in range(len(items) - 1, -1, -1):
        item = items[index]
        tag = item[0]
        if tag == REC_FMR:
            key = (item[1], item[2])
            if key in current:
                current.discard(key)
            else:
                dead.add(index)
        elif tag == REC_CLS:
            effects = getattr(item[2], "effects", None)
            if effects is None:
                return dead, _LIVE_ALL
            defs = _located(item[1], effects[0])
            if current.isdisjoint(defs):
                dead.add(index)
            else:
                current.difference_update(defs)
                current.update(_located(item[1], effects[1]))
    if not current:
        return dead, None
    # A node the live locations pass through unchanged shares the set.
    return dead, (live if current == live else frozenset(current))


class TraceNode:
    """One trie node: the work segment up to the next decision point.

    ``items`` is the segment: the recording stream's entries (see
    ``REC_*``); ``None`` marks an unexplored node (created as a child
    edge but not yet recorded).  A recorded node is *interior* when
    ``decision`` is set and a *leaf* (shot end) when it is ``None``;
    leaves carry the shot's ``total_ns``.  ``devops`` counts the
    device-level operations (gates, resets, measurements) in the
    segment — the prefix length a checkpoint-resume must skip.

    ``last_used`` is the LRU stamp of the latest shot that replayed or
    recorded through this node; ``parent``/``edge`` locate the node in
    the trie.

    ``live`` is the node's live set: the locations its own branch and
    its recorded children read from the classical state at its
    decision point (``None`` when there are none).  The compiled
    program replays only :meth:`live_items`.

    An MRCE decision also keeps its time (``decision_ns``) and its
    quiescence signature (``quiet``, ``None`` unless resolved on a
    quiet stall); a folded one keeps its :class:`_Fold` and only the
    identity arm's child.  A quiet MRCE on a folding engine also keeps
    the control stack's ``snapshot`` there (see "Restart and rejoin at
    quiet decisions" above).  Every time in the trie — item times,
    ``decision_ns`` and leaf totals — is on the identity arms' clock
    (see "Pauli-arm folds" above).
    """

    __slots__ = ("items", "decision", "children", "total_ns", "devops",
                 "decision_ns", "quiet", "fold", "snapshot",
                 "last_used", "parent", "edge", "live", "_program",
                 "_exit_tableau", "_exit_busy", "_exit_windows")

    def __init__(self) -> None:
        self.items: tuple | None = None
        self.decision: tuple | None = None
        self.children: dict[int, TraceNode] = {}
        self.total_ns = 0
        self.devops = 0
        self.decision_ns: int | None = None
        self.quiet: tuple | None = None
        self.fold: _Fold | None = None
        self.snapshot: tuple | None = None
        self.last_used = 0
        self.parent: TraceNode | None = None
        self.edge: int | None = None
        self.live: frozenset | None = None
        #: The one compiled program its substrate's loops read, with
        #: its :func:`_manifest`: the sign trace on the tableau
        #: (:meth:`sign_program`), the bound step list on the
        #: statevector (:meth:`dense_program`).
        self._program: tuple | None = None
        #: Stabilizer sign-trace compilation: the model tableau at
        #: node exit (signs at zero), whose copy is the entry state for
        #: compiling a child node and whose x/z columns are the x/z
        #: half of a divergence-frontier checkpoint.
        self._exit_tableau: StabilizerState | None = None
        #: Dense step compilation: the device's busy-until and
        #: drive-window bookkeeping at node exit — the entry state for
        #: compiling child nodes, and what a divergence-frontier resume
        #: restores into the live device.
        self._exit_busy: dict[int, int] | None = None
        self._exit_windows: dict[int, tuple[int, int]] | None = None

    def live_items(self) -> tuple:
        """The recorded items minus the classical ops no recorded
        decision depends on — the view every compiler reads."""
        dead = _slice(self.items, self.live)[0]
        if not dead:
            return self.items
        return tuple(item for index, item in enumerate(self.items)
                     if index not in dead)

    def drop_program(self) -> None:
        """Forget the compiled program; the next replay recompiles.

        The exit snapshots stay: they depend only on the quantum items,
        so child programs compiled from them remain valid.
        """
        self._program = None

    def sign_program(self, state: StabilizerState,
                     noise: NoiseModel) -> tuple:
        """This node's compiled sign trace (stabilizer backends):
        ``(ops, manifest)``, see :func:`_compile_sign_node` and
        :func:`_manifest`.

        Along a fixed decision path, the tableau's x/z columns are
        *shot-invariant*: gates and measurement collapses never read
        the sign column, and Pauli-only noise injections never write
        the x/z bits — so only the signs differ between shots.  The
        node's segment therefore compiles to a handful of bit
        operations on the sign column, with one ``_S_NOISE`` site per
        noisy gate, and each op carries both the serial loop's packed
        masks and the cohort walker's row tuples: one compilation serves
        both loops.  The compiler runs the device's own kernel on a
        model :class:`StabilizerState` copied from the parent node's
        exit model (:func:`_model_at`), which it keeps as its own exit
        model; every walk compiles a parent before its children.
        """
        if self._program is None:
            model = _model_at(self.parent, state.n_qubits)
            items = self.live_items()
            self._program = (_compile_sign_node(items, model, noise),
                             _manifest(items, self.decision))
            self._exit_tableau = model
        return self._program

    def dense_program(self, qpu: SimulatedQPU) -> tuple:
        """This node's dense program: ``(steps, manifest)``, its step
        list compiled and bound once, and its :func:`_manifest`.

        The device's busy-until map and drive-window bookkeeping are
        *decision-path invariants* (they depend only on the recorded
        issue times), so :func:`_compile_dense_steps` models them once
        — chained from the parent node's exit maps, exactly like the
        sign trace chains its model tableau.  The exit maps are kept
        on the node so child nodes compile from them and a
        divergence-frontier resume can restore them into the live
        device; every walk compiles a parent before its children.

        The steps are bound to closures over a :class:`_Cohort`
        argument (:func:`_bind_cohort`), so one compilation serves
        every wavefront, every ``take``-partitioned sub-cohort and
        every serial shot (a cohort of one) that passes through the
        node.  The cohort state is never captured, so the program
        stays valid for the cache's lifetime.
        """
        if self._program is None:
            parent = self.parent
            if parent is None:
                busy: dict[int, int] = {}
                windows: dict[int, tuple[int, int]] = {}
            else:
                busy = dict(parent._exit_busy)
                windows = dict(parent._exit_windows)
            items = self.live_items()
            self._program = (
                _bind_cohort(_compile_dense_steps(items, qpu, busy,
                                                  windows),
                             qpu.state.n_qubits),
                _manifest(items, self.decision))
            self._exit_busy = busy
            self._exit_windows = windows
        return self._program


class _Fold:
    """A folded MRCE decision: its Pauli arm replays the identity arm.

    ``edge`` is the Pauli arm's edge, ``op`` its leading Pauli as a
    recorded backend op and ``delta_ns`` how much later the Pauli arm
    runs than the identity arm.  The Pauli's sign ops — its XOR mask
    and its gate-noise site — compile once from the decision node's
    exit tableau; a Pauli leaves x/z unchanged, so the identity arm's
    programs serve both arms.
    """

    __slots__ = ("edge", "op", "delta_ns", "_program")

    def __init__(self, edge: int, op: tuple, delta_ns: int) -> None:
        self.edge = edge
        self.op = op
        self.delta_ns = delta_ns
        self._program: list | None = None

    def sign_program(self, node: TraceNode, state: StabilizerState,
                     noise: NoiseModel) -> list:
        """The Pauli's sign ops, after ``node`` (the folded decision
        node, whose program is compiled), for both sign loops."""
        if self._program is None:
            self._program = _compile_sign_node(
                (self.op + (0,),), _model_at(node, state.n_qubits), noise)
        return self._program


def _op_keys(items: tuple) -> list:
    """A segment's entries in order, without their times: what the fold
    rule compares.  Backend ops keep their params, measurements their
    qubit, classical entries their micro-op (closures compare by
    identity; the engine decodes each instruction once)."""
    return [item[:4] if item[0] == REC_GATE or item[0] == REC_RESET
            else item[:2] if item[0] == REC_MEAS else item
            for item in items]


def _shifted(entry: tuple, delta_ns: int) -> tuple:
    """A stream entry as a segment item: its time ``delta_ns`` earlier,
    a measurement without its delivered value; the entry itself when
    nothing changes."""
    tag = entry[0]
    if tag == REC_MEAS:
        return (REC_MEAS, entry[1], entry[2] - delta_ns)
    if delta_ns and (tag == REC_GATE or tag == REC_RESET):
        return entry[:4] + (entry[4] - delta_ns,)
    return entry


def _model_at(node: TraceNode | None, n: int) -> StabilizerState:
    """A copy of the sign compiler's model tableau at ``node``'s exit
    (a fresh |0...0> above the root), with its signs at zero: the
    compiler reads only the masks the kernel returns, never ``r``."""
    if node is None:
        return StabilizerState(n)
    return node._exit_tableau.copy()


def _compile_sign_node(items: tuple, model: StabilizerState,
                       noise: NoiseModel) -> list:
    """Compile a node's segment into sign-column operations.

    ``model`` is the model tableau at node entry (:func:`_model_at`);
    the device's own kernel advances its x/z in place to the node's
    exit state, and each conjugation's returned flip mask is the op's
    sign effect.  Consecutive gates fold into a single XOR mask — an
    entire gate run costs one integer XOR at replay time.

    When ``noise`` carries gate channels (depolarizing / Pauli), every
    unitary gate additionally compiles a ``_S_NOISE`` site holding the
    (X, Y, Z) sign masks of each touched qubit *after* the gate's
    conjugation: a Pauli injection is sign-only, so the masks are
    shot-invariant constants and the replay merely draws the channel
    rng positionally and XORs the selected mask.  Reset operations get
    no site — the device layer applies no gate noise after a reset.

    Every op carries both operand forms (see ``_S_*``), so the serial
    loop and the bit-plane cohort walker read one list, op for op.
    Serial replay draws one measurement-rng ``random()`` per
    measurement and reset, so the node consumes a fixed number of
    draws, and a random op carries its draw's index among them.
    Classical ops carry their cohort-state locations.
    """
    program: list = []
    draws = 0
    pending = 0

    def flush() -> None:
        nonlocal pending
        if pending:
            program.append((_S_XOR, pending, _set_bits(pending)))
            pending = 0

    def noise_site(qubits: tuple[int, ...]) -> None:
        """One post-gate injection site: masks + channel constants of
        the channels :meth:`NoiseModel.gate_site_specs` selects."""
        channels = dict(noise.gate_site_specs(qubits))
        if not channels:
            return
        dep = channels.get("dep")
        pauli = channels.get("pauli")
        masks = []
        for q in qubits:
            x_flips = model.z[q]
            z_flips = model.x[q]
            masks.append((x_flips, x_flips ^ z_flips, z_flips))
        masks = tuple(masks)
        rows = tuple(tuple(_set_bits(mask) for mask in qubit_masks)
                     for qubit_masks in masks)
        program.append((_S_NOISE, None if dep is None else dep.p, masks,
                        None if pauli is None
                        else (pauli.px, pauli.px + pauli.py,
                              pauli.px + pauli.py + pauli.pz), rows))

    for item in items:
        tag = item[0]
        if tag == REC_GATE:
            qubits = item[2]
            pending ^= model.conjugate(item[1], qubits)
            # Sign XORs commute, so the pending gate flips need no
            # flush — the site only draws the noise rng and XORs masks
            # of its own.
            noise_site(qubits)
        elif tag == REC_RESET or tag == REC_MEAS:
            flush()
            reset = tag == REC_RESET
            qubit = item[2][0] if reset else item[1]
            # The device's projection collapses the model's x/z and
            # returns the masks its sign rules read.  A reset's X
            # correction flips the rows with a Z on the qubit after the
            # collapse; a random op's draw is the index of each shot's
            # coin among the node's measurement draws.
            projected = model.project(qubit)
            target = model.z[qubit] if reset else qubit
            rows = _set_bits(target) if reset else qubit
            if projected is None:
                rowsmask, ghalf = model.deterministic(qubit)
                program.append((_S_RESET_D if reset else _S_MEAS_D,
                                rowsmask, ghalf, target,
                                _set_bits(rowsmask), rows))
            else:
                pivot, tmask, gmask = projected
                program.append((_S_RESET_R if reset else _S_MEAS_R,
                                pivot, pivot - model.n_qubits, tmask,
                                gmask, target, _set_bits(tmask),
                                _set_bits(gmask), draws, rows))
            draws += 1
        elif tag == REC_CLS:
            flush()
            program.append((_S_CLS, item[1], item[2])
                           + (_cohort_effects(item[1], item[2])
                              or (None, None)))
        else:  # REC_FMR
            flush()
            program.append((_S_FMR, item[1], item[2], item[3],
                            (item[1], item[2])))
    flush()
    return program


def _manifest(items: tuple, decision: tuple | None) -> tuple | None:
    """What a cohort walk reads of a node besides its program.

    ``(measured, branch_uses, draws)``: the measured qubits in program
    order, which the wavefront accumulates along its path to key its
    leaf groups; the locations ``decision`` reads (``None`` for an
    MRCE or a leaf); and the node's measurements and resets, a sign
    node's measurement-rng draws.  ``None`` when a micro-op of the
    node has no def/use sets: a cohort cannot tell which values it
    reads, so the node is closed to cohorts (fail closed) — a cohort's
    lanes there go back to the serial path, and a cohort of one
    resumes cycle-accurately at the node's entry.
    """
    measured = []
    draws = 0
    for item in items:
        tag = item[0]
        if tag == REC_CLS and _cohort_effects(item[1], item[2]) is None:
            return None
        if tag == REC_MEAS:
            measured.append(item[1])
        if tag == REC_MEAS or tag == REC_RESET:
            draws += 1
    branch_uses = None
    if decision is not None and decision[0] == _D_BRANCH:
        effects = _cohort_effects(decision[1], decision[2])
        if effects is None:
            return None
        branch_uses = effects[1]
    return tuple(measured), branch_uses, draws


def _set_bits(mask: int) -> tuple:
    """The indices of a mask's set bits, lowest first.

    A compiled row mask becomes the tableau rows a cohort op touches
    (``r ^= mask`` turns into ``planes[row] ^= lanes`` for each row),
    and a lane mask becomes the shot slots it holds.
    """
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _coin_words(streams: list, draws: int) -> list:
    """The coin of each of the first ``draws`` draws of every stream,
    as lane words: bit ``lane`` of word ``d`` is set when draw ``d`` of
    ``streams[lane]`` (``getrandbits(64 * draws)``) is a
    ``random() < 0.5``, i.e. when bit ``64 * d + 31`` is clear.

    One numpy transpose of the streams' bytes replaces a bit probe per
    lane and coin: that bit is the top bit of byte ``8 * d + 3``.
    """
    size = 8 * draws
    raw = np.frombuffer(b"".join([stream.to_bytes(size, "little")
                                  for stream in streams]),
                        dtype=np.uint8).reshape(len(streams), draws, 8)
    heads = np.packbits(raw[:, :, 3] < 0x80, axis=0, bitorder="little")
    data = heads.T.tobytes()
    step = heads.shape[0]
    return [int.from_bytes(data[start:start + step], "little")
            for start in range(0, len(data), step)]


def _cohort_effects(proc_id: int, run) -> tuple | None:
    """A micro-op's ``(defs, uses)`` as cohort-state locations, or
    ``None`` for a micro-op without def/use sets, which closes its
    node to cohorts (:func:`_manifest`)."""
    effects = getattr(run, "effects", None)
    if effects is None:
        return None
    # An op reading one register twice (``add r6, r6, r6``) has one
    # input, not a combination of two.
    return (tuple(dict.fromkeys(_located(proc_id, effects[0]))),
            tuple(dict.fromkeys(_located(proc_id, effects[1]))))


class _DenseBlockCompiler:
    """Incremental GEMM fusion with deferred channel sites.

    Builds one open block operator (matrix + qubit support) out of
    consecutive unitaries, the dense analogue of the sign trace's
    pending XOR mask.  A gate-channel site inside the block is
    *deferred*: its potential Pauli injections are conjugated through
    the rest of the block (``C = R P R†`` with ``R`` the product of
    the block's later unitaries) and emitted as a correction step
    *after* the block — for sites ``j < j'``,
    ``C_j' C_j M = U_m..U_{j'+1} P' U_j'..U_{j+1} P U_j..U_1``, so
    applying corrections in site order is algebraically exact, and
    since each site still performs its own rng draws in program order
    the draw streams stay positionally identical to the device.  This
    is what keeps fusion alive under per-gate channel noise, where a
    naive compiler would have to flush at every gate.

    Emits state-free steps into ``steps``: ``_V_UNITARY`` for a block,
    then one ``_V_CHANNEL`` per deferred site with each site qubit's
    (X, Y, Z) corrections on the block's support.  With ``fuse``
    unset no block ever opens: every unitary is its own step, and a
    site's corrections are the bare Paulis on their own qubits.
    """

    def __init__(self, steps: list, fuse: bool, max_qubits: int) -> None:
        self.steps = steps
        self.fuse = fuse
        self.max_qubits = max_qubits
        self.support: tuple[int, ...] = ()
        self.matrix: np.ndarray | None = None
        #: Deferred sites: (kind, params, site_qubits, prefix, support)
        #: where ``prefix`` is the block operator at the site's
        #: position and ``kind`` is "dep" or "pauli".
        self.sites: list[tuple] = []

    def add_unitary(self, matrix: np.ndarray,
                    qubits: tuple[int, ...]) -> None:
        qubits = tuple(qubits)
        if not self.fuse:
            self.steps.append((_V_UNITARY, matrix, qubits))
            return
        if self.matrix is None:
            self.support, self.matrix = qubits, matrix
            return
        fused = fuse_into(self.matrix, self.support, matrix, qubits,
                          max_qubits=self.max_qubits)
        if fused is not None:
            self.matrix, self.support = fused
        else:
            self.flush()
            self.support, self.matrix = qubits, matrix

    def add_site(self, kind: str, params,
                 qubits: tuple[int, ...]) -> None:
        if self.matrix is None:
            # Nothing open (fusion off): the injection point is the
            # current step, so each correction is the Pauli itself.
            paulis = tuple(cached_unitary(pauli) for pauli in _PAULIS)
            self.steps.append((_V_CHANNEL, kind, params,
                               tuple(((qubit,), paulis)
                                     for qubit in qubits)))
            return
        # The site's gate was just added, so the block is open and
        # contains it; the prefix snapshot pins the injection point.
        self.sites.append((kind, params, qubits, self.matrix,
                           self.support))

    def flush(self) -> None:
        if self.matrix is None:
            return
        block = self.matrix
        support = self.support
        self.steps.append((_V_UNITARY, block, support))
        for kind, params, qubits, prefix, prefix_support in self.sites:
            # R = block @ prefix† (the product of the unitaries after
            # the site); corrections are R P R† per qubit per Pauli.
            lifted = _lift(prefix, prefix_support, support)
            rest = block @ lifted.conj().T
            rest_dag = rest.conj().T
            corrections = tuple(
                (support, tuple(rest @ _lift(cached_unitary(pauli),
                                             (qubit,), support)
                                @ rest_dag for pauli in _PAULIS))
                for qubit in qubits)
            self.steps.append((_V_CHANNEL, kind, params, corrections))
        self.support, self.matrix = (), None
        self.sites = []


def _compile_dense_steps(items: tuple, qpu: SimulatedQPU,
                         busy: dict[int, int],
                         windows: dict[int, tuple[int, int]],
                         fuse: bool = True) -> list:
    """Compile a node's segment into a state-free dense step list.

    The one dense compiler: :func:`_bind_cohort` binds its output,
    so timing, channel selection, ZZ windows and fusion are modelled
    here only.
    ``busy``/``windows`` model :class:`~repro.qpu.device.SimulatedQPU`
    bookkeeping at node entry and are advanced **in place** to the
    node's exit state.  Idle durations and ZZ overlaps are pure
    functions of the recorded issue times, so they become constants;
    the bound steps consume both rngs at exactly the recorded sites,
    preserving bit-identity of every draw and delivered outcome.

    Unitary runs are GEMM-fused through channel sites
    (:class:`_DenseBlockCompiler`), up to the register's
    :func:`~repro.qpu.statevector.fusion_width`, and ZZ windows enter
    the fusion stream as per-pair conditional-phase unitaries; with
    ``fuse`` unset (the amplitude-exactness tests) every gate, channel
    correction and ZZ phase is its own step on its own qubits.
    State-*reading* sites — idle decay (amplitude damping depends on
    the live excited-state probability), resets and measurements —
    always flush the open block.  An unknown gate-channel site kind
    raises (fail closed).
    """
    noise = qpu.noise
    decoherence = noise.decoherence
    zz = noise.zz
    duration_of = qpu.gate_duration_ns
    steps: list = []
    block = _DenseBlockCompiler(steps, fuse,
                                fusion_width(qpu.state.n_qubits))

    def decay_sites(time_ns: int, qubits: tuple[int, ...]) -> None:
        # Mirrors SimulatedQPU._decay_idle, resolving at compile time
        # the idle durations, each qubit's calibrated T1/T2 channel
        # (for_qubit is identity on the uniform channel) and so the
        # decay kernel's constants.
        if decoherence is None:
            return
        for qubit in qubits:
            idle = time_ns - busy.get(qubit, 0)
            if idle > 0:
                block.flush()
                steps.append(
                    (_V_DECAY, qubit)
                    + decoherence.for_qubit(qubit).decay_constants(idle))

    def channel_sites(qubits: tuple[int, ...]) -> None:
        # NoiseModel.gate_site_specs is the one source of truth for
        # channel selection and order, shared with the live device.
        for kind, channel in noise.gate_site_specs(qubits):
            if kind == "dep":
                block.add_site(kind, channel.p, qubits)
            elif kind == "pauli":
                # PauliChannel.apply's cumulative thresholds.
                block.add_site(kind, (channel.px, channel.px + channel.py,
                                      channel.px + channel.py
                                      + channel.pz), qubits)
            else:
                # Fail closed on a site kind this compiler predates
                # (replay_mode admits only dense-compilable models,
                # so this is reached only if the two drift apart).
                raise TraceDivergenceError(
                    f"unknown gate-channel site kind {kind!r}")

    def note_window(time_ns: int, qubits: tuple[int, ...],
                    duration: int) -> None:
        # Mirrors SimulatedQPU._note_window on the model dict —
        # including the expired-window pruning, so a divergence-
        # frontier resume restores exactly the dict the live device
        # would hold; only the triggered per-pair ZZ phases survive
        # into the steps (ZZCrosstalk.window_events is the single
        # shared overlap-accounting implementation).
        expired = [qubit for qubit, (_, stop) in windows.items()
                   if stop <= time_ns]
        for qubit in expired:
            del windows[qubit]
        end = time_ns + duration
        events = (zz.window_events(windows, time_ns, end, qubits)
                  if zz is not None else ())
        for qubit in qubits:
            windows[qubit] = (time_ns, end)
        for left, right, overlap_ns in events:
            # The deterministic conditional phase ZZCrosstalk.apply_pair
            # would apply (elided when exactly zero).
            matrix = zz.pair_unitary(left, right, overlap_ns)
            if matrix is not None:
                block.add_unitary(matrix, (left, right))

    for item in items:
        tag = item[0]
        if tag == REC_GATE or tag == REC_RESET:
            _tag, name, qubits, params, time_ns = item
            duration = duration_of(name, qubits)
            decay_sites(time_ns, qubits)
            for qubit in qubits:
                busy[qubit] = time_ns + duration
            if tag == REC_RESET:
                # The device applies no gate noise after a reset and
                # opens no drive window for it; resets draw the
                # backend rng, so they always flush.
                block.flush()
                steps.append((_V_RESET, qubits[0]))
                continue
            block.add_unitary(cached_unitary(name, params)
                              if len(qubits) == 1
                              else lookup_gate(name).unitary(params),
                              qubits)
            channel_sites(qubits)
            note_window(time_ns, qubits, duration)
        elif tag == REC_MEAS:
            qubit, time_ns = item[1], item[2]
            decay_sites(time_ns, (qubit,))
            busy[qubit] = time_ns + duration_of("measure", (qubit,))
            block.flush()
            # The cohort state applies the readout channel.
            steps.append((_V_MEAS, qubit))
        elif tag == REC_CLS:
            # Classical micro-ops never touch the quantum state, so
            # they need no gate flush; program order within the
            # segment is preserved for everything that matters (the
            # outcome words are only written at measure steps, which
            # do flush).  A micro-op without def/use sets closes the
            # node (:func:`_manifest`), so its step never runs.
            steps.append((_V_CLS, item[2])
                         + (_cohort_effects(item[1], item[2])
                            or (None, None)))
        else:  # REC_FMR
            steps.append((_V_FMR, (item[1], item[2]), item[3]))
    block.flush()
    return steps


class _Cohort:
    """The live shots of one wavefront branch, advanced in lockstep.

    Shot ``slots[b]`` (ascending; ``lanes`` is their mask) is lane
    ``b`` of the amplitude rows on the dense backend
    (:class:`BatchStateVector`, where lanes that drew the same events
    share a row; ``batch`` is ``None`` for a sign cohort, whose
    bit-planes its walk shares between sub-cohorts) and of the two
    seeded rng lists — measurement
    (``_random.Random(seed)``, the generator ``random.Random(seed)``
    wraps) and noise (``random.Random(seed ^ NOISE_SEED_SALT)``;
    ``nrngs`` is ``None`` on an ideal model), the exact per-shot
    streams :meth:`~repro.qpu.device.SimulatedQPU.restart` would
    seed.  A serial dense shot's cohort of one carries the device's
    own rngs after that restart.  Every sub-cohort shares its root's
    classical ``state``; ``take`` is the wavefront partition
    primitive.
    """

    __slots__ = ("batch", "slots", "lanes", "srngs", "nrngs", "state")

    def __init__(self, batch: BatchStateVector | None, slots: list,
                 lanes: int, srngs: list, nrngs: list | None,
                 state: _CohortState | None) -> None:
        self.batch = batch
        self.slots = slots
        self.lanes = lanes
        self.srngs = srngs
        self.nrngs = nrngs
        self.state = state

    @classmethod
    def root(cls, qpu: SimulatedQPU, config: QCPConfig, srngs: list,
             nrngs: list | None) -> "_Cohort":
        """A walk's first cohort on ``qpu``'s substrate: shot ``b`` in
        lane ``b``, drawing ``srngs[b]`` and ``nrngs[b]``."""
        width = len(srngs)
        lanes = (1 << width) - 1
        return cls(qpu.state.make_batch_state(width), list(range(width)),
                   lanes, srngs, nrngs,
                   _CohortState(lanes, config, qpu.noise.readout))

    def take(self, lanes: int) -> "_Cohort":
        """The sub-cohort of ``lanes`` (self when all survive)."""
        if lanes == self.lanes:
            return self
        kept = [lane for lane, slot in enumerate(self.slots)
                if (lanes >> slot) & 1]
        batch, nrngs = self.batch, self.nrngs
        return _Cohort(None if batch is None else batch.take(kept),
                       [self.slots[lane] for lane in kept], lanes,
                       [self.srngs[lane] for lane in kept],
                       None if nrngs is None
                       else [nrngs[lane] for lane in kept], self.state)


class _Frontier:
    """Lanes that left a cohort walk at one node, as the walk left them.

    ``path`` is the walk's path from the root to that node and
    ``edges`` each path node's edge then.  The lanes either stand at
    the entry of ``path[-1]``, a node closed to cohorts (``entered``),
    or ran its program and found no edge for their decision
    (``taken``: the lanes deciding edge 1).  ``ran`` is the path whose
    programs they ran, so its last node (:attr:`node`) holds their
    state at its exit.  ``cohort`` holds the lanes with their rngs
    (and amplitude rows, dense) and shares the walk's
    :class:`_CohortState`; ``planes`` are the walk's sign bit-planes.
    No later sub-cohort writes a departed lane's bits of either, so
    both stay as the lanes left them.  ``measured`` and ``offset``
    are the path's measured qubits and measurement draws so far.
    """

    __slots__ = ("path", "edges", "ran", "entered", "taken", "cohort",
                 "planes", "measured", "offset", "items", "live")

    def __init__(self, node: TraceNode, entered: bool, taken: int,
                 cohort: "_Cohort", planes: list | None,
                 measured: tuple, offset: int) -> None:
        self.path = _ancestry(node)
        self.edges = [step.edge for step in self.path]
        self.ran = self.path[:-1] if entered else self.path
        self.entered = entered
        self.taken = taken
        self.cohort = cohort
        self.planes = planes
        self.measured = measured
        self.offset = offset
        node = self.node
        self.items = None if node is None else node.items
        self.live = None if node is None else node.live

    @property
    def node(self) -> TraceNode | None:
        """The node at whose exit the lanes stand (``None`` above the
        root)."""
        return self.ran[-1] if self.ran else None

    def current(self) -> bool:
        """Whether the trie still holds this frontier as the walk left
        it: the same nodes down the same edges from the root, and
        :attr:`node` with the same items and live set.

        The root never changes once recorded, and nothing evicts it,
        so the path still starts there.  A fold, graft, translation or
        eviction that moves or drops a node gives it a new parent
        (``None`` once unlinked) or a new edge, together with its
        parent's child entry; a live set that grows is a new set.
        Otherwise the walk's path, programs and decisions still hold
        for these lanes.
        """
        parent = None
        for node, edge in zip(self.path, self.edges):
            if node.parent is not parent or node.edge != edge:
                return False
            parent = node
        node = self.node
        return node is None or (node.items is self.items
                                and node.live is self.live)

    def context(self, slot: int, config: QCPConfig) -> _ReplayContext:
        """Lane ``slot``'s replay context at :attr:`node`: its
        delivered bits and outcome stream, its registers and shared
        words, its fold shift, and the device ops its path issued,
        each fired fold's Pauli included.  A sign lane continues in the
        serial loop with it; a dense cohort of one that misses returns
        it as its miss record (:meth:`TraceCache._dense_shot`)."""
        state = self.cohort.state
        ctx = _ReplayContext(config)
        words = state.words
        ctx.delivered = {qubit: (words[qubit] >> slot) & 1
                         for qubit in self.measured}
        ctx.outcomes = state.outcomes(slot)
        for location, partition in state.partitions.items():
            for value, mask in partition.items():
                if (mask >> slot) & 1:
                    if location[0] == LOC_SHARED:
                        ctx.shared.write(location[1], value)
                    else:
                        ctx.proc(location[0]).registers.write(location[1],
                                                              value)
                    break
        ctx.shift_ns = next(shift for shift, mask in state.shifts.items()
                            if (mask >> slot) & 1)
        ctx.skip_ops = (sum(node.devops for node in self.ran)
                        + sum((lanes >> slot) & 1 for lanes in state.fired))
        return ctx

    def signs(self, slot: int) -> int:
        """Lane ``slot``'s packed sign column (bit ``row`` is its bit of
        ``planes[row]``)."""
        r = 0
        for row, plane in enumerate(self.planes):
            if (plane >> slot) & 1:
                r |= 1 << row
        return r


class Handoff:
    """A shot a cohort walk handed back: its ``lane`` and ``seed``, and
    the :class:`_Frontier` it left at, for
    :meth:`TraceCache.replay_handoff`."""

    __slots__ = ("lane", "seed", "frontier")

    def __init__(self, lane: int, seed: int, frontier: _Frontier) -> None:
        self.lane = lane
        self.seed = seed
        self.frontier = frontier


def _batch_channel_step(kind: str, params, appliers: tuple):
    """One cohort step for a stochastic gate-channel site.

    ``appliers`` holds, per site qubit, the (X, Y, Z) correction
    appliers (row-subset capable).  Draw order matches the device:
    each shot consumes its own noise rng exactly as
    ``DepolarizingNoise.apply`` / ``PauliChannel.apply`` would — one
    ``random()`` per qubit (plus one ``choice()`` on a depolarizing
    fire) — qubit-outer so vectorised application groups the fired
    rows per Pauli without reordering any single shot's draws.  A
    lane's event is its Pauli's index plus one (0: none fired), and a
    row whose lanes drew different events splits first
    (:meth:`~repro.qpu.statevector.BatchStateVector.split`).
    """
    if kind == "dep":
        p = params

        def fire(nrngs: list) -> list | None:
            events = None
            for lane, nrng in enumerate(nrngs):
                if nrng.random() < p:
                    if events is None:
                        events = [0] * len(nrngs)
                    events[lane] = 1 + nrng.choice(_PAULI_INDICES)
            return events
    else:  # "pauli"
        cx, cxy, cxyz = params

        def fire(nrngs: list) -> list | None:
            events = None
            for lane, nrng in enumerate(nrngs):
                draw = nrng.random()
                if draw < cxyz:
                    if events is None:
                        events = [0] * len(nrngs)
                    events[lane] = (1 if draw < cx
                                    else 2 if draw < cxy else 3)
            return events

    def step(cohort: _Cohort) -> None:
        batch = cohort.batch
        for triplet in appliers:
            events = fire(cohort.nrngs)
            if events is None:
                continue
            row_events = batch.split(events)[0]
            for event, apply in enumerate(triplet, 1):
                rows = [row for row, drawn in enumerate(row_events)
                        if drawn == event]
                if rows:
                    apply(batch, np.array(rows, dtype=np.intp))
    return step


def _cohort_noise(op: tuple, slots, nrngs: list, planes: list) -> None:
    """One batched ``_S_NOISE`` site over the shots in ``slots``.

    Each shot draws its own noise rng exactly as the serial loop does
    (one ``random()`` per qubit, plus one ``choice()`` on a
    depolarizing fire), and a fired Pauli XORs its lane into the
    bit-planes of its rows.  Fires are rare, so a site costs little
    more than its draws.
    """
    _c, dep_p, _masks, pauli_cum, qubit_rows = op
    if dep_p is not None:
        for triplet in qubit_rows:
            for slot in slots:
                nrng = nrngs[slot]
                if nrng.random() < dep_p:
                    lane = 1 << slot
                    for row in triplet[nrng.choice(_PAULI_INDICES)]:
                        planes[row] ^= lane
    if pauli_cum is not None:
        cx, cxy, cxyz = pauli_cum
        for triplet in qubit_rows:
            for slot in slots:
                draw = nrngs[slot].random()
                if draw < cxyz:
                    lane = 1 << slot
                    for row in triplet[0 if draw < cx
                                       else 1 if draw < cxy else 2]:
                        planes[row] ^= lane


def _collapse_cohort(cohort: _Cohort, qubit: int) -> list:
    """Measure ``qubit`` in every shot of a cohort; the raw outcomes.

    One probability reduction over the cohort's rows replaces
    per-shot scans; each outcome still comes from its shot's own
    measurement rng, and a row whose lanes drew both outcomes splits
    before the collapse.
    """
    batch = cohort.batch
    p_one = batch.probability_of_one(qubit)
    p = p_one.tolist()
    outcomes = [1 if srng.random() < p[row] else 0
                for srng, row in zip(cohort.srngs, batch.index)]
    row_outcomes, origin = batch.split(outcomes)
    batch.collapse(qubit, np.array(row_outcomes), p_one[origin])
    return outcomes


def _bind_cohort(steps: list, n: int) -> list:
    """Bind a dense step list to closures over a :class:`_Cohort`.

    Every operator becomes one ``np.matmul`` call over the cohort's
    distinct amplitude rows, which runs each row's own GEMM
    (:func:`~repro.qpu.statevector.batch_block_applier`);
    measurements become one probability reduction over the rows plus
    per-shot draws and collapse, delivered as one outcome word to the
    cohort's classical state, which also runs the classical steps
    (:class:`_CohortState`); idle decay runs the cohort form of
    the serial kernel
    (:meth:`~repro.qpu.statevector.BatchStateVector.apply_decay`);
    every stochastic site draws each shot's own rngs in serial order
    (qubit-outer, shot-inner), so the cohort is draw-for-draw
    identical per shot-seed.
    """
    program: list = []
    for step in steps:
        code = step[0]
        if code == _V_UNITARY:
            program.append(lambda cohort,
                           a=batch_block_applier(n, step[1], step[2]):
                           a(cohort.batch))
        elif code == _V_CHANNEL:
            appliers = tuple(
                tuple(batch_block_applier(n, matrix, support)
                      for matrix in matrices)
                for support, matrices in step[3])
            program.append(_batch_channel_step(step[1], step[2],
                                               appliers))
        elif code == _V_DECAY:
            program.append(lambda cohort, q=step[1], g=step[2],
                           k=step[3], d=step[4]:
                           cohort.batch.apply_decay(q, g, k, d,
                                                    cohort.srngs,
                                                    cohort.nrngs))
        elif code == _V_RESET:
            flip = batch_block_applier(n, cached_unitary("x"), (step[1],))

            def reset(cohort: _Cohort, q=step[1], flip=flip) -> None:
                outcomes = _collapse_cohort(cohort, q)
                # The rows after the collapse's split: one outcome each.
                index = cohort.batch.index
                ones = {index[lane] for lane, outcome
                        in enumerate(outcomes) if outcome}
                if ones:
                    flip(cohort.batch, np.array(sorted(ones),
                                                dtype=np.intp))
            program.append(reset)
        elif code == _V_MEAS:
            def measure(cohort: _Cohort, q=step[1]) -> None:
                raw = 0
                for slot, outcome in zip(cohort.slots,
                                         _collapse_cohort(cohort, q)):
                    if outcome:
                        raw |= 1 << slot
                cohort.state.deliver(q, raw, cohort)
            program.append(measure)
        elif code == _V_CLS:
            program.append(lambda cohort, run=step[1], defs=step[2],
                           uses=step[3]: cohort.state.execute(
                               run, defs, uses, cohort.lanes))
        else:  # _V_FMR
            program.append(lambda cohort, location=step[1], q=step[2]:
                           cohort.state.fetch(location, q, cohort.lanes))
    return program


def replay_mode(backend: str, noise: NoiseModel | None) -> str | None:
    """The compiled replay representation of a ``backend`` substrate
    under ``noise`` (``None``: ideal).

    ``"signs"`` (the sign trace, :meth:`TraceNode.sign_program`) on
    the stabilizer tableau under Pauli-only noise; ``"dense"`` (the
    noise-site program, :meth:`TraceNode.dense_program`, run by
    cohorts — a serial shot is a cohort of one) on the statevector
    under ideal or dense-compilable noise; ``None`` for
    every other substrate, which the shot engine then runs
    cycle-accurately — fail closed, since both noise predicates are
    allow-lists.  ``noise`` is the device's whole model, a device
    profile's channels composed over the base.  The shot engine
    evaluates this once and stores it on its :class:`TraceCache`,
    where the replay dispatch reads it; the service asks it whether a
    job's engines replay before any engine exists.
    """
    if backend == "stabilizer":
        return "signs" if noise is None or noise.is_pauli_only else None
    if backend == "statevector" and (noise is None
                                     or noise.is_dense_compilable):
        return "dense"
    return None


def cohort_width(backend: str, n_qubits: int) -> int:
    """Width of one batched-replay cohort on ``backend`` at ``n_qubits``.

    A stabilizer cohort's bit-plane row is one Python int with a bit
    per shot; at 256 bits an integer XOR is still effectively free
    while the per-segment dispatch overhead is spread over 256 shots,
    so the cohort is 256.  Dense (``"statevector"``) cohorts hold one
    amplitude row per distinct lane state, so their width is capped
    for the worst case, every lane distinct: ``width`` rows of ``2^n``
    complex amplitudes stay around a few hundred megabytes.  The
    engine replays in cohorts of this width (:func:`auto_batch_width`),
    and the service sizes a job's shards from it before any engine
    exists.
    """
    if backend == "statevector":
        return min(64, max(1, (1 << 23) >> n_qubits))
    return 256


def auto_batch_width(qpu: SimulatedQPU) -> int:
    """:func:`cohort_width` of ``qpu``'s substrate."""
    return cohort_width(qpu.state.backend_name, qpu.state.n_qubits)


class RecordingQPU:
    """The one device proxy of a simulator run: it records the run's
    backend-op stream and skips a t = 0 re-run's replayed prefix.

    Wraps a :class:`~repro.qpu.device.SimulatedQPU`; every attribute
    not intercepted here delegates to it, so the control stack drives
    the proxy exactly like the real device.  Backend operations and
    measurement samples are appended — with their issue times, which
    the noise-site compiler needs — to the shared chronological
    ``recorded`` stream, interleaved with the classical entries the
    processor recording hooks contribute.

    A run that resumes a missed shot from t = 0 passes the shot's
    context's ``skip_ops`` and ``outcomes``: the device's state, rng
    positions and bookkeeping are already at the frontier, so the
    first ``skip_ops`` operations the control stack issues are recorded
    but not applied, and prefix measurements return the delivered bits
    in order.  Once the prefix is exhausted every call passes through,
    simulating only the divergent suffix.
    """

    def __init__(self, inner, recorded: list, skip_ops: int = 0,
                 outcomes=()) -> None:
        self._inner = inner
        self.recorded = recorded
        self._skip = skip_ops
        self._outcomes = iter(outcomes)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def apply_gate(self, time_ns: int, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        if self._skip:
            self._skip -= 1
        else:
            self._inner.apply_gate(time_ns, gate, qubits, params)
        definition = lookup_gate(gate)
        if definition.is_reset:
            self.recorded.append((REC_RESET, "reset", (qubits[0],), (),
                                  time_ns))
        else:
            self.recorded.append((REC_GATE, definition.name,
                                  tuple(qubits), tuple(params), time_ns))

    def measure(self, time_ns: int, qubit: int) -> int:
        if self._skip:
            self._skip -= 1
            outcome = next(self._outcomes, None)
            if outcome is None:
                raise TraceDivergenceError(
                    "checkpoint prefix re-issued more measurements "
                    "than the replay delivered; the recorded trace "
                    "and the re-run disagree on the op stream")
        else:
            outcome = self._inner.measure(time_ns, qubit)
        self.recorded.append((REC_MEAS, qubit, time_ns, outcome))
        return outcome

    def reset(self, time_ns: int, qubit: int) -> None:
        self.apply_gate(time_ns, "reset", (qubit,))


def _ancestry(node: TraceNode | None) -> list:
    """``node`` and its ancestors, root first (empty for ``None``)."""
    chain = []
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()
    return chain


class TraceRecorder:
    """One simulator run's insertion into the trie, segment by segment.

    The control stack and :class:`RecordingQPU` append to ``stream``.
    The recorder consumes it at every quiet MRCE the run reaches
    (:meth:`quiet`, the :attr:`QuAPESystem.on_quiet
    <repro.qcp.system.QuAPESystem.on_quiet>` hook of a folding engine)
    and when the run ends (:meth:`finish`).  The walk verifies the
    nodes it passes, fills the unexplored ones and keeps every time on
    the identity arms' clock: ``shift`` is the δ of the folds the shot
    took, and ``pauli`` the fold whose Pauli arm the open segment
    follows, re-checked when it closes.

    A run starts at the root (a cold shot, or a t = 0 resume) or at a
    restart node with the shot's context ``base``.  ``fork`` is the
    decision where the walk last left the recorded trie, with the
    shift before it and the outcomes taken since; it is offered to
    :meth:`TraceCache._fold` once its new arm is closed.
    """

    __slots__ = ("cache", "stream", "read", "node", "items", "path",
                 "classical", "shift", "pauli", "fork", "base", "restart",
                 "handover")

    def __init__(self, cache: TraceCache, node: TraceNode, shift: int = 0,
                 base: _ReplayContext | None = None) -> None:
        self.cache = cache
        self.stream: list = []
        #: Stream entries consumed so far.
        self.read = 0
        #: The node whose segment is open.
        self.node = node
        #: The open segment's entries (see :func:`_shifted`).
        self.items: list = []
        #: (node, newly recorded) from the root down, open node excluded.
        self.path = [(ancestor, False) for ancestor in _ancestry(node.parent)]
        #: The path holds a classical entry: no snapshots below it.
        self.classical = False
        self.shift = shift
        self.pauli: _Fold | None = None
        self.fork: list | None = None
        self.base = base
        #: (snapshot, now, delivered) when the run restarts from a node.
        self.restart: tuple | None = None
        #: (child, context, packed signs) once the shot is handed back
        #: to replay.
        self.handover: tuple | None = None

    @classmethod
    def start(cls, cache: TraceCache,
              missed: _ReplayContext | None) -> "TraceRecorder":
        """The recorder of one simulator run for a shot that missed.

        ``missed`` is what the replay returned: ``None`` for a cold
        shot, else the shot's replay context at the miss.  A miss at a
        node (``missed.node``) with a control-stack snapshot restarts
        there: ``restart`` holds ``(snapshot, now, delivered)`` for
        :meth:`QuAPESystem.restore
        <repro.qcp.system.QuAPESystem.restore>`, ``now`` being the
        node's decision time on the shot's own clock.  Every other run
        starts at the root, cold or as a t = 0 resume whose
        :class:`RecordingQPU` skips the context's prefix.
        """
        node = None if missed is None else missed.node
        if (node is not None and node.snapshot is not None
                and missed.pauli is None):
            recorder = cls(cache, node, missed.shift_ns, missed)
            recorder.restart = (node.snapshot,
                                node.decision_ns + missed.shift_ns,
                                missed.delivered)
            cache.restarts += 1
            return recorder
        if cache.root is None:
            cache.root = TraceNode()
            cache.nodes += 1
        cache._touch(cache.root)
        return cls(cache, cache.root)

    # -- consuming the stream ----------------------------------------------

    def _feed(self) -> None:
        """Consume the stream's new entries into the open segment,
        closing a node at each decision."""
        stream = self.stream
        items = self.items
        shift = self.shift
        for index in range(self.read, len(stream)):
            entry = stream[index]
            tag = entry[0]
            if tag == REC_DEC:
                self.classical = True
                self._close((_D_BRANCH, entry[1], entry[2]), entry[3])
            elif tag == REC_MDEC:
                self._close((_D_MRCE, entry[1], entry[3]), entry[2],
                            entry[4] - shift, entry[5])
            else:
                if tag == REC_CLS or tag == REC_FMR:
                    self.classical = True
                items.append(_shifted(entry, shift))
                continue
            items = self.items
            shift = self.shift
        self.read = len(stream)

    def _close(self, decision: tuple | None, outcome: int | None = None,
               time_ns: int | None = None, quiet: tuple | None = None,
               total_ns: int | None = None) -> None:
        """Close the open segment at a decision (``None``: the leaf,
        with the run's ``total_ns``) and open the outcome's child."""
        node = self.node
        items = self.items
        fresh = node.items is None
        self.path.append((node, fresh))
        if fresh:
            node.items = tuple(items)
            node.decision = decision
            node.decision_ns = time_ns
            node.quiet = quiet
            node.devops = sum(1 for item in items
                              if item[0] != REC_CLS and item[0] != REC_FMR)
            if decision is None:
                node.total_ns = total_ns - self.shift
        elif not _same_decision(node.decision, decision):
            raise TraceDivergenceError(
                f"shot reached decision {decision!r} where the trie "
                f"recorded {node.decision!r}; execution is not "
                "decision-deterministic")
        elif self.pauli is not None:
            # Re-check the fold whose Pauli arm this shot took.
            if decision is None:
                translated = node.total_ns == total_ns - self.shift
            else:
                translated = ((node.decision_ns, node.quiet)
                              == (time_ns, quiet))
            if not translated or _op_keys(items) != (
                    [self.pauli.op] + _op_keys(node.items)):
                raise TraceDivergenceError(
                    "a shot on the Pauli arm of a folded MRCE is not "
                    "the identity arm plus the Pauli, shifted by the "
                    "fold's delta; the fold rule does not hold")
        self.items = []
        self.pauli = None
        if decision is None:
            return
        shift = self.shift
        self.node = child = self._step(node, outcome)
        if self.fork is not None:
            self.fork[2].append(outcome)
        elif not fresh and child.items is None:
            self.fork = [node, shift, [outcome]]

    def _step(self, node: TraceNode, outcome: int) -> TraceNode:
        """The child a recorded outcome leads to from ``node``.

        A fold's Pauli arm leads into the identity arm, ``δ`` later,
        with the Pauli first in the open segment; a new edge gets an
        unexplored child.
        """
        fold = node.fold
        if fold is not None and outcome == fold.edge:
            self.pauli = fold
            self.shift += fold.delta_ns
            outcome ^= 1
        cache = self.cache
        child = node.children.get(outcome)
        if child is None:
            child = TraceNode()
            child.parent = node
            child.edge = outcome
            node.children[outcome] = child
            cache.nodes += 1
        cache._touch(child)
        return child

    # -- quiet decisions -----------------------------------------------------

    def quiet(self, system) -> bool:
        """The run stands at a quiet MRCE, its decision entry recorded.

        Closes the segment; a freshly recorded node on a path without
        classical entries keeps the control-stack snapshot.  Once the
        fork's new arm is closed, the fork is offered to
        :meth:`TraceCache._fold` (live sets grown first).  A fold may
        move the shot's decision into the identity arm: the walk is
        re-done from the fork, and if the trie now holds the shot's
        next segment the shot is handed back to replay.  Returns
        whether it was: the run then stops here.
        """
        self._feed()
        node, fresh = self.path[-1]
        if fresh and not self.classical:
            node.snapshot = system.snapshot()
        fork = self.fork
        if fork is None or len(fork[2]) < 2:
            return False
        cache = self.cache
        if self.classical:
            self._grow_live()
        folds = cache.folds
        cache._fold(fork[0])
        if cache.folds == folds:
            self.fork = None
            return False
        decision = self._relocate()
        return (self.node.items is not None
                and self._hand_over(system, decision))

    def _grow_live(self) -> None:
        """Grow the live sets along the path so far; later walks treat
        its nodes as recorded before (see :meth:`TraceCache._grow_live`)."""
        self.cache._grow_live(self.path)
        self.path = [(node, False) for node, _fresh in self.path]

    def _relocate(self) -> TraceNode:
        """Re-walk the outcomes since the fork after a fold grafted
        below it; returns the decision node the shot now stands at."""
        node, self.shift, outcomes = self.fork
        for outcome in outcomes:
            decision = node
            shift = self.shift
            self.pauli = None
            node = self._step(node, outcome)
        self.node = node
        self.path = [(ancestor, False) for ancestor in _ancestry(decision)]
        self.fork = [decision, shift, [outcome]] if node.items is None \
            else None
        return decision

    def _hand_over(self, system, node: TraceNode) -> bool:
        """Hand the shot back to replay below ``node``; false to run on
        (fail closed) when the live state is not the trie's there.

        The checks: the live quiet signature is ``node``'s, and the live
        tableau's x/z is ``node``'s compile-time exit model.  The
        hand-over context then holds the shot's delivered bits and
        outcome stream, its device-op count (so a later t = 0 resume
        stays aligned), the live registers and shared words, and
        ``shift_ns``, the live decision time minus ``node``'s.
        :meth:`TraceCache._epilogue` selects the edge.
        """
        cache = self.cache
        stream = self.stream
        _tag, _qubit, _value, _target, time_ns, quiet = stream[-1]
        if quiet != node.quiet:
            return False
        qpu = system.qpu
        state = qpu.state
        exit_x, exit_z = cache._exit_model(node, state, qpu.noise)
        if tuple(state.x) != exit_x or tuple(state.z) != exit_z:
            return False
        ctx = _ReplayContext(cache.config)
        base = self.base
        if base is not None:
            ctx.delivered.update(base.delivered)
            ctx.outcomes.extend(base.outcomes)
            ctx.skip_ops = base.skip_ops
        for entry in stream:
            tag = entry[0]
            if tag == REC_MEAS:
                ctx.deliver(entry[1], entry[3])
                ctx.skip_ops += 1
            elif tag == REC_GATE or tag == REC_RESET:
                ctx.skip_ops += 1
        ctx.shared = system.shared.copy()
        for core in system.processors:
            ctx.proc(core.proc_id).registers = core.registers.copy()
        ctx.shift_ns = time_ns - node.decision_ns
        ctx.simulated = True
        child = cache._epilogue(node, ctx)
        if child is None:
            return False
        self.handover = (child, ctx, state.r)
        cache.rejoins += 1
        return True

    def finish(self, total_ns: int) -> None:
        """The run ended: close the leaf, grow live sets along the path
        and offer a pending fork to :meth:`TraceCache._fold`."""
        self._feed()
        self._close(None, total_ns=total_ns)
        cache = self.cache
        if self.classical:
            cache._grow_live(self.path)
        if cache.folding and self.fork is not None:
            cache._fold(self.fork[0])


class TraceCache:
    """Trie of recorded shot traces keyed by control-flow decisions.

    Public counters: ``hits`` (full trie replays), ``misses`` (shots
    that needed the cycle-accurate simulator, cold or resumed),
    ``resumes`` (the subset of misses that restarted from the
    divergence frontier instead of from scratch), ``nodes`` (live trie
    nodes), ``evictions`` (nodes dropped by the LRU bound), ``folds``
    (MRCE decisions folded, see "Pauli-arm folds" above), ``restarts``
    (simulator runs started from a node's control-stack snapshot) and
    ``rejoins`` (runs stopped to hand their shot back to replay, see
    "Restart and rejoin at quiet decisions" above).  A shot counts one
    hit or one miss, however often it rejoined.
    Batched replay (:meth:`replay_batch`) adds ``batched_shots`` (the
    subset of hits completed by a wavefront cohort),
    ``wavefront_splits`` (cohort partitions at decision points) and
    ``serial_fallbacks`` (shots a wavefront handed back to the serial
    per-shot path — divergences off the cached trie plus nodes closed
    to cohorts); the cohort of one that serves a serial dense shot
    counts none of them.  Each fallback is one of ``handoffs`` (shots
    :meth:`replay_handoff` resumed at their own frontier) or
    ``rewalks`` (shots whose frontier went stale first, replayed from
    the root).
    """

    def __init__(self, config: QCPConfig, mode: str,
                 n_processors: int) -> None:
        self.config = config
        #: The engine's :func:`replay_mode`: ``"signs"`` or ``"dense"``.
        self.mode = mode
        #: Whether Pauli-arm MRCE decisions fold: sign traces on one
        #: scalar core without fast context switch, where a quiet
        #: decision's future is a pure time translate.
        self.folding = (mode == "signs" and n_processors == 1
                        and not config.is_superscalar
                        and not config.fast_context_switch)
        self.root: TraceNode | None = None
        self.max_nodes = config.trace_cache_max_nodes
        self.hits = 0
        self.misses = 0
        self.resumes = 0
        self.nodes = 0
        self.evictions = 0
        self.folds = 0
        self.restarts = 0
        self.rejoins = 0
        self.batched_shots = 0
        self.wavefront_splits = 0
        self.serial_fallbacks = 0
        self.handoffs = 0
        self.rewalks = 0
        #: Measurement-rng draws each sign-cohort shot takes up front:
        #: the draw count of the last path a cohort completed.  Any
        #: value is exact; a short stream is topped up on the way.
        self.stream_draws = 0
        self._tick = 0
        #: Every non-root node, least recently touched first (amortized
        #: LRU).  The root is covered by the current-path rule (its
        #: stamp always equals the newest tick) and has no parent edge
        #: to detach anyway.
        self._lru: OrderedDict[TraceNode, None] = OrderedDict()

    def _touch(self, node: TraceNode) -> None:
        """Stamp ``node`` and move it to the recent end — O(1)."""
        node.last_used = self._tick
        if node.parent is not None:
            try:
                self._lru.move_to_end(node)
            except KeyError:  # a new node
                self._lru[node] = None

    # -- replay ------------------------------------------------------------

    def replay(self, qpu: SimulatedQPU, seed: int
               ) -> tuple[dict[int, int], int] | _ReplayContext | None:
        """Replay one shot through the trie.

        Clears the per-shot device logs, restarts/reseeds ``qpu``
        (measurement *and* noise rng) and walks the trie: backend
        segments run through the node programs of the cache's
        ``mode``, measurements execute live so each shot draws its own
        outcomes, classical micro-ops run against a register facade,
        and each decision is re-computed from this shot's own
        delivered bits to pick the next edge.

        Returns ``(last result per qubit, total ns)`` on a full hit;
        the shot's :class:`_ReplayContext` on a divergence-frontier
        miss, with the device at the frontier (the caller re-runs the
        cycle-accurate simulation behind a :class:`RecordingQPU` that
        skips the context's prefix, or restarts at its ``node``, and
        records the new branch); or ``None`` when the trie is cold
        (first shot ever) — the caller then restarts the QPU itself and
        simulates from scratch.
        """
        # One tick per shot: the recorder and a rejoined replay stamp
        # the nodes they touch with it, so the LRU bound spares them.
        self._tick += 1
        node = self.root
        if node is None or node.items is None:
            self.misses += 1
            return None
        qpu.operation_log.clear()
        qpu.timing_violations.clear()
        qpu.restart(seed=seed)
        if self.mode == "signs":
            return self._replay_signs(node, qpu)
        # A dense shot is a cohort of one that draws the device's own
        # rngs, so on a miss both are already at the frontier.
        cohort = _Cohort.root(qpu, self.config, [qpu.state.rng],
                              None if qpu.noise.is_ideal
                              else [qpu.noise.rng])
        groups: list = []
        left: list = []
        self._replay_cohort(node, qpu, cohort, groups, left)
        return self._dense_shot(qpu, cohort, groups, left)

    def _dense_shot(self, qpu: SimulatedQPU, cohort: _Cohort,
                    groups: list, left: list
                    ) -> tuple[dict[int, int], int] | _ReplayContext:
        """The end of a dense cohort of one's walk on the device's
        rngs: its result from its leaf group, or its lane's context at
        the :class:`_Frontier` where it left."""
        if groups:
            ((_lane, (measured, bits), total_ns),) = groups
            return ({qubit: (bits >> index) & 1
                     for index, qubit in enumerate(measured)}, total_ns)
        # Move the frontier into the live device: its amplitudes, and
        # the bookkeeping the resumed cycle-accurate suffix reads (idle
        # gaps, ZZ windows), which the device's restart cleared.
        (frontier,) = left
        qpu.state.restore(cohort.batch.lane(0))
        node = frontier.node
        if node is not None:
            qpu._busy_until.update(node._exit_busy)
            qpu._windows.update(node._exit_windows)
        self.misses += 1
        self.resumes += 1
        return frontier.context(cohort.slots[0], self.config)

    def _epilogue(self, node: TraceNode,
                  ctx: _ReplayContext) -> "TraceNode | object | None":
        """The decide/hit/resume tail of the serial sign loop, shared
        with the recorder's hand-over back to it
        (:meth:`TraceRecorder._hand_over`).

        Re-computes the node's recorded decision from this shot's own
        state (:func:`_decide`) and returns the child
        :class:`TraceNode` to continue into, the :data:`_HIT` sentinel
        when the shot completed at a recorded leaf (hit counted here),
        or ``None`` on a trie miss: the sign loop then materializes the
        frontier tableau and returns the shot's context
        (:meth:`_sign_miss`).

        At a folded decision the Pauli arm continues in the identity
        arm's child: the epilogue adds the fold's ``δ`` to the shot's
        time offset, counts the Pauli in ``skip_ops`` and leaves the
        fold in ``ctx.pauli`` for the sign loop to replay first.

        This epilogue and its cohort counterpart
        (:meth:`_split_cohort`) are the only places a replay selects
        an edge; keeping them in one place each is what the
        differential fuzzing suite leans on.
        """
        decision = node.decision
        if decision is None:
            if not ctx.simulated:
                self.hits += 1
            return _HIT
        edge = _decide(decision, ctx)
        fold = node.fold
        if fold is not None and edge == fold.edge:
            ctx.pauli = fold
            ctx.shift_ns += fold.delta_ns
            ctx.skip_ops += 1
            edge ^= 1
        child = node.children.get(edge)
        if child is None or child.items is None:
            return None
        return child

    def _replay_signs(self, node: TraceNode, qpu: SimulatedQPU,
                      ctx: _ReplayContext | None = None, r: int = 0
                      ) -> tuple[dict[int, int], int] | _ReplayContext:
        """Replay via the compiled sign-trace (stabilizer backends).

        The whole quantum side of a segment reduces to integer bit
        operations on the packed sign column ``r``; only rng draws
        (measurement *and* positional noise), delivered outcomes and
        the classical facade remain dynamic.  On a miss, the frontier
        tableau is materialized into the live backend — x/z from the
        node's compile-time exit model, signs from ``r`` — so the
        resumed cycle-accurate run continues from the checkpoint.

        A shot that rejoins the trie (:meth:`rejoin`) enters at the
        hand-over child with its context and the live packed signs
        ``r``.
        """
        state: StabilizerState = qpu.state
        noise = qpu.noise
        corrupt = noise.corrupt_readout
        nrng = noise.rng
        rng = state.rng.random
        if ctx is None:
            ctx = _ReplayContext(self.config)
        delivered = ctx.delivered
        outcomes = ctx.outcomes
        while True:
            self._touch(node)
            ctx.skip_ops += node.devops
            program = node.sign_program(state, noise)[0]
            if ctx.pauli is not None:
                # Entered on a fold's Pauli arm: the Pauli comes first.
                program = ctx.pauli.sign_program(node.parent, state,
                                                 noise) + program
                ctx.pauli = None
            # Branches in order of frequency on noisy surface memories.
            for op in program:
                code = op[0]
                if code == _S_NOISE:
                    _c, dep_p, masks, pauli_cum, _rows = op
                    if dep_p is not None:
                        for qubit_masks in masks:
                            if nrng.random() < dep_p:
                                r ^= qubit_masks[
                                    nrng.choice(_PAULI_INDICES)]
                    if pauli_cum is not None:
                        cx, cxy, cxyz = pauli_cum
                        for qubit_masks in masks:
                            draw = nrng.random()
                            if draw < cx:
                                r ^= qubit_masks[0]
                            elif draw < cxy:
                                r ^= qubit_masks[1]
                            elif draw < cxyz:
                                r ^= qubit_masks[2]
                elif code == _S_MEAS_D or code == _S_RESET_D:
                    raw = ((r & op[1]).bit_count() + op[2]) & 1
                    rng()
                    if code == _S_MEAS_D:
                        value = corrupt(raw, op[3])
                        delivered[op[3]] = value
                        outcomes.append(value)
                    elif raw:
                        # A |1> outcome's X correction flips every
                        # zmask row.
                        r ^= op[3]
                elif code == _S_MEAS_R or code == _S_RESET_R:
                    (_c, pivot, pm, tmask, gmask, target,
                     _t_rows, _g_rows, _draw, _target) = op
                    raw = 1 if rng() < 0.5 else 0
                    if (r >> pivot) & 1:
                        r ^= gmask ^ tmask
                        r |= 1 << pm
                    else:
                        r ^= gmask
                        r &= ~(1 << pm)
                    if raw:
                        r |= 1 << pivot
                    else:
                        r &= ~(1 << pivot)
                    if code == _S_MEAS_R:
                        value = corrupt(raw, target)
                        delivered[target] = value
                        outcomes.append(value)
                    elif raw:
                        # Collapsed to |1>: the X correction flips the
                        # sign of every row with a Z on the qubit,
                        # the fresh +Z_qubit pivot row included.
                        r ^= target
                elif code == _S_XOR:
                    r ^= op[1]
                elif code == _S_CLS:
                    op[2](ctx.proc(op[1]))
                else:  # _S_FMR: this shot's own delivered bit
                    ctx.proc(op[1]).registers.write(op[2], delivered[op[3]])
            nxt = self._epilogue(node, ctx)
            if nxt is _HIT:
                return delivered, node.total_ns + ctx.shift_ns
            if nxt is None:
                return self._sign_miss(node, state, ctx, r)
            node = nxt

    def _sign_miss(self, node: TraceNode, state: StabilizerState,
                   ctx: _ReplayContext, r: int) -> _ReplayContext:
        """A serial sign shot found no edge at ``node``.

        Materializes the frontier tableau — x/z from the node's exit
        model, signs from the packed column ``r`` — with both rngs
        already at their frontier positions, counts the miss and
        returns the shot's context, its ``node`` set.
        """
        model = node._exit_tableau
        state.restore((model.x, model.z, r))
        if not ctx.simulated:
            ctx.simulated = True
            self.misses += 1
            self.resumes += 1
        # No copy: nothing appends to a shot's outcomes once it has
        # missed, so the re-run's proxy reads them in place.
        ctx.node = node
        return ctx

    # -- batched (wavefront) replay ----------------------------------------

    def replay_batch(self, qpu: SimulatedQPU, seeds: list
                     ) -> tuple[list, int]:
        """Replay a cohort of shot seeds through the trie at once.

        The trie is traversed as a **wavefront**
        (:meth:`_replay_cohort`): every compiled segment executes once
        for all live shots — integer bit-plane XORs on stabilizer
        substrates, batch GEMMs on dense ones — while every shot draws
        its own seeded rngs (the exact streams ``qpu.restart(seed)``
        would produce; a sign cohort takes each shot's measurement
        draws in one ``getrandbits``), and each decision partitions the
        cohort across child edges.  Shot ``seeds[lane]`` is lane
        ``lane``.  The trie must hold a recorded root: the engine
        runs a cold trie's first seed alone
        (:meth:`~repro.qcp.shots.ShotEngine.run_range`).

        Returns ``(groups, left)``.  ``groups`` holds one ``(lanes,
        key, total_ns)`` per leaf group: the lanes a wavefront
        completed at a recorded leaf with the same :data:`OutcomeKey`
        and duration, each bit-identical per shot-seed to
        :meth:`replay`.  ``left`` holds a :class:`Handoff` per lane
        that left the cached trie or reached a node closed to cohorts,
        in lane order: the caller serves each through
        :meth:`replay_handoff`, which resumes it where it left, and
        the serial per-shot path, which records new paths as usual.
        The live QPU's state and rngs are never touched — cohorts
        carry their own — but its per-shot logs are cleared, as any
        serial replay would.
        """
        groups: list = []
        self._tick += 1
        # Per-shot device logs describe the *last* simulated shot; a
        # batched pass supersedes it just like a serial replay (which
        # clears them before restarting), so stale entries must not
        # survive the cohort.
        qpu.operation_log.clear()
        qpu.timing_violations.clear()
        # Lane measurement rngs are ``_random.Random``: the generator
        # ``random.Random`` wraps, seeded alike from an int and cheaper
        # to construct.  Noise rngs stay ``random.Random``, whose
        # ``choice`` depolarizing sites draw.  Channel firings, readout
        # flips and dephasing are the only noise-rng consumers; an
        # ideal substrate never draws them, so skip the per-shot
        # Mersenne seeding.
        frontiers: list = []
        self._replay_cohort(self.root, qpu, _Cohort.root(
            qpu, self.config, [_random.Random(seed) for seed in seeds],
            None if qpu.noise.is_ideal else
            [random.Random(seed ^ NOISE_SEED_SALT) for seed in seeds]),
            groups, frontiers)
        # Every shot ends in a leaf group or leaves the cohort at a
        # frontier, to be served in lane order.
        left = [Handoff(slot, seeds[slot], frontier)
                for frontier in frontiers for slot in frontier.cohort.slots]
        left.sort(key=lambda handoff: handoff.lane)
        self.batched_shots += len(seeds) - len(left)
        self.serial_fallbacks += len(left)
        return groups, left

    def replay_handoff(self, qpu: SimulatedQPU, handoff: Handoff
                       ) -> tuple[dict[int, int], int] | _ReplayContext:
        """Serve a shot :meth:`replay_batch` handed back, as
        :meth:`replay` would serve its seed.

        The shot resumes where its lane left the walk, with the state
        the walk computed for it.  The device takes that state: its
        measurement rng reseeded and advanced past the lane's draws
        (``getrandbits(64 * offset)`` leaves a Mersenne Twister where
        ``offset`` ``random()`` calls do), the lane's live noise rng
        itself, and on the dense backend the lane's measurement rng
        state.  A sign lane then continues in :meth:`_replay_signs`
        with its context (:meth:`_Frontier.context`) and packed sign
        column: at a missing edge after :meth:`_epilogue`, which
        returns the edge an earlier shot recorded since or leads to
        the miss, and at a node closed to cohorts from its entry.  A
        dense lane continues as a cohort of one on the device's rngs,
        as :meth:`replay` does.  Its path is stamped as a replay from
        the root would stamp it, so LRU order and every counter are
        the same as that replay's; ``handoffs`` counts it.

        An earlier shot's recording may have moved the frontier (a
        fold, graft, translation or eviction) or grown its live set
        (:meth:`_Frontier.current`): the shot is then replayed from the
        root (:meth:`replay`), counted in ``rewalks``.
        """
        frontier = handoff.frontier
        if not frontier.current():
            self.rewalks += 1
            return self.replay(qpu, handoff.seed)
        self.handoffs += 1
        self._tick += 1
        for node in frontier.ran:
            self._touch(node)
        qpu.operation_log.clear()
        qpu.timing_violations.clear()
        qpu.restart()  # per-shot device bookkeeping; rngs are set below
        lane = frontier.cohort.take(1 << handoff.lane)
        if lane.nrngs is not None:
            qpu.noise.rng = lane.nrngs[0]
        rng = qpu.state.rng
        node = frontier.path[-1]
        if self.mode == "signs":
            rng.seed(handoff.seed)
            if frontier.offset:
                rng.getrandbits(64 * frontier.offset)
            ctx = frontier.context(handoff.lane, self.config)
            r = frontier.signs(handoff.lane)
            if not frontier.entered:
                nxt = self._epilogue(node, ctx)
                if nxt is None:
                    return self._sign_miss(node, qpu.state, ctx, r)
                node = nxt
            return self._replay_signs(node, qpu, ctx, r)
        rng.setstate((rng.VERSION, lane.srngs[0].getstate(), None))
        lane.srngs = [rng]
        groups: list = []
        left: list = []
        if frontier.entered:
            self._replay_cohort(node, qpu, lane, groups, left,
                                frontier.measured)
        else:
            edges = self._split_cohort(node, lane,
                                       frontier.taken & lane.lanes)
            for child, sub in edges:
                self._replay_cohort(child, qpu, sub, groups, left,
                                    frontier.measured)
            if not edges:
                left.append(frontier)
        return self._dense_shot(qpu, lane, groups, left)

    def _split_cohort(self, node: TraceNode, cohort: _Cohort,
                      taken: int) -> list:
        """Partition a cohort across its node's decision edges.

        The one edge selection of the cohort walker.  ``taken`` holds
        the lanes whose decision took edge 1.  Lanes whose edge leads
        off the cached trie get no edge: they leave the walk here.  A
        cohort that divides across continuations counts
        ``wavefront_splits``.  Returns ``[(child, sub_cohort)]`` for
        the surviving sub-cohorts in push order — the edge of the
        cohort's first slot first.  A folded node does not split:
        every lane continues in the identity arm (the walker has
        replayed the Pauli-arm lanes' Pauli).
        """
        lanes = cohort.lanes
        if node.fold is not None:
            taken = 0 if node.fold.edge else lanes
        edges = []
        fallback = 0
        first = 1 if taken & lanes & -lanes else 0
        for outcome in (first, first ^ 1):
            mask = taken if outcome else lanes & ~taken
            if not mask:
                continue
            child = node.children.get(outcome)
            if child is None or child.items is None:
                fallback = 1
            else:
                edges.append((child, cohort.take(mask)))
        parts = len(edges) + fallback
        if parts > 1:
            self.wavefront_splits += parts - 1
        return edges

    def _replay_cohort(self, root: TraceNode, qpu: SimulatedQPU,
                       cohort: _Cohort, groups: list, left: list,
                       measured: tuple = ()) -> None:
        """The wavefront walk of a cohort, sign or dense, from ``root``.

        ``cohort`` is the walk's first cohort (:meth:`_Cohort.root`),
        whose row ``b`` is lane ``b``, or a handed-off dense lane's
        cohort of one entering ``root`` with its path's ``measured``
        qubits (:meth:`replay_handoff`).  Every node's compiled program
        runs once for the whole cohort.
        Only that step is substrate-specific, with the sign stream
        top-up and the Pauli-arm fold flips:

        * **Signs.**  The cohort's sign columns are bit-planes:
          ``planes[row]`` is one Python int whose bit ``slot`` is that
          shot's sign bit for the tableau row.  A compiled ``_S_XOR``
          advances every live shot with one integer XOR per touched
          row, and a deterministic measurement's outcome lanes are the
          XOR of its rows.  Sub-cohorts share the planes through
          disjoint lane masks.  Each shot draws its measurement rng
          once per walk: serial replay makes one ``random()`` per
          measurement and reset, ``getrandbits(64 * k)`` leaves the
          Mersenne Twister where ``k`` such calls leave it, and draw
          ``i``'s ``random() < 0.5`` holds exactly when bit ``64 * i +
          31`` is clear.  So every shot draws its stream at the root,
          sized by :attr:`stream_draws`, and one transpose turns the
          streams into a coin word per draw (:func:`_coin_words`).  A
          sub-cohort carries its stream offset, which all its shots
          share because they took the same path, and tops up its own
          shots when it runs past the drawn length; a topped-up draw is
          read lane by lane.  Over-drawing is safe: the streams are
          private, and a shot that leaves the trie redraws its
          measurement rng up to its own offset.  A folded MRCE does
          not split the cohort: its Pauli-arm lanes get the Pauli's
          XOR and noise site and the fold's ``δ``.
        * **Dense.**  The cohort is a :class:`BatchStateVector`: one
          amplitude row per distinct state, and a row index per lane.
          Each node's bound steps (:meth:`TraceNode.dense_program`)
          push block operators through the rows as batch GEMMs; a
          measurement reduces to one probability reduction over the
          rows.  A row splits where lanes sharing it draw different
          events, and decision splits gather-copy the rows their
          lanes reference into child cohorts.

        Everything classical is the cohort's :class:`_CohortState`,
        decided once per cohort, not once per shot: outcomes are
        delivered as lane words (readout flips drawn from each shot's
        own noise rng), a fetch writes its qubit's word, a classical
        op or branch runs its recorded closure once per distinct input
        combination present, and an MRCE decision reads its word.
        Each decision so yields a taken-lane mask for
        :meth:`_split_cohort`.  A leaf completes its whole cohort at
        once, appending its lane groups to ``groups``
        (:meth:`_CohortState.group`).  A node closed to cohorts (a
        micro-op without def/use sets, see :func:`_manifest`) leaves
        its lanes at its entry (fail closed).

        Lanes that leave — at a decision with no edge for them, or at
        a closed node's entry — are appended to ``left`` as one
        :class:`_Frontier` per node, holding their state as they left;
        a Pauli-arm lane's fold is not applied to lanes that leave at
        the fold.  A cohort of one that completes no group stands at
        its frontier (:meth:`replay`).
        """
        signs = self.mode == "signs"
        state = cohort.state
        noise = qpu.noise
        drawn = 0
        planes = None
        if signs:
            tableau = qpu.state
            planes = [0] * (2 * tableau.n_qubits)
            # The root's rng lists, indexed by lane (row b is lane b).
            srngs, nrngs = cohort.srngs, cohort.nrngs
            drawn = self.stream_draws
            streams = [srng.getrandbits(64 * drawn) for srng in srngs]
            # coins[d]: the lanes whose root-drawn draw d is heads.
            coins = _coin_words(streams, drawn)
        stack: list[tuple] = [(root, cohort, measured, 0, drawn)]
        while stack:
            node, cohort, measured, offset, drawn = stack.pop()
            self._touch(node)
            program, manifest = (node.sign_program(tableau, noise) if signs
                                 else node.dense_program(qpu))
            if manifest is None:  # closed to cohorts
                left.append(_Frontier(node, True, 0, cohort, planes,
                                      measured, offset))
                continue
            node_measured, branch_uses, draws = manifest
            for qubit in node_measured:
                if qubit not in measured:
                    measured = measured + (qubit,)
            lanes = cohort.lanes
            if signs:
                slots = cohort.slots
                if offset + draws > drawn:
                    extra = 64 * (offset + draws - drawn)
                    for slot in slots:
                        streams[slot] |= (srngs[slot].getrandbits(extra)
                                          << 64 * drawn)
                    drawn = offset + draws
                for op in program:
                    code = op[0]
                    if code == _S_XOR:
                        for row in op[2]:
                            planes[row] ^= lanes
                    elif code == _S_MEAS_D or code == _S_RESET_D:
                        _c, _mask, ghalf, _target, rows, target = op
                        raw = lanes if ghalf else 0
                        for row in rows:
                            raw ^= planes[row]
                        raw &= lanes
                        if code == _S_MEAS_D:
                            state.deliver(target, raw, cohort)
                        elif raw:
                            # A |1> outcome's X correction flips every
                            # zmask row.
                            for row in target:
                                planes[row] ^= raw
                    elif code == _S_MEAS_R or code == _S_RESET_R:
                        (_c, pivot, pm, _tmask, _gmask, _target,
                         t_rows, g_rows, draw, target) = op
                        draw += offset
                        if draw < len(coins):
                            raw = coins[draw] & lanes
                        else:
                            # A topped-up draw: random() < 0.5 exactly when
                            # the probed bit is clear.
                            probe = 1 << (64 * draw + 31)
                            raw = sum([1 << slot for slot in slots
                                       if not streams[slot] & probe])
                        pivot_bits = planes[pivot] & lanes
                        for row in g_rows:
                            planes[row] ^= lanes
                        for row in t_rows:
                            planes[row] ^= pivot_bits
                        keep = ~lanes
                        planes[pm] = (planes[pm] & keep) | pivot_bits
                        planes[pivot] = (planes[pivot] & keep) | raw
                        if code == _S_MEAS_R:
                            state.deliver(target, raw, cohort)
                        else:
                            for row in target:
                                planes[row] ^= raw
                    elif code == _S_NOISE:
                        _cohort_noise(op, slots, nrngs, planes)
                    elif code == _S_CLS:
                        state.execute(op[2], op[3], op[4], lanes)
                    else:  # _S_FMR
                        state.fetch(op[4], op[3], lanes)
            else:
                for step in program:
                    step(cohort)
            offset += draws
            decision = node.decision
            if decision is None:
                if signs:
                    self.stream_draws = offset
                state.group(measured, lanes, node.total_ns, groups)
                self.hits += len(cohort.slots)
                continue
            taken = state.decide(decision, branch_uses, lanes)
            edges = self._split_cohort(node, cohort, taken)
            for _child, sub in edges:
                lanes ^= sub.lanes
            fold = node.fold
            if fold is not None:
                # The Pauli-arm lanes replay the Pauli and run δ later;
                # _split_cohort keeps the cohort whole.
                flips = (taken if fold.edge else cohort.lanes ^ taken) & ~lanes
                if flips:
                    for op in fold.sign_program(node, tableau, noise):
                        if op[0] == _S_XOR:
                            for row in op[2]:
                                planes[row] ^= flips
                        else:
                            _cohort_noise(op, _set_bits(flips), nrngs,
                                          planes)
                    state.shift(flips, fold.delta_ns)
            for child, sub in edges:
                stack.append((child, sub, measured, offset, drawn))
            if lanes:
                left.append(_Frontier(node, False, taken,
                                      cohort.take(lanes), planes, measured,
                                      offset))

    # -- recording ---------------------------------------------------------

    def record(self, recorder: "TraceRecorder", total_ns: int) -> None:
        """Finish a simulator run's recording: the shot ended.

        The recorder has consumed the run's stream up to its last quiet
        decision; the rest closes at a leaf
        (:meth:`TraceRecorder.finish`).  When an
        LRU bound is configured
        and the shot pushed the node count past it, the
        least-recently-used subtrees are evicted.
        """
        recorder.finish(total_ns)
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self._evict()

    def rejoin(self, recorder: "TraceRecorder", qpu: SimulatedQPU
               ) -> tuple[dict[int, int], int] | _ReplayContext:
        """Continue a shot whose run stopped at a quiet MRCE
        (:meth:`TraceRecorder.quiet`) in serial sign replay, from the
        hand-over child its recorder chose through :meth:`_epilogue`.

        Returns the replay's result: the shot's outcome, or its
        context at its next miss (counted as no new miss).
        """
        child, ctx, r = recorder.handover
        replayed = self._replay_signs(child, qpu, ctx, r)
        if (isinstance(replayed, tuple)
                and self.max_nodes is not None
                and self.nodes > self.max_nodes):
            self._evict()
        return replayed

    def _exit_model(self, node: TraceNode, state: StabilizerState,
                    noise: NoiseModel
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``node``'s compile-time exit x/z columns, compiling first the
        nodes above it that no replay has compiled yet."""
        pending = []
        current: TraceNode | None = node
        while current is not None and current._exit_tableau is None:
            pending.append(current)
            current = current.parent
        for current in reversed(pending):
            current.sign_program(state, noise)
        model = node._exit_tableau
        return tuple(model.x), tuple(model.z)

    def _grow_live(self, path: list) -> None:
        """Grow the live sets along a just-recorded path, leaf to root.

        A node's live set takes in its own branch's uses and the entry
        set of the path's next node.  A node whose live set grows drops
        its compiled program: a branch recorded later can revive an op
        that an earlier path left dead.  The walk stops at the first
        node recorded before whose live set did not change — its
        parent already covers what it needs on entry.  A path without
        classical entries adds nothing and is never walked.
        """
        entry = None
        for node, fresh in reversed(path):
            live = _join(_join(node.live, _decision_uses(node.decision)),
                         entry)
            if live is not node.live:
                node.live = live
                node.drop_program()
            elif not fresh:
                return
            entry = _slice(node.items, live)[1]

    # -- Pauli-arm folds ---------------------------------------------------

    def _fold(self, node: TraceNode) -> None:
        """Fold ``node`` if its two recorded arms pass the fold rule.

        The rule (see "Pauli-arm folds" above): an unfolded MRCE
        decision whose arms' segments differ by one leading ``x``,
        ``y`` or ``z`` on the MRCE target, and whose arms both end at
        leaves or both at the same quiet MRCE stall with equal
        signatures.  The Pauli arm is then dropped and its subtree
        grafted into the identity arm; every decision the graft gives
        a second arm is checked in turn.
        """
        pending = [node]
        while pending:
            node = pending.pop()
            decision = node.decision
            if (node.fold is not None or decision is None
                    or decision[0] != _D_MRCE
                    or (node.parent is None and node is not self.root)):
                continue  # folded, not an MRCE, or grafted away
            arms = (node.children.get(0), node.children.get(1))
            if any(arm is None or arm.items is None for arm in arms):
                continue
            keys = [_op_keys(arm.items) for arm in arms]
            for edge in (0, 1):
                lead = keys[edge][0] if keys[edge] else None
                if (keys[edge][1:] == keys[edge ^ 1]
                        and lead is not None and lead[0] == REC_GATE
                        and lead[1] in _PAULIS
                        and lead[2] == (decision[2],)):
                    break
            else:
                continue
            arm, canonical = arms[edge], arms[edge ^ 1]
            if arm.decision is None and canonical.decision is None:
                delta = arm.total_ns - canonical.total_ns
            elif (arm.quiet is not None and arm.quiet == canonical.quiet
                  and arm.decision == canonical.decision):
                delta = arm.decision_ns - canonical.decision_ns
            else:
                continue
            node.fold = _Fold(edge, lead, delta)
            self.folds += 1
            del node.children[edge]
            pending.extend(self._graft(canonical, arm, delta))

    def _graft(self, dst: TraceNode, src: TraceNode, shift: int) -> list:
        """Merge the subtree below ``src`` into the one below ``dst``.

        ``src`` stands where ``dst`` does but runs ``shift`` ns later
        (the Pauli arm of a fold, or a node below one).  A child only
        ``src`` recorded moves over, its times ``shift`` earlier; a
        child both recorded merges in turn, and so does ``src``'s arm
        of a decision ``dst`` folded, into the identity arm.  Both
        sides must agree where they overlap — ops, decisions and
        times, all on the identity arms' clock — or the fold was
        wrong and this raises :class:`TraceDivergenceError`.  Merged
        ``src`` nodes leave the trie; merge targets are touched, so
        they stay at least as recent as what moved below them.
        Returns the MRCE decisions that gained their second arm.
        """
        forked = []
        stack = [(dst, src, shift)]
        while stack:
            dst, src, shift = stack.pop()
            self._touch(dst)
            live = _join(dst.live, src.live)
            if live is not dst.live:
                dst.live = live
                dst.drop_program()
            if (not _same_decision(dst.decision, src.decision)
                    or dst.quiet != src.quiet
                    or dst.snapshot != src.snapshot
                    or (dst.decision_ns is not None
                        and dst.decision_ns != src.decision_ns - shift)
                    or (dst.decision is None
                        and dst.total_ns != src.total_ns - shift)):
                raise TraceDivergenceError(
                    "a fold grafted a subtree that disagrees with the "
                    "identity arm's; the fold rule does not hold")
            pairs = [(edge, child, shift)
                     for edge, child in src.children.items()]
            if src.fold is not None:
                if dst.fold is None:
                    # dst takes the fold, so its own Pauli arm folds too
                    # (after src's identity arm, its merge target).
                    dst.fold = src.fold
                    own = dst.children.pop(dst.fold.edge, None)
                    if own is not None:
                        pairs.append((dst.fold.edge, own, 0))
                elif (dst.fold.edge, dst.fold.op, dst.fold.delta_ns) != (
                        src.fold.edge, src.fold.op, src.fold.delta_ns):
                    raise TraceDivergenceError(
                        "two folds of one decision disagree")
            fold = dst.fold
            for edge, child, offset in pairs:
                if child.items is None:
                    self._drop(child)
                    continue
                lead = []
                if fold is not None and edge == fold.edge:
                    # A Pauli arm of a folded decision: the identity
                    # arm plus the Pauli, δ later.
                    edge ^= 1
                    offset += fold.delta_ns
                    lead = [fold.op]
                mate = dst.children.get(edge)
                if mate is None or mate.items is None:
                    if mate is not None:
                        self._drop(mate)
                    dst.children[edge] = child
                    child.parent = dst
                    child.edge = edge
                    self._translate(child, offset)
                    if (dst.decision[0] == _D_MRCE and fold is None
                            and edge ^ 1 in dst.children):
                        forked.append(dst)
                    continue
                if _op_keys(child.items) != lead + _op_keys(mate.items):
                    raise TraceDivergenceError(
                        "a fold grafted a segment that disagrees with the "
                        "identity arm's; the fold rule does not hold")
                stack.append((mate, child, offset))
            self._drop(src)
        return forked

    def _translate(self, node: TraceNode, delta_ns: int) -> None:
        """Move every time in ``node``'s subtree ``delta_ns`` earlier."""
        if not delta_ns:
            return
        stack = [node]
        while stack:
            node = stack.pop()
            if node.items is not None:
                node.items = tuple(_shifted(item, delta_ns)
                                   for item in node.items)
                if node.decision is None:
                    node.total_ns -= delta_ns
                elif node.decision_ns is not None:
                    node.decision_ns -= delta_ns
            stack.extend(node.children.values())

    # -- LRU eviction ------------------------------------------------------

    def _evict(self) -> None:
        """Drop least-recently-used subtrees until the trie fits.

        Amortized: nodes sit in an ordered dict by last touch, so this
        pass pops the coldest node, detaches its whole subtree, and
        repeats — no full-trie scoring scan.  Touches always run
        root-to-leaf along one path, so a parent is never colder than
        a descendant; the coldest node therefore carries the global
        minimum stamp and is the *top* of a maximally cold subtree
        (its descendants share that minimum stamp — they follow it,
        since each touch moves the child after its parent, and are
        unlinked with it), and detaching at it removes exactly what
        the old full-scan pass would have evicted first.  The path the
        current shot just used carries the newest tick and is never
        evicted — the bound is best-effort when that path alone
        exceeds it.  Total eviction work is O(1) per node over its
        lifetime.
        """
        while self.nodes > self.max_nodes:
            node = next(iter(self._lru), None)
            if node is None or node.last_used >= self._tick:
                break  # only the current shot's path remains
            parent = node.parent
            del parent.children[node.edge]
            # A fold keeps only the identity arm: without it, no fold.
            parent.fold = None
            removed = self._unlink_subtree(node)
            self.nodes -= removed
            self.evictions += removed

    def _unlink(self, node: TraceNode) -> None:
        """Take one detached node out of the recency order."""
        self._lru.pop(node, None)
        node.parent = None

    def _unlink_subtree(self, node: TraceNode) -> int:
        """Unlink a detached subtree from the recency list; its size."""
        removed = 0
        stack = [node]
        while stack:
            current = stack.pop()
            self._unlink(current)
            removed += 1
            stack.extend(current.children.values())
        return removed

    def _drop(self, node: TraceNode) -> None:
        """Remove one node a graft merged away (its children moved)."""
        self._unlink(node)
        self.nodes -= 1


def _same_decision(left: tuple | None, right: tuple | None) -> bool:
    """Structural equality of decision points.

    Branch decisions compare by (kind, processor) — the compiled
    micro-op closure differs per decode but refers to the same static
    instruction when the path is deterministic — and MRCE decisions by
    (kind, result qubit).
    """
    if left is None or right is None:
        return left is None and right is None
    return left[0] == right[0] and left[1] == right[1]
