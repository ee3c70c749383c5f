"""Dense state-vector simulator.

This is the functional QPU substrate standing in for the paper's
superconducting chip.  It supports arbitrary one- and two-qubit
unitaries, projective measurement with collapse, and active reset —
enough to execute every operation the control processor can issue.

It is the ``"statevector"`` entry of the simulation-backend registry
(see :mod:`repro.qpu.backend`): exact for any circuit, exponential in
the qubit count, hard-capped at 24 qubits.  Single-qubit gates take a
fused strided path (one pass over the amplitudes) instead of the
generic moveaxis/reshape round-trip used for larger unitaries.

Qubit 0 is the least significant bit of the computational-basis index.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

import numpy as np

from repro.circuit.gates import lookup_gate
from repro.qpu.backend import SimulationBackend, register_backend

#: Hard cap on the dense representation (2^24 amplitudes = 256 MiB).
DENSE_QUBIT_LIMIT = 24

#: Single-qubit gate matrices keyed by ``(name, params)``.  Gate
#: matrices are pure functions of name and parameters, so every
#: application of e.g. ``("h", ())`` can share one immutable array
#: instead of rebuilding it; entries are 2x2, so even parametric
#: sweeps keep the cache tiny.
_UNITARY_CACHE: dict[tuple[str, tuple[float, ...]], np.ndarray] = {}


def cached_unitary(name: str,
                   params: tuple[float, ...] = ()) -> np.ndarray:
    """The (immutable) single-qubit matrix of a library gate."""
    key = (name, params)
    matrix = _UNITARY_CACHE.get(key)
    if matrix is None:
        # Copy before freezing: constant gates share one module-level
        # array that other code must stay free to read-write.
        matrix = np.array(lookup_gate(name).unitary(params),
                          dtype=complex)
        matrix.setflags(write=False)
        _UNITARY_CACHE[key] = matrix
    return matrix


#: Largest joint support (in qubits) a fused block operator may cover.
#: 2^3 x 2^3 blocks keep composition cheap while still folding the
#: common gate idioms (single-qubit runs, 1q-into-2q, CNOT ladders
#: sharing a qubit) into one pass over the amplitudes.
FUSE_MAX_QUBITS = 3


def fusion_width(n_qubits: int) -> int:
    """The fused-block width cap on an ``n_qubits`` register.

    The whole register on 4 to 6 qubits, where one fused GEMM beats
    several narrow ones; :data:`FUSE_MAX_QUBITS` otherwise, since an
    n-qubit block is a 2^n x 2^n GEMM per application and past a
    handful of qubits wider blocks cost more than they save.
    """
    return n_qubits if FUSE_MAX_QUBITS < n_qubits <= 6 else FUSE_MAX_QUBITS


#: Register size up to which :func:`batch_block_applier` uses
#: precomputed gather/scatter index arrays (2 * 8 * 2^n bytes per
#: distinct permutation, shared through :data:`_GATHER_CACHE`); above
#: this the indices would rival the statevector itself, so appliers
#: fall back to precomputed-permutation transposes.
_GATHER_QUBIT_LIMIT = 14

#: (n_qubits, axis permutation) -> (gather, scatter) index arrays.
#: The permutation depends only on the qubit tuple, so every block,
#: node and backend instance touching the same qubits shares one
#: pair instead of retaining its own 2^n arrays.
_GATHER_CACHE: dict[tuple[int, tuple[int, ...]],
                    tuple[np.ndarray, np.ndarray]] = {}


def _gather_indices(n: int, perm: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    key = (n, perm)
    cached = _GATHER_CACHE.get(key)
    if cached is None:
        gather = np.arange(1 << n).reshape((2,) * n).transpose(
            perm).ravel()
        cached = _GATHER_CACHE[key] = (gather, np.argsort(gather))
    return cached


def _lift(matrix: np.ndarray, gate_qubits: tuple[int, ...],
          support: tuple[int, ...]) -> np.ndarray:
    """Expand ``matrix`` (acting on ``gate_qubits``) onto ``support``.

    Both qubit tuples use the :meth:`StateVector.apply_unitary`
    convention: position 0 is the most significant bit of the matrix
    index.  ``support`` must contain every gate qubit.
    """
    extra = tuple(q for q in support if q not in gate_qubits)
    order = tuple(gate_qubits) + extra
    k = len(support)
    full = np.kron(matrix, np.eye(1 << len(extra), dtype=complex))
    if order == tuple(support):
        return full
    tensor = full.reshape((2,) * (2 * k))
    axes = [order.index(q) for q in support]
    tensor = tensor.transpose(axes + [k + axis for axis in axes])
    return np.ascontiguousarray(tensor.reshape(1 << k, 1 << k))


def fuse_into(matrix: np.ndarray, support: tuple[int, ...],
              gate_matrix: np.ndarray, qubits: tuple[int, ...],
              max_qubits: int = FUSE_MAX_QUBITS
              ) -> tuple[np.ndarray, tuple[int, ...]] | None:
    """Fold one unitary into an open fusion block.

    Returns the grown ``(matrix, support)`` pair, or ``None`` when
    the support union would exceed ``max_qubits`` (the caller then
    flushes the block and opens a new one).  This is the greedy
    accumulation kernel of the trace cache's dense step compiler,
    which interleaves deferred channel sites with it.
    """
    union = tuple(sorted(set(support) | set(qubits)))
    if len(union) > max_qubits:
        return None
    return (_lift(gate_matrix, tuple(qubits), union)
            @ _lift(matrix, support, union), union)


@register_backend
class StateVector(SimulationBackend):
    """An ``n_qubits`` pure state with in-place gate application."""

    backend_name = "statevector"

    def __init__(self, n_qubits: int,
                 rng: random.Random | None = None) -> None:
        if n_qubits <= 0:
            raise ValueError("need at least one qubit")
        if n_qubits > DENSE_QUBIT_LIMIT:
            raise ValueError(
                f"{n_qubits} qubits exceeds the dense simulator limit "
                f"({DENSE_QUBIT_LIMIT}); Clifford circuits can use the "
                f"'stabilizer' backend instead")
        self.n_qubits = n_qubits
        self.rng = rng or random.Random()
        self._amplitudes = np.zeros(1 << n_qubits, dtype=complex)
        self._amplitudes[0] = 1.0

    @property
    def amplitudes(self) -> np.ndarray:
        """The raw amplitude vector (do not mutate)."""
        return self._amplitudes

    def copy(self) -> "StateVector":
        clone = StateVector.__new__(StateVector)
        clone.n_qubits = self.n_qubits
        clone.rng = self.rng
        clone._amplitudes = self._amplitudes.copy()
        return clone

    def reinitialize(self) -> None:
        """Return to |0...0> in place (object identity preserved)."""
        self._amplitudes.fill(0.0)
        self._amplitudes[0] = 1.0

    def snapshot(self) -> np.ndarray:
        """Checkpoint: a defensive copy of the amplitude vector."""
        return self._amplitudes.copy()

    def restore(self, snap: np.ndarray) -> None:
        """Overwrite the state in place from a :meth:`snapshot`."""
        if snap.shape != self._amplitudes.shape:
            raise ValueError(
                f"snapshot shape {snap.shape} does not match the "
                f"{self.n_qubits}-qubit state")
        self._amplitudes[:] = snap

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit q{qubit} out of range")

    # -- unitaries -----------------------------------------------------------

    def apply_unitary(self, matrix: np.ndarray,
                      qubits: tuple[int, ...]) -> None:
        """Apply ``matrix`` (2^k x 2^k) to ``qubits``.

        ``qubits[0]`` is the *most significant* bit of the matrix's
        index convention — the textbook ordering where e.g. the CNOT
        matrix ``[[I, 0], [0, X]]`` has ``qubits[0]`` as the control.
        """
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{k} qubit(s)")
        for qubit in qubits:
            self._check_qubit(qubit)
        if len(set(qubits)) != k:
            raise ValueError(f"duplicate qubits: {qubits}")
        if k == 1:
            self._apply_single_qubit(matrix, qubits[0])
            return
        n = self.n_qubits
        # Move the target axes to the front via tensor reshape.  numpy's
        # reshape order puts qubit 0 as the *last* axis, so axis of qubit
        # q is (n - 1 - q).  After the move, qubits[0] is the slowest
        # axis of the block — the matrix's most significant bit, as
        # required by the convention above.
        tensor = self._amplitudes.reshape([2] * n)
        axes = [n - 1 - q for q in qubits]
        tensor = np.moveaxis(tensor, axes, range(k))
        shape = tensor.shape
        tensor = tensor.reshape(1 << k, -1)
        tensor = matrix @ tensor
        tensor = tensor.reshape(shape)
        tensor = np.moveaxis(tensor, range(k), axes)
        self._amplitudes = np.ascontiguousarray(tensor.reshape(-1))

    #: Below this qubit index the batched-matmul inner blocks are too
    #: small for BLAS; the kron formulation wins there (measured
    #: crossover at 2^4-element blocks).
    _KRON_THRESHOLD = 4

    def _apply_single_qubit(self, matrix: np.ndarray, qubit: int) -> None:
        """Fused fast path for 2x2 unitaries.

        The vector viewed as (high bits, target bit, low bits) turns
        the update into one batched GEMM, skipping the generic path's
        moveaxis round-trip and its two full-state copies.  For low
        qubit indices the inner blocks are too small for BLAS, so the
        target bit is instead folded into a (2*2^q x 2*2^q) kron
        operator applied across rows — both shapes stay a single
        matmul over contiguous memory.
        """
        inner = 1 << qubit
        if qubit < self._KRON_THRESHOLD:
            operator = np.kron(matrix, np.eye(inner, dtype=complex))
            rows = self._amplitudes.reshape(-1, 2 * inner)
            self._amplitudes = np.matmul(rows, operator.T).reshape(-1)
        else:
            blocks = self._amplitudes.reshape(-1, 2, inner)
            self._amplitudes = np.matmul(matrix, blocks).reshape(-1)

    def apply_gate(self, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        """Apply a library gate by name."""
        definition = lookup_gate(gate)
        if not definition.is_unitary:
            raise ValueError(
                f"gate {gate!r} is not unitary; use measure()/reset()")
        qubits = tuple(qubits)
        if len(qubits) == 1:
            # Cached matrix: gate matrices only depend on (name, params).
            self.apply_unitary(cached_unitary(definition.name,
                                              tuple(params)), qubits)
            return
        self.apply_unitary(definition.unitary(tuple(params)), qubits)

    # -- non-unitary operations ------------------------------------------------

    def probability_of_one(self, qubit: int) -> float:
        """Probability of measuring ``qubit`` as 1."""
        self._check_qubit(qubit)
        ones = self._amplitudes.reshape(-1, 2, 1 << qubit)[:, 1, :]
        # np.add.reduce is np.sum minus the dispatch wrapper — same
        # pairwise reduction, bit-identical result, and this is the
        # hottest scalar on the measurement path.
        return float(np.add.reduce(np.abs(ones) ** 2, axis=None))

    def measure_with_probability(self, qubit: int) -> tuple[int, float]:
        """Projectively measure ``qubit`` and collapse the state.

        Shares one (-1, 2, 2^qubit) view between the probability
        reduction (numerically :meth:`probability_of_one`) and the
        collapse write.  Returns the outcome and that probability.
        """
        self._check_qubit(qubit)
        view = self._amplitudes.reshape(-1, 2, 1 << qubit)
        p_one = float(np.add.reduce(np.abs(view[:, 1, :]) ** 2,
                                    axis=None))
        outcome = 1 if self.rng.random() < p_one else 0
        norm = math.sqrt(p_one if outcome else 1.0 - p_one)
        if norm == 0.0:
            raise RuntimeError("projection onto zero-probability outcome")
        view[:, 1 - outcome, :] = 0.0
        self._amplitudes /= norm
        return outcome, p_one

    def reset(self, qubit: int) -> None:
        """Unconditionally reset ``qubit`` to |0> (measure + flip)."""
        outcome = self.measure(qubit)
        if outcome:
            self.apply_gate("x", (qubit,))

    def apply_decay(self, qubit: int, gamma: float, keep: float,
                    dephase: float, nrng: random.Random) -> None:
        """One quantum-trajectory step of T1/T2 idle decay on ``qubit``.

        ``gamma`` is the amplitude-damping probability, ``keep`` its
        no-jump factor ``sqrt(1 - gamma)`` and ``dephase`` the
        probability of a stochastic Z (see
        :meth:`~repro.qpu.noise.DecoherenceNoise.decay_constants`).
        Both Kraus branches are diagonal or a swap, so the kernel works
        in place on the ``(-1, 2, 2^qubit)`` view:

        * with probability ``gamma * P(|1>)`` (measurement rng) the
          excitation decays: the |1> half moves to |0>, divided by
          ``sqrt(P(|1>))``;
        * otherwise the |1> half is scaled by ``keep`` and the state
          renormalised by its ``np.linalg.norm``;
        * then, with probability ``dephase`` (noise rng ``nrng``), the
          |1> half is negated.

        Every amplitude equals the textbook ``kron``/matmul
        application of ``diag(1, keep)`` (or projection plus X, or Z),
        bit for bit; :meth:`BatchStateVector.apply_decay` is the same
        kernel row for row.
        """
        view = self._amplitudes.reshape(-1, 2, 1 << qubit)
        ones = view[:, 1, :]
        if gamma != 0.0:
            p_one = float(np.add.reduce(np.abs(ones) ** 2, axis=None))
            if self.rng.random() < gamma * p_one:
                view[:, 0, :] = ones / math.sqrt(p_one)
                ones.fill(0.0)
            else:
                ones *= keep
                norm = float(np.linalg.norm(self._amplitudes))
                if norm == 0.0:
                    raise RuntimeError("state annihilated by idle decay")
                self._amplitudes /= norm
        if nrng.random() < dephase:
            np.negative(ones, out=ones)

    # -- batched shots ---------------------------------------------------------

    def make_batch_state(self, width: int) -> "BatchStateVector":
        """A ``width``-lane lockstep cohort for batched replay, every
        lane sharing one |0...0> row."""
        return BatchStateVector(self.n_qubits, width)

    # -- queries ---------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Probability of every computational-basis state."""
        return np.abs(self._amplitudes) ** 2

    def fidelity_with(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        return float(abs(np.vdot(self._amplitudes, other._amplitudes)) ** 2)

    def norm(self) -> float:
        """State norm (should stay 1 up to rounding)."""
        return float(np.linalg.norm(self._amplitudes))


# -- shot-batched cohorts ------------------------------------------------------


def batch_block_applier(n_qubits: int, matrix: np.ndarray,
                        qubits: tuple[int, ...]) -> Callable:
    """Precompile one k-qubit operator for a whole shot cohort.

    The returned closure ``apply(batch, rows=None)`` pushes ``matrix``
    through every amplitude row of a :class:`BatchStateVector`, once
    per distinct state however many lanes share it (``rows``
    restricts the application to some rows, which is how per-shot
    stochastic channel corrections and reset flips hit only the rows
    whose lanes' draws fired).  Up to large registers that is one
    ``np.matmul`` call, which on the k >= 2 path issues one GEMM per
    row, not one wide GEMM over the cohort.  The axis
    permutation, its inverse and the block shape that
    :meth:`StateVector.apply_unitary` re-derives per call are
    constants here, and each row runs the device's arithmetic: the
    k >= 2 path gathers the row through precomputed indices (element
    for element the contiguous copy the ``moveaxis``/``reshape``
    round trip produces), runs the same GEMM and scatters back, and
    the single-qubit path runs :meth:`StateVector._apply_single_qubit`'s
    matmul with its kron operator precomputed — so every row is bit
    for bit what the device's ``apply_unitary`` leaves.
    """
    k = len(qubits)
    if k == 1:
        qubit = qubits[0]
        inner = 1 << qubit
        if qubit < StateVector._KRON_THRESHOLD:
            operator_t = np.kron(matrix, np.eye(inner, dtype=complex)).T

            def apply(batch: "BatchStateVector", rows=None) -> None:
                psi = batch._psi if rows is None else batch._psi[rows]
                out = np.matmul(psi.reshape(-1, 2 * inner),
                                operator_t).reshape(psi.shape)
                if rows is None:
                    batch._psi = out
                else:
                    batch._psi[rows] = out

            return apply

        def apply(batch: "BatchStateVector", rows=None) -> None:
            psi = batch._psi if rows is None else batch._psi[rows]
            out = np.matmul(matrix,
                            psi.reshape(-1, 2, inner)).reshape(psi.shape)
            if rows is None:
                batch._psi = out
            else:
                batch._psi[rows] = out

        return apply
    axes = [n_qubits - 1 - q for q in qubits]
    rest = [axis for axis in range(n_qubits) if axis not in axes]
    perm = tuple(axes + rest)
    block_rows = 1 << k
    if n_qubits <= _GATHER_QUBIT_LIMIT:
        gather, scatter = _gather_indices(n_qubits, perm)

        def apply(batch: "BatchStateVector", rows=None) -> None:
            psi = batch._psi if rows is None else batch._psi[rows]
            cohort = psi.shape[0]
            out = np.matmul(
                matrix, psi[:, gather].reshape(cohort, block_rows, -1))
            # np.take, not ``[:, scatter]``: fancy indexing after a
            # slice returns a non-C-contiguous array, and the per-row
            # reductions must traverse each row in serial order.
            out = np.take(out.reshape(cohort, -1), scatter, axis=1)
            if rows is None:
                batch._psi = out
            else:
                batch._psi[rows] = out

        return apply
    # Large registers: index arrays would rival the state itself, so
    # fall back to per-shot precomputed-permutation transposes — the
    # same contiguous copies and the same GEMM.
    inverse = tuple(int(i) for i in np.argsort(perm))
    tensor_shape = (2,) * n_qubits

    def apply(batch: "BatchStateVector", rows=None) -> None:
        indices = range(len(batch._psi)) if rows is None else rows
        for index in indices:
            tensor = batch._psi[index].reshape(tensor_shape)
            tensor = matrix @ tensor.transpose(perm).reshape(block_rows,
                                                             -1)
            batch._psi[index] = np.ascontiguousarray(
                tensor.reshape(tensor_shape).transpose(inverse)
            ).reshape(-1)

    return apply


class BatchStateVector:
    """``width`` pure states advanced in lockstep over shared rows.

    The dense cohort representation of batched trace-cache replay.
    Lanes are its unit: lane ``b`` is one shot, whose amplitude vector
    is row ``index[b]`` of a ``(rows, 2^n)`` matrix with one row per
    distinct state (:meth:`lane`).  Lanes that drew the same events
    share a row, so every compiled block operator
    (:func:`batch_block_applier`), probability reduction, idle-decay
    damping and collapse runs once per row, and the per-qubit
    measurement reduction is **one** ``np.add.reduce`` over the rows.
    The per-shot *draws* (measurement outcomes, channel firings, decay
    jumps) belong to each lane's own seeded rngs, in serial order,
    which is what keeps batched replay bit-identical per shot-seed.
    When lanes that share a row draw different events, :meth:`split`
    gives each (row, event) pair its own row: the only place rows are
    copied besides :meth:`take`.

    ``_psi`` stays C-contiguous: every per-row reduction then walks a
    row in the order the serial reduction walks the shot's vector, so
    each row's P(|1>) and norm equal the serial values bit for bit.
    """

    def __init__(self, n_qubits: int, width: int) -> None:
        if n_qubits <= 0:
            raise ValueError("need at least one qubit")
        if n_qubits > DENSE_QUBIT_LIMIT:
            raise ValueError(
                f"{n_qubits} qubits exceeds the dense simulator limit "
                f"({DENSE_QUBIT_LIMIT})")
        if width < 1:
            raise ValueError("cohort width must be positive")
        self.n_qubits = n_qubits
        self.width = width
        self._psi = np.zeros((1, 1 << n_qubits), dtype=complex)
        self._psi[0, 0] = 1.0
        #: Lane ``b``'s row of :attr:`amplitudes`.
        self.index = [0] * width

    @property
    def amplitudes(self) -> np.ndarray:
        """The raw ``(rows, 2^n)`` matrix of distinct amplitude rows
        (do not mutate); lane ``b`` is row ``index[b]``."""
        return self._psi

    def lane(self, lane: int) -> np.ndarray:
        """Lane ``lane``'s amplitude vector (a row view; do not
        mutate)."""
        return self._psi[self.index[lane]]

    def take(self, lanes: Sequence[int]) -> "BatchStateVector":
        """An independent sub-cohort of the given lanes.

        This is the wavefront partition primitive: when a decision
        splits the cohort across trie edges, each child wavefront
        carries a gather-copy of the rows its lanes reference.
        """
        rows: dict[int, int] = {}
        index = [rows.setdefault(self.index[lane], len(rows))
                 for lane in lanes]
        clone = BatchStateVector.__new__(BatchStateVector)
        clone.n_qubits = self.n_qubits
        clone.width = len(index)
        clone._psi = self._psi[list(rows)]
        clone.index = index
        return clone

    def split(self, events: Sequence) -> tuple[list, list[int]]:
        """Give each (row, event) pair among the lanes its own row.

        ``events[b]`` is what lane ``b`` drew at a stochastic site: a
        measurement or reset outcome, a decay jump, a dephasing fire
        or a channel Pauli.  A row keeps the event of its first lane;
        each other event that lanes of the row drew gets a copy of the
        row, appended, and those lanes move to it.  Returns each row's
        event and the row it is a copy of (itself for the rows that
        were there), for gathering per-row values alongside.
        """
        index = self.index
        count = len(self._psi)
        row_events: list = [None] * count
        origin = list(range(count))
        copies: dict[tuple, int] = {}
        for lane, event in enumerate(events):
            row = index[lane]
            kept = row_events[row]
            if kept is None:
                row_events[row] = event
            elif kept != event:
                copy = copies.get((row, event))
                if copy is None:
                    copy = copies[row, event] = len(origin)
                    origin.append(row)
                    row_events.append(event)
                index[lane] = copy
        if copies:
            self._psi = self._psi[origin]
        return row_events, origin

    def apply_matrix(self, matrix: np.ndarray, qubits: tuple[int, ...],
                     rows=None) -> None:
        """Apply a k-qubit operator (uncompiled convenience path)."""
        batch_block_applier(self.n_qubits, matrix,
                            tuple(qubits))(self, rows)

    def probability_of_one(self, qubit: int) -> np.ndarray:
        """Per-row P(1) of ``qubit``: one reduce for the cohort.

        The batched-measurement reduction: a single
        ``np.add.reduce`` over the ``(rows, 2^n)`` matrix replaces a
        scalar reduction per row of the serial path.
        """
        view = self._psi.reshape(len(self._psi), -1, 2, 1 << qubit)
        return np.add.reduce(np.abs(view[:, :, 1, :]) ** 2, axis=(1, 2))

    def collapse(self, qubit: int, outcomes: np.ndarray,
                 p_one: np.ndarray) -> None:
        """Project every row onto its drawn outcome and renormalise.

        ``outcomes`` holds each row's (already drawn and
        :meth:`split`) measurement result and ``p_one`` its P(1); the
        complementary branch of each row is zeroed by boolean groups
        and all rows are renormalised in one multiply by the
        reciprocals of their norms.  Numpy divides complex by real as
        ``(re + im*0) * (1/norm)``, so each row equals
        :meth:`StateVector.measure`'s division in value: only an exact
        zero's sign can differ, which no probability, outcome or
        non-zero amplitude sees and ``np.array_equal`` ignores.
        """
        ones = np.asarray(outcomes, dtype=bool)
        norms = np.sqrt(np.where(ones, p_one, 1.0 - p_one))
        if not norms.all():
            raise RuntimeError("projection onto zero-probability outcome")
        view = self._psi.reshape(len(self._psi), -1, 2, 1 << qubit)
        view[ones, :, 0, :] = 0.0
        view[~ones, :, 1, :] = 0.0
        self._psi *= (1.0 / norms)[:, None]

    def apply_decay(self, qubit: int, gamma: float, keep: float,
                    dephase: float, srngs: Sequence[random.Random],
                    nrngs: Sequence[random.Random]) -> None:
        """:meth:`StateVector.apply_decay` on every lane.

        One P(|1>) reduction over the rows; lane ``b`` draws its jump
        from its measurement rng ``srngs[b]`` and its dephasing fire
        from its noise rng ``nrngs[b]``, as the serial kernel would,
        and rows whose lanes drew differently :meth:`split`.  Jump
        rows are projected and flipped together; no-jump rows are
        scaled and renormalised together (:func:`_damp_rows`).  Every
        lane equals the serial kernel's vector (``np.array_equal``).
        """
        if gamma != 0.0:
            p_one = self.probability_of_one(qubit)
            p = p_one.tolist()
            jumps = [srng.random() < gamma * p[row]
                     for srng, row in zip(srngs, self.index)]
            if any(jumps):
                row_jumps, origin = self.split(jumps)
                p_one = p_one[origin]
                jumped = [row for row, jump in enumerate(row_jumps)
                          if jump]
                stay = [row for row, jump in enumerate(row_jumps)
                        if not jump]
                view = self._psi.reshape(len(self._psi), -1, 2,
                                         1 << qubit)
                view[jumped, :, 0, :] = (view[jumped, :, 1, :]
                                         / np.sqrt(p_one[jumped])[:, None,
                                                                  None])
                view[jumped, :, 1, :] = 0.0
                if stay:
                    self._psi[stay] = _damp_rows(self._psi[stay], qubit,
                                                 keep)
            else:
                _damp_rows(self._psi, qubit, keep)
        fires = [nrng.random() < dephase for nrng in nrngs]
        if any(fires):
            row_fires = self.split(fires)[0]
            fired = [row for row, fire in enumerate(row_fires) if fire]
            view = self._psi.reshape(len(self._psi), -1, 2, 1 << qubit)
            view[fired, :, 1, :] = -view[fired, :, 1, :]


def _damp_rows(psi: np.ndarray, qubit: int, keep: float) -> np.ndarray:
    """The no-jump branch of :meth:`BatchStateVector.apply_decay`,
    in place on a ``(rows, 2^n)`` matrix (returned for chaining).

    ``np.linalg.norm`` of one complex row is ``sqrt(re . re + im . im)``
    over the strided real and imaginary views, two ``ddot`` calls.
    One ``np.matmul`` per part, of its stacked ``(rows, 1, 2^n)`` and
    ``(rows, 2^n, 1)`` views, issues that same strided ``ddot`` per
    row, so every norm equals the serial one.  Renormalisation then
    multiplies by the reciprocals, which equals the serial division
    in value (see :meth:`BatchStateVector.collapse`).
    """
    psi.reshape(psi.shape[0], -1, 2, 1 << qubit)[:, :, 1, :] *= keep
    norms = np.sqrt(_row_dots(psi.real) + _row_dots(psi.imag))
    if not norms.all():
        raise RuntimeError("state annihilated by idle decay")
    psi *= (1.0 / norms)[:, None]
    return psi


def _row_dots(part: np.ndarray) -> np.ndarray:
    """Each row of a ``(rows, 2^n)`` float matrix dotted with itself."""
    return np.matmul(part[:, None, :], part[:, :, None])[:, 0, 0]
