"""Stabilizer-tableau simulator (Aaronson–Gottesman, the CHP scheme).

Clifford circuits — the regime of randomized benchmarking and of every
stabilizer QEC workload in the benchlib — never leave the stabilizer
group, so an n-qubit state is fully described by 2n Pauli strings
(n destabilizers + n stabilizers) plus sign bits: O(n^2) memory and
O(n) per gate instead of the dense simulator's O(2^n).  That is what
lets the control stack drive 50+ qubit repetition codes and the
37-qubit Steane syndrome benchmark with a real quantum substrate.

Tableau layout (Aaronson & Gottesman, "Improved simulation of
stabilizer circuits", PRA 70, 052328):

* rows ``0..n-1``  — destabilizers (row i starts as X_i),
* rows ``n..2n-1`` — stabilizers  (row n+i starts as Z_i),
* row  ``2n``      — scratch row for deterministic measurements.

``x[i, j]``/``z[i, j]`` are the X/Z bits of row i on qubit j and
``r[i]`` its sign bit.  Gates conjugate every row; measurement follows
the textbook random/deterministic split.

Non-Clifford gates (t, rx(theta), ...) raise
:class:`~repro.qpu.backend.NonCliffordGateError` — use the
``"statevector"`` backend for those circuits.
"""

from __future__ import annotations

import random

import numpy as np

from repro.qpu.backend import (NonCliffordGateError, SimulationBackend,
                               register_backend)

#: Gates the tableau can conjugate by, with their decomposition into
#: the primitive conjugations implemented below.  Order matters: the
#: entries are applied left to right as a circuit.
_CLIFFORD_DECOMPOSITIONS: dict[str, tuple[str, ...]] = {
    "i": (),
    "x": ("x",),
    "y": ("y",),
    "z": ("z",),
    "h": ("h",),
    "s": ("s",),
    "sdg": ("z", "s"),          # S† = S·Z  (up to global phase)
    "x90": ("h", "s", "h"),     # sqrt(X)  = H·S·H
    "xm90": ("h", "z", "s", "h"),
    "y90": ("z", "h"),          # Ry(+90°) = H·Z
    "ym90": ("h", "z"),         # Ry(-90°) = Z·H
}

_TWO_QUBIT_DECOMPOSITIONS: dict[str, tuple[tuple[str, int, int], ...]] = {
    # (primitive, qubit-slot a, qubit-slot b); slots index into the
    # gate's (control, target) pair.
    "cnot": (("cnot", 0, 1),),
    "cz": (("h", 1, 1), ("cnot", 0, 1), ("h", 1, 1)),
    "swap": (("cnot", 0, 1), ("cnot", 1, 0), ("cnot", 0, 1)),
    # iSWAP = SWAP · CZ · (S ⊗ S)
    "iswap": (("s", 0, 0), ("s", 1, 1),
              ("h", 1, 1), ("cnot", 0, 1), ("h", 1, 1),
              ("cnot", 0, 1), ("cnot", 1, 0), ("cnot", 0, 1)),
}


@register_backend
class StabilizerState(SimulationBackend):
    """An ``n_qubits`` stabilizer state with in-place conjugation."""

    backend_name = "stabilizer"

    def __init__(self, n_qubits: int,
                 rng: random.Random | None = None) -> None:
        if n_qubits <= 0:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.rng = rng or random.Random()
        rows = 2 * n_qubits + 1
        self.x = np.zeros((rows, n_qubits), dtype=np.uint8)
        self.z = np.zeros((rows, n_qubits), dtype=np.uint8)
        self.r = np.zeros(rows, dtype=np.uint8)
        idx = np.arange(n_qubits)
        self.x[idx, idx] = 1                 # destabilizer i = X_i
        self.z[n_qubits + idx, idx] = 1      # stabilizer  i = Z_i

    def copy(self) -> "StabilizerState":
        clone = StabilizerState.__new__(StabilizerState)
        clone.n_qubits = self.n_qubits
        clone.rng = self.rng
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        clone.r = self.r.copy()
        return clone

    def reinitialize(self) -> None:
        """Return to |0...0> in place (object identity preserved)."""
        self.x.fill(0)
        self.z.fill(0)
        self.r.fill(0)
        idx = np.arange(self.n_qubits)
        self.x[idx, idx] = 1
        self.z[self.n_qubits + idx, idx] = 1

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Checkpoint: defensive copies of the (x, z, r) tableau."""
        return self.x.copy(), self.z.copy(), self.r.copy()

    def restore(self,
                snap: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """Overwrite the tableau in place from a :meth:`snapshot`.

        Also accepts a *constructed* snapshot — the trace cache
        materializes the divergence frontier from a trie node's
        compile-time x/z model plus the live packed sign column, which
        is exactly an (x, z, r) triple.
        """
        x, z, r = snap
        if x.shape != self.x.shape or z.shape != self.z.shape \
                or r.shape != self.r.shape:
            raise ValueError(
                f"snapshot shapes {(x.shape, z.shape, r.shape)} do not "
                f"match the {self.n_qubits}-qubit tableau")
        self.x[:, :] = x
        self.z[:, :] = z
        self.r[:] = r

    # -- primitive conjugations (vectorised over all rows) -----------------

    def _h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = (self.z[:, a].copy(),
                                      self.x[:, a].copy())

    def _s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def _x(self, a: int) -> None:
        self.r ^= self.z[:, a]

    def _z(self, a: int) -> None:
        self.r ^= self.x[:, a]

    def _y(self, a: int) -> None:
        self.r ^= self.x[:, a] ^ self.z[:, a]

    def _cnot(self, a: int, b: int) -> None:
        self.r ^= (self.x[:, a] & self.z[:, b]
                   & (self.x[:, b] ^ self.z[:, a] ^ 1))
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    _ONE_QUBIT = {"h": _h, "s": _s, "x": _x, "z": _z, "y": _y}

    # -- gate interface ----------------------------------------------------

    def apply_gate(self, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        """Apply a library gate by name (Clifford gates only)."""
        from repro.circuit.gates import lookup_gate

        name = lookup_gate(gate).name
        qubits = tuple(qubits)
        for qubit in qubits:
            self._check_qubit(qubit)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits: {qubits}")
        if name == "reset":
            self.reset(qubits[0])
            return
        if name == "measure":
            raise ValueError(
                f"gate {gate!r} is not unitary; use measure()/reset()")
        if params:
            raise NonCliffordGateError(
                f"parametric gate {gate!r} is not Clifford; use the "
                f"'statevector' backend for this circuit")
        if name in _CLIFFORD_DECOMPOSITIONS:
            for primitive in _CLIFFORD_DECOMPOSITIONS[name]:
                self._ONE_QUBIT[primitive](self, qubits[0])
            return
        if name in _TWO_QUBIT_DECOMPOSITIONS:
            for primitive, a, b in _TWO_QUBIT_DECOMPOSITIONS[name]:
                if primitive == "cnot":
                    self._cnot(qubits[a], qubits[b])
                else:
                    self._ONE_QUBIT[primitive](self, qubits[a])
            return
        raise NonCliffordGateError(
            f"gate {gate!r} is not Clifford; the stabilizer backend "
            f"supports {sorted(_CLIFFORD_DECOMPOSITIONS)} and "
            f"{sorted(_TWO_QUBIT_DECOMPOSITIONS)} — use the "
            f"'statevector' backend for this circuit")

    def apply_unitary(self, matrix: np.ndarray,
                      qubits: tuple[int, ...]) -> None:
        """Raw matrices cannot be conjugated through a tableau."""
        raise NonCliffordGateError(
            "the stabilizer backend cannot apply raw unitaries "
            "(needed e.g. by the ZZ-crosstalk channel); use the "
            "'statevector' backend")

    def apply_decay(self, qubit: int, gamma: float, keep: float,
                    dephase: float, nrng: random.Random) -> None:
        """Amplitude damping is not a stabilizer channel.

        Only its dephasing half (a stochastic Z) is, so the kernel
        runs when ``gamma`` is exactly zero and raises otherwise.
        """
        if gamma != 0.0:
            raise NonCliffordGateError(
                "the stabilizer backend cannot apply amplitude damping; "
                "use the 'statevector' backend for decoherence noise")
        if nrng.random() < dephase:
            self.apply_gate("z", (qubit,))

    # -- measurement -------------------------------------------------------

    def _rowsum(self, h: int, i: int) -> None:
        """Multiply row ``i`` into row ``h``, tracking the sign."""
        x1 = self.x[i].astype(bool)
        z1 = self.z[i].astype(bool)
        x2 = self.x[h].astype(np.int64)
        z2 = self.z[h].astype(np.int64)
        # Exponent of the i^k phase picked up multiplying the Paulis
        # column by column (the g function of the CHP paper).
        g = np.zeros(self.n_qubits, dtype=np.int64)
        is_y = x1 & z1
        g[is_y] = z2[is_y] - x2[is_y]
        is_x = x1 & ~z1
        g[is_x] = z2[is_x] * (2 * x2[is_x] - 1)
        is_z = ~x1 & z1
        g[is_z] = x2[is_z] * (1 - 2 * z2[is_z])
        phase = (2 * int(self.r[h]) + 2 * int(self.r[i])
                 + int(g.sum())) % 4
        self.r[h] = phase // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    @staticmethod
    def _g_terms(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray,
                 z2: np.ndarray) -> np.ndarray:
        """Branchless CHP ``g`` exponents, broadcast over rows.

        Integer-exact equivalent of the masked per-column assignments
        in :meth:`_rowsum`: Y columns contribute ``z2 - x2``, X columns
        ``z2 * (2*x2 - 1)``, Z columns ``x2 * (1 - 2*z2)`` and identity
        columns zero.
        """
        return (x1 * z1 * (z2 - x2)
                + x1 * (1 - z1) * z2 * (2 * x2 - 1)
                + (1 - x1) * z1 * x2 * (1 - 2 * z2))

    def _rowsum_batch(self, targets: np.ndarray, i: int) -> None:
        """Multiply row ``i`` into every row in ``targets`` at once.

        Each target row is independent (the multiplier row is fixed),
        so the per-row :meth:`_rowsum` loop collapses to one 2-D
        integer computation.  All arithmetic is exact, making the
        result bit-identical to the sequential loop.
        """
        x1 = self.x[i].astype(np.int16)
        z1 = self.z[i].astype(np.int16)
        x2 = self.x[targets].astype(np.int16)
        z2 = self.z[targets].astype(np.int16)
        g = self._g_terms(x1, z1, x2, z2).sum(axis=1, dtype=np.int64)
        phase = (2 * self.r[targets].astype(np.int64)
                 + 2 * int(self.r[i]) + g) % 4
        self.r[targets] = (phase // 2).astype(np.uint8)
        self.x[targets] ^= self.x[i]
        self.z[targets] ^= self.z[i]

    def _random_pivot(self, qubit: int) -> int | None:
        """Stabilizer row with an X on ``qubit``, if any.

        Such a row anticommutes with Z_qubit, making the measurement
        outcome a fair coin; no such row makes it deterministic.
        """
        n = self.n_qubits
        column = self.x[n:2 * n, qubit]
        first = int(column.argmax())
        if not column[first]:
            return None
        return n + first

    def _deterministic_outcome(self, qubit: int) -> int:
        """Outcome when Z_qubit is in the stabilizer group (no collapse).

        The scratch row accumulates the product of the stabilizer rows
        whose destabilizer partners carry an X on ``qubit``.  The
        accumulator before step ``j`` is the XOR-prefix of the earlier
        multiplier rows, so every ``g`` term is computed from prefix
        arrays in one vectorised pass.  Every intermediate product is a
        stabilizer-group element with a real sign (phase exponent even
        at every step), which is what lets the per-step ``%4``/halving
        of :meth:`_rowsum` commute with summing all terms first.
        """
        n = self.n_qubits
        hits = np.nonzero(self.x[:n, qubit])[0]
        if hits.size == 0:
            return 0
        rows = hits + n
        x1 = self.x[rows].astype(np.int16)
        z1 = self.z[rows].astype(np.int16)
        # Accumulator (scratch-row) value before each multiplication.
        x2 = np.zeros_like(x1)
        z2 = np.zeros_like(z1)
        np.bitwise_xor.accumulate(x1[:-1], axis=0, out=x2[1:])
        np.bitwise_xor.accumulate(z1[:-1], axis=0, out=z2[1:])
        g = int(self._g_terms(x1, z1, x2, z2).sum(dtype=np.int64))
        total = 2 * int(self.r[rows].sum(dtype=np.int64)) + g
        return (total % 4) // 2

    def probability_of_one(self, qubit: int) -> float:
        """Pre-collapse P(1): always 0, 1/2 or 1 for stabilizer states."""
        self._check_qubit(qubit)
        if self._random_pivot(qubit) is not None:
            return 0.5
        return float(self._deterministic_outcome(qubit))

    def measure_with_probability(self, qubit: int) -> tuple[int, float]:
        """Projectively measure ``qubit`` and collapse the state.

        Consumes exactly one rng draw (compared against the
        pre-collapse probability), matching the dense backend's
        consumption so identically seeded backends agree shot for shot.
        Returns the outcome and that probability.
        """
        self._check_qubit(qubit)
        pivot = self._random_pivot(qubit)
        if pivot is None:
            outcome = self._deterministic_outcome(qubit)
            self.rng.random()  # parity with the dense backend's draw
            return outcome, float(outcome)
        outcome = 1 if self.rng.random() < 0.5 else 0
        n = self.n_qubits
        targets = np.nonzero(self.x[:, qubit])[0]
        targets = targets[targets != pivot]
        if targets.size:
            self._rowsum_batch(targets, pivot)
        # The pivot's destabilizer becomes the old stabilizer; the
        # pivot row collapses to +/- Z_qubit with the drawn sign.
        self.x[pivot - n] = self.x[pivot]
        self.z[pivot - n] = self.z[pivot]
        self.r[pivot - n] = self.r[pivot]
        self.x[pivot] = 0
        self.z[pivot] = 0
        self.z[pivot, qubit] = 1
        self.r[pivot] = outcome
        return outcome, 0.5

    def reset(self, qubit: int) -> None:
        """Unconditionally reset ``qubit`` to |0> (measure + flip)."""
        if self.measure(qubit):
            self._x(qubit)

    # -- queries -----------------------------------------------------------

    def stabilizer_strings(self) -> list[str]:
        """The n stabilizer generators as signed Pauli strings."""
        n = self.n_qubits
        labels = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        strings = []
        for row in range(n, 2 * n):
            sign = "-" if self.r[row] else "+"
            paulis = "".join(
                labels[(int(self.x[row, q]), int(self.z[row, q]))]
                for q in range(n))
            strings.append(sign + paulis)
        return strings
