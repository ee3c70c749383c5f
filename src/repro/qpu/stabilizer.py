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
* rows ``n..2n-1`` — stabilizers  (row n+i starts as Z_i).

CHP's scratch row 2n is not kept: a determined outcome's product is
summed from per-column prefix XORs instead
(:meth:`~StabilizerState.deterministic`).

The tableau is column-packed, as CHP packs it into machine words:
``x[j]``/``z[j]`` is one Python int per qubit column whose bit ``i``
is row i's X/Z bit on qubit j, and ``r`` is one int whose bit ``i``
is row i's sign.  A gate touches only its qubits' columns, so it costs
a few integer operations over all 2n rows at once.

Every conjugation updates x/z and *returns* its sign-flip mask (the
rows whose sign the gate flips); :meth:`StabilizerState.apply_gate`
XORs the mask into ``r``.  Measurement splits the same way: an
x/z-only projection (:meth:`~StabilizerState.project` for a random
outcome, :meth:`~StabilizerState.deterministic` for a fixed one)
returns the masks the sign rules read, and the device applies those
rules to its own ``r``.  Since x/z never read ``r``, the trace cache's
sign compiler runs this same kernel on a model state whose signs it
leaves at zero (:mod:`repro.qcp.tracecache`).

Non-Clifford gates (t, rx(theta), ...) raise
:class:`~repro.qpu.backend.NonCliffordGateError` — use the
``"statevector"`` backend for those circuits.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.circuit.gates import lookup_gate
from repro.qpu.backend import (NonCliffordGateError, SimulationBackend,
                               register_backend)

if TYPE_CHECKING:
    import numpy as np

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
        self.x = [1 << j for j in range(n_qubits)]
        self.z = [1 << (n_qubits + j) for j in range(n_qubits)]
        self.r = 0

    def copy(self) -> "StabilizerState":
        clone = StabilizerState.__new__(StabilizerState)
        clone.n_qubits = self.n_qubits
        clone.rng = self.rng
        clone.x = list(self.x)
        clone.z = list(self.z)
        clone.r = self.r
        return clone

    def reinitialize(self) -> None:
        """Return to |0...0> in place (object identity preserved)."""
        n = self.n_qubits
        self.x[:] = [1 << j for j in range(n)]
        self.z[:] = [1 << (n + j) for j in range(n)]
        self.r = 0

    def snapshot(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Checkpoint: the (x, z, r) columns as immutable ints."""
        return tuple(self.x), tuple(self.z), self.r

    def restore(self, snap: tuple) -> None:
        """Overwrite the tableau in place from a :meth:`snapshot`.

        Also accepts a *constructed* snapshot — the trace cache
        materializes the divergence frontier from a trie node's
        compile-time exit columns plus the live sign column, which is
        exactly an (x, z, r) triple.
        """
        x, z, r = snap
        n = self.n_qubits
        limit = 1 << 2 * n
        if len(x) != n or len(z) != n or not all(
                0 <= value < limit for value in (*x, *z, r)):
            raise ValueError(
                f"snapshot with {len(x)}/{len(z)} columns does not fit "
                f"the {n}-qubit tableau")
        self.x[:] = x
        self.z[:] = z
        self.r = r

    # -- primitive conjugations: update x/z, return the sign flips ---------

    def _h(self, a: int) -> int:
        x, z = self.x, self.z
        xa, za = x[a], z[a]
        x[a], z[a] = za, xa
        return xa & za

    def _s(self, a: int) -> int:
        xa, za = self.x[a], self.z[a]
        self.z[a] = za ^ xa
        return xa & za

    def _x(self, a: int) -> int:
        return self.z[a]

    def _z(self, a: int) -> int:
        return self.x[a]

    def _y(self, a: int) -> int:
        return self.x[a] ^ self.z[a]

    def _cnot(self, a: int, b: int) -> int:
        x, z = self.x, self.z
        xa, zb = x[a], z[b]
        flip = xa & zb & ~(x[b] ^ z[a])
        x[b] ^= xa
        z[a] ^= zb
        return flip

    _ONE_QUBIT = {"h": _h, "s": _s, "x": _x, "z": _z, "y": _y}

    # -- gate interface ----------------------------------------------------

    def conjugate(self, name: str, qubits: tuple[int, ...]) -> int:
        """Conjugate x/z by the canonical Clifford gate ``name`` and
        return its sign-flip mask; ``r`` is left alone."""
        mask = 0
        decomposition = _CLIFFORD_DECOMPOSITIONS.get(name)
        if decomposition is not None:
            for primitive in decomposition:
                mask ^= self._ONE_QUBIT[primitive](self, qubits[0])
            return mask
        pairs = _TWO_QUBIT_DECOMPOSITIONS.get(name)
        if pairs is None:
            raise NonCliffordGateError(
                f"gate {name!r} is not Clifford; the stabilizer backend "
                f"supports {sorted(_CLIFFORD_DECOMPOSITIONS)} and "
                f"{sorted(_TWO_QUBIT_DECOMPOSITIONS)} — use the "
                f"'statevector' backend for this circuit")
        for primitive, a, b in pairs:
            if primitive == "cnot":
                mask ^= self._cnot(qubits[a], qubits[b])
            else:
                mask ^= self._ONE_QUBIT[primitive](self, qubits[a])
        return mask

    def apply_gate(self, gate: str, qubits: tuple[int, ...],
                   params: tuple[float, ...] = ()) -> None:
        """Apply a library gate by name (Clifford gates only)."""
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
        self.r ^= self.conjugate(name, qubits)

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

    # -- measurement: x/z projections, then the sign rules ----------------

    def project(self, qubit: int) -> tuple[int, int, int] | None:
        """Collapse x/z for a measurement of ``qubit`` whose outcome is
        a fair coin; ``None`` (nothing changed) when it is determined.

        The pivot is the first stabilizer row with an X on ``qubit``;
        the targets ``tmask`` are the other rows with one.  The pivot
        row multiplies into each target (the CHP rowsum), its
        destabilizer partner inherits it, and it becomes Z_qubit.
        Returns ``(pivot, tmask, gmask)``: ``gmask`` holds the targets
        whose rowsum phase exponent ``g`` is 2 or 3 mod 4, so a
        target's new sign is its sign XOR the pivot's XOR its ``gmask``
        bit.  Columns are independent, so one pass over them does the
        rowsum and the collapse; the per-row ``g`` counts mod 4 in two
        bit-sliced words (``lo``, ``hi``).
        """
        n = self.n_qubits
        x, z = self.x, self.z
        stabilizers = x[qubit] >> n
        if not stabilizers:
            return None
        pivot = (stabilizers & -stabilizers).bit_length() - 1 + n
        pbit = 1 << pivot
        mbit = 1 << (pivot - n)
        targets = x[qubit] ^ pbit
        touched = pbit | mbit
        keep = ~touched
        lo = hi = 0
        for j in range(n):
            xj, zj = x[j], z[j]
            if not (xj | zj) & touched:
                continue    # neither the pivot nor its partner here
            px, pz = xj & pbit, zj & pbit
            if px or pz:
                # g exponents of multiplying the pivot's Pauli into the
                # targets' (the CHP g function): +1 in ``plus``, -1 in
                # ``minus``, by the pivot's Pauli on this column.
                a, b = xj & targets, zj & targets
                if px and pz:                   # Y: z2 - x2
                    plus, minus = b & ~a, a & ~b
                elif px:                        # X: z2 (2 x2 - 1)
                    plus, minus = a & b, b & ~a
                else:                           # Z: x2 (1 - 2 z2)
                    plus, minus = a & ~b, a & b
                hi ^= lo & plus
                lo ^= plus
                hi ^= ~lo & minus
                lo ^= minus
                if px:
                    xj = (xj ^ targets) & keep | mbit
                else:
                    xj &= keep
                if pz:
                    zj = (zj ^ targets) & keep | mbit
                else:
                    zj &= keep
                x[j], z[j] = xj, zj
            else:
                x[j], z[j] = xj & keep, zj & keep
        z[qubit] |= pbit
        return pivot, targets, hi

    def deterministic(self, qubit: int) -> tuple[int, int]:
        """The determined outcome's masks: ``(rowsmask, ghalf)``, so the
        outcome is ``(popcount(r & rowsmask) + ghalf) & 1``.  Only
        meaningful when the outcome is determined (:meth:`project`
        returns ``None``).

        Z_qubit is the product of the stabilizer rows whose
        destabilizer partners carry an X on ``qubit`` (``rowsmask``),
        taken lowest row first.  Row k's ``g`` term reads the product
        of the rows before it: per column, an exclusive prefix XOR over
        the rows, built from shift-XORs.  Every partial product is a
        stabilizer-group element with a real sign, so summing all terms
        before the ``% 4`` equals the sequential rowsums, and ``ghalf``
        is ``(g % 4) // 2``.  x/z are unchanged.
        """
        n = self.n_qubits
        rows = (self.x[qubit] & ((1 << n) - 1)) << n
        if not rows:
            return 0, 0
        span = rows.bit_length() - (rows & -rows).bit_length() + 1
        g = 0
        for xj, zj in zip(self.x, self.z):
            a, b = xj & rows, zj & rows
            both = a | b
            if not both & (both - 1):
                continue    # at most one row: no earlier product
            ea, eb = a, b
            shift = 1
            while shift < span:
                ea ^= ea << shift
                eb ^= eb << shift
                shift <<= 1
            # The product so far (x2, z2 of the g function) at each
            # row, and the row's own Pauli: Y, X only or Z only.
            ea = (ea ^ a) & rows
            eb = (eb ^ b) & rows
            y, xo, zo = a & b, a & ~b, b & ~a
            g += ((y & eb & ~ea).bit_count() - (y & ea & ~eb).bit_count()
                  + (xo & eb & ea).bit_count() - (xo & eb & ~ea).bit_count()
                  + (zo & ea & ~eb).bit_count() - (zo & ea & eb).bit_count())
        return rows, (g % 4) // 2

    def probability_of_one(self, qubit: int) -> float:
        """Pre-collapse P(1): always 0, 1/2 or 1 for stabilizer states."""
        self._check_qubit(qubit)
        if self.x[qubit] >> self.n_qubits:
            return 0.5
        rows, ghalf = self.deterministic(qubit)
        return float(((self.r & rows).bit_count() + ghalf) & 1)

    def measure_with_probability(self, qubit: int) -> tuple[int, float]:
        """Projectively measure ``qubit`` and collapse the state.

        Consumes exactly one rng draw (compared against the
        pre-collapse probability), matching the dense backend's
        consumption so identically seeded backends agree shot for shot.
        Returns the outcome and that probability.
        """
        self._check_qubit(qubit)
        projected = self.project(qubit)
        if projected is None:
            rows, ghalf = self.deterministic(qubit)
            outcome = ((self.r & rows).bit_count() + ghalf) & 1
            self.rng.random()  # parity with the dense backend's draw
            return outcome, float(outcome)
        pivot, tmask, gmask = projected
        outcome = 1 if self.rng.random() < 0.5 else 0
        # The targets take the pivot's sign and their g phase; the
        # destabilizer partner inherits the pivot's sign, and the pivot
        # row's sign is the drawn outcome.
        r = self.r
        partner = 1 << (pivot - self.n_qubits)
        if (r >> pivot) & 1:
            r ^= gmask ^ tmask
            r |= partner
        else:
            r ^= gmask
            r &= ~partner
        if outcome:
            r |= 1 << pivot
        else:
            r &= ~(1 << pivot)
        self.r = r
        return outcome, 0.5

    def reset(self, qubit: int) -> None:
        """Unconditionally reset ``qubit`` to |0> (measure + flip)."""
        if self.measure(qubit):
            self.r ^= self._x(qubit)

    # -- queries -----------------------------------------------------------

    def stabilizer_strings(self) -> list[str]:
        """The n stabilizer generators as signed Pauli strings."""
        n = self.n_qubits
        labels = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        strings = []
        for row in range(n, 2 * n):
            sign = "-" if (self.r >> row) & 1 else "+"
            paulis = "".join(
                labels[((self.x[q] >> row) & 1, (self.z[q] >> row) & 1)]
                for q in range(n))
            strings.append(sign + paulis)
        return strings
