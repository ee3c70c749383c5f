"""Behavioural tests for the quantum superscalar core (Section 5.3)."""

from repro.circuit import QuantumCircuit
from repro.compiler import compile_circuit
from repro.qcp import (QuAPESystem, scalar_config, superscalar_config)


class TestParallelDispatch:
    def test_label_zero_group_issues_simultaneously(self, run_asm):
        result, _ = run_asm("""
            qop 0, h, q0
            qop 0, h, q1
            qop 0, h, q2
            qop 0, h, q3
            halt
        """, config=superscalar_config(8))
        times = {r.time_ns for r in result.trace.issues}
        assert len(times) == 1
        assert result.trace.total_late_ns == 0

    def test_groups_respect_timing_boundaries(self, run_asm):
        result, _ = run_asm("""
            qop 0, h, q0
            qop 0, h, q1
            qop 2, x, q0
            qop 0, x, q1
            halt
        """, config=superscalar_config(8))
        groups = result.trace.simultaneous_groups()
        sizes = [len(records) for _, records in sorted(groups.items())]
        assert sizes == [2, 2]

    def test_width_limits_group_size(self, run_asm):
        source = "\n".join(f"qop 0, h, q{i}" for i in range(8)) + "\nhalt"
        result, _ = run_asm(source, config=superscalar_config(4))
        groups = result.trace.simultaneous_groups()
        assert max(len(r) for r in groups.values()) <= 4

    def test_sixteen_wide_step_takes_two_cycles_at_width_8(self, run_asm):
        circuit = QuantumCircuit(16)
        for qubit in range(16):
            circuit.h(qubit)
        compiled = compile_circuit(circuit)
        system = QuAPESystem(program=compiled.program,
                             config=superscalar_config(8), n_qubits=16)
        result = system.run()
        assert result.ces.records[0].ces == 2


class TestRecombination:
    def test_parallel_ops_split_across_fetches_recombine(self, run_asm):
        # Fetch width 2 with 4 parallel ops and 4 pipelines: without
        # recombination the ops would dispatch as two groups of two;
        # the pre-decoder defers one cycle, the buffer refills, and all
        # four issue simultaneously.
        source = "\n".join(f"qop 0, h, q{i}" for i in range(4)) + "\nhalt"
        result, _ = run_asm(
            source, config=superscalar_config(4).with_(fetch_width=2))
        groups = result.trace.simultaneous_groups()
        assert len(groups) == 1
        assert len(next(iter(groups.values()))) == 4


class TestLookahead:
    def test_classical_dispatches_alongside_quantum(self, run_asm):
        # The classical instruction shares a cycle with the quantum
        # group (separate dispatch), so it adds no CES cycle.
        with_classical, _ = run_asm("""
            qop 0, h, q0
            qop 0, h, q1
            ldi r1, 3
            qop 2, x, q0
            qop 0, x, q1
            halt
        """, config=superscalar_config(8))
        without, _ = run_asm("""
            qop 0, h, q0
            qop 0, h, q1
            qop 2, x, q0
            qop 0, x, q1
            halt
        """, config=superscalar_config(8))
        assert with_classical.total_ns == without.total_ns

    def test_branch_latency_absorbed(self, run_asm):
        # A loop: branch executes in the same cycles as quantum
        # dispatch, keeping the issue stream dense.
        result, system = run_asm("""
            ldi r1, 3
        loop:
            qop 20, x, q0
            qop 20, x, q0
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """, config=superscalar_config(8))
        assert len(result.trace.issues) == 6
        # All x gates stay on the 200 ns grid set by their labels: the
        # loop's classical overhead is hidden inside the gate gaps.
        times = [r.time_ns for r in result.trace.issues]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(delta == 200 for delta in deltas)
        assert result.trace.total_late_ns == 0


class TestSuperscalarVsScalar:
    def test_tr_improvement_on_wide_circuit(self):
        circuit = QuantumCircuit(16)
        for _ in range(4):
            for qubit in range(16):
                circuit.h(qubit)
            circuit.barrier()
        compiled = compile_circuit(circuit)
        reports = {}
        for name, config in (("scalar", scalar_config()),
                             ("super", superscalar_config(8))):
            system = QuAPESystem(program=compiled.program, config=config,
                                 n_qubits=16)
            reports[name] = system.run().tr_report()
        assert reports["scalar"].average >= 7.0
        assert reports["super"].meets_deadline
        ratio = reports["scalar"].average / reports["super"].average
        assert ratio >= 7.0  # near the paper's 8x theoretical bound

    def test_identical_issue_semantics(self, run_asm):
        source = """
            qop 0, h, q0
            qop 2, cnot, q0, q1
            qop 4, x, q1
            qmeas 2, q1
            halt
        """
        scalar_result, _ = run_asm(source, config=scalar_config())
        super_result, _ = run_asm(source, config=superscalar_config(8))
        assert [(r.gate, r.qubits) for r in scalar_result.trace.issues] \
            == [(r.gate, r.qubits) for r in super_result.trace.issues]


class TestControlFlow:
    def test_taken_branch_flushes_wrong_path(self, run_asm):
        result, system = run_asm("""
            ldi r1, 1
            bne r1, r0, target
            qop 0, x, q0
            qop 0, x, q1
        target:
            qop 0, y, q2
            halt
        """, config=superscalar_config(8))
        gates = [r.gate for r in result.trace.issues]
        assert gates == ["y"]

    def test_fmr_waits_for_daq_delivery(self, run_asm):
        result, system = run_asm("""
            qmeas 0, q2
            fmr r1, q2
            halt
        """, config=superscalar_config(8), outcomes={2: [1]})
        assert system.processors[0].registers.read(1) == 1
        # The stall covers the ~400 ns stage I+II wait and resumes once.
        assert result.total_ns >= 400
        assert result.trace.instructions_executed == 3

    def test_loop_with_fmr_and_measure(self, run_asm):
        result, system = run_asm("""
        retry:
            qop 0, h, q0
            qmeas 2, q0
            fmr r1, q0
            bne r1, r0, retry
            halt
        """, config=superscalar_config(8), outcomes={0: [1, 0]})
        hadamards = [r for r in result.trace.issues if r.gate == "h"]
        assert len(hadamards) == 2
