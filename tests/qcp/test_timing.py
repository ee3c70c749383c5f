"""Unit tests for the timing queue / timing controller."""

from repro.qcp import (Emitter, MeasurementResultRegisters,
                       TimingController, Trace)
from repro.qcp.emitter import QuantumOp
from repro.qpu import PRNGQPU, PRNGReadout
from repro.sim import SimKernel


def make_controller():
    kernel = SimKernel()
    trace = Trace()
    qpu = PRNGQPU(4, PRNGReadout(seed=0))
    emitter = Emitter(kernel=kernel, qpu=qpu,
                      results=MeasurementResultRegisters(4), trace=trace)
    controller = TimingController(kernel, emitter, clock_period_ns=10)
    return kernel, trace, controller


def op(gate="h", qubits=(0,)):
    return QuantumOp(gate=gate, qubits=qubits)


class TestTimeline:
    def test_first_op_issues_at_execution_time(self):
        kernel, trace, controller = make_controller()
        kernel.schedule(50, lambda: controller.enqueue(op(), 0, 50))
        kernel.run()
        assert trace.issues[0].time_ns == 50
        assert trace.issues[0].late_ns == 0

    def test_labels_space_the_timeline(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op(), 0, 0)
        controller.enqueue(op(qubits=(1,)), 3, 0)
        controller.enqueue(op(qubits=(2,)), 2, 0)
        kernel.run()
        assert [r.time_ns for r in trace.issues] == [0, 30, 50]

    def test_zero_label_is_simultaneous(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op(), 0, 0)
        controller.enqueue(op(qubits=(1,)), 0, 0)
        kernel.run()
        times = [r.time_ns for r in trace.issues]
        assert times[0] == times[1]

    def test_late_execution_slips_timeline_and_is_recorded(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op(), 0, 0)
        # Executed 40 ns late relative to its label-1 timing point.
        controller.enqueue(op(qubits=(1,)), 1, 50)
        controller.enqueue(op(qubits=(2,)), 1, 50)
        kernel.run()
        records = trace.issues
        assert records[1].time_ns == 50
        assert records[1].late_ns == 40
        # The timeline continues from the slipped point.
        assert records[2].time_ns == 60
        assert records[2].late_ns == 0
        assert trace.total_late_ns == 40

    def test_reset_timeline_starts_fresh(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op(), 0, 0)
        kernel.run()
        controller.reset_timeline()
        kernel.schedule(5, lambda: controller.enqueue(op(), 9, kernel.now))
        kernel.run()
        # Despite the label 9, the fresh timeline issues at exec time.
        assert trace.issues[1].time_ns == 5

    def test_enqueue_immediate_does_not_wait_for_labels(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op(), 0, 0)
        controller.enqueue_immediate(op(qubits=(1,)), 25)
        kernel.run()
        assert trace.issues[1].time_ns == 25
        assert trace.issues[1].late_ns == 0

    def test_enqueue_immediate_never_issues_before_the_timeline(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op(), 0, 0)
        controller.enqueue(op(qubits=(1,)), 4, 0)
        # Requested at 10 ns, but the timeline already reached 40 ns.
        controller.enqueue_immediate(op(qubits=(2,)), 10)
        kernel.run()
        assert [(r.qubits, r.time_ns, r.late_ns) for r in trace.issues] == [
            ((0,), 0, 0), ((1,), 40, 0), ((2,), 40, 0)]

    def test_simultaneous_ops_issue_in_enqueue_order(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op("x", (3,)), 0, 20)
        controller.enqueue(op("y", (1,)), 0, 0)
        controller.enqueue_immediate(op("z", (2,)), 20)
        controller.enqueue(op("h", (0,)), 0, 0)
        kernel.run()
        assert [(r.gate, r.time_ns) for r in trace.issues] == [
            ("x", 20), ("y", 20), ("z", 20), ("h", 20)]


class TestEmitterPaths:
    def test_gate_reaches_qpu(self):
        kernel, trace, controller = make_controller()
        controller.enqueue(op("x", (2,)), 0, 0)
        kernel.run()
        qpu = controller.emitter.qpu
        assert qpu.operation_log[0].gate == "x"

    def test_measurement_invalidates_then_delivers(self):
        kernel, trace, controller = make_controller()
        emitter = controller.emitter
        controller.enqueue(op("measure", (1,)), 0, 0)
        kernel.run()
        # Direct path: delivery after the configured latency.
        assert emitter.results.is_valid(1)
        delivery = emitter.results.history[0]
        assert delivery.time_ns == emitter.result_latency_ns
