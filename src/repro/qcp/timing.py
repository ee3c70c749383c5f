"""Timing queue and timing controller (Sections 5.2.4, 5.3.2).

Executed quantum instructions do not act immediately: they enter the
timing queue together with their timing label, and the timing controller
issues each operation when its point on the processor's timeline is
reached.  The timeline is built from the labels: operation *k* is
scheduled ``label_k`` clock cycles after the issue of operation *k-1*
(label 0 = simultaneous).

If the processor falls behind — it executes an instruction *after* its
scheduled timing point — the operation issues late and the timeline
slips by the same amount.  Lateness is recorded per operation: it is the
"additional accumulated quantum error" the paper's whole design works to
avoid, and the quantity that the TR <= 1 requirement bounds.

Exactly one timing controller exists per processor (Section 5.3.2),
shared by all of its quantum pipelines, "otherwise the timing control of
different quantum instructions cannot be guaranteed".
"""

from __future__ import annotations

from repro.qcp.emitter import Emitter, QuantumOp
from repro.sim.kernel import SimKernel


class TimingController:
    """Owns one processor's timeline and drives the emitter."""

    def __init__(self, kernel: SimKernel, emitter: Emitter,
                 clock_period_ns: int, processor_id: int = 0) -> None:
        self.kernel = kernel
        self.emitter = emitter
        self.clock_period_ns = clock_period_ns
        self.processor_id = processor_id
        self._last_issue_ns: int | None = None

    def reset_timeline(self) -> None:
        """Start a fresh timeline (new program block)."""
        self._last_issue_ns = None

    @property
    def last_issue_ns(self) -> int | None:
        return self._last_issue_ns

    @last_issue_ns.setter
    def last_issue_ns(self, value: int | None) -> None:
        """Restore the timeline's anchor (a control-stack restart)."""
        self._last_issue_ns = value

    def enqueue(self, op: QuantumOp, timing_label: int,
                exec_time_ns: int) -> None:
        """Accept an executed quantum instruction for timed issue.

        ``exec_time_ns`` is when the processor finished executing the
        instruction; the operation can never issue before that.
        """
        if self._last_issue_ns is None:
            scheduled = exec_time_ns
        else:
            scheduled = (self._last_issue_ns
                         + timing_label * self.clock_period_ns)
        actual = max(scheduled, exec_time_ns)
        self._last_issue_ns = actual
        # The emitter issues ``op`` at its timing point, ``late_ns``
        # after the point its label scheduled.
        self.kernel.schedule_at(actual, self.emitter.issue, op,
                                self.processor_id, actual - scheduled)

    def enqueue_immediate(self, op: QuantumOp, time_ns: int) -> None:
        """Issue a feedback-determined operation as soon as possible.

        Used for the operation selected by an MRCE: it has no
        pre-scheduled timing point (the measurement latency is
        non-deterministic), so it issues at ``time_ns`` and the timeline
        continues from there.
        """
        actual = max(time_ns, self._last_issue_ns or 0)
        self._last_issue_ns = actual
        self.kernel.schedule_at(actual, self.emitter.issue, op,
                                self.processor_id, 0)
