"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import SimKernel, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule(50, fired.append, "late")
        kernel.schedule(10, fired.append, "early")
        kernel.schedule(30, fired.append, "middle")
        kernel.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_in_insertion_order(self):
        kernel = SimKernel()
        fired = []
        for tag in range(5):
            kernel.schedule(10, fired.append, tag)
        kernel.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        kernel = SimKernel()
        kernel.schedule(25, lambda: None)
        kernel.run()
        assert kernel.now == 25

    def test_nested_scheduling_from_callbacks(self):
        kernel = SimKernel()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                kernel.schedule(10, chain, depth + 1)

        kernel.schedule(0, chain, 0)
        kernel.run()
        assert fired == [0, 1, 2, 3]
        assert kernel.now == 30

    def test_negative_delay_rejected(self):
        kernel = SimKernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        kernel = SimKernel()
        kernel.schedule(20, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(10, lambda: None)

    def test_schedule_at_now_fires_at_now(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule(20, lambda: kernel.schedule_at(
            kernel.now, lambda: fired.append(kernel.now)))
        kernel.run()
        assert fired == [20]

    def test_callback_receives_every_argument(self):
        kernel = SimKernel()
        received = []
        kernel.schedule(5, lambda *args: received.append(args), "op", 3, None)
        kernel.schedule_at(7, lambda *args: received.append(args))
        kernel.run()
        assert received == [("op", 3, None), ()]

    def test_relative_and_absolute_schedules_share_one_order(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule(10, fired.append, "relative first")
        kernel.schedule_at(10, fired.append, "absolute")
        kernel.schedule(10, fired.append, "relative last")
        kernel.run()
        assert fired == ["relative first", "absolute", "relative last"]

    def test_rejected_schedule_leaves_the_queue_unchanged(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule(30, fired.append, "kept")

        def reject():
            with pytest.raises(SimulationError):
                kernel.schedule(-5, fired.append, "negative delay")
            with pytest.raises(SimulationError):
                kernel.schedule_at(kernel.now - 1, fired.append, "past")
            fired.append(kernel.pending_events)

        kernel.schedule(10, reject)
        kernel.run()
        assert fired == [1, "kept"]
        assert kernel.events_processed == 2


class TestDispatchOrder:
    def test_out_of_order_scheduling_interleaves_with_monotone(self):
        # Events scheduled for earlier times after later ones still
        # dispatch in global time order.
        kernel = SimKernel()
        fired = []
        for time in (10, 20, 30, 40):
            kernel.schedule_at(time, fired.append, time)
        kernel.schedule_at(15, fired.append, 15)
        kernel.schedule_at(35, fired.append, 35)
        kernel.schedule_at(5, fired.append, 5)
        kernel.run()
        assert fired == [5, 10, 15, 20, 30, 35, 40]

    def test_event_scheduled_for_now_fires_after_queued_ones(self):
        kernel = SimKernel()
        fired = []

        def first():
            fired.append("first")
            kernel.schedule(0, fired.append, "scheduled by first")

        kernel.schedule(10, first)
        kernel.schedule(10, fired.append, "second")
        kernel.run()
        assert fired == ["first", "second", "scheduled by first"]

    def test_callbacks_are_never_compared(self):
        # Schedule order breaks every time tie, so the heap never
        # compares two callbacks (or their arguments).
        class Incomparable:
            def __init__(self, fired, tag):
                self.fired, self.tag = fired, tag

            def __call__(self):
                self.fired.append(self.tag)

            def __eq__(self, other):
                raise AssertionError("callbacks were compared")

            __lt__ = __gt__ = __le__ = __ge__ = __eq__
            __hash__ = object.__hash__

        kernel = SimKernel()
        fired = []
        for tag in range(20):
            kernel.schedule_at(tag % 3, Incomparable(fired, tag))
        kernel.run()
        assert fired == sorted(range(20), key=lambda tag: (tag % 3, tag))

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=80))
    def test_random_schedules_dispatch_in_total_order(self, times):
        # By time, then in the order the events were scheduled.
        kernel = SimKernel()
        observed = []
        for index, time in enumerate(times):
            kernel.schedule_at(
                time, lambda i=index: observed.append((kernel.now, i)))
        kernel.run()
        assert observed == sorted((time, index)
                                  for index, time in enumerate(times))


class TestPendingEvents:
    def test_counts_undispatched_events(self):
        kernel = SimKernel()
        seen = []
        for delay in (30, 10, 20):
            kernel.schedule(delay,
                            lambda: seen.append(kernel.pending_events))
        assert kernel.pending_events == 3
        kernel.run()
        # An event leaves the queue before its callback runs, so the
        # last one sees an empty queue (the quiet-MRCE signature reads
        # this).
        assert seen == [2, 1, 0]
        assert kernel.pending_events == 0

    def test_counts_events_scheduled_by_callbacks(self):
        kernel = SimKernel()
        seen = []

        def fan_out():
            for delay in (5, 5, 10):
                kernel.schedule(delay, lambda: seen.append(
                    (kernel.now, kernel.pending_events)))
            seen.append((kernel.now, kernel.pending_events))

        kernel.schedule(0, fan_out)
        kernel.run()
        assert seen == [(0, 3), (5, 2), (5, 1), (10, 0)]


class TestRunBounds:
    def test_max_events_guard_raises(self):
        kernel = SimKernel()

        def forever():
            kernel.schedule(1, forever)

        kernel.schedule(0, forever)
        with pytest.raises(SimulationError):
            kernel.run(max_events=100)

    def test_events_processed_counter(self):
        kernel = SimKernel()
        for _ in range(4):
            kernel.schedule(1, lambda: None)
        kernel.run()
        assert kernel.events_processed == 4

    def test_budget_equal_to_the_event_count_drains(self):
        kernel = SimKernel()
        for delay in range(5):
            kernel.schedule(delay, lambda: None)
        kernel.run(max_events=5)
        assert kernel.pending_events == 0
        assert kernel.events_processed == 5

    def test_exhausted_budget_keeps_the_rest_queued(self):
        kernel = SimKernel()
        fired = []
        for time in (40, 10, 30, 20, 50):
            kernel.schedule_at(time, fired.append, time)
        with pytest.raises(SimulationError):
            kernel.run(max_events=3)
        assert fired == [10, 20, 30]
        assert kernel.now == 30
        assert kernel.pending_events == 2
        kernel.run()
        assert fired == [10, 20, 30, 40, 50]

    def test_budget_applies_to_each_call(self):
        kernel = SimKernel()
        for _ in range(3):
            kernel.schedule(1, lambda: None)
        kernel.run(max_events=3)
        for _ in range(3):
            kernel.schedule(1, lambda: None)
        kernel.run(max_events=3)
        assert kernel.events_processed == 6

    def test_run_on_an_empty_queue_is_a_no_op(self):
        kernel = SimKernel()
        kernel.run(max_events=0)
        kernel.run()
        assert (kernel.now, kernel.events_processed,
                kernel.pending_events) == (0, 0, 0)

    def test_callback_error_propagates_and_the_queue_survives(self):
        kernel = SimKernel()
        fired = []

        def fail():
            raise ValueError("model fault")

        kernel.schedule(10, fail)
        kernel.schedule(20, fired.append, "after")
        with pytest.raises(ValueError, match="model fault"):
            kernel.run()
        # The failing event was dispatched; the later one is still due.
        assert kernel.now == 10
        assert kernel.events_processed == 1
        assert kernel.pending_events == 1
        kernel.run()
        assert fired == ["after"]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    kernel = SimKernel()
    observed = []
    for delay in delays:
        kernel.schedule(delay, lambda: observed.append(kernel.now))
    kernel.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
