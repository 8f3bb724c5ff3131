"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (
    AllOf,
    Process,
    SimEvent,
    Simulator,
    Timeout,
    run_processes,
)


class TestSimulatorScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, lambda: fired.append("late"))
        sim.schedule(0.1, lambda: fired.append("early"))
        sim.schedule(0.2, lambda: fired.append("middle"))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(0.5, lambda i=index: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), -1e-9, -float("inf")])
    def test_unorderable_or_past_delay_rejected(self, delay):
        # ``nan < 0`` is false: a NaN used to reach the heap, where every
        # comparison with it is false and the order silently undefined.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 0

    def test_zero_and_negative_zero_delay_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(-0.0, lambda: fired.append("a"))
        sim.schedule(0.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b"] and sim.now == 0.0

    def test_until_stops_before_later_events_and_resumes(self):
        sim = Simulator()
        fired = []
        for at in (0.5, 1.0, 1.5):
            sim.schedule(at, lambda at=at: fired.append(at))
        sim.run(until=1.0)
        assert fired == [0.5, 1.0] and sim.now == 1.0
        assert sim.pending_events == 1 and sim.events_processed == 2
        sim.run()
        assert fired == [0.5, 1.0, 1.5] and sim.now == 1.5

    def test_until_in_the_past_is_rejected(self):
        # It used to rewind: ``now`` went back to 3.0, and an event
        # scheduled 1 s later fired at 4.0, before the 5.0 one that had
        # already run.
        sim = Simulator()
        fired = []
        for at in (5.0, 10.0):
            sim.schedule(at, lambda at=at: fired.append(at))
        sim.run(until=7.0)
        with pytest.raises(SimulationError, match="past"):
            sim.run(until=3.0)
        assert sim.now == 7.0
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0, 8.0, 10.0]

    def test_nan_until_is_rejected(self):
        # ``time > nan`` is false: the run used to drain everything.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert sim.pending_events == 1 and sim.now == 0.0

    def test_until_now_is_allowed(self):
        sim = Simulator()
        sim.run(until=2.0)
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_a_reserved_slot_keeps_its_place_in_the_order(self):
        sim = Simulator()
        fired = []
        slot = sim.reserve(1.0)
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.schedule(0.5, lambda: sim.put(slot, lambda: fired.append("slot")))
        sim.run()
        assert fired == ["slot", "after"]
        assert sim.events_processed == 3

    def test_cursor_is_the_running_events_slot(self):
        sim = Simulator()
        slots = []
        first = sim.reserve(1.0)
        sim.put(first, lambda: slots.append(sim.cursor()))
        sim.run(until=1.5)
        assert slots == [first]
        # Between runs every slot reserved so far has passed, and no
        # slot reserved from now on has.
        assert first < sim.cursor() < sim.reserve(0.0)

    def test_now_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1]
        assert sim.now == 1.5
        sim.run()
        assert fired == [1, 2]

    def test_event_budget_raises_on_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_nested_scheduling_from_callbacks(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, lambda: sim.schedule(0.1, lambda: fired.append("x")))
        sim.run()
        assert fired == ["x"]
        assert sim.now == pytest.approx(0.2)


class TestSimEvent:
    def test_trigger_wakes_existing_waiters(self):
        sim = Simulator()
        event = SimEvent(sim)
        values = []
        event.add_callback(values.append)
        event.trigger("payload")
        sim.run()
        assert values == ["payload"]

    def test_trigger_wakes_late_waiters(self):
        sim = Simulator()
        event = SimEvent(sim)
        event.trigger(42)
        values = []
        event.add_callback(values.append)
        sim.run()
        assert values == [42]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = SimEvent(sim)
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_timeout_triggers_at_deadline(self):
        sim = Simulator()
        timeout = Timeout(sim, 0.7)
        sim.run()
        assert timeout.triggered
        assert sim.now == pytest.approx(0.7)

    def test_timeout_triggered_by_hand_still_raises_when_due(self):
        sim = Simulator()
        timeout = Timeout(sim, 0.4)
        timeout.trigger("early")
        with pytest.raises(SimulationError, match="triggered twice"):
            sim.run()
        assert sim.now == pytest.approx(0.4) and timeout.value == "early"

    def test_timeout_wakes_its_waiters_in_its_own_event(self):
        """At one instant a waiter runs at the timeout's ``(time, seq)``:
        before an event scheduled for that instant after the timeout was
        made, and with no 0-delay hop of its own."""

        sim = Simulator()
        order = []
        timeout = Timeout(sim, 0.5)
        timeout.add_callback(lambda _v: order.append(("first", sim.cursor())))
        timeout.add_callback(lambda _v: order.append(("second", sim.cursor())))
        sim.schedule(0.5, lambda: order.append(("later", sim.cursor())))
        sim.run()
        assert [name for name, _slot in order] == ["first", "second", "later"]
        assert order[0][1] == order[1][1] < order[2][1]
        assert sim.events_processed == 2

    def test_a_late_waiter_of_a_timeout_still_gets_a_hop(self):
        sim = Simulator()
        timeout = Timeout(sim, 0.2)
        sim.run()
        values = []
        timeout.add_callback(values.append)
        assert values == [] and sim.pending_events == 1
        sim.run()
        assert values == [None] and sim.events_processed == 2

    def test_allof_waits_for_every_event(self):
        sim = Simulator()
        first, second = Timeout(sim, 0.1), Timeout(sim, 0.5)
        both = AllOf(sim, [first, second])
        done_at = []
        both.add_callback(lambda _v: done_at.append(sim.now))
        sim.run()
        assert done_at == [pytest.approx(0.5)]

    def test_allof_of_nothing_triggers_immediately(self):
        sim = Simulator()
        assert AllOf(sim, []).triggered


class TestProcess:
    def test_generator_runs_to_completion(self):
        sim = Simulator()
        steps = []

        def body():
            steps.append(("start", sim.now))
            yield Timeout(sim, 0.2)
            steps.append(("middle", sim.now))
            yield Timeout(sim, 0.3)
            steps.append(("end", sim.now))

        run_processes(sim, [body()])
        assert steps == [
            ("start", 0.0),
            ("middle", pytest.approx(0.2)),
            ("end", pytest.approx(0.5)),
        ]

    def test_yielded_event_value_is_sent_back(self):
        sim = Simulator()
        received = []

        def body():
            event = SimEvent(sim)
            sim.schedule(0.1, lambda: event.trigger("hello"))
            value = yield event
            received.append(value)

        run_processes(sim, [body()])
        assert received == ["hello"]

    def test_two_processes_interleave(self):
        sim = Simulator()
        order = []

        def worker(name, delay):
            yield Timeout(sim, delay)
            order.append(name)
            yield Timeout(sim, delay)
            order.append(name)

        run_processes(sim, [worker("a", 0.1), worker("b", 0.15)])
        assert order == ["a", "b", "a", "b"]

    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    def test_a_process_yielding_k_timeouts_costs_k_plus_one_events(self, k):
        """One event to start the body and one per timeout: the timeout
        resumes the process itself."""

        sim = Simulator()

        def body():
            for _ in range(k):
                yield Timeout(sim, 0.1)

        run_processes(sim, [body()])
        assert sim.events_processed == k + 1
        assert sim.now == pytest.approx(0.1 * k)

    def test_timeouts_due_at_one_instant_resume_in_creation_order(self):
        sim = Simulator()
        order = []

        def sleeper(name, delay):
            yield Timeout(sim, delay)
            order.append(name)

        # Created in the order c, a, b (the processes start at t=0 in
        # spawn order), all due at t=0.3.
        run_processes(sim, [
            sleeper("c", 0.3), sleeper("a", 0.3), sleeper("b", 0.3),
        ])
        assert order == ["c", "a", "b"]
        assert sim.events_processed == 6

    def test_yielding_non_event_rejected(self):
        sim = Simulator()

        def body():
            yield "not an event"

        with pytest.raises(SimulationError, match="expected SimEvent"):
            run_processes(sim, [body()])

    def test_yielding_non_event_captured_on_process(self):
        sim = Simulator()

        def body():
            yield "not an event"

        process = Process(sim, body())
        sim.run()
        assert isinstance(process.error, SimulationError)
        assert process.done.triggered

    def test_blocked_process_detected(self):
        sim = Simulator()

        def body():
            yield SimEvent(sim)  # never triggered

        with pytest.raises(SimulationError):
            run_processes(sim, [body()])

    def test_process_exception_captured_not_reraised(self):
        # A crashing process must not unwind Simulator.run mid-drain:
        # other processes keep running and the crash lands on `error`.
        sim = Simulator()
        survivor_done = []

        def crasher():
            yield Timeout(sim, 0.1)
            raise ValueError("boom")

        def survivor():
            yield Timeout(sim, 0.5)
            survivor_done.append(True)

        crash_proc = Process(sim, crasher())
        Process(sim, survivor())
        sim.run()
        assert isinstance(crash_proc.error, ValueError)
        assert crash_proc.done.triggered
        assert survivor_done == [True]

    def test_process_exception_surfaced_by_run_processes(self):
        sim = Simulator()

        def body():
            yield Timeout(sim, 0.1)
            raise ValueError("boom")

        with pytest.raises(SimulationError, match="crashed"):
            run_processes(sim, [body()])

    def test_events_processed_accurate_after_callback_raise(self):
        sim = Simulator()

        def explode():
            raise RuntimeError("raw callback failure")

        sim.schedule(0.0, explode)
        with pytest.raises(RuntimeError):
            sim.run()
        # The dequeued event is counted even though its callback raised.
        assert sim.events_processed == 1

    def test_determinism_across_runs(self):
        def trace_run():
            sim = Simulator()
            trace = []

            def worker(name):
                for _ in range(3):
                    yield Timeout(sim, 0.1)
                    trace.append((name, round(sim.now, 6)))

            run_processes(sim, [worker("a"), worker("b"), worker("c")])
            return trace

        assert trace_run() == trace_run()
