"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    ColumnarEnvironment,
    Environment,
    Interrupt,
    SimulationError,
    all_of,
    any_of,
    quorum_of,
)
from tests.strategies import delay_lists, delays


@pytest.fixture
def env():
    return Environment()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_run_until_time(self, env):
        env.timeout(10.0)
        env.run(until=3.0)
        assert env.now == 3.0

    def test_run_until_past_raises(self, env):
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(2.5)
        assert env.peek() == 2.5

    @given(delays=delays)
    def test_events_fire_in_time_order(self, delays):
        env = Environment()
        fired = []
        for i, delay in enumerate(delays):

            def proc(d=delay, i=i):
                yield env.timeout(d)
                fired.append((env.now, i))

            env.process(proc())
        env.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)

    def test_fifo_among_simultaneous_events(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return 42

        result = env.run(until=env.process(proc()))
        assert result == 42

    def test_processes_compose(self, env):
        def inner():
            yield env.timeout(2.0)
            return "inner-done"

        def outer():
            value = yield env.process(inner())
            return value + "!"

        assert env.run(until=env.process(outer())) == "inner-done!"

    def test_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def waiter():
            try:
                yield env.process(failing())
            except RuntimeError as exc:
                return f"caught {exc}"

        assert env.run(until=env.process(waiter())) == "caught boom"

    def test_unhandled_failure_raises_from_run(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        proc = env.process(failing())
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=proc)

    def test_yield_non_event_fails_process(self, env):
        def bad():
            yield 42

        proc = env.process(bad())
        with pytest.raises(SimulationError, match="expected an Event"):
            env.run(until=proc)

    def test_interrupt(self, env):
        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        def interrupter(target):
            yield env.timeout(3.0)
            target.interrupt("stop now")

        target = env.process(sleeper())
        env.process(interrupter(target))
        assert env.run(until=target) == ("interrupted", "stop now", 3.0)

    def test_cannot_interrupt_finished(self, env):
        def quick():
            yield env.timeout(0.0)

        proc = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_waiting_on_already_processed_event(self, env):
        done = env.event()
        done.succeed("early")
        env.run()

        def late():
            value = yield done
            return value

        assert env.run(until=env.process(late())) == "early"

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(5.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestEvents:
    def test_double_trigger_rejected(self, env):
        e = env.event()
        e.succeed(1)
        with pytest.raises(SimulationError):
            e.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestTriggerNow:
    """``Event.trigger_now`` resumes a waiter inside a scheduled call."""

    @pytest.mark.parametrize("env_class", [Environment, ColumnarEnvironment])
    def test_waiter_resumes_within_the_call(self, env_class):
        env = env_class()
        done = env.event()
        log = []

        def waiter():
            value = yield done
            log.append(("resumed", env.now, value, env._counter))
            yield env.event()  # park: finishing would schedule an event

        def fire():
            log.append(("call", env.now, None, env._counter))
            done.trigger_now("ok")
            log.append(("after", env.now, None, env._counter))

        env.process(waiter())
        env.run()  # the bootstrap: the process now waits on ``done``
        before = env.events_processed
        env.schedule_call(2.5, fire)
        counter = env._counter
        env.run()
        # One event (the call); the resume takes no heap entry of its own.
        assert env.events_processed - before == 1
        assert [entry[0] for entry in log] == ["call", "resumed", "after"]
        assert {entry[1] for entry in log} == {2.5}
        assert log[1][2] == "ok"
        assert {entry[3] for entry in log} == {counter}
        assert done.processed and done.ok

    def test_failure_is_thrown_into_the_waiter(self, env):
        done = env.event()
        caught = []

        def waiter():
            try:
                yield done
            except KeyError as exc:
                caught.append(exc)

        env.process(waiter())
        env.run()
        env.schedule_call(1.0, lambda: done.trigger_now(KeyError("x"), ok=False))
        env.run()
        assert len(caught) == 1 and not done.ok

    def test_double_trigger_rejected(self, env):
        done = env.event()
        done.trigger_now()
        with pytest.raises(SimulationError):
            done.trigger_now()
        with pytest.raises(SimulationError):
            env.event().succeed().trigger_now()


class TestComposites:
    def test_all_of_collects_values(self, env):
        def proc():
            events = [env.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
            values = yield all_of(env, events)
            return values

        # Values arrive in firing order.
        assert env.run(until=env.process(proc())) == [1.0, 2.0, 3.0]

    def test_all_of_empty(self, env):
        def proc():
            values = yield all_of(env, [])
            return values

        assert env.run(until=env.process(proc())) == []

    def test_any_of_returns_first(self, env):
        def proc():
            events = [env.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
            value = yield any_of(env, events)
            return (value, env.now)

        assert env.run(until=env.process(proc())) == (1.0, 1.0)

    def test_quorum_waits_for_k(self, env):
        def proc():
            events = [env.timeout(d, value=d) for d in (5.0, 1.0, 3.0, 2.0, 4.0)]
            values = yield quorum_of(env, events, 3)
            return (sorted(values), env.now)

        # Majority of 5 = 3: completes at t=3 with the three fastest.
        assert env.run(until=env.process(proc())) == ([1.0, 2.0, 3.0], 3.0)

    def test_quorum_impossible_rejected(self, env):
        with pytest.raises(ValueError):
            quorum_of(env, [env.timeout(1.0)], 2)

    def test_quorum_fails_when_unreachable(self, env):
        def failing(delay):
            yield env.timeout(delay)
            raise RuntimeError("replica down")

        def proc():
            events = [
                env.process(failing(1.0)),
                env.process(failing(2.0)),
                env.timeout(10.0, value="slowpoke"),
            ]
            try:
                yield quorum_of(env, events, 2)
            except RuntimeError:
                return ("failed", env.now)

        assert env.run(until=env.process(proc())) == ("failed", 2.0)

    def test_quorum_with_already_fired_events(self, env):
        early = env.event()
        early.succeed("pre")
        env.run()

        def proc():
            values = yield quorum_of(env, [early, env.timeout(1.0, "late")], 2)
            return sorted(values)

        assert env.run(until=env.process(proc())) == ["late", "pre"]

    @given(
        n=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_quorum_time_is_kth_smallest_delay(self, n, data):
        delays = data.draw(delay_lists(n, unique=True))
        k = data.draw(st.integers(min_value=1, max_value=n))
        env = Environment()

        def proc():
            events = [env.timeout(d) for d in delays]
            yield quorum_of(env, events, k)
            return env.now

        finish = env.run(until=env.process(proc()))
        assert finish == pytest.approx(sorted(delays)[k - 1])
