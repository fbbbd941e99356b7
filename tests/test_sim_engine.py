"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import EmptySchedule, Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc(env):
        got.append((yield env.timeout(1, value="payload")))

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_events_fire_in_time_order():
    env = Environment()
    log = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker(env, "late", 10))
    env.process(worker(env, "early", 1))
    env.process(worker(env, "mid", 5))
    env.run()
    assert log == [(1, "early"), (5, "mid"), (10, "late")]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    log = []

    def worker(env, name):
        yield env.timeout(1)
        log.append(name)

    for name in "abcd":
        env.process(worker(env, name))
    env.run()
    assert log == list("abcd")


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1)

    env.process(proc(env))
    env.run(until=7.5)
    assert env.now == 7.5


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def child(env):
        yield env.timeout(2)
        return 42

    result = env.run(until=env.process(child(env)))
    assert result == 42
    assert env.now == 2


def test_run_dry_before_event_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(RuntimeError, match="ran dry"):
        env.run(until=evt)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_process_return_value_propagates():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env):
        value = yield env.process(child(env))
        return value + "!"

    assert env.run(until=env.process(parent(env))) == "done!"


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(until=env.process(parent(env))) == "caught boom"


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(child(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_event_succeed_once_only():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(RuntimeError):
        evt.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_raises_before_and_after_failure():
    env = Environment()
    evt = env.event()
    evt.fail(KeyError("k"))
    evt.defuse()
    with pytest.raises(KeyError):
        _ = evt.value
    env.run()


def test_shared_event_wakes_all_waiters():
    env = Environment()
    evt = env.event()
    woken = []

    def waiter(env, name):
        value = yield evt
        woken.append((env.now, name, value))

    def firer(env):
        yield env.timeout(4)
        evt.succeed("go")

    env.process(waiter(env, "w1"))
    env.process(waiter(env, "w2"))
    env.process(firer(env))
    env.run()
    assert woken == [(4, "w1", "go"), (4, "w2", "go")]


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(until=env.process(proc(env))) == (5, ["a", "b"])


def test_condition_operators():
    env = Environment()

    def proc(env):
        a = env.timeout(1)
        b = env.timeout(2)
        yield a & b
        return env.now

    assert env.run(until=env.process(proc(env))) == 2


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    assert env.run(until=env.process(proc(env))) == {}


def test_all_of_fails_fast_on_sub_event_failure():
    env = Environment()

    def failer(env):
        yield env.timeout(1)
        raise RuntimeError("sub failure")

    def proc(env):
        p = env.process(failer(env))
        t = env.timeout(100)
        try:
            yield env.all_of([p, t])
        except RuntimeError as exc:
            return str(exc)

    assert env.run(until=env.process(proc(env))) == "sub failure"
    assert env.now == 1


def test_mixing_environments_rejected():
    env1, env2 = Environment(), Environment()
    foreign = env2.timeout(1)

    def proc(env):
        yield foreign

    env1.process(proc(env1))
    with pytest.raises(RuntimeError, match="another environment"):
        env1.run()


def test_immediately_processed_event_resumes_synchronously():
    # Yielding an already-processed event must not deadlock.
    env = Environment()

    def proc(env):
        evt = env.event()
        evt.succeed("early")
        yield env.timeout(1)  # let evt become processed
        value = yield evt
        return value

    assert env.run(until=env.process(proc(env))) == "early"
