"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simulation import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(3.5)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [3.5]
    assert sim.now == 3.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.spawn(proc(sim, "late", 5))
    sim.spawn(proc(sim, "early", 1))
    sim.spawn(proc(sim, "mid", 3))
    sim.run()
    assert order == ["early", "mid", "late"]


def test_simultaneous_events_fifo_by_creation():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1)
        order.append(name)

    for name in "abc":
        sim.spawn(proc(sim, name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return 42

    def parent(sim, out):
        value = yield sim.spawn(child(sim))
        out.append(value)

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == [42]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim, out):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            out.append(str(exc))

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == ["boom"]


def test_unobserved_process_crash_raises_from_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.spawn(child(sim))
    with pytest.raises(SimulationError, match="crashed"):
        sim.run()


def test_event_succeed_value_delivered():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter(sim):
        got.append((yield event))

    def trigger(sim):
        yield sim.timeout(4)
        event.succeed("payload")

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")
    times = []

    def proc(sim):
        yield sim.timeout(2)
        value = yield event
        times.append((sim.now, value))

    sim.spawn(proc(sim))
    sim.run()
    assert times == [(2, "early")]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    got = []

    def proc(sim):
        values = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
        got.append((sim.now, values))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(3, ["a", "b"])]


def test_any_of_returns_first():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
        got.append((sim.now, value))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [(1, "fast")]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
            log.append("slept")
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))

    def interrupter(sim, victim):
        yield sim.timeout(2)
        victim.interrupt(cause="wake up")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 2, "wake up")]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_run_until_time_stops_clock_there():
    sim = Simulator()
    seen = []

    def proc(sim):
        while True:
            yield sim.timeout(1)
            seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=3.5)
    assert seen == [1, 2, 3]
    assert sim.now == 3.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(7)
        return "done"

    result = sim.run(until=sim.spawn(proc(sim)))
    assert result == "done"
    assert sim.now == 7


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.spawn(iter_timeout(sim, 5))
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_nested_spawn_runs_children():
    sim = Simulator()
    log = []

    def child(sim, n):
        yield sim.timeout(n)
        log.append(n)

    def parent(sim):
        yield sim.all_of([sim.spawn(child(sim, 1)), sim.spawn(child(sim, 2))])
        log.append("parent")

    sim.spawn(parent(sim))
    sim.run()
    assert log == [1, 2, "parent"]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_run_until_event_never_firing_raises():
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        yield sim.timeout(1)

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=never)
