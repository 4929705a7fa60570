"""The kernel's event order, pinned: ``run()`` in every mode and repeated
``step()`` pop the same ``(time, priority, seq)`` sequence, and ``AllOf``
fires where the rescanning condition of earlier kernels fired."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Interrupt, SimulationError, Simulator, kernel
from repro.simulation.resources import Resource

# few distinct delays: most pops tie on time and are ordered by
# priority and sequence number
delays = st.sampled_from([0.0, 0.5, 1.0, 2.5])
operations = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("any_of"), st.lists(delays, min_size=1, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(delays, max_size=3)),
    st.tuples(st.just("processed"), st.none()),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("spawn"), delays),
    st.tuples(st.just("crash"), st.none()),
)
programs = st.lists(st.lists(operations, max_size=6), min_size=1, max_size=5)


def _program(sim, index, ops, processes, done):
    for op, arg in ops:
        try:
            if op == "timeout":
                yield sim.timeout(arg, value=index)
            elif op == "any_of":
                yield sim.any_of([sim.timeout(d) for d in arg])
            elif op == "all_of":
                yield sim.all_of([sim.timeout(d) for d in arg])
            elif op == "processed":
                yield done
            elif op == "interrupt":
                target = processes[arg % len(processes)]
                if target.is_alive and target is not sim.active_process:
                    target.interrupt(index)
            elif op == "spawn":
                yield sim.spawn(_program(
                    sim, index, [("timeout", arg)], processes, done
                ))
            else:
                raise RuntimeError(f"program {index} crashed")
        except Interrupt:
            pass


def _drive(programs, driver, monkeypatch):
    """Run the programs under ``driver``; return the popped entries'
    ``(time, priority, seq)``, the error raised (if any) and ``_seq``."""
    popped = []

    def recording_pop(queue):
        entry = kernel_heappop(queue)
        popped.append(entry[:3])
        return entry

    kernel_heappop = kernel.heappop
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()
    processes = []
    for index, ops in enumerate(programs):
        processes.append(sim.spawn(_program(sim, index, ops, processes, done)))
    monkeypatch.setattr(kernel, "heappop", recording_pop)
    try:
        driver(sim)
        error = None
    except SimulationError as exc:
        error = str(exc)
    finally:
        monkeypatch.setattr(kernel, "heappop", kernel_heappop)
    return popped, error, sim._seq


def _by_run(sim):
    sim.run()


def _by_step(sim):
    while sim._queue:
        sim.step()


def _by_slices(sim):
    until = 0.0
    while sim._queue:
        sim.run(until=until)
        # everything due by the deadline ran, nothing after it
        assert sim.now == until
        assert not sim._queue or sim._queue[0][0] > until
        until += 0.5


@settings(max_examples=150, deadline=None)
@given(programs=programs)
def test_run_and_step_pop_the_same_sequence(programs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        by_run = _drive(programs, _by_run, monkeypatch)
        assert _drive(programs, _by_step, monkeypatch) == by_run
        assert _drive(programs, _by_slices, monkeypatch) == by_run
    popped, _error, seq = by_run
    times = [time for time, _priority, _seq in popped]
    assert times == sorted(times)
    assert len({entry[2] for entry in popped}) == len(popped) <= seq


def test_run_until_an_event_stops_right_after_it():
    sim = Simulator()
    first = sim.timeout(1.0, "first")
    later = sim.timeout(1.0, "later")
    assert sim.run(until=first) == "first"
    assert later.callbacks is not None      # not popped yet
    assert sim.run(until=first) == "first"  # already processed
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=sim.event())


def test_step_on_an_empty_queue_raises():
    with pytest.raises(IndexError):
        Simulator().step()


def _all_of_scenario(kind):
    """Where (time, priority, seq) and with what an AllOf over ``kind``'s
    constituents is scheduled."""
    sim = Simulator()
    scheduled = {}
    original = sim._schedule

    def recording(event, delay, priority):
        original(event, delay, priority)
        scheduled[id(event)] = (sim.now + delay, priority, sim._seq)

    sim._schedule = recording
    early = sim.event()
    early.succeed("early")
    early_bad = sim.event()
    early_bad.fail(KeyError("early"))
    sim.run()                        # both processed before the condition
    pending = sim.timeout(2.0, "two")
    other = sim.timeout(1.0, "one")
    failing = sim.event()

    def fail_at(at):
        yield sim.timeout(at)
        failing.fail(ValueError("late"))

    sim.spawn(fail_at(1.5))
    events = {
        "mixed": [pending, early, pending, other],
        "failing": [pending, early, failing, pending],
        "processed_ok_first": [early, early_bad],
        "processed_bad_first": [early_bad, early],
        "duplicates_only": [other, other, other],
        "empty": [],
    }[kind]
    condition = sim.all_of(events)
    condition.callbacks.append(lambda _event: None)  # observed
    sim.run()
    outcome = (
        condition._value if condition._exception is None
        else repr(condition._exception)
    )
    return scheduled[id(condition)], outcome


@pytest.mark.parametrize("kind, at, outcome", [
    # figures of the kernel whose AllOf rescanned its list per arrival
    ("mixed", (2.0, 1, 9), ["two", "early", "two", "one"]),
    ("failing", (1.5, 1, 9), "ValueError('late')"),
    # all processed at construction: the first constituent decides
    ("processed_ok_first", (0.0, 1, 6), ["early", None]),
    ("processed_bad_first", (0.0, 1, 6), "KeyError('early')"),
    ("duplicates_only", (1.0, 1, 7), ["one", "one", "one"]),
    ("empty", (0.0, 1, 6), []),
])
def test_all_of_fires_where_the_rescanning_condition_fired(kind, at, outcome):
    assert _all_of_scenario(kind) == (at, outcome)


def test_kernel_events_are_slotted():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    process = sim.spawn(body())
    [(_time, _priority, _seq, initialize)] = sim._queue
    records = [
        sim.event(), sim.timeout(1.0), initialize, process,
        sim.all_of([]), sim.any_of([]), Resource(sim).request(),
    ]
    assert {type(record).__name__ for record in records} == {
        "Event", "Timeout", "_Initialize", "Process", "AllOf", "AnyOf",
        "Request",
    }
    assert [
        type(record).__name__ for record in records
        if hasattr(record, "__dict__")
    ] == []
