"""Unit tests for the Resource primitive."""

import pytest

from repro.simulation import Resource, Simulator


def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(sim, name, hold):
        req = res.request()
        yield req
        log.append((sim.now, name, "in"))
        yield sim.timeout(hold)
        res.release(req)
        log.append((sim.now, name, "out"))

    sim.spawn(user(sim, "a", 5))
    sim.spawn(user(sim, "b", 2))
    sim.run()
    assert log == [
        (0, "a", "in"),
        (5, "a", "out"),
        (5, "b", "in"),
        (7, "b", "out"),
    ]


def test_resource_capacity_two_admits_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    entry_times = []

    def user(sim):
        req = res.request()
        yield req
        entry_times.append(sim.now)
        yield sim.timeout(10)
        res.release(req)

    for _ in range(3):
        sim.spawn(user(sim))
    sim.run()
    assert entry_times == [0, 0, 10]


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(1)
        assert res.count == 0

    sim.spawn(user(sim))
    sim.run()
    assert res.count == 0


def test_resource_release_unheld_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)
    from repro.simulation import SimulationError

    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder, *queued = [res.request() for _ in range(3)]
    assert res.count == 1
    assert holder.triggered
    assert [req.triggered for req in queued] == [False, False]


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
