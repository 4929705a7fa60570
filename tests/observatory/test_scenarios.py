"""Background-traffic scenarios: determinism, pools, driver anchoring."""

import pytest

from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import mbps
from repro.observatory.scenarios import (
    ScenarioDriver,
    diurnal_scenario,
)
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams

SITES = ["a", "b", "c", "d"]


def test_diurnal_schedule_is_seed_deterministic():
    first = diurnal_scenario(RandomStreams(7), SITES)
    second = diurnal_scenario(RandomStreams(7), SITES)
    third = diurnal_scenario(RandomStreams(8), SITES)
    assert first.schedule_repr() == second.schedule_repr()
    assert first.schedule_repr() != third.schedule_repr()
    assert first.events  # the default rates actually generate traffic


def test_diurnal_respects_source_and_destination_pools():
    script = diurnal_scenario(
        RandomStreams(7), SITES, peak_rate=0.5,
        sources=["a"], destinations=["b", "c"],
    )
    assert script.events
    assert {e.src for e in script.events} == {"a"}
    assert {e.dst for e in script.events} <= {"b", "c"}


def test_diurnal_excludes_self_transfers():
    script = diurnal_scenario(
        RandomStreams(7), SITES, peak_rate=0.5,
        sources=["a"], destinations=["a", "b"],
    )
    assert script.events
    assert all(e.src != e.dst for e in script.events)


def test_empty_destination_pool_raises():
    with pytest.raises(ValueError, match="no destination"):
        diurnal_scenario(
            RandomStreams(7), SITES, peak_rate=1.0,
            sources=["a"], destinations=["a"],
        )


def _engine():
    sim = Simulator()
    topo = Topology()
    for name in ("a", "b"):
        topo.add_host(Host(name))
    topo.connect("a", "b", Link("l-ab", capacity=mbps(100), delay=0.01))
    return sim, NetworkEngine(sim, topo)


def test_driver_anchors_events_at_its_own_start():
    """Event times are relative to driver start, so a schedule replays
    identically no matter how long the setup phase before it took."""
    script = diurnal_scenario(
        RandomStreams(7), ["a", "b"], horizon=30.0, period=30.0,
        base_rate=0.3, peak_rate=0.6, mean_size=20e6,
    )
    assert script.events
    first_event = script.events[0].time

    def launch_times(setup_delay):
        sim, engine = _engine()
        opened = []
        original = engine.open_transfer

        def spy(*args, **kwargs):
            opened.append(sim.now)
            return original(*args, **kwargs)

        engine.open_transfer = spy
        driver = ScenarioDriver(sim, engine, script)

        def boot():
            yield sim.timeout(setup_delay)
            driver.start()

        sim.spawn(boot())
        sim.run(until=setup_delay + script.horizon + 60.0)
        return [t - setup_delay for t in opened], driver

    fast, _ = launch_times(0.0)
    slow, driver = launch_times(25.0)
    assert fast == pytest.approx(slow, abs=1e-6)
    assert fast[0] == pytest.approx(first_event)
    assert driver.stats["launched"] == len(script.events)
    assert driver.stats["completed"] + driver.stats["aborted"] == len(
        script.events
    )
