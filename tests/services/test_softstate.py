"""`SoftStatePusher` under both of its parameterisations: the RLS digest
feed (delta payloads, source acknowledged per landed push) and the grid
weather forecast feed (full snapshots, nothing to acknowledge).

The plane-level consequences of a lost push — readers falling back to a
broadcast, selection falling back to probes — stay with the planes'
own tests; this module pins the push protocol itself.
"""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.observatory import WeatherConfig
from repro.rls import DigestConfig, RlsConfig

PERIOD = 6.0
SITES = ("cern", "anl", "slac")


def _grid():
    return DataGrid(
        [GdmpConfig(name) for name in SITES],
        catalog_host="cern",
        rls=RlsConfig(digest=DigestConfig(period=PERIOD, full_every=100)),
        weather=WeatherConfig(
            push_period=PERIOD, staleness_horizon=3 * PERIOD,
            weather_host="cern",
        ),
    )


class RlsFeed:
    """anl's digests to the index at cern."""

    prefix = "rli."
    pushes, label, landed = "rls.digest.pushes", "kind", "delta"

    def __init__(self, grid):
        self.grid = grid
        self.plane = grid.rls
        self.pusher = grid.rls.pushers["anl"]
        self.marks = 0

    def change_state(self):
        """A write at anl the next digest has to carry."""
        self.marks += 1
        catalog = self.grid.site("anl").client.catalog
        self.grid.run(until=catalog.publish(
            "anl", 1000.0, self.grid.sim.now, 7, lfn=f"mark-{self.marks}"
        ))

    def unacknowledged(self):
        return self.plane.sources["anl"].pending_changes

    def target_saw_latest(self):
        return "anl" in self.plane.index.candidate_sites(
            f"mark-{self.marks}"
        )


class WeatherFeed:
    """The station's forecasts for anl, pushed from cern."""

    prefix = "weather."
    pushes, label, landed = "weather.pushes", "outcome", "pushed"

    def __init__(self, grid):
        self.grid = grid
        self.plane = grid.weather
        self.pusher = grid.weather.pushers["anl"]
        self.marks = 0

    def change_state(self):
        """One more observed transfer into anl."""
        self.marks += 1
        now = self.grid.sim.now
        self.plane.station.on_transfer(
            "slac", "anl", 1e6 * self.marks, now - 1.0, now, True
        )

    def unacknowledged(self):
        return 0        # full snapshots: nothing is owed after a loss

    def target_saw_latest(self):
        forecast = self.plane.site_weather["anl"].predict("slac", "anl", 1e6)
        return forecast is not None and forecast.samples == self.marks


FEEDS = [RlsFeed, WeatherFeed]


def _blackhole(feed, down):
    for name in SITES:
        feed.grid.msgnet.set_service_down(
            name, "gdmp", down, prefix=feed.prefix
        )


def _counted(feed, kind):
    return feed.grid.metrics.value(
        feed.pushes, site="anl", **{feed.label: kind}
    )


@pytest.mark.parametrize("feed_type", FEEDS)
def test_lost_push_is_counted_then_folded_into_the_next(feed_type):
    grid = _grid()
    feed = feed_type(grid)
    feed.plane.start()
    grid.run(until=2 * PERIOD)              # first (full) pushes landed
    landed = dict(feed.pusher.stats)
    assert landed["pushes"] >= 1 and landed["pushes_lost"] == 0

    _blackhole(feed, True)
    feed.change_state()
    owed = feed.unacknowledged()
    grid.run(until=grid.sim.now + 2 * PERIOD)
    stats = feed.pusher.stats
    assert stats["pushes_lost"] >= 1
    assert _counted(feed, "lost") == stats["pushes_lost"]
    # nothing landed, nothing was acknowledged, nothing was billed
    assert stats["pushes"] == landed["pushes"]
    assert stats["bytes_pushed"] == landed["bytes_pushed"]
    assert feed.unacknowledged() == owed
    assert not feed.target_saw_latest()

    _blackhole(feed, False)
    grid.run(until=grid.sim.now + 2 * PERIOD)
    assert feed.pusher.stats["pushes"] > landed["pushes"]
    assert _counted(feed, feed.landed) >= 1
    assert feed.unacknowledged() == 0
    assert feed.target_saw_latest()
    assert feed.plane.push_stats()["pushes_lost"] >= stats["pushes_lost"]


@pytest.mark.parametrize("feed_type", FEEDS)
def test_first_pushes_are_staggered_across_a_period(feed_type):
    grid = _grid()
    plane = feed_type(grid).plane
    assert [plane.pushers[name].phase for name in SITES] \
        == [0.0, PERIOD / 3, 2 * PERIOD / 3]
    plane.start()
    for n in range(1, len(SITES) + 1):
        grid.run(until=n * PERIOD / 3 - 0.5)
        done = [
            plane.pushers[name].stats["pushes"] for name in SITES
        ]
        assert done == [1] * n + [0] * (len(SITES) - n)


@pytest.mark.parametrize("feed_type", FEEDS)
def test_stop_mid_call_ends_the_loop_without_counting_a_loss(feed_type):
    grid = _grid()
    feed = feed_type(grid)
    feed.plane.start()
    grid.run(until=2 * PERIOD)
    before = dict(feed.pusher.stats)
    feed.change_state()
    # slow the target down so a push stays on the wire for two seconds,
    # and step until anl's next one has just been built and sent
    pusher, sent = feed.pusher, []
    build = pusher.build
    pusher.build = lambda: (sent.append(grid.sim.now), build())[1]
    grid.msgnet.set_service_delay(
        pusher.target_host, "gdmp", 2.0, prefix=feed.prefix
    )
    while not sent:
        grid.run(until=grid.sim.now + 0.25)
    assert pusher.running()
    feed.plane.stop()
    grid.run(until=grid.sim.now + 3 * PERIOD)
    assert not pusher.running()
    assert not feed.plane.started
    # the interrupted push is neither a push nor a loss and was never
    # acknowledged, so whatever it carried is still owed to the target
    assert pusher.stats == before
    assert len(sent) == 1
    assert feed.unacknowledged() == (1 if feed_type is RlsFeed else 0)

    feed.plane.start()                      # and a restart delivers it
    grid.run(until=grid.sim.now + PERIOD)
    assert pusher.stats["pushes"] == before["pushes"] + 1
    assert feed.unacknowledged() == 0
    assert feed.target_saw_latest()


@pytest.mark.parametrize("feed_type", FEEDS)
def test_finish_mid_call_lets_the_push_land_then_ends_the_loop(feed_type):
    """Where ``stop`` drops a push on the wire, ``finish`` waits for its
    answer: the run ends with the push counted and nothing in flight."""
    grid = _grid()
    feed = feed_type(grid)
    feed.plane.start()
    grid.run(until=2 * PERIOD)
    before = dict(feed.pusher.stats)
    feed.change_state()
    pusher, sent = feed.pusher, []
    build = pusher.build
    pusher.build = lambda: (sent.append(grid.sim.now), build())[1]
    grid.msgnet.set_service_delay(
        pusher.target_host, "gdmp", 2.0, prefix=feed.prefix
    )
    while not sent:
        grid.run(until=grid.sim.now + 0.25)
    grid.run(until=grid.sim.all_of(feed.plane.finish()))
    assert sent[0] + 2.0 <= grid.sim.now < sent[0] + PERIOD
    assert not any(p.running() for p in feed.plane.pushers.values())
    assert not feed.plane.started
    assert pusher.stats["pushes"] == before["pushes"] + 1
    assert len(sent) == 1
    assert feed.unacknowledged() == 0
    assert feed.target_saw_latest()
    assert not grid.tracelog.open_spans()


@pytest.mark.parametrize("feed_type", FEEDS)
def test_stop_mid_call_to_a_black_hole_leaves_nothing_behind(feed_type):
    """The push the stop interrupts is waiting inside its pusher's own
    process on a target that will never answer: the interrupt drops the
    request there, so its timeout finds nobody to fail."""
    grid = _grid()
    feed = feed_type(grid)
    feed.plane.start()
    grid.run(until=2 * PERIOD)
    before = dict(feed.pusher.stats)
    feed.change_state()
    pusher, sent = feed.pusher, []
    build = pusher.build
    pusher.build = lambda: (sent.append(grid.sim.now), build())[1]
    _blackhole(feed, True)
    while not sent:
        grid.run(until=grid.sim.now + 0.25)
    assert pusher.running()
    feed.plane.stop()
    grid.run(until=grid.sim.now + 3 * PERIOD)   # past the push's timeout
    assert not pusher.running()
    assert pusher.stats == before               # neither a push nor a loss
    assert not pusher.client._pending
    assert not grid.tracelog.open_spans()

    _blackhole(feed, False)
    feed.plane.start()                          # a restart delivers it
    grid.run(until=grid.sim.now + PERIOD)
    assert pusher.stats["pushes"] == before["pushes"] + 1
    assert feed.unacknowledged() == 0
    assert feed.target_saw_latest()
