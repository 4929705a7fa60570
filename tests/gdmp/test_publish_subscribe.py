"""Tests for the producer-consumer model: publish, subscribe, notify."""

import pytest

from repro.netsim.units import MB
from repro.services import RemoteCallError


def test_subscribe_registers_consumer(grid):
    anl = grid.site("anl")
    subscribers = grid.run(until=anl.client.subscribe_to("cern"))
    assert subscribers == ["anl"]
    assert dict(grid.site("cern").server.subscribers) == {"anl": None}


def test_unsubscribe(grid):
    anl = grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern"))
    remaining = grid.run(until=anl.client.unsubscribe_from("cern"))
    assert remaining == []


def test_publish_registers_in_catalog_and_notifies(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern"))
    grid.run(until=cern.client.produce_and_publish("run1.db", 5 * MB,
                                                   filetype="flat"))
    # catalog knows the file
    info = grid.run(until=anl.client.catalog.info("run1.db"))
    assert info.size == 5 * MB
    assert info.locations[0]["location"] == "cern"
    # the subscriber was notified
    assert len(anl.server.pending_news) == 1
    assert anl.server.pending_news[0]["lfns"] == ["run1.db"]
    assert anl.server.pending_news[0]["producer"] == "cern"


def test_publish_without_subscribers_is_quiet(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("solo.db", 1 * MB))
    assert anl.server.pending_news == []
    assert anl.server.stats["notifications"] == 0


def test_duplicate_lfn_rejected_globally(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("same.db", 1 * MB))
    anl.fs.create("/storage/same.db", 1 * MB)
    with pytest.raises(RemoteCallError, match="already in use"):
        grid.run(until=anl.client.publish("same.db", "/storage/same.db"))
    # the refused publish closed its root span on the way out
    assert grid.tracelog.open_spans() == []


def test_get_remote_catalog(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    for i in range(3):
        grid.run(until=cern.client.produce_and_publish(f"f{i}.db", 1 * MB))
    catalog = grid.run(until=anl.client.get_remote_catalog("cern"))
    assert sorted(catalog) == ["f0.db", "f1.db", "f2.db"]
    assert catalog["f0.db"] == "/storage/f0.db"


def test_auto_replication_on_notify(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    anl.config.auto_replicate = True
    grid.run(until=anl.client.subscribe_to("cern"))
    grid.run(until=cern.client.produce_and_publish("auto.db", 2 * MB))
    grid.run()  # let the auto-replication complete
    assert anl.fs.exists("/storage/auto.db")
    assert "auto.db" in anl.server.held
    locations = grid.run(until=anl.client.catalog.locations("auto.db"))
    assert {loc["location"] for loc in locations} == {"cern", "anl"}


def test_a_failed_auto_replication_keeps_its_news(grid):
    """A notified file that cannot be fetched fails that fetch, not the
    simulation: its news waits in ``pending_news`` and is counted."""
    cern, anl = grid.site("cern"), grid.site("anl")
    anl.config.auto_replicate = True
    grid.run(until=anl.client.subscribe_to("cern"))
    grid.run(until=cern.client.produce_and_publish("gone.db", 2 * MB))
    cern.fs.delete("/storage/gone.db")
    grid.run()
    assert not anl.fs.exists("/storage/gone.db")
    assert [news["lfns"] for news in anl.server.pending_news] == [["gone.db"]]
    assert anl.server.stats["auto_replication_failures"] == 1


def test_filtered_subscription_selects_matching_files(grid):
    """§4.2 filters applied to notifications: a subscriber hears only
    about files matching its filter."""
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(
        until=anl.client.subscribe_to(
            "cern", filter_text="(&(filetype=objectivity)(size>=3000000))"
        )
    )
    grid.run(until=cern.client.produce_and_publish(
        "small-objy.db", 1 * MB, filetype="objectivity"))
    grid.run(until=cern.client.produce_and_publish(
        "big-flat.dat", 5 * MB, filetype="flat"))
    grid.run(until=cern.client.produce_and_publish(
        "big-objy.db", 5 * MB, filetype="objectivity"))
    notified = [news["lfns"][0] for news in anl.server.pending_news]
    assert notified == ["big-objy.db"]
    # the notification carries the file's metadata, keyed by LFN as a
    # set's does
    attributes = anl.server.pending_news[0]["attributes"]
    assert attributes["big-objy.db"]["filetype"] == "objectivity"


def test_filtered_subscription_with_wildcards(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern", filter_text="(lfn=run2001*)"))
    grid.run(until=cern.client.produce_and_publish("run2001.a.db", 1 * MB))
    grid.run(until=cern.client.produce_and_publish("run2002.b.db", 1 * MB))
    notified = [news["lfns"][0] for news in anl.server.pending_news]
    assert notified == ["run2001.a.db"]


def test_bad_subscription_filter_rejected(grid):
    anl = grid.site("anl")
    with pytest.raises(RemoteCallError, match="bad subscription filter"):
        grid.run(until=anl.client.subscribe_to("cern", filter_text="(((broken"))


def test_unfiltered_subscription_hears_everything(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern"))
    grid.run(until=cern.client.produce_and_publish("a.db", 1 * MB))
    grid.run(until=cern.client.produce_and_publish("b.db", 1 * MB))
    assert len(anl.server.pending_news) == 2


def test_concurrent_publish_same_lfn_exactly_one_wins(grid):
    """The central catalog serializes writes, so the global namespace
    guarantee holds even for racing publishes of the same user-chosen LFN
    (the losing site keeps its local file but gets no catalog entry)."""
    cern, anl = grid.site("cern"), grid.site("anl")
    cern.fs.create("/storage/race.db", 1 * MB)
    anl.fs.create("/storage/race.db", 2 * MB)
    outcomes = []

    def racer(sim, site):
        try:
            yield site.client.publish("race.db", "/storage/race.db")
            outcomes.append((site.name, "won"))
        except RemoteCallError:
            outcomes.append((site.name, "lost"))

    grid.sim.spawn(racer(grid.sim, cern))
    grid.sim.spawn(racer(grid.sim, anl))
    grid.run()
    assert sorted(o for _, o in outcomes) == ["lost", "won"]
    locations = grid.run(until=cern.client.catalog.locations("race.db"))
    assert len(locations) == 1  # exactly one registered replica
