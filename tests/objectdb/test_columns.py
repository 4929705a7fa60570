"""The column layout: what an event store costs the cyclic collector, and
its write-time indexes against a naive recomputation over the views."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectdb import (
    EventStoreBuilder,
    Federation,
    NavigationError,
    ObjectReader,
    ObjectTypeSpec,
    PAGE_SIZE,
    STANDARD_TYPES,
)
from repro.objectdb.database import FILE_HEADER_SIZE
from repro.objectrep import ObjectCopier, file_replication_cost, object_replication_cost


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_an_event_store_costs_the_collector_under_one_object_per_hundred():
    # a first, small build pays lazy imports and caches before counting
    EventStoreBuilder(seed=1).build(
        Federation("warm", site="cern"), n_events=10, events_per_file=5
    )
    before = tracked_objects()
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=1).build(
        fed, n_events=10_000, types=STANDARD_TYPES
    )
    added = tracked_objects() - before
    assert fed.object_count == 40_000
    # an OID, a PersistentObject and an association dict and list each
    # before the columns: about 3.5 per stored object
    assert added <= fed.object_count / 100
    assert catalog.event_count == 10_000


# -- the indexes against a naive recomputation --------------------------------
#: sizes whose float sums depend on the order they are added in
SIZES = st.sampled_from(
    [0.1, 0.7, 1.0, 100.0, 8191.9, 8192.0, 10_000.0, 123_456.789, 1e6 / 3]
)


def added_in_order(sizes) -> float:
    """A sum over the objects, adding in slot order."""
    total = 0
    for size in sizes:
        total += size
    return total


def check_against_views(fed, catalog, types, names_by_db_id):
    reader = ObjectReader(fed)
    for name in fed.database_names:
        db = fed.database(name)
        in_order = []
        for container_id in sorted(db.containers):
            container = db.containers[container_id]
            views = [container.objects[slot] for slot in sorted(container.objects)]
            assert [v.oid.slot for v in views] == list(range(len(container)))
            assert container.bytes == added_in_order(v.size for v in views)
            offset = 0.0
            for view in views:
                assert reader.pages_of(view)[0] == (
                    db.db_id, container_id, int(offset // PAGE_SIZE)
                )
                offset += view.size
                assert fed.resolve(view.oid) == view
            in_order.extend(views)
        assert list(db.iter_objects()) == in_order
        assert db.size == FILE_HEADER_SIZE + added_in_order(
            added_in_order(o.size for o in c.objects.values())
            for c in db.containers.values()
        )

    events = catalog.event_numbers
    for spec in types:
        oids = catalog.oids_for(events, spec.name)
        counts = {}
        grouped = {}
        for oid in oids:
            file_name = names_by_db_id[oid.database]
            counts[file_name] = counts.get(file_name, 0) + 1
            grouped.setdefault(file_name, []).append(oid)
        assert catalog.objects_per_file(spec.name) == counts
        assert list(catalog.files_for(oids).items()) == list(grouped.items())
        attached = [o for o in oids if fed.is_attached(names_by_db_id[o.database])]
        files = {}
        for oid in attached:
            files.setdefault(names_by_db_id[oid.database], []).append(oid)
        total = useful = 0.0
        for file_name, group in files.items():
            total += fed.database(file_name).size
            useful += added_in_order(fed.resolve(o).size for o in group)
        cost = file_replication_cost(fed, catalog, attached)
        assert (cost.files_moved, cost.bytes_moved, cost.useful_bytes) == (
            len(files), total, useful
        )
        assert object_replication_cost(fed, attached).useful_bytes == (
            added_in_order(fed.resolve(o).size for o in attached)
        )


@st.composite
def stores(draw):
    types = tuple(
        ObjectTypeSpec(spec.name, draw(SIZES), spec.upstream)
        for spec in STANDARD_TYPES
    )
    return dict(
        types=types,
        n_events=draw(st.integers(1, 40)),
        events_per_file=draw(st.integers(1, 15)),
        placement=draw(st.sampled_from(["sequential", "random"])),
        seed=draw(st.integers(0, 2**16)),
        extra=draw(st.lists(st.tuples(st.integers(0, 2), SIZES), max_size=12)),
        copies=draw(st.lists(
            st.lists(st.integers(0, 10**6), min_size=1, max_size=6), max_size=3
        )),
        closure=draw(st.booleans()),
        detach=draw(st.integers(0, 10**6)),
    )


@settings(max_examples=40, deadline=None)
@given(case=stores())
def test_write_time_indexes_match_the_views(case):
    fed = Federation("cms", site="cern")
    types = case["types"]
    catalog = EventStoreBuilder(seed=case["seed"]).build(
        fed, n_events=case["n_events"], types=types,
        events_per_file=case["events_per_file"], placement=case["placement"],
    )
    # objects added one at a time, spread over three containers
    extra = fed.create_database("extra.db")
    containers = [extra.create_container() for _ in range(3)]
    for i, (which, size) in enumerate(case["extra"]):
        extra.new_object(containers[which], "aod", size, f"{i}/aod")
    names = {fed.database(n).db_id: n for n in fed.database_names}
    check_against_views(fed, catalog, types, names)

    # files the object copier writes, attached beside the originals
    everything = [obj.oid for obj in fed.iter_objects()]
    copier = ObjectCopier(fed)
    for i, picks in enumerate(case["copies"]):
        result = copier.copy(
            [everything[p % len(everything)] for p in picks], f"copy{i}.db",
            include_closure=case["closure"],
        )
        fed.attach(result.database)
        names[result.database.db_id] = result.database.name
        check_against_views(fed, catalog, types, names)

    # one file detached, then attached again
    gone = fed.database_names[case["detach"] % len(fed.database_names)]
    db = fed.detach(gone)
    for obj in db.iter_objects():
        with pytest.raises(NavigationError):
            fed.resolve(obj.oid)
    check_against_views(fed, catalog, types, names)
    fed.attach(db)
    check_against_views(fed, catalog, types, names)
