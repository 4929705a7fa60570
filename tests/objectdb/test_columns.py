"""The column layout: what an event store costs the cyclic collector, its
write-time indexes against a naive recomputation over the views, and a
store written in runs against one written an object at a time."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectdb import (
    OID,
    Container,
    EventCatalog,
    EventStoreBuilder,
    Federation,
    NavigationError,
    ObjectReader,
    ObjectTypeSpec,
    PAGE_SIZE,
    STANDARD_TYPES,
)
from repro.objectdb.database import FILE_HEADER_SIZE
from repro.objectdb.objects import location
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


# -- a store written in runs ----------------------------------------------------
def appended_one_at_a_time(fed, types, n_events, events_per_file, placement, seed):
    """The builder's store, written one object and one record at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    catalog = EventCatalog()
    for spec in types:
        fed.declare_type(spec.name)
    orders = {
        spec.name: list(range(n_events)) if placement == "sequential"
        else rng.permutation(n_events).tolist()
        for spec in types
    }
    for spec in types:
        for start in range(0, n_events, events_per_file):
            name = f"run01.{spec.name}.{start // events_per_file:04d}.db"
            db = fed.create_database(name)
            container = db.create_container(spec.name)
            catalog.record_file(db.db_id, name)
            for event in orders[spec.name][start:start + events_per_file]:
                slot = container.append(spec.name, spec.size, f"{event}/{spec.name}")
                catalog.record_object(
                    event, spec.name, OID(db.db_id, container.container_id, slot)
                )
    for spec in types:
        if spec.upstream is not None:
            for event in range(n_events):
                here = catalog.oid_for(event, spec.name)
                fed.container_of(here).link(
                    here.slot, "upstream",
                    location(catalog.oid_for(event, spec.upstream)),
                )
    for event in range(n_events):
        catalog.record_event(event)
    return catalog


def assert_same_columns(ours, theirs):
    for column in ("keys", "sizes", "types", "links", "offsets", "data"):
        assert getattr(ours, column) == getattr(theirs, column), column
    assert ours.bytes == theirs.bytes
    assert ours.type_names == theirs.type_names


@settings(max_examples=40, deadline=None)
@given(case=stores())
def test_a_store_built_by_runs_equals_one_appended_object_by_object(case):
    args = dict(n_events=case["n_events"], types=case["types"],
                events_per_file=case["events_per_file"],
                placement=case["placement"])
    by_runs = Federation("runs", site="cern")
    catalog = EventStoreBuilder(seed=case["seed"]).build(by_runs, **args)
    by_objects = Federation("objects", site="cern")
    expected = appended_one_at_a_time(by_objects, seed=case["seed"], **args)

    assert by_runs.database_names == by_objects.database_names
    for name in by_runs.database_names:
        ours, theirs = by_runs.database(name), by_objects.database(name)
        assert ours.db_id == theirs.db_id
        assert sorted(ours.containers) == sorted(theirs.containers)
        for container_id, container in ours.containers.items():
            assert_same_columns(container, theirs.containers[container_id])
    assert catalog.event_numbers == expected.event_numbers
    for spec in case["types"]:
        events = expected.event_numbers
        assert catalog.locations_for(events, spec.name) == (
            expected.locations_for(events, spec.name)
        )
        assert list(catalog.objects_per_file(spec.name).items()) == list(
            expected.objects_per_file(spec.name).items()
        )


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(st.tuples(
        st.sampled_from(["tag", "aod", "esd"]), SIZES,
        st.lists(st.integers(0, 8).map(str), max_size=10),
    ), max_size=8),
    looked_up_after=st.integers(0, 8),
)
def test_extend_writes_the_rows_append_writes(runs, looked_up_after):
    by_runs, by_objects = Container(1, 0, "runs"), Container(1, 0, "objects")
    for i, (type_name, size, keys) in enumerate(runs):
        if i == looked_up_after:  # the key index, built mid-way, is kept
            assert by_runs.slot_of("0") == by_objects.slot_of("0")
        first = by_runs.extend(type_name, size, keys)
        assert first == len(by_objects)
        for key in keys:
            by_objects.append(type_name, size, key)
    assert_same_columns(by_runs, by_objects)
    for key in map(str, range(10)):  # repeated keys answer the first slot
        first = next((s for s, k in enumerate(by_objects.keys) if k == key), None)
        assert by_runs.slot_of(key) == by_objects.slot_of(key) == first


def test_extend_rejects_a_non_positive_size():
    with pytest.raises(ValueError, match="positive"):
        Container(1, 0, "c").extend("aod", 0.0, ["0/aod"])


def test_find_by_key_sees_objects_stored_after_the_first_lookup():
    fed = Federation("cms", site="cern")
    fed.declare_type("aod")
    db = fed.create_database("a.db")
    container = db.create_container()
    container.extend("aod", 10.0, ["0/aod", "1/aod"])
    assert fed.find_by_key("2/aod") is None  # builds the index
    assert fed.find_by_key("1/aod").oid.slot == 1
    db.new_object(container, "aod", 10.0, "2/aod")
    container.extend("aod", 10.0, ["3/aod", "0/aod"])
    assert fed.find_by_key("2/aod").oid.slot == 2
    assert fed.find_by_key("3/aod").oid.slot == 3
    assert fed.find_by_key("0/aod").oid.slot == 0  # still the first slot


# -- a negative slot names no object ---------------------------------------------
def raised_by(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def small_store():
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=1).build(
        fed, n_events=10, types=(ObjectTypeSpec("aod", 5.0),),
    )
    db_id = catalog.oid_for(0, "aod").database
    return fed, fed.database_by_id(db_id).container(0)


def test_sizes_at_rejects_a_negative_slot_as_view_does():
    fed, container = small_store()
    expected = raised_by(lambda: container.view(-1))
    assert raised_by(lambda: fed.sizes_at([(container.db_id, 0, -1)])) == expected
    assert raised_by(lambda: fed.sizes_at(
        [(container.db_id, 0, 0), (container.db_id, 0, -1)]
    )) == expected
    assert raised_by(lambda: fed.sizes_at([(container.db_id, 0, 10)])) == (
        raised_by(lambda: container.view(10))
    )


def test_link_rejects_a_slot_with_no_object_as_view_does():
    _, container = small_store()
    before = list(container.links)
    for slot in (-1, 10):
        assert raised_by(
            lambda: container.link(slot, "upstream", (9, 0, 0))
        ) == raised_by(lambda: container.view(slot))
    assert container.links == before


# -- the types a file holds --------------------------------------------------------
def scanned_types(db):
    return {obj.type_name for obj in db.iter_objects()}


@settings(max_examples=30, deadline=None)
@given(case=stores())
def test_type_names_match_a_scan_after_copies_detach_and_attach(case):
    fed = Federation("cms", site="cern")
    EventStoreBuilder(seed=case["seed"]).build(
        fed, n_events=case["n_events"], types=case["types"],
        events_per_file=case["events_per_file"], placement=case["placement"],
    )
    extra = fed.create_database("extra.db")
    containers = [extra.create_container() for _ in range(3)]
    for i, (which, size) in enumerate(case["extra"]):
        extra.new_object(containers[which], ("tag", "aod", "esd")[which], size,
                         f"{i}/x")

    def check():
        for name in fed.database_names:
            db = fed.database(name)
            assert db.type_names == scanned_types(db)

    check()
    everything = [obj.oid for obj in fed.iter_objects()]
    copier = ObjectCopier(fed)
    for i, picks in enumerate(case["copies"]):
        result = copier.copy(
            [everything[p % len(everything)] for p in picks], f"copy{i}.db",
            include_closure=case["closure"],
        )
        fed.attach(result.database)
        check()
    gone = fed.detach(fed.database_names[case["detach"] % len(fed.database_names)])
    assert gone.type_names == scanned_types(gone)
    check()
    fed.attach(gone)
    check()
