"""Property-based tests on the catalog stack."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import GdmpCatalog
from repro.catalog.ldapsim import Entry, parse_filter

names = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1,
                max_size=12)
sites = st.sampled_from(["cern", "anl", "caltech", "slac", "lyon"])


@settings(max_examples=40, deadline=None)
@given(
    publishes=st.lists(
        st.tuples(names, sites, st.integers(min_value=0, max_value=10**12)),
        min_size=1,
        max_size=25,
        unique_by=lambda t: t[0],
    )
)
def test_every_published_lfn_is_unique_and_locatable(publishes):
    gc = GdmpCatalog()
    for lfn, site, size in publishes:
        gc.publish(site, size=size, modified=0.0, crc=size % 2**32, lfn=lfn)
    lfns = gc.list_lfns()
    # global namespace: no duplicates
    assert len(lfns) == len(set(lfns)) == len(publishes)
    # the heart of the system: every file resolves to its replica
    for lfn, site, size in publishes:
        locations = gc.locations(lfn)
        assert [loc["location"] for loc in locations] == [site]
        assert gc.info(lfn).size == size


@settings(max_examples=40, deadline=None)
@given(
    lfn=names,
    replica_sites=st.lists(sites, min_size=1, max_size=5, unique=True),
)
def test_replica_add_remove_round_trip(lfn, replica_sites):
    gc = GdmpCatalog()
    first, rest = replica_sites[0], replica_sites[1:]
    gc.publish(first, size=1, modified=0, crc=0, lfn=lfn)
    for site in rest:
        gc.add_replicas([lfn], site)
    assert {loc["location"] for loc in gc.locations(lfn)} == set(replica_sites)
    for site in replica_sites:
        gc.remove_replica(lfn, site)
    # removing the last replica retires the logical file
    assert not gc.lfn_exists(lfn)


attr_values = st.text(alphabet=string.ascii_lowercase + string.digits,
                      min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(value=attr_values, other=attr_values)
def test_equality_filter_matches_iff_value_present(value, other):
    f = parse_filter(f"(a={value})")
    assert f(Entry(dn="x=1", attributes={"a": [value]}))
    matches_other = f(Entry(dn="x=1", attributes={"a": [other]}))
    assert matches_other == (other == value)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=10**9),
       threshold=st.integers(min_value=0, max_value=10**9))
def test_numeric_range_filters_partition(n, threshold):
    entry = Entry(dn="x=1", attributes={"size": [str(n)]})
    ge = parse_filter(f"(size>={threshold})")
    le = parse_filter(f"(size<={threshold})")
    assert ge(entry) == (n >= threshold)
    assert le(entry) == (n <= threshold)
    assert ge(entry) or le(entry)  # total order: at least one side holds
