"""Tests for sparse selections and the §5.1 cost analysis."""

import math
import sys

import numpy as np
import pytest

from repro.objectdb import EventStoreBuilder, Federation, ObjectTypeSpec
from repro.objectrep import (
    AnalysisChain,
    AnalysisStep,
    compare_replication_strategies,
    file_replication_cost,
    object_replication_cost,
    probability_file_majority_selected,
    select_events,
)

AOD = (ObjectTypeSpec("aod", 10_000.0),)


@pytest.fixture
def store():
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=11).build(
        fed, n_events=5000, types=AOD, events_per_file=500
    )
    return fed, catalog


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# ------------------------------------------------------------ selection ---
def test_select_events_fraction(store):
    _fed, catalog = store
    picked = select_events(catalog.event_numbers, 0.1, rng())
    assert 0.06 * 5000 < len(picked) < 0.14 * 5000
    assert len(set(picked)) == len(picked)


def test_select_events_never_empty():
    picked = select_events(list(range(100)), 0.0001, rng())
    assert len(picked) >= 1


def test_select_events_validation():
    with pytest.raises(ValueError):
        select_events([1, 2], 0.0, rng())
    with pytest.raises(ValueError):
        select_events([1, 2], 1.5, rng())


def test_analysis_chain_funnels_down():
    chain = AnalysisChain(seed=4)
    stages = chain.run(list(range(100_000)))
    sizes = [len(events) for _step, events in stages]
    assert sizes[0] > sizes[1] > sizes[2]
    # 10% per stage: final ~ 0.1% of input
    assert 20 < sizes[2] < 400
    assert stages[0][0].type_name == "tag"
    assert stages[2][0].type_name == "esd"


def test_analysis_chain_validation():
    with pytest.raises(ValueError):
        AnalysisChain(steps=())
    with pytest.raises(ValueError):
        AnalysisStep("bad", 0.0, "aod")


# ------------------------------------------------------------ §5.1 costs --
def test_sparse_selection_object_replication_wins(store):
    fed, catalog = store
    selected = select_events(catalog.event_numbers, 0.01, rng(1))
    comparison = compare_replication_strategies(fed, catalog, selected, "aod")
    assert comparison.winner == "object"
    # with ~1% selection and 500-object files, nearly every file is touched:
    # file replication ships ~100x the useful bytes
    assert comparison.ratio > 20
    assert comparison.object_strategy.efficiency > 0.95
    assert comparison.file_strategy.efficiency < 0.05


def test_dense_selection_file_replication_wins(store):
    fed, catalog = store
    selected = list(catalog.event_numbers)  # take everything
    comparison = compare_replication_strategies(fed, catalog, selected, "aod")
    # the files already contain exactly what is wanted; copying objects
    # into new files adds header overhead, so file replication is no worse
    assert comparison.file_strategy.bytes_moved <= (
        comparison.object_strategy.bytes_moved * 1.01
    )
    assert comparison.file_strategy.efficiency > 0.99


def test_file_cost_counts_whole_files(store):
    fed, catalog = store
    oids = catalog.oids_for([0], "aod")  # one object
    cost = file_replication_cost(fed, catalog, oids)
    assert cost.files_moved == 1
    assert cost.useful_bytes == 10_000
    assert cost.bytes_moved == fed.database(catalog.file_of(oids[0])).size
    assert cost.bytes_moved > 100 * cost.useful_bytes


def test_object_cost_is_useful_bytes_plus_headers(store):
    fed, catalog = store
    oids = catalog.oids_for(range(100), "aod")
    cost = object_replication_cost(fed, oids, objects_per_new_file=50)
    assert cost.useful_bytes == 100 * 10_000
    assert cost.files_moved == 2
    assert cost.bytes_moved == cost.useful_bytes + 2 * 16 * 1024


def test_majority_probability_vanishes_for_sparse_selection():
    # §5.1: "the a priori probability that any existing file happens to
    # contain more than 50% of the selected objects is extremely low"
    p_sparse = probability_file_majority_selected(500, 0.001)
    assert p_sparse < 1e-100
    p_dense = probability_file_majority_selected(500, 0.9)
    assert p_dense > 0.999
    # monotone in the selection fraction
    probs = [
        probability_file_majority_selected(200, f)
        for f in (0.01, 0.1, 0.4, 0.6, 0.9)
    ]
    assert probs == sorted(probs)


def exact_majority_probability(n, f, threshold=0.5):
    """The binomial tail summed in integers (the float f is p/d exactly),
    then one correctly rounded division."""
    first = max(math.floor(threshold * n) + 1, 0)
    p, d = f.as_integer_ratio()
    tail = 0
    for k in range(n, first - 1, -1):  # Horner's rule in p
        tail = tail * p + math.comb(n, k) * (d - p) ** (n - k)
    return tail * p**first / d**n


@pytest.mark.parametrize("n, f", [
    (n, f)
    for n in (1, 7, 200, 1000)
    for f in (0.0, 0.0005, 0.1, 0.3, 0.499, 0.501, 0.6035, 0.9, 1.0)
] + [(7, 1e-300), (200, 1e-300)])
@pytest.mark.parametrize("threshold", [0.5, 0.0])
def test_majority_probability_is_the_exact_tail(n, f, threshold):
    assert probability_file_majority_selected(n, f, threshold) == (
        exact_majority_probability(n, f, threshold)
    )


def test_majority_probability_prints_the_recorded_column(monkeypatch):
    """EXP-OBJ1's P(majority) for its 1000-object files, as recorded when
    scipy computed it — now with scipy unimportable."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    printed = [
        f"{probability_file_majority_selected(1000, selected / 100_000):.2e}"
        for selected in (60, 4930, 10036, 29993, 60350, 100_000)
    ]
    assert printed == ["0.00e+00", "0.00e+00", "2.21e-224", "2.42e-40",
                       "1.00e+00", "1.00e+00"]


def test_majority_probability_validation():
    with pytest.raises(ValueError):
        probability_file_majority_selected(0, 0.5)
    with pytest.raises(ValueError):
        probability_file_majority_selected(10, 1.5)


def test_paper_worked_example_scaled():
    """§5.1's example at 1/1000 scale: 10³ of 10⁶ events selected, 10 KB
    objects -> object replication ships ~10 MB; file replication ships
    ~the whole 10 GB store."""
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=2).build(
        fed, n_events=100_000, types=AOD, events_per_file=1000
    )
    selected = select_events(catalog.event_numbers, 0.001, rng(7))
    comparison = compare_replication_strategies(fed, catalog, selected, "aod")
    object_mb = comparison.object_strategy.bytes_moved / 1e6
    file_mb = comparison.file_strategy.bytes_moved / 1e6
    assert object_mb == pytest.approx(len(selected) * 0.01, rel=0.2)
    # ~1 wanted object per 1000-object file: essentially every file ships
    assert file_mb > 0.6 * (fed.total_bytes / 1e6)
    assert comparison.majority_probability < 1e-200
