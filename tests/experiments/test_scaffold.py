"""The campaign scaffold: one meaning of ``converged``, one replica
ground truth, one counter sum — and the two campaign experiments no other
tier-1 test runs."""

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.experiments import chaos, chunks, rls, weather, workload
from repro.experiments.scaffold import (
    ArmedFaults,
    ReplicaAudit,
    Verdict,
    counter_total,
    legs,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB


@dataclass(frozen=True)
class Toy(Verdict):
    held: bool
    exact: bool
    CHECKS: ClassVar = ("held", "exact")


GOOD = dict(seed=1, campaign="", faults_injected=0, no_active_faults=True,
            fingerprint="fp", errors=(), held=True, exact=True)


@pytest.mark.parametrize("change, converged", [
    ({}, True),
    ({"exact": False}, False),
    ({"no_active_faults": False}, False),
    # every check true, but something was reported: not converged
    ({"errors": ("f.db: still pinned at anl",)}, False),
])
def test_converged_is_every_check_and_no_errors(change, converged):
    assert Toy(**{**GOOD, **change}).converged is converged


def test_campaign_title_suffix():
    assert Toy(**GOOD).under == ""
    assert Toy(**{**GOOD, "campaign": "boom"}).under == ", campaign boom"


@pytest.mark.parametrize("module, result", [
    (chaos, chaos.ChaosResult), (workload, workload.WorkloadResult),
    (rls, rls.RlsResult), (weather, weather.WeatherResult),
    (chunks, chunks.ChunksResult),
])
def test_every_campaign_experiment_is_on_the_scaffold(module, result):
    assert issubclass(result, Verdict)
    annotations = {f.name: f.type for f in dataclasses.fields(result)}
    assert result.CHECKS and all(
        annotations[name] == "bool" for name in result.CHECKS
    )
    assert all(callable(build) for build in module.CAMPAIGNS.values())
    # chaos has no fault-free leg; the others run it first
    assert legs(module) == (
        [] if module is chaos else [""]) + list(module.CAMPAIGNS)
    assert not hasattr(module, "_build_campaign")


def test_errors_under_true_checks_fail_rls_and_workload_verdicts():
    """The two verdicts that used to ignore ``errors``."""
    result = rls.run(sites=3, files=6, lookups_per_site=3,
                     replicas_per_site=1, seed=2001)
    assert result.converged
    assert not dataclasses.replace(result, errors=("boom",)).converged
    result = workload.run(requests=2_000, seed=3, files=6)
    assert result.converged, result.errors
    assert not dataclasses.replace(result, errors=("boom",)).converged


def test_unknown_campaign_raises_and_fault_free_arms_nothing():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    with pytest.raises(ValueError, match="one of: link_flap, crash_restart"):
        ArmedFaults(grid, chaos.CAMPAIGNS, "meteor", 1)
    calm = ArmedFaults(grid, chaos.CAMPAIGNS, "", 1)
    errors = []
    assert (calm.schedule, calm.injected, calm.drain()) == ("", 0, False)
    assert calm.windows_closed(errors) and not errors


def test_armed_faults_drain_closes_every_window():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], seed=5)
    faults = ArmedFaults(grid, chaos.CAMPAIGNS, "catalog_blackhole", 5)
    assert faults.injected == 0
    assert faults.drain()
    assert faults.injected == len(faults.schedule.splitlines()) - 1 > 0
    errors = []
    assert faults.windows_closed(errors) and not errors


def test_replica_audit_ground_truth():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    cern, anl = grid.site("cern"), grid.site("anl")
    for lfn in ("a.db", "b.db", "c.db"):
        grid.run(until=cern.client.produce_and_publish(lfn, 2 * MB))
    grid.run(until=anl.client.replicate_set(["a.db", "b.db"]))

    errors = []
    audit = ReplicaAudit(errors)
    assert audit.check(anl, "a.db", grid.catalog_backend)
    assert (audit.all_held, audit.crc_ok, audit.catalog_exact) == (
        True, True, True) and not errors
    # never replicated: not on disk
    assert not audit.check(anl, "c.db", grid.catalog_backend)
    assert not audit.all_held and "c.db: not on disk at anl" in errors
    # on disk, but the catalog lost the location record
    grid.catalog_backend.remove_replica("b.db", "anl")
    assert not audit.check(anl, "b.db", grid.catalog_backend)
    assert not audit.catalog_exact and audit.crc_ok
    assert any("0 catalog entries for anl" in e for e in errors)
    # bytes that disagree with the catalog
    anl.fs.delete(anl.server.held["a.db"])
    anl.fs.create(anl.server.held["a.db"], 1 * MB, now=grid.sim.now)
    assert not audit.check(anl, "a.db", grid.catalog_backend)
    assert not audit.crc_ok


def test_counter_total_sums_matching_children():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    grid.metrics.counter("toy.events", kind="a", site="x").inc(2)
    grid.metrics.counter("toy.events", kind="a", site="y").inc(3)
    grid.metrics.counter("toy.events", kind="b", site="x").inc(5)
    assert counter_total(grid, "toy.events") == 10
    assert counter_total(grid, "toy.events", kind="a") == 5
    assert counter_total(grid, "toy.events", kind="b", site="x") == 5
    assert counter_total(grid, "toy.absent") == 0


def test_weather_fault_free_converges_at_smoke_size():
    result = weather.run(files=4, seed=2001)
    assert result.converged, result.errors
    assert result.improvement > 1.0 and result.post_history > 0
    assert result.smart_completed == result.static_completed == 16
    assert result.faults_injected == 0 and result.fingerprint


def test_chunks_fault_free_converges_at_smoke_size():
    result = chunks.run(objects=4, seed=2001)
    assert result.converged, result.errors
    assert result.chunks_deduped == 6 and result.chunks_repaired == 0
    assert result.objects_fetched == 5 and result.scrub_bad == 0
    assert result.no_active_faults and result.fingerprint
