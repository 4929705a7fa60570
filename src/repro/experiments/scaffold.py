"""The campaign scaffold: what every fault-campaign experiment shares.

An experiment that can run under a fault campaign (chaos, workload, rls,
weather, chunks) keeps only what is its own — the grid it builds, the
story it drives, the table it prints.  The rest is this contract:

* a module-level ``CAMPAIGNS`` table, campaign name -> builder;
* :class:`ArmedFaults` around the :class:`~repro.faults.FaultInjector`:
  table lookup (the one place an unknown name raises), arm, drain,
  schedule repr, injected count, open windows — and the fault-free leg;
* :func:`fingerprint` — schedule, plane state, extras, Prometheus text,
  in that order; what ``tools/smoke.py`` diffs between two runs;
* a result dataclass derived from :class:`Verdict`, naming its check
  fields in ``CHECKS``; ``converged`` means the same for all of them;
* :class:`ReplicaAudit` for "this site really holds this replica";
* :func:`print_verdict` closing every ``report``.

``python -m repro.experiments`` and ``tools/smoke.py`` read ``CAMPAIGNS``
and ``run``'s signature; neither knows any experiment by name.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping

from repro.experiments.common import print_table
from repro.faults import FaultInjector
from repro.simulation.randomness import RandomStreams
from repro.telemetry import to_prometheus_text

__all__ = [
    "ArmedFaults",
    "ReplicaAudit",
    "Verdict",
    "counter_total",
    "fingerprint",
    "legs",
    "print_verdict",
]


def legs(module) -> list[str]:
    """Every leg a campaign experiment can run: ``""`` (fault-free) when
    its ``run`` can be called without a campaign, then each campaign."""
    campaign = inspect.signature(module.run).parameters["campaign"]
    fault_free = [] if campaign.default is campaign.empty else [""]
    return [*fault_free, *module.CAMPAIGNS]


class ArmedFaults:
    """Campaign ``name`` of a module's ``CAMPAIGNS`` table, built from
    ``seed`` and started against ``grid`` (event times count from now).
    The builder is called with seeded streams, the grid and the caller's
    ``context``.  ``name == ""`` is the fault-free leg: nothing is armed
    and every reading below is empty, so ``run`` has one code path."""

    def __init__(self, grid, table: Mapping[str, Callable], name: str,
                 seed: int, *context):
        self.grid = grid
        self.campaign = self.injector = self._process = None
        if not name:
            return
        if name not in table:
            raise ValueError(
                f"unknown campaign {name!r} (one of: {', '.join(table)})"
            )
        self.campaign = table[name](RandomStreams(seed), grid, *context)
        self.injector = FaultInjector(grid, self.campaign)
        self._process = self.injector.start()

    @property
    def schedule(self) -> str:
        """Canonical campaign fingerprint ("" fault-free)."""
        return "" if self.campaign is None else self.campaign.schedule_repr()

    @property
    def injected(self) -> int:
        """Fault events applied so far."""
        return 0 if self.injector is None else self.injector.injected

    def drain(self) -> bool:
        """Run out the rest of the schedule, so that every down window
        closes before invariants are checked (a converged state must
        also survive faults that land after the last transfer).  False
        when there was no campaign to drain."""
        if self._process is None:
            return False
        self.grid.run(until=self._process)
        return True

    def windows_closed(self, errors: list[str]) -> bool:
        """Whether no fault window is still open (else says which)."""
        still_open = {} if self.injector is None else (
            self.injector.active_faults()
        )
        if still_open:
            errors.append(f"fault windows still open: {still_open}")
        return not still_open


def fingerprint(grid, *parts: str) -> str:
    """Canonical run fingerprint: ``parts`` (fault schedule, plane state,
    experiment extras; empty ones dropped) then the full Prometheus
    export.  Two runs of one seed must produce byte-identical strings."""
    return "\n".join(
        filter(None, [*parts, to_prometheus_text(grid.metrics)])
    )


def counter_total(grid, name: str, **labels) -> float:
    """Sum one metric family over the children matching ``labels``."""
    wanted = {key: str(value) for key, value in labels.items()}
    return sum(
        child.value for child in grid.metrics.children(name)
        if wanted.items() <= dict(child.labels).items()
    )


@dataclass(frozen=True)
class Verdict:
    """What every campaign experiment's result carries; subclasses add
    their measurements and name their boolean check fields."""

    seed: int
    campaign: str              # "" = fault-free
    faults_injected: int
    no_active_faults: bool     # every fault window closed by the end
    fingerprint: str           # see :func:`fingerprint`
    errors: tuple[str, ...]    # human-readable invariant violations

    #: the boolean fields that must all hold
    CHECKS: ClassVar[tuple[str, ...]] = ()

    @property
    def converged(self) -> bool:
        """Every declared check held, every fault window closed, and
        nothing was reported in ``errors``."""
        return (all(getattr(self, name) for name in self.CHECKS)
                and self.no_active_faults and not self.errors)

    @property
    def under(self) -> str:
        """Title suffix naming the campaign ("" fault-free)."""
        return f", campaign {self.campaign}" if self.campaign else ""


class ReplicaAudit:
    """Ground truth for "this site holds this replica", accumulated over
    every replica a run owes: the bytes are on the site's disk, their
    size and CRC equal the catalog's, and the catalog lists the site
    exactly once."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        self.all_held = self.crc_ok = self.catalog_exact = True

    @property
    def ok(self) -> bool:
        return self.all_held and self.crc_ok and self.catalog_exact

    def check(self, site, lfn: str, catalog) -> bool:
        """Audit one replica against ``catalog`` — the ``GdmpCatalog``
        that must know it (the central one, or ``site``'s own LRC)."""
        info = catalog.info(lfn) if catalog.lfn_exists(lfn) else None
        stored, intact, here = site.check_replica(lfn, info)
        if stored is None:
            self.all_held = False
            self.errors.append(f"{lfn}: not on disk at {site.name}")
            return False
        if info is None:
            self.catalog_exact = False
            self.errors.append(f"{lfn}: unknown to {site.name}'s catalog")
            return False
        if not intact:
            self.crc_ok = False
            self.errors.append(
                f"{lfn}: bytes at {site.name} disagree with the catalog"
            )
        if here != 1:
            self.catalog_exact = False
            self.errors.append(
                f"{lfn}: {here} catalog entries for {site.name} "
                "(want exactly 1)"
            )
        return intact and here == 1


def print_verdict(result: Verdict, title: str, rows) -> None:
    """The end of every campaign ``report``: the check table under
    ``title`` + verdict, then one ``!!`` line per violation."""
    verdict = "CONVERGED" if result.converged else "FAILED"
    print_table(["check", "value"], rows, f"{title}: {verdict}")
    for line in result.errors:
        print(f"  !! {line}")
    print()
