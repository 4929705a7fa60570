"""Production workload: a site producing and publishing database files.

Models the §4.1 producer role: "A site produces a set of files locally and
another site wants to obtain replicas of these files."  File sizes follow a
log-normal distribution around the configured mean (production files vary
with luminosity and event counts); each published file optionally migrates
to the site's MSS, leaving the disk-pool copy as the serving cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gdmp.grid import GdmpSite
from repro.netsim.units import MB
from repro.objectdb import DatabaseFile
from repro.simulation.kernel import Process

__all__ = ["ProductionReport", "ProductionRun"]


@dataclass(frozen=True)
class ProductionReport:
    """Outcome of one production run."""

    site: str
    lfns: tuple[str, ...]
    total_bytes: float
    duration: float
    archived: int


class ProductionRun:
    """A timed sequence of produce/publish/(archive) cycles at one site."""

    def __init__(
        self,
        site: GdmpSite,
        n_files: int = 5,
        mean_file_size: float = 20 * MB,
        interval: float = 60.0,
        objects_per_file: int = 100,
        run_name: str = "run",
        archive: bool = False,
        seed: int = 0,
    ):
        if n_files < 1:
            raise ValueError("n_files must be >= 1")
        if mean_file_size <= 0 or interval < 0:
            raise ValueError("invalid size/interval")
        self.site = site
        self.n_files = n_files
        self.mean_file_size = mean_file_size
        self.interval = interval
        self.objects_per_file = objects_per_file
        self.run_name = run_name
        self.archive = archive and site.mss is not None
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def _make_database(self, index: int, size: float) -> DatabaseFile:
        # db_ids are a per-simulator serial (not a module global), so
        # back-to-back runs in one process hand out identical ids
        db = DatabaseFile(
            self.site.sim.next_serial("production-db-id", 10_000),
            f"{self.run_name}.{index:04d}.db",
        )
        container = db.create_container("digis")
        object_size = size / self.objects_per_file
        for i in range(self.objects_per_file):
            db.new_object(container, "digi", object_size,
                          f"{db.name}/{i}/digi")
        return db

    def start(self) -> Process:
        """Run the production; returns a :class:`ProductionReport`."""
        sim = self.site.sim
        site = self.site

        def run():
            started = sim.now
            site.federation.declare_type("digi")
            lfns = []
            total = 0.0
            archived = 0
            for index in range(self.n_files):
                # log-normal spread around the mean (sigma=0.3)
                size = float(
                    self.mean_file_size
                    * self.rng.lognormal(mean=-0.045, sigma=0.3)
                )
                db = self._make_database(index, size)
                yield site.client.produce_and_publish(
                    db.name,
                    db.size,
                    payload=db,
                    filetype="objectivity",
                    schema="digi",
                )
                lfns.append(db.name)
                total += db.size
                if self.archive:
                    yield site.storage.archive(site.config.storage_path(db.name))
                    archived += 1
                if index < self.n_files - 1 and self.interval > 0:
                    yield sim.timeout(self.interval)
            return ProductionReport(
                site=site.name,
                lfns=tuple(lfns),
                total_bytes=total,
                duration=sim.now - started,
                archived=archived,
            )

        return sim.spawn(run(), name=f"production@{site.name}")
