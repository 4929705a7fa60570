"""GDMP 1.2 — the first-generation baseline the paper improves on.

§1/§4.1: "An initial version, GDMP version 1.2, was limited to transferring
Objectivity database files ...  the file replication process was too
tightly connected to Objectivity-specific features"; it predates the
Globus Replica Catalog (per-site catalogs only) and GridFTP (plain FTP:
one stream, default buffers, no restart markers, no CRC check beyond
TCP's).

This module reimplements that behaviour against the same substrates so the
benchmark suite can quantify what the second-generation architecture buys:

* failures restart the *whole* transfer (no restart markers);
* corruption is not detected (no CRC re-check);
* transfers use one untuned stream (no SBUF/OPTS negotiation);
* only Objectivity files are accepted;
* replica locations are tracked per site, invisible to the rest of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gdmp.grid import DataGrid
from repro.gdmp.request_manager import GdmpError
from repro.gridftp.client import TransferError
from repro.netsim.calibration import DEFAULT_BUFFER_BYTES
from repro.simulation.kernel import Process

__all__ = ["LegacyReport", "LegacyGdmp"]


@dataclass(frozen=True)
class LegacyReport:
    """Accounting for one GDMP 1.2 replication."""

    lfn: str
    source: str
    destination: str
    size: float
    duration: float
    attempts: int            # full-transfer attempts (no partial restarts)
    bytes_on_wire: float     # includes fully-retransferred attempts
    crc_checked: bool = False  # 1.2 never verifies


class LegacyGdmp:
    """The 1.2-era replication path, per destination site."""

    def __init__(self, grid: DataGrid, destination: str, max_attempts: int = 3):
        self.grid = grid
        self.dst = grid.site(destination)
        self.max_attempts = max_attempts
        #: the site-local catalog (no global namespace in 1.2)
        self.local_catalog: dict[str, str] = {}

    def replicate(self, lfn: str, from_site: str) -> Process:
        """Pull an Objectivity file with 1.2 semantics."""
        sim = self.grid.sim
        dst = self.dst
        src = self.grid.site(from_site)

        def run():
            started = sim.now
            stored_src = src.fs.stat(src.server.path_of(lfn))
            if not hasattr(stored_src.payload, "iter_objects"):
                raise GdmpError(
                    f"GDMP 1.2 only replicates Objectivity database files; "
                    f"{lfn!r} is not one"
                )
            local_path = dst.config.storage_path(lfn)
            attempts = 0
            wire_bytes = 0.0

            def pull(session):
                nonlocal attempts, wire_bytes
                # one stream, default buffers: no negotiation happened in 1.2
                assert session.parallelism == 1
                assert session.buffer == DEFAULT_BUFFER_BYTES
                while True:
                    attempts += 1
                    try:
                        result = yield from dst.gridftp_client.get(
                            session, stored_src.path, local_path
                        )
                        wire_bytes += result.size
                        break
                    except TransferError as exc:
                        marker = exc.restart_marker
                        # the bytes of the failed attempt were still sent
                        if marker is not None:
                            wire_bytes += marker.bytes_on_disk
                        if attempts >= self.max_attempts:
                            raise GdmpError(
                                f"GDMP 1.2 gave up on {lfn!r} after "
                                f"{attempts} full attempts"
                            ) from exc
                        # no restart markers in 1.2: start over from byte 0

            yield from dst.gridftp_client.session(from_site, pull)
            # Objectivity post-processing existed in 1.2: attach the file.
            db = dst.fs.stat(local_path).payload
            if hasattr(db, "iter_objects"):
                for type_name in db.type_names:
                    dst.federation.declare_type(type_name)
                if not dst.federation.is_attached(db.name):
                    dst.federation.attach(db)
            self.local_catalog[lfn] = local_path
            dst.server.record_held(lfn, local_path)
            return LegacyReport(
                lfn=lfn,
                source=from_site,
                destination=dst.name,
                size=stored_src.size,
                duration=sim.now - started,
                attempts=attempts,
                bytes_on_wire=wire_bytes,
            )

        return sim.spawn(run(), name=f"gdmp12-replicate {lfn}")
