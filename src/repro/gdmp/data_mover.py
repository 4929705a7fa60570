"""The Data Mover Service (§4.3).

"we use the built-in error correction in GridFTP plus an additional CRC
error check to guarantee correct and uncorrupted file transfer, and use
GridFTP's error detection and restart capabilities to restart interrupted
and corrupted file transfers."

The mover drives a GridFTP get with the site's negotiated buffer/stream
settings; on a dropped data connection it resumes from the restart marker;
after completion it compares the received CRC against the expected one
(from the replica catalog) and re-transfers from scratch on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gridftp.client import ClientSession, GridFTPClient, TransferError
from repro.gridftp.markers import RangeSet
from repro.simulation.kernel import Simulator
from repro.storage.filesystem import FileSystem, StoredFile
from repro.storage.integrity import mixed_content_id
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["DataMover", "DataMoverError", "TransferAbandoned", "MoveReport"]

#: restarts that gained bytes before a transfer is abandoned
MAX_RESTART_ATTEMPTS = 3
#: full re-transfers after a CRC mismatch before a fetch fails
MAX_CRC_RETRIES = 2
#: budget for restarts that bring *no new bytes* (e.g. a link cut right
#: at connection setup) — bounded separately so a flapping link cannot
#: burn the real restart budget without progress, while a black hole
#: still terminates
MAX_STALLED_ATTEMPTS = 8
#: pause before re-dialling after a zero-progress restart; never taken
#: on a healthy transfer
STALL_BACKOFF = 0.25


class DataMoverError(Exception):
    """Transfer could not be completed within the retry budget."""


class TransferAbandoned(DataMoverError):
    """The restart/stall budget is exhausted.  ``partial`` carries the
    ranges known transferred (from consumed restart markers) so callers
    can clean up — or later resume — deterministically."""

    def __init__(self, message: str, partial: RangeSet):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class MoveReport:
    """Accounting for one completed move."""

    stored: StoredFile
    bytes_expected: float
    attempts: int          # data-connection attempts (1 = clean transfer)
    crc_retries: int       # full re-transfers forced by CRC mismatch
    duration: float
    streams: int
    buffer: int
    channels: str = "cold"  # how the attempt that delivered the file opened

    @property
    def throughput(self) -> float:
        return self.bytes_expected / self.duration if self.duration > 0 else 0.0


class DataMover:
    """Reliable file movement for one site."""

    def __init__(
        self,
        sim: Simulator,
        ftp_client: GridFTPClient,
        filesystem: FileSystem,
        metrics: MetricsRegistry = NO_METRICS,
        site: str = "",
    ):
        self.sim = sim
        self.ftp = ftp_client
        self.fs = filesystem
        #: the registry + site label for recovery counters
        self.metrics = metrics
        self.site = site

    def fetch(
        self,
        src_host: str,
        remote_path: str,
        local_path: str,
        expected_crc: Optional[int] = None,
        streams: int = 1,
        tcp_buffer: Optional[int] = None,
        sessions: Optional[dict[str, ClientSession]] = None,
    ):
        """Generator: fetch ``remote_path`` from ``src_host`` into
        ``local_path`` with restart recovery and end-to-end CRC
        verification, inside the caller's process.  Returns a
        :class:`MoveReport`.

        Without ``sessions`` the fetch is one whole conversation: dial,
        negotiate ``tcp_buffer``/``streams``, transfer, ``QUIT``.  With
        ``sessions`` — a transfer set's table of open sessions by source,
        all negotiated to the same settings — it rides the table's
        session with ``src_host``, dialling into the table when it is the
        first to need one, and leaves it open for the next file: the
        table's owner says the goodbyes.  A table's session is dialled
        to keep its data channels open between files; whether a file
        then finds them warm is the server's business alone."""

        def dial():
            return self.ftp.open_session(
                src_host, tcp_buffer, streams, cache_channels=True
            )

        def transfer(session, started):
            attempts = 0
            crc_retries = 0
            redialled = False
            if expected_crc is None:
                # no catalog CRC available: ask the source (CKSM)
                try:
                    crc = yield from self.ftp.checksum(session, remote_path)
                except TransferError as exc:
                    raise DataMoverError(str(exc)) from exc
            else:
                crc = expected_crc
            while True:
                restart: Optional[RangeSet] = None
                # ranges known delivered, merged from every marker seen
                progress = RangeSet()
                consumed = 0    # restarts that actually gained bytes
                stalled = 0     # consecutive zero-progress restarts
                # content ids of aborted attempts whose bytes are on
                # disk (consumed markers); if any differs from the
                # final attempt's, the assembly is mixed content
                contributed: list[str] = []
                # inner loop: restart-marker recovery of one transfer
                while True:
                    attempts += 1
                    try:
                        result = yield from self.ftp.get(
                            session, remote_path, local_path, restart=restart
                        )
                        break
                    except TransferError as exc:
                        marker = exc.restart_marker
                        if marker is None:
                            if (exc.session_lost and sessions is not None
                                    and not redialled):
                                # the source's daemon restarted under the
                                # set's session: a 503 carries no restart
                                # marker, but nothing is wrong with the
                                # source — dial again, once, and resume
                                redialled = True
                                attempts -= 1  # no data connection opened
                                session = sessions[src_host] = (
                                    yield from dial()
                                )
                                self._count("redials")
                                continue
                            raise DataMoverError(str(exc)) from exc
                        before = progress.total
                        for start, end in marker.ranges:
                            if end > start:
                                progress.add(start, end)
                        if progress.total > before:
                            # the marker bought new bytes: it is
                            # consumed, and only then burns budget
                            consumed += 1
                            stalled = 0
                            descriptor = exc.descriptor
                            if descriptor is not None:
                                contributed.append(descriptor.content_id)
                            self._count("restarts")
                            if consumed > MAX_RESTART_ATTEMPTS:
                                self._count("abandoned")
                                raise TransferAbandoned(
                                    f"gave up on {remote_path!r} after "
                                    f"{consumed} consumed restart "
                                    f"markers",
                                    partial=progress,
                                ) from exc
                        else:
                            stalled += 1
                            self._count("stalls")
                            if stalled > MAX_STALLED_ATTEMPTS:
                                self._count("abandoned")
                                raise TransferAbandoned(
                                    f"no progress on {remote_path!r} "
                                    f"after {stalled} stalled attempts",
                                    partial=progress,
                                ) from exc
                            yield self.sim.timeout(STALL_BACKOFF)
                        restart = progress if len(progress) else None
                stored = self.fs.stat(local_path)
                if any(c != stored.content_id for c in contributed):
                    # an earlier aborted attempt delivered *different*
                    # bytes (e.g. one-shot injected corruption consumed
                    # by that attempt): the file is a mixed assembly.
                    # Restamp it so its CRC matches neither source —
                    # the check below then purges and re-transfers.
                    stored.content_id = mixed_content_id(
                        [*contributed, stored.content_id]
                    )
                    self._count("mixed_assemblies")
                if stored.crc == crc:
                    self._count("bytes_moved", stored.size)
                    self._count("files_moved")
                    return MoveReport(
                        stored=stored,
                        bytes_expected=stored.size,
                        attempts=attempts,
                        crc_retries=crc_retries,
                        duration=self.sim.now - started,
                        streams=streams,
                        buffer=session.buffer,
                        channels=result.channels,
                    )
                # corruption slipped past TCP's 16-bit checksums: purge
                # the bad copy and transfer again from scratch
                self._count("crc_failures")
                crc_retries += 1
                self.fs.delete(local_path)
                if crc_retries > MAX_CRC_RETRIES:
                    raise DataMoverError(
                        f"CRC mismatch persists for {remote_path!r} "
                        f"after {crc_retries} re-transfers"
                    )

        started = self.sim.now
        try:
            if sessions is None:
                return (yield from self.ftp.session(
                    src_host,
                    lambda session: transfer(session, started),
                    tcp_buffer, streams,
                ))
            if src_host in sessions:
                self._count("sessions_reused")
            else:
                sessions[src_host] = yield from dial()
            return (yield from transfer(sessions[src_host], started))
        except TransferError as exc:
            # transfer() raises DataMoverError only: this is a dial's
            raise DataMoverError(
                f"session with {src_host!r} failed: {exc}"
            ) from exc

    def _count(self, event: str, amount: float = 1.0) -> None:
        self.metrics.counter(f"gdmp.mover.{event}", site=self.site).inc(amount)
