"""The Data Mover Service (§4.3).

"we use the built-in error correction in GridFTP plus an additional CRC
error check to guarantee correct and uncorrupted file transfer, and use
GridFTP's error detection and restart capabilities to restart interrupted
and corrupted file transfers."

The mover drives a GridFTP get with the site's negotiated buffer/stream
settings; on a dropped data connection it resumes from the restart marker;
after completion it compares the received CRC against the expected one
(from the replica catalog) and re-transfers from scratch on mismatch.

It is the data plane's one front to GridFTP: ``fetch``, the verified
``put`` and the ``CKSM`` ``probe`` ride a :class:`SessionTable`, the one
dialler.  Only the GDMP-1.2 baseline and the Fig. 5/6 testbed dial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.gridftp.client import ClientSession, GridFTPClient, TransferError
from repro.gridftp.markers import RangeSet
from repro.simulation.kernel import Simulator
from repro.storage.filesystem import FileSystem, StoredFile
from repro.storage.integrity import mixed_content_id
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["DataMover", "DataMoverError", "TransferAbandoned", "MoveReport",
           "SessionTable"]

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


class SessionTable:
    """The GridFTP sessions one piece of work holds, by server host, all
    negotiated alike, each dialled on first need.  A transfer set's table
    (``cache``) asks for ``Cache=on``, counts each file that finds its
    source's session open (``gdmp.mover.sessions_reused``), lets a fetch
    redial a session the daemon forgot, and keeps its sessions for the
    set's :meth:`goodbyes`.  Any other table is one conversation per
    host, hung up in place when the work with it is :meth:`done`."""

    def __init__(self, mover: "DataMover", tcp_buffer: Optional[int] = None,
                 streams: int = 1, cache: bool = False):
        self.mover = mover
        self.tcp_buffer = tcp_buffer
        self.streams = streams
        self.cache = cache
        #: server host -> the open session with it
        self.open: dict[str, ClientSession] = {}

    def session(self, host: str, redial: bool = False):
        """Generator: the open session with ``host``, dialled on first need
        or anew (``redial``); a failed dial raises :class:`DataMoverError`."""
        if host in self.open and not redial:
            if self.cache:
                self.mover._count("sessions_reused")
            return self.open[host]
        try:
            session = yield from self.mover.ftp.open_session(
                host, self.tcp_buffer, self.streams, cache_channels=self.cache
            )
        except TransferError as exc:
            raise DataMoverError(f"session with {host!r} failed: {exc}") from exc
        self.open[host] = session
        if redial:
            self.mover._count("redials")
        return session

    def done(self, host: str):
        """Generator: the work with ``host`` is done; say goodbye now,
        unless the session is a set's.  Never raises."""
        if not self.cache and host in self.open:
            yield from self.mover.ftp.close_session(self.open.pop(host))

    def goodbyes(self) -> list:
        """A set's end: one ``QUIT`` process per session, none raising."""
        sim, ftp = self.mover.sim, self.mover.ftp
        return [
            sim.spawn(ftp.close_session(session), name=f"gridftp-close->{host}")
            for host, session in self.open.items()
        ]


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
        sessions: Optional[SessionTable] = None,
    ):
        """Generator: fetch ``remote_path`` from ``src_host`` into
        ``local_path`` with restart recovery and end-to-end CRC
        verification, inside the caller's process.  Returns a
        :class:`MoveReport`.

        It rides ``sessions``' session with ``src_host``.  Without a
        table it gets a one-file one negotiated to ``tcp_buffer`` /
        ``streams``: dial, negotiate, transfer, ``QUIT``."""
        if sessions is None:
            sessions = SessionTable(self, tcp_buffer, streams)
        started = self.sim.now
        try:
            session = yield from sessions.session(src_host)
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
                            if (exc.session_lost and sessions.cache
                                    and not redialled):
                                # the source's daemon restarted under the
                                # set's session: a 503 carries no restart
                                # marker, but nothing is wrong with the
                                # source — dial again, once, and resume
                                redialled = True
                                attempts -= 1  # no data connection opened
                                session = yield from sessions.session(
                                    src_host, redial=True
                                )
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
                        streams=sessions.streams,
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
        finally:
            yield from sessions.done(src_host)

    def put(self, sessions: SessionTable, host: str, local_path: str,
            remote_path: str, on_evict: Callable[[], None]):
        """Generator: ``STOR`` ``local_path`` to ``host``, then trust
        nothing: the copy there (ours, or an earlier one's that won a 553
        race) must ``CKSM`` to the local CRC, or is evicted (``DELE``,
        ``on_evict()``) and stored once more.  Returns ``(bytes sent,
        verified)``; a failed command raises :class:`DataMoverError`."""
        session = yield from sessions.session(host)
        local = self.fs.stat(local_path)
        sent = 0.0
        try:
            try:
                yield from self.ftp.put(session, local_path, remote_path)
                sent = local.size
            except TransferError as exc:
                if exc.reply is None or exc.reply.code != 553:
                    raise
            remote_crc = yield from self.ftp.checksum(session, remote_path)
            if remote_crc != local.crc:
                yield from self.ftp.delete(session, remote_path)
                on_evict()
                yield from self.ftp.put(session, local_path, remote_path)
                sent += local.size
                remote_crc = yield from self.ftp.checksum(session, remote_path)
        except TransferError as exc:
            raise DataMoverError(str(exc)) from exc
        return sent, remote_crc == local.crc

    def probe(self, host: str, checks: list[tuple[str, int]]):
        """Generator: ``ok``, ``corrupt``, ``missing`` or ``unreachable``
        for each ``(path, crc)`` of ``checks`` at ``host``, by ``CKSM``
        (this site's own files: from its filesystem)."""
        if host == self.site:
            return [
                "missing" if not self.fs.exists(path)
                else "ok" if self.fs.stat(path).crc == crc else "corrupt"
                for path, crc in checks
            ]
        sessions = SessionTable(self)
        try:
            session = yield from sessions.session(host)
        except DataMoverError:
            return ["unreachable"] * len(checks)
        outcomes = []
        try:
            for path, crc in checks:
                try:
                    remote = yield from self.ftp.checksum(session, path)
                except TransferError as exc:
                    code = exc.reply.code if exc.reply else None
                    outcomes.append("missing" if code == 550 else "unreachable")
                else:
                    outcomes.append("ok" if remote == crc else "corrupt")
        finally:
            yield from sessions.done(host)
        return outcomes

    def _count(self, event: str, amount: float = 1.0) -> None:
        self.metrics.counter(f"gdmp.mover.{event}", site=self.site).inc(amount)
