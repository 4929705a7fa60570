"""The GridFTP client library (``globus_ftp_client`` equivalent).

A library, not a daemon: every public method is a generator that the
calling process drives with ``yield from``, so a command costs its
round trips and nothing else::

    session = yield from client.connect("cern")
    result = yield from client.get(session, "/store/f1", "/pool/f1")

The control-channel conversation — AUTH/ADAT handshake, SBUF/OPTS
negotiation, RETR with streamed 111/112 markers — rides the shared service
bus (:mod:`repro.services`): one correlated :class:`ServiceClient` carries
every command, so control-channel latency (the per-transfer setup cost
visible in Figure 5's 1 MB curve) is charged faithfully, and each command
opens a client span in the simulation's trace log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gridftp.markers import PerfMarker, RangeSet, RestartMarker
from repro.gridftp.protocol import CONTROL_MESSAGE_SIZE, Command, Reply
from repro.gridftp.server import GridFTPServer, TransferDescriptor
from repro.netsim.channels import MessageNetwork
from repro.netsim.topology import Host
from repro.netsim.units import KiB
from repro.security.credentials import Credential
from repro.services.bus import (
    CallTimeout,
    ConnectionReset,
    ServiceClient,
    ServiceError,
)
from repro.services.tracelog import TraceLog
from repro.simulation.kernel import Simulator
from repro.storage.filesystem import FileSystem, StoredFile

__all__ = ["TransferError", "TransferResult", "ClientSession", "GridFTPClient"]


class TransferError(Exception):
    """A control- or data-channel failure, with the last reply attached."""

    def __init__(self, message: str, reply: Optional[Reply] = None):
        super().__init__(message)
        self.reply = reply

    @property
    def restart_marker(self) -> Optional[RestartMarker]:
        if self.reply and isinstance(self.reply.payload, dict):
            return self.reply.payload.get("restart_marker")
        return None

    @property
    def session_lost(self) -> bool:
        """True when the server no longer knows the session (503): its
        daemon restarted since the session was dialled."""
        return self.reply is not None and self.reply.code == 503

    @property
    def descriptor(self) -> Optional["TransferDescriptor"]:
        """The descriptor of the aborted attempt, when the server's 426
        carried one — what the interrupted transfer *was* delivering.
        A restart-recovery loop needs this to notice that an earlier
        attempt served different content than the final one."""
        if self.reply and isinstance(self.reply.payload, dict):
            return self.reply.payload.get("descriptor")
        return None


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a completed get/put."""

    path: str
    size: float
    duration: float
    streams: int
    buffer: int
    stored: Optional[StoredFile] = None
    perf_markers: tuple[PerfMarker, ...] = ()
    restart_markers: tuple[RestartMarker, ...] = ()
    #: how the server says the data channels opened: "cold" (slow start)
    #: or "warm" (from the windows the session's last transfer left)
    channels: str = "cold"

    @property
    def throughput(self) -> float:
        return self.size / self.duration if self.duration > 0 else float("inf")


@dataclass
class ClientSession:
    """An authenticated control-channel session with one server."""

    server_host: str
    session_id: str
    account: str
    server_subject: str
    buffer: int = 64 * KiB
    parallelism: int = 1
    closed: bool = False


class GridFTPClient:
    """Per-site client endpoint."""

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        credential: Credential,
        filesystem: Optional[FileSystem] = None,
        tracelog: Optional[TraceLog] = None,
    ):
        self.sim = sim
        self.msgnet = msgnet
        self.host = host
        self.credential = credential
        self.fs = filesystem
        #: max control-channel silence during a transfer before the client
        #: declares the connection dead (``None`` = wait forever, the
        #: pre-resilience behaviour).  A live transfer streams 111/112
        #: markers every few seconds, so silence means a cut link or a
        #: crashed server.
        self.idle_timeout: Optional[float] = None
        #: server host -> ids of sessions there that this client gave up
        #: on without the server being known to have heard: a login
        #: whose answer was lost, a goodbye that did not get through.
        #: The server may still hold them (and their parked data
        #: channels), so the next dial to that host hangs them up first.
        self._unclosed: dict[str, list[str]] = {}
        self.bus = ServiceClient(
            sim,
            msgnet,
            host,
            GridFTPServer.SERVICE,
            tracelog=tracelog,
            message_size=CONTROL_MESSAGE_SIZE,
        )

    # -- control-channel plumbing --------------------------------------------
    def _rpc(self, server_host: str, command: Command,
             idle_timeout: Optional[float] = None,
             synthesize_marker: bool = False):
        """One command round-trip; returns (final reply, preliminary replies).

        When the control channel dies mid-command (idle timeout, host
        crash) and ``synthesize_marker`` is set, the loss is surfaced as a
        426 reply carrying a restart marker rebuilt from the 111 markers
        streamed before the failure — what a real client recovers from its
        own marker log when the server can no longer tell it anything.
        """
        try:
            outcome = yield from self.bus.invoke(
                server_host, command.verb, command,
                idle_timeout=idle_timeout, raise_on_fault=False,
            )
        except (CallTimeout, ConnectionReset) as exc:
            if not synthesize_marker:
                raise TransferError(
                    f"{command.verb} control channel lost: {exc}"
                ) from exc
            # markers are cumulative: the last 111 is the full progress
            marker = RestartMarker(RangeSet())
            for prelim in getattr(exc, "preliminaries", ()):
                if isinstance(prelim, Reply) and prelim.code == 111:
                    marker = prelim.payload
            reply = Reply(
                426,
                f"transfer stalled: {exc}",
                payload={"restart_marker": marker},
            )
            return reply, list(getattr(exc, "preliminaries", ()))
        reply = outcome.payload
        if not isinstance(reply, Reply):
            # a non-protocol fault (handler bug surfaced by the bus)
            raise TransferError(str(reply))
        return reply, outcome.preliminaries

    def _command(self, session: ClientSession, verb: str, argument: str = "",
                 idle_timeout: Optional[float] = None,
                 synthesize_marker: bool = False, **extras):
        command = Command(
            verb=verb,
            argument=argument,
            session=session.session_id,
            extras=extras,
        )
        return (yield from self._rpc(
            session.server_host, command,
            idle_timeout=idle_timeout, synthesize_marker=synthesize_marker,
        ))

    # -- session management -------------------------------------------------------
    def connect(self, server_host: str):
        """AUTH/ADAT handshake; returns a :class:`ClientSession`."""
        yield from self._hang_up_unclosed(server_host)
        reply, _ = yield from self._rpc(server_host, Command("AUTH", "GSSAPI"))
        if reply.code != 334:
            raise TransferError(f"AUTH rejected: {reply}", reply)
        session_id = reply.payload
        adat = Command(
            "ADAT",
            session=session_id,
            extras={"chain": self.credential.chain},
        )
        try:
            reply, _ = yield from self._rpc(server_host, adat)
        except (TransferError, ServiceError):
            # no answer is not no login
            self._unclosed.setdefault(server_host, []).append(session_id)
            raise
        if reply.code != 235:
            raise TransferError(f"authentication failed: {reply}", reply)
        return ClientSession(
            server_host=server_host,
            session_id=reply.payload["session"],
            account=reply.payload["account"],
            server_subject=reply.payload["server_subject"],
        )

    def quit(self, session: ClientSession):
        """Close a session (QUIT)."""
        yield from self._command(session, "QUIT")
        session.closed = True

    # -- session lifetime ----------------------------------------------------------
    def open_session(self, server_host: str,
                     tcp_buffer: Optional[int] = None, streams: int = 1,
                     cache_channels: bool = False):
        """Dial ``server_host`` and negotiate: AUTH/ADAT, SBUF when
        ``tcp_buffer`` is given, OPTS when ``streams`` is not 1 or the
        session is to keep its data channels open between transfers
        (``cache_channels`` — worth asking for only when more than one
        transfer will ride the session).  Returns the tuned
        :class:`ClientSession`, which holds for every transfer until
        :meth:`close_session`; a failed negotiation hangs up before
        raising."""
        session = yield from self.connect(server_host)
        try:
            if tcp_buffer is not None:
                yield from self.set_buffer(session, tcp_buffer)
            if streams != 1 or cache_channels:
                yield from self.set_parallelism(session, streams, cache_channels)
        except BaseException:
            yield from self.close_session(session)
            raise
        return session

    def close_session(self, session: ClientSession):
        """QUIT.  Never raises: a dead server cannot answer, and the
        goodbye must not mask the failure being propagated (nor crash a
        caller that does not wait for it) — one that is not heard is
        said again at the next dial."""
        try:
            yield from self.quit(session)
        except (TransferError, ServiceError):
            self._unclosed.setdefault(session.server_host, []).append(
                session.session_id
            )

    def _hang_up_unclosed(self, server_host: str):
        """``QUIT`` the sessions at ``server_host`` this client walked
        away from unheard.  Any answer settles one — a restarted daemon
        no longer knows it, which is as good; silence keeps it, and the
        rest, for the next dial."""
        session_ids = self._unclosed.pop(server_host, [])
        for done, session_id in enumerate(session_ids):
            try:
                yield from self._rpc(
                    server_host, Command("QUIT", session=session_id)
                )
            except (TransferError, ServiceError):
                # (another dial may have walked away from one meanwhile)
                self._unclosed.setdefault(server_host, []).extend(
                    session_ids[done:]
                )
                return

    def session(self, server_host: str, work,
                tcp_buffer: Optional[int] = None, streams: int = 1):
        """One whole conversation: open, run the generator
        ``work(session)``, close.  Returns what ``work`` returns."""
        session = yield from self.open_session(server_host, tcp_buffer, streams)
        try:
            return (yield from work(session))
        finally:
            yield from self.close_session(session)

    # -- negotiation ---------------------------------------------------------------
    def set_buffer(self, session: ClientSession, size: int):
        """SBUF: the TCP buffer tuning knob of Figures 5 vs 6."""
        reply, _ = yield from self._command(session, "SBUF", str(int(size)))
        if not reply.is_success:
            raise TransferError(f"SBUF failed: {reply}", reply)
        session.buffer = int(size)

    def set_parallelism(self, session: ClientSession, streams: int,
                        cache_channels: bool = False):
        """OPTS RETR Parallelism=n: number of parallel data streams, and
        (``Cache=on``) whether the server keeps them open, windows and
        all, for the session's next transfer."""
        reply, _ = yield from self._command(
            session, "OPTS",
            f"RETR Parallelism={streams};"
            + ("Cache=on;" if cache_channels else ""),
        )
        if not reply.is_success:
            raise TransferError(f"OPTS failed: {reply}", reply)
        session.parallelism = streams

    def features(self, session: ClientSession):
        """FEAT: the server's extension list."""
        reply, _ = yield from self._command(session, "FEAT")
        return reply.payload

    # -- metadata -------------------------------------------------------------------
    def size(self, session: ClientSession, path: str):
        """SIZE: remote file size in bytes."""
        return (yield from self._checked(session, "SIZE", path))

    def modification_time(self, session: ClientSession, path: str):
        """MDTM: remote file modification time."""
        return (yield from self._checked(session, "MDTM", path))

    def checksum(self, session: ClientSession, path: str):
        """CKSM: remote CRC32 (GDMP's end-to-end corruption check; the
        value is :func:`repro.storage.integrity.file_crc` of the remote
        file's content identity)."""
        return (yield from self._checked(session, "CKSM", path))

    def delete(self, session: ClientSession, path: str):
        """DELE: remove a remote file (repair-path eviction)."""
        yield from self._checked(session, "DELE", path)
        return True

    def _checked(self, session: ClientSession, verb: str, argument: str):
        """One command whose failure reply raises; returns the payload."""
        reply, _ = yield from self._command(session, verb, argument)
        if not reply.is_success:
            raise TransferError(f"{verb} {argument} failed: {reply}", reply)
        return reply.payload

    # -- transfers ---------------------------------------------------------------------
    def get(
        self,
        session: ClientSession,
        remote_path: str,
        local_path: str,
        restart: Optional[RangeSet] = None,
        offset: float = 0.0,
        length: Optional[float] = None,
    ):
        """RETR/ERET a file into the local filesystem.

        ``restart`` resumes an interrupted transfer (ranges already on
        disk); ``offset``/``length`` select a partial transfer.
        """
        if self.fs is None:
            raise TransferError("client has no local filesystem to write into")
        started = self.sim.now
        if restart is not None and len(restart):
            # REST is loss-tolerant like the RETR it precedes: it is
            # only ever issued while *recovering* a broken transfer, so
            # the link may well still be down.  A lost REST surfaces as
            # a synthesized 426 whose (empty) marker sends the mover
            # through its stalled-restart backoff instead of aborting.
            reply, _ = yield from self._command(
                session, "REST", restart.to_rest_argument(),
                idle_timeout=self.idle_timeout, synthesize_marker=True,
            )
            if reply.code != 350:
                raise TransferError(f"REST failed: {reply}", reply)
        verb, extras = "RETR", {"write_rate": self.fs.write_rate}
        if offset or length is not None:
            verb = "ERET"
            extras.update({"offset": offset, "length": length})
        reply, markers = yield from self._command(
            session, verb, remote_path,
            idle_timeout=self.idle_timeout, synthesize_marker=True,
            **extras,
        )
        if reply.is_error:
            raise TransferError(f"{verb} {remote_path} failed: {reply}", reply)
        info = reply.payload
        descriptor: TransferDescriptor = info["descriptor"]
        stored = self.fs.create(
            local_path,
            descriptor.size,
            content_id=descriptor.content_id,
            now=self.sim.now,
            payload=descriptor.payload,
            **descriptor.attrs,
        )
        return TransferResult(
            path=local_path,
            size=descriptor.size,
            duration=self.sim.now - started,
            streams=session.parallelism,
            buffer=session.buffer,
            stored=stored,
            perf_markers=tuple(r.payload for r in markers if r.code == 112),
            restart_markers=tuple(r.payload for r in markers if r.code == 111),
            channels=info.get("channels", "cold"),
        )

    def put(self, session: ClientSession, local_path: str, remote_path: str):
        """STOR a local file to the server."""
        if self.fs is None:
            raise TransferError("client has no local filesystem to read from")
        started = self.sim.now
        stored = self.fs.stat(local_path)
        descriptor = TransferDescriptor(
            path=local_path,
            size=stored.size,
            content_id=stored.content_id,
            crc=stored.crc,
            payload=stored.payload,
            attrs=dict(stored.attrs),
        )
        reply, _ = yield from self._command(
            session,
            "STOR",
            remote_path,
            descriptor=descriptor,
            read_rate=self.fs.read_rate,
        )
        if reply.is_error:
            raise TransferError(f"STOR {remote_path} failed: {reply}", reply)
        return TransferResult(
            path=remote_path,
            size=stored.size,
            duration=self.sim.now - started,
            streams=session.parallelism,
            buffer=session.buffer,
        )

    def third_party_transfer(
        self,
        src_session: ClientSession,
        dst_session: ClientSession,
        src_path: str,
        dst_path: str,
    ):
        """Third-party control: data flows source server -> destination
        server while this client only drives the two control channels."""
        started = self.sim.now
        reply, _ = yield from self._command(
            src_session,
            "RETR",
            src_path,
            dest_host=dst_session.server_host,
        )
        if reply.is_error:
            raise TransferError(f"third-party RETR failed: {reply}", reply)
        descriptor: TransferDescriptor = reply.payload["descriptor"]
        deposit, _ = yield from self._command(
            dst_session, "ESTO", dst_path, descriptor=descriptor
        )
        if deposit.is_error:
            raise TransferError(f"third-party ESTO failed: {deposit}", deposit)
        return TransferResult(
            path=dst_path,
            size=descriptor.size,
            duration=self.sim.now - started,
            streams=src_session.parallelism,
            buffer=src_session.buffer,
        )
