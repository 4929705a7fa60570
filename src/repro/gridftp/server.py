"""The GridFTP server daemon (the wuftpd-derived server of §3.2).

One server runs per site.  The control channel is a :class:`ServiceEndpoint`
on the shared service bus (:mod:`repro.services`): each FTP verb is a bus
operation, the session/login state machine is a middleware, and GSI
authentication (ADAT) goes through the same :class:`GsiAuthenticator` the
GDMP Request Manager uses.  Protocol errors fault with a
:class:`~repro.gridftp.protocol.Reply` carrying the FTP code, and
preliminary replies (150 opening, 111/112 markers) stream back as non-final
bus replies.  Data transfers run as parallel TCP flows on the shared
:class:`~repro.netsim.engine.NetworkEngine`.

A session whose opener asked for it (``OPTS ... Cache=on``, which only a
transfer set's dial does) keeps its data channels open between data
commands: each stream's congestion state is parked in the session when a
transfer ends ``ok`` and the next transfer to the same peer opens from it
instead of from slow start (DESIGN.md, "Data channels stay warm inside a
set").

A :class:`FailureInjector` can abort a transfer after N delivered bytes or
corrupt the next transfer of a path — the failure modes GDMP's data mover
must recover from (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gridftp import protocol
from repro.gridftp.markers import PerfMarker, RangeSet, RestartMarker
from repro.gridftp.protocol import CONTROL_MESSAGE_SIZE, Command, Reply
from repro.netsim.channels import MessageNetwork
from repro.netsim.engine import NetworkEngine, TransferAborted
from repro.netsim.tcp import TcpParams
from repro.netsim.topology import Host
from repro.netsim.units import KiB
from repro.security.ca import CertificateAuthority, CertificateError
from repro.security.credentials import Credential
from repro.security.gridmap import AuthorizationError, GridMap
from repro.services.bus import ServiceEndpoint, ServiceFault, ServiceRequest
from repro.services.middleware import GsiAuthenticator, MetricsMiddleware
from repro.services.tracelog import TraceLog
from repro.simulation.kernel import Simulator
from repro.storage.filesystem import FileSystem, StorageError
from repro.storage.integrity import corrupt_content_id, partial_content_id
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["GridFTPServer", "FailureInjector", "TransferDescriptor"]

#: How often the server emits performance markers during a transfer.
PERF_MARKER_INTERVAL = 5.0

#: How long a parked data channel's congestion state is trusted: RFC 2988's
#: minimum RTO, the idle time after which RFC 2861 has a sender stop
#: believing the window it had.  Physics, not policy — so not a setting.
CHANNEL_IDLE_LIMIT = 1.0

#: The socket buffer a session has until it negotiates one with ``SBUF``.
DEFAULT_BUFFER = 64 * KiB

#: Most parallel streams ``OPTS RETR Parallelism=n`` may ask for.
MAX_PARALLELISM = 16

#: Histogram bounds for parallel-stream fan-out (streams x stripes).
_FANOUT_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: The FTP verbs this daemon implements, each a bus operation.
VERBS = (
    "AUTH", "ADAT", "FEAT", "SBUF", "OPTS", "REST", "SIZE", "MDTM",
    "CKSM", "ABOR", "QUIT", "RETR", "ERET", "ESTO", "STOR", "DELE",
)


@dataclass(frozen=True)
class TransferDescriptor:
    """What the data channel delivers (content identity, not raw bytes)."""

    path: str
    size: float
    content_id: str
    crc: int
    payload: object = None
    attrs: dict = field(default_factory=dict)


@dataclass
class _Session:
    session_id: str
    client_host: str
    subject: str = ""
    identity: str = ""
    account: str = ""
    authenticated: bool = False
    auth_started: bool = False
    buffer: int = DEFAULT_BUFFER
    parallelism: int = 1
    restart: RangeSet = field(default_factory=RangeSet)
    client_write_rate: float = float("inf")
    #: data channels stay open between this session's data commands
    #: (asked for in ``OPTS``); a session that did not ask never parks
    cache_channels: bool = False
    #: (source host, destination host, stream) -> (congestion state,
    #: parked at) of each idle data channel.  A data command takes the
    #: entries it opens from and parks them again only if it ends ``ok``,
    #: so nothing here describes a channel that is in use or broken.
    parked: dict = field(default_factory=dict)


class FailureInjector:
    """Deterministic failure injection for a server's transfers."""

    def __init__(self) -> None:
        self._abort_after: dict[str, float] = {}
        self._corrupt_next: set[str] = set()

    def abort_after_bytes(self, path: str, nbytes: float) -> None:
        """One-shot: the next transfer of ``path`` dies after ``nbytes``."""
        self._abort_after[path] = nbytes

    def corrupt_next(self, path: str) -> None:
        """One-shot: the next transfer of ``path`` arrives corrupted."""
        self._corrupt_next.add(path)

    def take_abort(self, path: str) -> Optional[float]:
        """Consume a pending abort threshold for a path, if armed."""
        return self._abort_after.pop(path, None)

    def take_corruption(self, path: str) -> bool:
        """Consume a pending corruption for a path, if armed."""
        if path in self._corrupt_next:
            self._corrupt_next.remove(path)
            return True
        return False


class GridFTPServer:
    """A site's GridFTP daemon: an FTP protocol profile over the bus."""

    SERVICE = "gridftp"

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        engine: NetworkEngine,
        host: Host,
        filesystem: FileSystem,
        credential: Credential,
        trusted_cas: list[CertificateAuthority],
        gridmap: GridMap,
        data_nodes: tuple[str, ...] = (),
        tracelog: Optional[TraceLog] = None,
        metrics: MetricsRegistry = NO_METRICS,
    ):
        self.sim = sim
        self.msgnet = msgnet
        self.engine = engine
        self.host = host
        self.fs = filesystem
        self.credential = credential
        self.trusted_cas = trusted_cas
        self.gridmap = gridmap
        #: additional stripe hosts sharing this server's filesystem (SPAS
        #: mode: "striped data transfer (m hosts to n hosts)"); data
        #: channels are opened from every stripe host in parallel.
        self.data_nodes = tuple(data_nodes)
        self.failures = FailureInjector()
        self.tracelog = tracelog
        #: per-stream throughput, marker counts, and fan-out are recorded
        #: per transfer (never per tick)
        self.metrics = metrics
        self.authenticator = GsiAuthenticator(trusted_cas, gridmap)
        self._sessions: dict[str, _Session] = {}
        self._session_counter = 0
        self.bus = ServiceEndpoint(
            sim,
            msgnet,
            host,
            self.SERVICE,
            middlewares=(
                MetricsMiddleware(metrics, service=self.SERVICE),
                self._session_gate,
            ),
            tracelog=tracelog,
            message_size=CONTROL_MESSAGE_SIZE,
            unknown_operation=lambda request: ServiceFault(
                Reply(502, f"{request.operation} not implemented")
            ),
        )
        #: the daemon is its endpoint: one server, one ``stats``
        self.stats = self.bus.stats
        self.stats.update(sessions_dropped=0, corrupted_transfers=0)
        for verb in VERBS:
            self.bus.register(verb, getattr(self, f"_cmd_{verb.lower()}"))

    # -- session/login state machine -----------------------------------------
    def _session_gate(self, request: ServiceRequest, call_next):
        """Middleware enforcing the FTP conversation order: AUTH allocates a
        session, ADAT logs it in, everything else requires a login —
        except the goodbye, which a client whose ADAT was lost owes too."""
        verb = request.operation
        if verb != "AUTH":
            command: Command = request.payload
            session = self._sessions.get(command.session)
            if session is None:
                raise ServiceFault(protocol.bad_sequence("no such session"))
            request.state["session"] = session
            if verb not in ("ADAT", "QUIT") and not session.authenticated:
                raise ServiceFault(protocol.denied("authenticate first"))
        result = yield from call_next(request)
        return result

    @property
    def open_sessions(self) -> int:
        """Control sessions the daemon holds right now — each with
        whatever data channels it has parked.  Zero once every set and
        every conversation has said its goodbye."""
        return len(self._sessions)

    def drop_sessions(self) -> int:
        """Crash semantics for fault injection: forget every control
        session, as a restarted daemon would.  Clients holding a session
        id see ``503 bad sequence`` on their next command and must
        re-authenticate; in-flight transfer descriptors are gone, so
        recovery rests entirely on client-side restart markers."""
        count = len(self._sessions)
        for session in self._sessions.values():
            self._drop_parked(session, "crash")
        self._sessions.clear()
        self.stats["sessions_dropped"] += count
        return count

    # -- authentication ----------------------------------------------------------
    def _cmd_auth(self, request: ServiceRequest):
        """AUTH GSSAPI: allocate a session, ask for ADAT (round trip 1)."""
        self._session_counter += 1
        session = _Session(
            session_id=f"{self.host.name}-{self._session_counter}",
            client_host=request.caller_host,
        )
        session.auth_started = True
        self._sessions[session.session_id] = session
        return Reply(334, "ADAT must follow", payload=session.session_id)

    def _cmd_adat(self, request: ServiceRequest):
        """ADAT <chain>: verify the client chain, authorize, log in (RT 2)."""
        session: _Session = request.state["session"]
        command: Command = request.payload
        try:
            auth = self.authenticator.authenticate(
                command.extras.get("chain"), self.sim.now
            )
        except (CertificateError, AuthorizationError) as exc:
            self.stats["auth_failures"] += 1
            del self._sessions[session.session_id]
            raise ServiceFault(protocol.denied(str(exc))) from exc
        session.subject = auth.subject
        session.identity = auth.identity
        session.account = auth.account
        session.authenticated = True
        self.metrics.counter(
            "gridftp.sessions_opened", host=self.host.name
        ).inc()
        return Reply(
            235,
            f"GSSAPI authentication succeeded; user {auth.account} logged in",
            payload={"session": session.session_id, "account": auth.account,
                     "server_subject": self.credential.subject},
        )

    # -- simple commands ------------------------------------------------------------
    def _cmd_feat(self, request: ServiceRequest):
        return Reply(211, "Extensions supported", payload=protocol.FEATURES)

    def _cmd_sbuf(self, request: ServiceRequest):
        session: _Session = request.state["session"]
        command: Command = request.payload
        try:
            size = int(command.argument)
            if size < 1460:
                raise ValueError
        except ValueError:
            raise ServiceFault(Reply(501, "bad buffer size")) from None
        if size != session.buffer:
            self._drop_parked(session, "renegotiated")
        session.buffer = size
        return protocol.ok(f"SBUF {size}")

    def _cmd_opts(self, request: ServiceRequest):
        """OPTS RETR Parallelism=n;[Cache=on;] — the stream count, and
        whether the data channels stay open between data commands."""
        session: _Session = request.state["session"]
        arg = request.payload.argument.strip()
        verb, _, tail = arg.partition(" ")
        options = {}
        for item in filter(None, map(str.strip, tail.split(";"))):
            key, _, value = item.partition("=")
            options[key.strip().upper()] = value.strip()
        if (verb.upper() != "RETR" or "PARALLELISM" not in options
                or options.keys() - {"PARALLELISM", "CACHE"}):
            raise ServiceFault(Reply(501, f"unknown OPTS {arg!r}"))
        try:
            n = int(options["PARALLELISM"])
            if not 1 <= n <= MAX_PARALLELISM:
                raise ValueError
        except ValueError:
            raise ServiceFault(Reply(501, "bad parallelism")) from None
        cache = options.get("CACHE", "").upper() == "ON"
        if n != session.parallelism or cache != session.cache_channels:
            self._drop_parked(session, "renegotiated")
        session.parallelism = n
        session.cache_channels = cache
        return protocol.ok(f"Parallelism={n}")

    def _cmd_rest(self, request: ServiceRequest):
        session: _Session = request.state["session"]
        try:
            session.restart = RangeSet.from_rest_argument(
                request.payload.argument
            )
        except ValueError as exc:
            raise ServiceFault(Reply(501, str(exc))) from exc
        return Reply(350, "Restart marker accepted")

    def _stat_or_fault(self, path: str):
        try:
            return self.fs.stat(path)
        except StorageError as exc:
            raise ServiceFault(protocol.not_found(str(exc))) from exc

    def _cmd_size(self, request: ServiceRequest):
        stored = self._stat_or_fault(request.payload.argument)
        return Reply(213, f"{stored.size:.0f}", payload=stored.size)

    def _cmd_mdtm(self, request: ServiceRequest):
        stored = self._stat_or_fault(request.payload.argument)
        return Reply(
            213, f"{stored.created_at:.6f}", payload=stored.created_at
        )

    def _cmd_cksm(self, request: ServiceRequest):
        """CKSM CRC32 — the extra end-to-end check GDMP layers on TCP."""
        stored = self._stat_or_fault(request.payload.argument)
        return Reply(213, f"{stored.crc}", payload=stored.crc)

    def _cmd_abor(self, request: ServiceRequest):
        return Reply(226, "ABOR processed")

    def _cmd_dele(self, request: ServiceRequest):
        """DELE: remove a remote file (the repair daemon's tool for
        evicting a corrupt chunk replica before re-uploading it)."""
        stored = self._stat_or_fault(request.payload.argument)
        self.fs.delete(stored.path)
        return Reply(250, f"{stored.path} deleted")

    def _cmd_quit(self, request: ServiceRequest):
        session: _Session = request.state["session"]
        self._drop_parked(session, "quit")
        self._sessions.pop(session.session_id, None)
        return Reply(221, "Goodbye")

    # -- data transfer ------------------------------------------------------------
    def _cmd_retr(self, request: ServiceRequest):
        result = yield from self._send_file(request, offset=0.0, length=None)
        return result

    def _cmd_eret(self, request: ServiceRequest):
        """Partial file transfer: ERET P <offset> <length> <path>."""
        command: Command = request.payload
        offset = float(command.extras.get("offset", 0.0))
        length = command.extras.get("length")
        if length is not None:
            length = float(length)
        result = yield from self._send_file(request, offset, length)
        return result

    def _send_file(self, request: ServiceRequest, offset, length):
        session: _Session = request.state["session"]
        command: Command = request.payload
        path = command.argument
        stored = self._stat_or_fault(path)
        if offset < 0 or offset > stored.size:
            raise ServiceFault(Reply(501, "bad offset"))
        total = stored.size - offset if length is None else min(
            length, stored.size - offset
        )
        already = session.restart.total
        remaining = max(total - already, 0.0)
        session.restart = RangeSet()  # REST applies to one transfer only

        content_id = stored.content_id
        if self.failures.take_corruption(path):
            content_id = corrupt_content_id(content_id)
            self.stats["corrupted_transfers"] += 1
        if offset > 0 or (length is not None and total < stored.size):
            content_id = partial_content_id(content_id, offset, total)
        descriptor = TransferDescriptor(
            path=path,
            size=total,
            content_id=content_id,
            crc=stored.crc,
            payload=stored.payload,
            attrs=dict(stored.attrs),
        )
        dest = command.extras.get("dest_host", session.client_host)
        yield request.preliminary(protocol.opening(f"RETR {path}"))
        if remaining <= 0:
            # restart marker already covered everything
            return protocol.closing(
                payload={"descriptor": descriptor, "sent": 0.0}
            )
        rate_cap = min(
            self.fs.read_rate,
            command.extras.get("write_rate", session.client_write_rate),
        )
        metrics = self.metrics

        def on_open(pool, flows):
            metrics.histogram(
                "gridftp.transfer.fanout",
                bounds=_FANOUT_BOUNDS,
                host=self.host.name,
            ).observe(len(flows))
            if already > 0:
                metrics.counter(
                    "gridftp.transfer.restarts", host=self.host.name
                ).inc()
            abort_at = self.failures.take_abort(path)
            if abort_at is not None:
                self.sim.spawn(
                    self._abort_watchdog(pool, abort_at),
                    name=f"abort-watchdog:{path}",
                )
            self._stream_markers(request, pool, already)

        # one stripe per server data node (SPAS), each with the session's
        # parallelism; the single-host case degenerates to a plain transfer
        try:
            pool, flows, channels = yield from self._move(
                request, session, f"retr:{path}",
                sources=(self.host.name, *self.data_nodes), dest=dest,
                nbytes=remaining, rate_cap=rate_cap, on_open=on_open,
            )
        except TransferAborted as exc:
            marker = RestartMarker(RangeSet([(0.0, already + exc.delivered)]))
            raise ServiceFault(
                protocol.aborted(
                    "Data connection closed",
                    payload={"restart_marker": marker, "descriptor": descriptor},
                )
            ) from exc
        metrics.counter("gridftp.bytes_sent", host=self.host.name).inc(
            remaining
        )
        metrics.counter("gridftp.files_sent", host=self.host.name).inc()
        elapsed = pool.completed_at - pool.started_at
        for i, flow in enumerate(flows):
            metrics.counter(
                "gridftp.stream.bytes", host=self.host.name, stream=i
            ).inc(flow.delivered)
            if elapsed > 0:
                metrics.observe(
                    "gridftp.stream.throughput",
                    flow.delivered / elapsed,
                    host=self.host.name,
                    stream=i,
                )
        return protocol.closing(
            payload={
                "descriptor": descriptor,
                "sent": remaining,
                "duration": pool.completed_at - pool.started_at,
                "channels": channels,
            }
        )

    # -- data channels ------------------------------------------------------------
    def _move(self, request: ServiceRequest, session: _Session, label: str,
              sources, dest: str, nbytes: float, rate_cap: float,
              on_open=None):
        """The data channels of one data command (``RETR``, ``ERET``,
        ``STOR``), from open to close.

        One stream per source host and per unit of the session's
        parallelism, all draining one pool.  A stream opens from the
        congestion state the session parked for its channel — same
        endpoints, same stream — when there is one and it is fresh, and
        cold otherwise; a session that did not ask for cached channels
        never has one.  The channels are parked again if, and only if,
        the bytes all arrived: an abort leaves nothing behind, so
        whatever resumes the transfer reconnects cold.

        Returns ``(pool, flows, "warm" | "cold")``.  An abort is counted,
        closes the transfer's span and propagates as
        :class:`TransferAborted` for the caller's 426.
        """
        keys = [
            (source, dest, stream)
            for source in sources
            for stream in range(session.parallelism)
        ]
        seeds = [self._take_parked(session, key) for key in keys]
        reused = sum(seed is not None for seed in seeds)
        channels = "warm" if reused else "cold"
        if reused:
            self.metrics.counter(
                "gridftp.channels_reused", host=self.host.name
            ).inc(reused)
        # The transfer gets its own span; flows inherit it via the pool's
        # context, so the trace covers RPC -> control channel -> data flows.
        span = None
        if self.tracelog is not None:
            span = self.tracelog.begin(
                "gridftp:transfer",
                parent=request.context,
                kind="transfer",
                host=self.host.name,
                service=self.SERVICE,
                path=request.payload.argument,
                dest=dest,
                channels=channels,
            )
            self.sim.active_process.context = span.context
        pool = self.engine.new_pool(nbytes)
        tcp = TcpParams(buffer=session.buffer)
        flows = [
            self.engine.open_flow(
                key[0], dest, pool=pool, tcp=tcp, rate_cap=rate_cap,
                name=f"{label}[{index}]", congestion=seed,
            )
            for index, (key, seed) in enumerate(zip(keys, seeds))
        ]
        if span is not None:
            # what the streams may have in flight before their first ack
            span.attrs["window"] = sum(flow.tcp.window for flow in flows)
        if on_open is not None:
            on_open(pool, flows)
        try:
            yield pool.done
        except TransferAborted:
            self.metrics.counter(
                "gridftp.transfers_aborted", host=self.host.name
            ).inc()
            if reused:
                self.metrics.counter(
                    "gridftp.channels_dropped", host=self.host.name,
                    reason="abort",
                ).inc(reused)
            if span is not None:
                self.tracelog.finish(span, "error", detail="aborted")
            raise
        if span is not None:
            self.tracelog.finish(span, "ok")
        if session.cache_channels:
            now = self.sim.now
            for key, flow in zip(keys, flows):
                session.parked[key] = (flow.tcp.congestion, now)
        return pool, flows, channels

    def _take_parked(self, session: _Session, key):
        """The congestion state parked for one channel, if still good;
        either way the entry is gone — the channel is in use now."""
        parked = session.parked.pop(key, None)
        if parked is None:
            return None
        state, parked_at = parked
        if self.sim.now - parked_at > CHANNEL_IDLE_LIMIT:
            self.metrics.counter(
                "gridftp.channels_expired", host=self.host.name
            ).inc()
            return None
        return state

    def _drop_parked(self, session: _Session, reason: str) -> None:
        """Close the session's idle data channels."""
        if session.parked:
            self.metrics.counter(
                "gridftp.channels_dropped", host=self.host.name,
                reason=reason,
            ).inc(len(session.parked))
            session.parked.clear()

    def _abort_watchdog(self, pool, abort_at: float):
        while not pool.done.triggered:
            if pool.delivered >= abort_at:
                self.engine.cancel_pool(pool, reason="injected failure")
                return
            yield self.sim.timeout(0.05)

    def _stream_markers(self, request: ServiceRequest, pool, base_offset):
        """Spawn the per-transfer marker emitter (111/112 preliminary replies)."""

        metrics = self.metrics
        host = self.host.name

        def emitter(sim=self.sim):
            while not pool.done.triggered:
                yield sim.timeout(PERF_MARKER_INTERVAL)
                if pool.done.triggered:
                    return
                perf = PerfMarker(
                    timestamp=sim.now, bytes_transferred=pool.delivered
                )
                restart = RestartMarker(
                    RangeSet([(0.0, base_offset + pool.delivered)])
                )
                request.preliminary(Reply(112, "Perf Marker", payload=perf))
                request.preliminary(Reply(111, "Range Marker", payload=restart))
                metrics.counter(
                    "gridftp.markers_emitted", host=host, type="perf"
                ).inc()
                metrics.counter(
                    "gridftp.markers_emitted", host=host, type="range"
                ).inc()

        self.sim.spawn(emitter(), name="marker-emitter")

    def _cmd_esto(self, request: ServiceRequest):
        """ESTO A <path>: materialize a descriptor whose bytes were already
        delivered to this host by a third-party RETR (the receiving half of
        third-party control of data transfer)."""
        command: Command = request.payload
        descriptor: TransferDescriptor = command.extras["descriptor"]
        path = command.argument
        if self.fs.exists(path):
            raise ServiceFault(Reply(553, "file exists"))
        try:
            self.fs.create(
                path,
                descriptor.size,
                content_id=descriptor.content_id,
                now=self.sim.now,
                payload=descriptor.payload,
                **descriptor.attrs,
            )
        except StorageError as exc:
            raise ServiceFault(Reply(452, str(exc))) from exc
        return protocol.closing(payload={"received": descriptor.size})

    def _cmd_stor(self, request: ServiceRequest):
        """STOR: receive a file from the client (upload)."""
        session: _Session = request.state["session"]
        command: Command = request.payload
        descriptor: TransferDescriptor = command.extras["descriptor"]
        path = command.argument
        if self.fs.exists(path):
            raise ServiceFault(Reply(553, "file exists"))
        if descriptor.size > self.fs.free:
            raise ServiceFault(Reply(452, "no space"))
        yield request.preliminary(protocol.opening(f"STOR {path}"))
        try:
            yield from self._move(
                request, session, f"stor:{path}",
                sources=(session.client_host,), dest=self.host.name,
                nbytes=descriptor.size,
                rate_cap=min(self.fs.write_rate,
                             command.extras.get("read_rate", float("inf"))),
            )
        except TransferAborted as exc:
            raise ServiceFault(
                protocol.aborted("Data connection closed",
                                 payload={"received": exc.delivered})
            ) from exc
        self.metrics.counter(
            "gridftp.bytes_received", host=self.host.name
        ).inc(descriptor.size)
        self.metrics.counter(
            "gridftp.files_received", host=self.host.name
        ).inc()
        self.fs.create(
            path,
            descriptor.size,
            content_id=descriptor.content_id,
            now=self.sim.now,
            payload=descriptor.payload,
            **descriptor.attrs,
        )
        return protocol.closing(payload={"received": descriptor.size})
