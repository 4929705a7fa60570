"""The flow engine: integrates TCP streams with links and the DES kernel.

The engine advances all active flows in fluid *ticks*.  Each tick:

1. every flow's effective RTT is its base propagation RTT plus the current
   queueing delay along its path;
2. every flow offers ``window / rtt`` bytes/s, clamped by per-flow rate caps
   (disk speed) and the remaining bytes of its pool;
3. every link sees the total offered rate (plus cross-traffic); when demand
   exceeds capacity the excess builds queue, overflow becomes packet loss
   distributed over flows in proportion to their offered share, and achieved
   rates are scaled to the bottleneck share;
4. random per-packet loss is drawn for each (flow, link) from the seeded RNG;
5. on each flow's RTT boundary its TCP window reacts to the accumulated
   loss marks (Reno: one halving per window, timeout on catastrophic loss).

Parallel GridFTP streams of one transfer share a :class:`SharedBytePool`
(matching extended-block mode, where any stream can carry any block), so a
transfer finishes when the pool drains, without straggler artifacts.

Hot-path architecture
---------------------

Per-flow state lives in a :class:`~repro.netsim.flowtable.FlowTable` — a
struct-of-arrays layout the engine keeps for its whole life: ``open_flow``
appends a row, retirement and ``cancel_pool`` compact the leaving rows
away.  Two tick kernels run over the same table:

* the **vector** kernel executes every per-flow pass — window evolution,
  capacity sharing, batched loss draws, pool settlement — as whole-array
  operations;
* the **scalar** kernel runs the same passes as tight list-indexed loops
  (the reference in differential tests).

The default is **auto**: the table runs vector while it holds
:data:`~repro.netsim.flowtable.VECTOR_MIN_FLOWS` flows or more, scalar
below (where ufunc dispatch overhead would dominate).

Both kernels are bit-identical: array accumulation orders (``bincount`` /
``ufunc.at``), RNG batch draws, and guard-banded ``pow`` reproduce exactly
the float sequences of the straightforward per-object implementation.
``Flow`` and ``SharedBytePool`` objects remain the public API as thin
views over their table rows.  ``NetworkEngine(kernel=...)`` forces one
kernel (the differential tests and the flow-scale bench do).

Whole passes are skipped when provably inert: queueing-delay sums when all
queues are empty, loss marking when nothing was dropped and no path link
has a nonzero ``loss_rate``.  All skips are *exact*: they elide work only
when the skipped pass would compute the identity.

When the dynamics are provably linear — all queues empty and no link
congested, every window buffer-clamped and no loss marks pending — the
engine enters *stretched ticking*: it precomputes the next ``m`` tick
boundaries, sleeps once across all of them, and settles deliveries and
RTT-boundary window updates lazily (on wake, or on demand when a pool is
observed or the flow set changes mid-stretch).  On a lossy path the random
draws are the one thing left that could change: the planner reads them
ahead and ends the window before the first tick that holds a hit.  See
DESIGN.md ("Adaptive tick stretching" and "Flow tables").

Instrumentation is kept out of the hot loop: counts are taken when a flow
opens or retires, a pool drains or is cancelled, or a queue overflows —
never per tick (see ``NetworkEngine.metrics``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.netsim.flowtable import FlowTable, resolve_kernel
from repro.netsim.link import Link
from repro.netsim.tcp import CongestionState, TcpParams, TcpState
from repro.netsim.topology import Host, Topology
from repro.simulation.kernel import Event, Interrupt, Simulator
from repro.simulation.randomness import RandomStreams
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["SharedBytePool", "Flow", "NetworkEngine", "TransferAborted"]

#: Histogram bounds for transfer goodput in bytes/s: decades (with a 3x
#: midpoint) from 100 KB/s to 10 GB/s, the plausible range for grid links.
_THROUGHPUT_BOUNDS = (
    1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10,
)

#: Band around a loss draw inside which the vectorized ``np.power`` (which
#: may differ from python ``**`` by an ulp) cannot be trusted to decide the
#: comparison; such draws are re-decided with the exact scalar pow.  The
#: band is ~4 orders of magnitude wider than the worst observed deviation,
#: and draws land inside it almost never, so the recheck costs nothing.
_POW_BAND = 1e-12


class TransferAborted(Exception):
    """A transfer was cancelled mid-flight.

    ``delivered`` records how many bytes reached the destination — the
    restart marker GridFTP resumes from.
    """

    def __init__(self, delivered: float, reason: str = ""):
        super().__init__(f"transfer aborted after {delivered:.0f} bytes: {reason}")
        self.delivered = delivered
        self.reason = reason


class SharedBytePool:
    """The byte supply of one logical transfer, shared by its streams.

    While its flows are active the pool is a *view* over a row of the
    engine's :class:`FlowTable`; ``remaining``/``delivered`` read through
    to the row, and the row is flushed back when the transfer retires.
    """

    def __init__(self, sim: Simulator, size: float):
        if size <= 0:
            raise ValueError("transfer size must be positive")
        self.size = float(size)
        self._remaining = float(size)
        self._delivered = 0.0
        self.done: Event = sim.event()
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        #: request-trace context of the control-plane request that opened
        #: this transfer (None for untraced transfers)
        self.context = None
        # Set by the engine that serves this pool; used to settle lazily
        # evaluated stretched ticks before the pool is observed.
        self._engine: Optional["NetworkEngine"] = None
        # flow-table view state (attached by FlowTable)
        self._table: Optional[FlowTable] = None
        self._row = -1

    def _settle(self) -> None:
        engine = self._engine
        if engine is not None and engine._stretch is not None:
            engine._settle_stretch(engine.sim.now)

    @property
    def remaining(self) -> float:
        """Bytes not yet delivered (settles any in-flight stretched ticks)."""
        self._settle()
        t = self._table
        if t is not None:
            return float(t.pool_remaining[self._row])
        return self._remaining

    @remaining.setter
    def remaining(self, value: float) -> None:
        self._settle()
        t = self._table
        if t is not None:
            t.pool_remaining[self._row] = value
        else:
            self._remaining = value
        # Forcing the supply (e.g. iperf tearing down its probe flows) must
        # drop the engine out of any stretched window, whose plan assumed
        # the old supply; it will notice the change on its next full tick.
        engine = self._engine
        if engine is not None and engine._stretch is not None:
            engine._abort_stretch()

    @property
    def delivered(self) -> float:
        """Bytes delivered so far (settles any in-flight stretched ticks)."""
        self._settle()
        t = self._table
        if t is not None:
            return float(t.pool_delivered[self._row])
        return self._delivered

    def conservation_error(self) -> float:
        """|size - delivered - remaining| — float drift of the byte ledger.

        Exactly 0.0 under pure engine settlement (every delivery moves
        bytes from ``remaining`` to ``delivered`` in one float op); tiny
        but nonzero only if external code force-adjusted ``remaining``.
        """
        return abs(self.size - self.delivered - self.remaining)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 1e-9

    def throughput(self) -> float:
        """Achieved goodput in bytes/s (valid once completed)."""
        if self.completed_at is None or self.started_at is None:
            raise RuntimeError("transfer not complete")
        elapsed = self.completed_at - self.started_at
        if elapsed <= 0:
            # A transfer cannot complete in zero simulated time (every tick
            # has positive duration); reaching this means the pool's
            # timestamps were tampered with — refuse to report infinity.
            raise RuntimeError(
                f"transfer completed in non-positive elapsed time {elapsed!r}"
            )
        return self.size / elapsed


class Flow:
    """One TCP stream moving bytes from ``src`` to ``dst``.

    While active, per-tick state (delivered bytes, RTT, loss marks, TCP
    window) lives in the engine's :class:`FlowTable`; the object is a thin
    view whose properties read through to its row.  On retirement the row
    is flushed back and the object stands alone again.
    """

    def __init__(
        self,
        src: Host,
        dst: Host,
        path: list[Link],
        pool: SharedBytePool,
        tcp: TcpState,
        rate_cap: float,
        name: str,
        flow_id: int,
    ):
        #: the opening engine's own sequence number
        self.id = flow_id
        self.name = name or f"flow-{self.id}"
        self.src = src
        self.dst = dst
        self.path = path
        self.pool = pool
        self.rate_cap = rate_cap
        #: request-trace context (stamped by the engine at open_flow time)
        self.context = None
        self.base_rtt = 2.0 * sum(link.delay for link in path)
        self.next_round_at = 0.0
        self._tcp = tcp
        self._delivered = 0.0
        self._loss_pending = False
        self._timeout_pending = False
        self._rtt = self.base_rtt
        # flow-table view state (attached by FlowTable)
        self._table: Optional[FlowTable] = None
        self._row = -1

    def _settle(self) -> None:
        engine = self.pool._engine
        if engine is not None and engine._stretch is not None:
            engine._settle_stretch(engine.sim.now)

    @property
    def tcp(self) -> TcpState:
        """Congestion-control state (synced from the flow table on read)."""
        t = self._table
        if t is not None:
            self._settle()
            t.sync_tcp(self._row, self._tcp)
        return self._tcp

    @property
    def delivered(self) -> float:
        """Bytes this stream has delivered so far."""
        t = self._table
        if t is None:
            return self._delivered
        self._settle()
        return float(t.delivered[self._row])

    @property
    def rtt(self) -> float:
        """Most recent effective RTT (propagation + queueing)."""
        t = self._table
        if t is not None:
            return float(t.rtt[self._row])
        return self._rtt


class _Stretch:
    """State of one stretched-tick window (see DESIGN.md)."""

    __slots__ = ("bounds", "dt", "table", "amounts", "draws", "settled")

    def __init__(self, bounds: list[float], dt: float,
                 table: FlowTable, amounts, draws: int):
        #: tick boundaries: ``bounds[j]`` is the start of stretched tick j,
        #: ``bounds[-1]`` is the end of the window (next full-tick time).
        self.bounds = bounds
        self.dt = dt
        self.table = table
        #: per-flow delivery per stretched tick (rate * dt, constant across
        #: the window — precomputed once, bit-identical every tick)
        self.amounts = amounts
        #: loss-stream uniforms a full tick of this window draws (one per
        #: (flow, lossy link) pair); settling a tick consumes them
        self.draws = draws
        #: number of stretched ticks already settled
        self.settled = 0


class NetworkEngine:
    """Advances all active flows against a :class:`Topology`."""

    #: Floor on the tick interval so LAN flows don't make ticks microscopic.
    MIN_TICK = 0.002
    #: Floor on effective RTT (host processing even on the loopback path).
    MIN_RTT = 0.001
    #: Fraction of a tick's offered bytes that must be dropped before the
    #: loss is treated as a full-window timeout rather than a fast retransmit.
    TIMEOUT_DROP_FRACTION = 0.5
    #: Upper bound on how many fine ticks one stretched window may span.
    MAX_STRETCH_TICKS = 4096
    #: Upper bound on the loss-stream uniforms one stretch plan reads ahead
    #: (and so on the ticks a window of many lossy pairs may span).
    MAX_PEEK_DRAWS = 32768

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        seed: int = 0,
        adaptive_ticks: bool = True,
        metrics: MetricsRegistry = NO_METRICS,
        kernel: str = "auto",
    ):
        self.sim = sim
        self.topology = topology
        self.random = RandomStreams(seed)
        self.adaptive_ticks = adaptive_ticks
        #: tick kernel: "vector" (numpy arrays), "scalar" (python lists),
        #: or "auto" (size cutover at VECTOR_MIN_FLOWS)
        self.kernel = resolve_kernel(kernel)
        #: the :class:`~repro.telemetry.metrics.MetricsRegistry`.
        #: Instrumentation is event-driven (flow open/retire, drops) —
        #: never per-tick — and purely observational, so a recording
        #: registry changes no simulation output and stays out of the
        #: hot loop.
        self.metrics = metrics
        for link in topology.links:
            metrics.gauge(
                "netsim.link.capacity", link=link.name
            ).set(link.capacity)
            metrics.gauge(
                "netsim.link.cross_traffic", link=link.name
            ).set(link.cross_traffic)
        topology.link_watchers.append(self._link_changed)
        #: transfer-retirement observers: callables invoked once per pool
        #: as ``fn(src, dst, nbytes, started_at, completed_at, ok)`` when
        #: a transfer drains (ok=True, nbytes=pool size) or is cancelled
        #: (ok=False, nbytes=bytes actually delivered).  Observers must be
        #: purely observational — the weather station's feed.
        self.transfer_observers: list = []
        self._running = False
        self._process = None
        #: bytes cancelled pools had delivered: with the registry's
        #: ``netsim.bytes_delivered``, every byte the engine ever moved
        self.stats = {"bytes_delivered_aborted": 0.0}
        #: full ticks executed / fine ticks settled analytically
        self.tick_count = 0
        self.settled_tick_count = 0
        #: flow-tick work units: active flows advanced per executed or
        #: settled tick (the denominator of per-flow tick rates)
        self.flow_tick_count = 0
        self._flow_seq = 0
        self._loss_rng = None
        # the flow table, kept for the engine's life
        self._table = FlowTable([], self.kernel)
        # stretched-tick state
        self._stretch: Optional[_Stretch] = None
        self._realign_at = 0.0
        # scratch flags describing the most recent full tick
        self._tick_quiet = False
        #: link name -> its ``[dropped_bytes, overflow_events]`` counter
        #: children, bound on the link's first drop (so a link that never
        #: drops has none)
        self._drop_counters: dict[str, list] = {}

    # -- public API --------------------------------------------------------
    def new_pool(self, size: float) -> SharedBytePool:
        """A fresh byte pool for a transfer of ``size`` bytes.  The pool is
        stamped with the ambient request-trace context, tying the data-plane
        transfer to the control-plane request that initiated it."""
        pool = SharedBytePool(self.sim, size)
        pool._engine = self
        pool.context = self.sim.current_context
        return pool

    def open_flow(
        self,
        src: Host | str,
        dst: Host | str,
        nbytes: Optional[float] = None,
        pool: Optional[SharedBytePool] = None,
        tcp: Optional[TcpParams] = None,
        rate_cap: float = float("inf"),
        name: str = "",
        congestion: Optional[CongestionState] = None,
    ) -> Flow:
        """Start a TCP stream.  Provide either ``nbytes`` (a private pool is
        created) or an existing ``pool`` shared with sibling streams.
        ``congestion`` is the window state of a connection kept open from
        an earlier transfer: the stream starts from it (clamped to its own
        buffer) instead of from the initial window.

        A stream whose source, destination or path is down
        (:attr:`Topology.down`) is refused: its pool fails with
        :class:`TransferAborted` at once, sibling streams included, before
        a byte moves.  Streams opened later on a failed pool are refused
        with it."""
        if (nbytes is None) == (pool is None):
            raise ValueError("pass exactly one of nbytes / pool")
        src_host = self.topology.host(src) if isinstance(src, str) else src
        dst_host = self.topology.host(dst) if isinstance(dst, str) else dst
        if src_host == dst_host:
            raise ValueError("flow endpoints must differ (local copies are free)")
        path = self.topology.route(src_host, dst_host)
        if pool is None:
            pool = self.new_pool(float(nbytes))
        elif pool._engine is None:
            pool._engine = self
        self._abort_stretch()
        self._flow_seq += 1
        flow = Flow(
            src=src_host,
            dst=dst_host,
            path=path,
            pool=pool,
            tcp=TcpState(tcp or TcpParams(), resume=congestion),
            rate_cap=rate_cap,
            name=name,
            flow_id=self._flow_seq,
        )
        # trace stamping: a flow inherits its pool's context (the pool was
        # created under the initiating request) or the ambient one
        flow.context = pool.context if pool.context is not None \
            else self.sim.current_context
        if pool.done.triggered:
            return flow  # refused with its pool
        if pool.started_at is None:
            pool.started_at = self.sim.now
        flow.next_round_at = self.sim.now + max(flow.base_rtt, self.MIN_RTT)
        self._table.append(flow)
        self.metrics.counter(
            "netsim.flows_opened", src=src_host.name, dst=dst_host.name,
        ).inc()
        if self.topology.down and self.topology.severed(
            src_host.name, dst_host.name, path
        ):
            self.cancel_pool(
                pool, f"{src_host.name} -> {dst_host.name} is down"
            )
            return flow
        if not self._running:
            self._running = True
            self._process = self.sim.spawn(self._run(), name="network-engine")
        return flow

    def open_transfer(
        self,
        src: Host | str,
        dst: Host | str,
        nbytes: float,
        streams: int = 1,
        tcp: Optional[TcpParams] = None,
        rate_cap: float = float("inf"),
        name: str = "",
    ) -> SharedBytePool:
        """Open ``streams`` parallel flows draining one shared pool (the
        network-level realization of a GridFTP parallel transfer)."""
        if streams < 1:
            raise ValueError("streams must be >= 1")
        pool = self.new_pool(nbytes)
        for i in range(streams):
            self.open_flow(
                src,
                dst,
                pool=pool,
                tcp=tcp,
                rate_cap=rate_cap,
                name=f"{name or 'xfer'}[{i}]",
            )
        return pool

    @property
    def active_flows(self) -> tuple[Flow, ...]:
        return tuple(self._table.flows)

    def pools_on_link(self, link_name: str) -> list[SharedBytePool]:
        """Distinct pools with an active flow routed across the named link
        (in flow order) — what a fibre cut on that link would sever."""
        pools: list[SharedBytePool] = []
        seen: set[int] = set()
        for f in self._table.flows:
            if id(f.pool) in seen:
                continue
            if any(link.name == link_name for link in f.path):
                seen.add(id(f.pool))
                pools.append(f.pool)
        return pools

    def pools_touching_host(self, host_name: str) -> list[SharedBytePool]:
        """Distinct pools with an active flow sourced at or sunk into the
        named host (in flow order) — what a crash of that host severs."""
        pools: list[SharedBytePool] = []
        seen: set[int] = set()
        for f in self._table.flows:
            if id(f.pool) in seen:
                continue
            if f.src.name == host_name or f.dst.name == host_name:
                seen.add(id(f.pool))
                pools.append(f.pool)
        return pools

    def cancel_pool(self, pool: SharedBytePool, reason: str = "") -> None:
        """Abort an in-flight transfer: its flows are torn down and the
        pool's ``done`` event fails with :class:`TransferAborted` carrying
        the bytes already delivered."""
        if pool.done.triggered:
            if pool.done.ok:
                raise ValueError("transfer already completed")
            raise ValueError("transfer already aborted")
        self._abort_stretch()
        t = self._table
        cancelled = []
        if pool._table is t:
            rows = list(t.pool_flow_rows[pool._row])
            cancelled = [t.flows[i] for i in rows]
            t.compact(rows)
        pool.completed_at = self.sim.now
        self.stats["bytes_delivered_aborted"] += pool._delivered
        self.metrics.counter("netsim.transfers_aborted").inc()
        for f in cancelled:
            self._record_flow_retired(f)
        if self.transfer_observers:
            self._report_retired(cancelled, [pool], completed=False)
        pool.done.fail(TransferAborted(pool._delivered, reason))

    def _link_changed(self, link: Link) -> None:
        """``link``'s cross-traffic changed (:meth:`Topology.
        set_cross_traffic`): settle any stretched window, which was planned
        on the old load, and refresh the table's copy of the link."""
        self._abort_stretch()
        self._table.refresh_link(link)
        self.metrics.gauge(
            "netsim.link.cross_traffic", link=link.name
        ).set(link.cross_traffic)

    def _report_retired(self, retired: list[Flow], pools: list,
                        completed: bool) -> None:
        """Hand each retired pool that had a flow to ``transfer_observers``:
        its first flow's ends, bytes moved, start, end and ``completed``."""
        ends: dict[int, tuple[str, str]] = {}
        for f in retired:
            ends.setdefault(id(f.pool), (f.src.name, f.dst.name))
        for pool in pools:
            if id(pool) in ends:
                moved = pool.size if completed else pool._delivered
                for observe in self.transfer_observers:
                    observe(*ends[id(pool)], moved, pool.started_at,
                            pool.completed_at, completed)

    def _record_flow_retired(self, f: Flow) -> None:
        """Export one retired flow's lifetime stats into the registry.

        Called once per flow at retirement (pool drained or cancelled), so
        the cost is O(flows), never O(ticks)."""
        metrics = self.metrics
        labels = {"src": f.src.name, "dst": f.dst.name}
        metrics.counter("netsim.flow.bytes", **labels).inc(f.delivered)
        metrics.counter("netsim.flows_retired", **labels).inc()
        tcp = f.tcp
        if tcp.losses:
            metrics.counter(
                "netsim.tcp.retransmits", **labels
            ).inc(tcp.losses)
        if tcp.timeouts:
            metrics.counter(
                "netsim.tcp.timeouts", **labels
            ).inc(tcp.timeouts)
        metrics.observe("netsim.tcp.cwnd", tcp.cwnd, **labels)
        metrics.observe("netsim.tcp.ssthresh", tcp.ssthresh, **labels)

    # -- engine loop ---------------------------------------------------------
    def _run(self):
        while self._table.n_flows:
            dt = self._tick()
            stretch = self._plan_stretch(dt) if self.adaptive_ticks else None
            if stretch is None:
                yield self.sim.timeout(dt)
                continue
            self._stretch = stretch
            try:
                yield self.sim.timeout(stretch.bounds[-1] - self.sim.now)
            except Interrupt:
                # The flow set changed mid-window.  The mutator already
                # settled elapsed ticks and cleared the stretch; re-align
                # to the next fine tick boundary so the grid is preserved.
                delay = self._realign_at - self.sim.now
                if delay > 0:
                    yield self.sim.timeout(delay)
                continue
            # Natural wake: settle the whole window, resume full ticking.
            self._settle_stretch(self.sim.now)
            self._stretch = None
        self._running = False

    def _tick(self) -> float:
        t = self._table
        self.tick_count += 1
        self.flow_tick_count += t.n_flows
        if t.kernel == "vector":
            return self._tick_vector(t)
        return self._tick_scalar(t)

    def _advance_links(self, t: FlowTable, link_demand, dt: float,
                       link_scale, link_dropped):
        """Advance queue state on every touched link (plain loop: links are
        few next to flows).  ``link_demand`` must hold python floats;
        ``link_scale``/``link_dropped`` may be lists or ndarrays.  Returns
        ``(congested, dropped_any)``.  Untouched links (uncongested, empty
        queue) are skipped exactly: their advance would be the identity."""
        links = t.links
        link_queue = t.link_queue
        drop_counters = self._drop_counters
        congested = False
        dropped_any = False
        for slot in range(t.n_links):
            link = links[slot]
            demand = link_demand[slot] + link.cross_traffic
            if demand > link.capacity:
                congested = True
                link_scale[slot] = link.capacity / demand
                dropped = link.advance_queue(demand, dt)
                link_queue[slot] = link.queue
                if dropped > 0.0:
                    dropped_any = True
                    link_dropped[slot] = dropped
                    handles = drop_counters.get(link.name)
                    if handles is None:
                        handles = drop_counters[link.name] = [
                            self.metrics.counter(name, link=link.name)
                            for name in ("netsim.link.dropped_bytes",
                                         "netsim.link.overflow_events")
                        ]
                    handles[0].inc(dropped)
                    handles[1].inc()
            elif link.queue:
                # draining: advance_queue shrinks the queue, cannot drop
                link.advance_queue(demand, dt)
                link_queue[slot] = link.queue
            # else: advance_queue would be a no-op (queue stays 0, no drop)
        return congested, dropped_any

    def _detect_finished(self, t: FlowTable) -> list[int]:
        """Pool rows drained this tick, in first-flow-encounter order (the
        order pool rows are assigned in, matching the per-flow scan of the
        per-object implementation)."""
        pool_remaining = t.pool_remaining
        return [
            p for p in range(t.n_pools)
            if pool_remaining[p] <= 1e-9 and t.pools[p].completed_at is None
        ]

    def _retire_finished(self, t: FlowTable, finished_rows: list[int],
                         tick_end: float) -> None:
        """Retire the flows of drained pools: compact their rows out of the
        table (flushing them back into the objects) and fire completions."""
        finished_pools = [t.pools[p] for p in finished_rows]
        for pool in finished_pools:
            pool.completed_at = tick_end
        rows = sorted(
            i for p in finished_rows for i in t.pool_flow_rows[p]
        )
        retired = [t.flows[i] for i in rows]
        t.compact(rows)
        for f in retired:
            self._record_flow_retired(f)
        if self.transfer_observers:
            self._report_retired(retired, finished_pools, completed=True)
        metrics = self.metrics
        for pool in finished_pools:
            metrics.counter("netsim.transfers_completed").inc()
            metrics.counter("netsim.bytes_delivered").inc(pool.size)
            elapsed = pool.completed_at - pool.started_at
            if elapsed > 0:
                metrics.histogram(
                    "netsim.transfer.throughput",
                    bounds=_THROUGHPUT_BOUNDS,
                ).observe(pool.size / elapsed)
            pool.done.succeed(pool)

    # -- scalar tick kernel ------------------------------------------------
    def _tick_scalar(self, t: FlowTable) -> float:
        """One fluid tick over python-list columns.

        A faithful port of the per-object tick: same passes, same float
        operation order, with attribute lookups hoisted into locals.
        """
        sim_now = self.sim.now
        n = t.n_flows
        min_rtt = self.MIN_RTT
        rtt = t.rtt
        base_rtt = t.base_rtt
        path_slots = t.path_slots
        link_queue = t.link_queue
        nlinks = t.n_links

        # 1. effective RTTs and tick length (dt = the smallest flow RTT)
        queues_empty = True
        for q in link_queue:
            if q:
                queues_empty = False
                break
        dt = float("inf")
        if queues_empty:
            # queueing sums are exactly 0.0 for every path
            for i in range(n):
                base = base_rtt[i]
                r = base if base > min_rtt else min_rtt
                rtt[i] = r
                if r < dt:
                    dt = r
        else:
            link_capacity = t.link_capacity
            qd = [link_queue[s] / link_capacity[s] for s in range(nlinks)]
            for i in range(n):
                queueing = 0.0
                for slot in path_slots[i]:
                    queueing += qd[slot]
                r = base_rtt[i] + queueing
                if r < min_rtt:
                    r = min_rtt
                rtt[i] = r
                if r < dt:
                    dt = r
        if dt < self.MIN_TICK:
            dt = self.MIN_TICK

        # 2+3. offered rates (window-limited, rate-capped, supply-limited),
        # fused with the per-link demand accumulation
        offered = t.offered
        window_used = t.window_used
        cwnd = t.cwnd
        buffer = t.buffer
        rate_cap = t.rate_cap
        pool_row = t.pool_row
        pool_remaining = t.pool_remaining
        link_demand = [0.0] * nlinks
        for i in range(n):
            cw = cwnd[i]
            bu = buffer[i]
            window_used[i] = window = cw if cw < bu else bu
            off = window / rtt[i]
            cap = rate_cap[i]
            if off > cap:
                off = cap
            # do not offer more than the pool can supply this tick
            supply = pool_remaining[pool_row[i]] / dt
            if off > supply:
                off = supply
            offered[i] = off
            for slot in path_slots[i]:
                link_demand[slot] += off

        link_scale = [1.0] * nlinks
        link_dropped = [0.0] * nlinks
        congested, dropped_any = self._advance_links(
            t, link_demand, dt, link_scale, link_dropped
        )

        achieved = t.achieved
        if congested:
            for i in range(n):
                scale = 1.0
                for slot in path_slots[i]:
                    s = link_scale[slot]
                    if s < scale:
                        scale = s
                achieved[i] = offered[i] * scale
        else:
            # every scale is exactly 1.0
            for i in range(n):
                achieved[i] = offered[i]

        # 4. loss marks: queue overflow + random per-packet loss
        rng = self._loss_rng
        if rng is None and (dropped_any or t.has_lossy):
            rng = self._loss_rng = self.random["netsim.loss"]
        loss_pending = t.loss_pending
        timeout_pending = t.timeout_pending
        mss = t.mss
        if dropped_any:
            timeout_fraction = self.TIMEOUT_DROP_FRACTION
            link_flows = t.link_flows
            link_cross = t.link_cross
            for slot in range(nlinks):
                dropped = link_dropped[slot]
                if dropped <= 0:
                    continue
                demand = link_demand[slot] + link_cross[slot]
                drop_fraction = dropped / max(demand * dt, 1e-12)
                capped = drop_fraction if drop_fraction < 1.0 else 1.0
                base = 1.0 - capped
                severe = drop_fraction >= timeout_fraction
                for i in link_flows[slot]:
                    packets = offered[i] * dt / mss[i]
                    if packets <= 0:
                        continue
                    p_hit = 1.0 - base ** packets
                    if rng.random() < p_hit:
                        loss_pending[i] = True
                        if severe:
                            timeout_pending[i] = True
        if t.has_lossy:
            # Batch the per-(flow, lossy link) uniform draws: a single
            # ``Generator.random(n)`` consumes the identical stream values
            # the equivalent sequence of scalar draws would.
            lossy_rows = t.lossy_rows
            targets = []
            n_draws = 0
            for i in range(n):
                surv = lossy_rows[i]
                if achieved[i] <= 0 or not surv:
                    continue
                targets.append(i)
                n_draws += len(surv)
            if n_draws:
                draws = rng.random(n_draws).tolist() if n_draws > 1 else (
                    rng.random(),
                )
                k = 0
                for i in targets:
                    packets = achieved[i] * dt / mss[i]
                    for survive in lossy_rows[i]:
                        p_hit = 1.0 - survive ** packets
                        if draws[k] < p_hit:
                            loss_pending[i] = True
                        k += 1

        # 5+6. delivery and RTT-boundary window updates, one pass per flow.
        # Interleaving is exact: deliveries touch only pools (updated in the
        # same flow order), window updates touch only per-flow TCP state.
        tick_end = sim_now + dt
        round_edge = tick_end + 1e-12
        pool_delivered = t.pool_delivered
        delivered = t.delivered
        next_round_at = t.next_round_at
        ssthresh = t.ssthresh
        rounds = t.rounds
        losses = t.losses
        timeouts = t.timeouts
        buffer2 = t.buffer2
        initial_cwnd = t.initial_cwnd
        any_exhausted = False
        for i in range(n):
            p = pool_row[i]
            amount = achieved[i] * dt
            remaining = pool_remaining[p]
            taken = amount if amount <= remaining else remaining
            pool_remaining[p] = remaining - taken
            pool_delivered[p] += taken
            delivered[i] += taken
            if pool_remaining[p] <= 1e-9:
                any_exhausted = True
            if round_edge >= next_round_at[i]:
                # inline TcpState.on_round over the table columns
                rounds[i] += 1.0
                if timeout_pending[i]:
                    timeouts[i] += 1.0
                    cw = cwnd[i]
                    bu = buffer[i]
                    window = cw if cw < bu else bu
                    cut = window / 2.0
                    ms2 = 2.0 * mss[i]
                    ssthresh[i] = cut if cut > ms2 else ms2
                    cwnd[i] = initial_cwnd[i]
                elif loss_pending[i]:
                    losses[i] += 1.0
                    cw = cwnd[i]
                    bu = buffer[i]
                    window = cw if cw < bu else bu
                    cut = window / 2.0
                    ms2 = 2.0 * mss[i]
                    ss = cut if cut > ms2 else ms2
                    ssthresh[i] = ss
                    cwnd[i] = ss
                else:
                    cw = cwnd[i]
                    ss = ssthresh[i]
                    ms = mss[i]
                    if cw < ss:
                        # exponential growth, never overshooting past
                        # ssthresh by more than the doubling allows
                        a = cw * 2.0
                        b = cw + ms
                        if b < ss:
                            b = ss
                        cw = a if a < b else b
                    else:
                        cw = cw + ms
                    b2 = buffer2[i]
                    cwnd[i] = cw if cw < b2 else b2
                loss_pending[i] = False
                timeout_pending[i] = False
                next_round_at[i] = tick_end + rtt[i]

        finished_rows = self._detect_finished(t) if any_exhausted else []
        # a tick that retires a transfer is never quiet: the flow set the
        # stretch would be planned over has changed
        self._tick_quiet = queues_empty and not congested and not finished_rows
        if finished_rows:
            self._retire_finished(t, finished_rows, tick_end)
        return dt

    # -- vector tick kernel ------------------------------------------------
    def _tick_vector(self, t: FlowTable) -> float:
        """One fluid tick as whole-array passes (the numpy path).

        Bit-identical to the scalar kernel: ``bincount``/``ufunc.at``
        accumulate sequentially in operand order (reproducing the scalar
        running sums), batched RNG draws consume the same stream values as
        the equivalent scalar call sequence, and every elementwise op maps
        one-to-one onto a scalar float op.  The two places where order or
        rounding could diverge are handled explicitly: pools near
        exhaustion fall back to the exact running-min loop, and loss draws
        within :data:`_POW_BAND` of the vectorized ``np.power`` are
        re-decided with python ``**``.

        At a few hundred rows a numpy call costs more than its arithmetic,
        so the passes are written for fewer calls: masks are tested with
        ``np.count_nonzero`` (a third of the price of ``ndarray.any()``),
        and scratch columns live on the table.
        """
        sim_now = self.sim.now
        n = t.n_flows
        rtt = t.rtt

        # 1. effective RTTs and tick length (dt = the smallest flow RTT)
        link_queue = t.link_queue
        queues_empty = not np.count_nonzero(link_queue)
        if queues_empty:
            np.maximum(t.base_rtt, self.MIN_RTT, out=rtt)
        else:
            qd = link_queue / t.link_capacity
            queueing = np.bincount(
                t.path_flow, weights=qd[t.path_link], minlength=n
            )
            np.add(t.base_rtt, queueing, out=rtt)
            np.maximum(rtt, self.MIN_RTT, out=rtt)
        dt = float(rtt.min())
        if dt < self.MIN_TICK:
            dt = self.MIN_TICK

        # 2. offered rates (window-limited, rate-capped, supply-limited)
        offered = t.offered
        np.minimum(t.cwnd, t.buffer, out=t.window_used)
        np.divide(t.window_used, rtt, out=offered)
        np.minimum(offered, t.rate_cap, out=offered)
        supply = t.pool_remaining[t.pool_row] / dt
        np.minimum(offered, supply, out=offered)
        # 3. link demand (flow-major accumulation, as the scalar loop)
        link_demand = np.bincount(
            t.path_link, weights=offered[t.path_flow], minlength=t.n_links
        )

        # scratch columns: all 1.0 / 0.0 between ticks, reset after use
        link_scale = t.link_scale
        link_dropped = t.link_dropped
        congested, dropped_any = self._advance_links(
            t, link_demand.tolist(), dt, link_scale, link_dropped
        )

        achieved = t.achieved
        if congested:
            ach_scale = np.ones(n)
            np.minimum.at(ach_scale, t.path_flow, link_scale[t.path_link])
            np.multiply(offered, ach_scale, out=achieved)
            link_scale.fill(1.0)
        else:
            # every scale is exactly 1.0
            achieved[:] = offered

        # 4. loss marks: queue overflow + random per-packet loss
        rng = self._loss_rng
        if rng is None and (dropped_any or t.has_lossy):
            rng = self._loss_rng = self.random["netsim.loss"]
        loss_pending = t.loss_pending
        timeout_pending = t.timeout_pending
        if dropped_any:
            # the drop fraction is a per-link number; (link, flow) pairs
            # are link-major, flows in incidence order within a link — the
            # scalar draw order
            drop_fraction = link_dropped / np.maximum(
                (link_demand + t.link_cross) * dt, 1e-12
            )
            link_base = 1.0 - np.minimum(drop_fraction, 1.0)
            sel = link_dropped[t.ov_link] > 0.0
            pl = t.ov_link[sel]
            pf = t.ov_flow[sel]
            packets = offered[pf] * dt / t.mss[pf]
            elig = packets > 0
            if np.count_nonzero(elig) < elig.size:
                pl = pl[elig]
                pf = pf[elig]
                packets = packets[elig]
            k = pf.size
            if k:
                base = link_base[pl]
                draws = rng.random(k)
                p_hit = 1.0 - np.power(base, packets)
                hit = draws < p_hit
                band = np.abs(draws - p_hit) <= _POW_BAND
                if np.count_nonzero(band):
                    for j in np.nonzero(band)[0]:
                        p_exact = 1.0 - float(base[j]) ** float(packets[j])
                        hit[j] = bool(draws[j] < p_exact)
                if np.count_nonzero(hit):
                    loss_pending[pf[hit]] = True
                    severe = drop_fraction >= self.TIMEOUT_DROP_FRACTION
                    if np.count_nonzero(severe):
                        timeout_pending[pf[hit & severe[pl]]] = True
            link_dropped.fill(0.0)
        if t.has_lossy:
            # (flow, lossy link) pairs are flow-major — the scalar order;
            # a single batched draw consumes the identical stream values
            lf = t.lossy_flow
            surv = t.lossy_survive
            lms = t.lossy_mss
            ach = achieved[lf]
            elig = ach > 0
            if np.count_nonzero(elig) < elig.size:
                lf = lf[elig]
                surv = surv[elig]
                lms = lms[elig]
                ach = ach[elig]
            k = lf.size
            if k:
                draws = rng.random(k)
                packets = ach * dt / lms
                p_hit = 1.0 - np.power(surv, packets)
                hit = draws < p_hit
                band = np.abs(draws - p_hit) <= _POW_BAND
                if np.count_nonzero(band):
                    for j in np.nonzero(band)[0]:
                        p_exact = 1.0 - float(surv[j]) ** float(packets[j])
                        hit[j] = bool(draws[j] < p_exact)
                if np.count_nonzero(hit):
                    loss_pending[lf[hit]] = True

        # 5. delivery: sequential per-pool settlement via unbuffered
        # ufunc.at for pools with comfortable supply; pools whose remaining
        # bytes are within a drift margin of this tick's total draw fall
        # back to the exact running-min loop (they are the ones about to
        # clamp or finish, a handful per tick at most)
        tick_end = sim_now + dt
        round_edge = tick_end + 1e-12
        amounts = achieved * dt
        pool_row = t.pool_row
        pool_remaining = t.pool_remaining
        pool_delivered = t.pool_delivered
        delivered = t.delivered
        pool_take = np.bincount(
            pool_row, weights=amounts, minlength=t.n_pools
        )
        margin = 1e-9 * (np.abs(pool_remaining) + pool_take) + 1e-9
        risky = pool_remaining - pool_take <= margin
        if np.count_nonzero(risky):
            safe = ~risky[pool_row]
            if np.count_nonzero(safe):
                np.subtract.at(pool_remaining, pool_row[safe], amounts[safe])
                np.add.at(pool_delivered, pool_row[safe], amounts[safe])
                delivered[safe] += amounts[safe]
            for p in np.nonzero(risky)[0]:
                rem = float(pool_remaining[p])
                dlv = float(pool_delivered[p])
                for i in t.pool_rows_of[p]:
                    amount = float(amounts[i])
                    taken = amount if amount <= rem else rem
                    rem -= taken
                    dlv += taken
                    delivered[i] += taken
                pool_remaining[p] = rem
                pool_delivered[p] = dlv
        else:
            np.subtract.at(pool_remaining, pool_row, amounts)
            np.add.at(pool_delivered, pool_row, amounts)
            delivered += amounts
        any_exhausted = np.count_nonzero(pool_remaining <= 1e-9) > 0

        # 6. RTT-boundary window updates (independent of deliveries, so
        # running them after the whole delivery pass is exact)
        mask = np.greater_equal(round_edge, t.next_round_at, out=t.round_mask)
        if np.count_nonzero(mask):
            self._on_round_mask(t, mask, tick_end)

        finished_rows = self._detect_finished(t) if any_exhausted else []
        # a tick that retires a transfer is never quiet: the flow set the
        # stretch would be planned over has changed
        self._tick_quiet = queues_empty and not congested and not finished_rows
        if finished_rows:
            self._retire_finished(t, finished_rows, tick_end)
        return dt

    def _on_round_mask(self, t: FlowTable, mask, tick_end: float,
                       stretched: bool = False) -> None:
        """Vectorized ``TcpState.on_round`` over the rows ``mask`` selects.

        Whole-column passes written back under the mask, which at these
        table sizes costs fewer numpy calls than a gather/scatter of the
        selected rows.  Elementwise translation of the scalar branches:
        clean rounds grow (doubling in slow start, +MSS in avoidance,
        clamped at twice the buffer), loss deflates to the halved
        ssthresh, timeout collapses to the initial window.  When no
        selected row carries a mark only ``cwnd``, ``rounds`` and
        ``next_round_at`` are written; a ``stretched`` tick, like the
        scalar replay, takes that clean-round branch for every row.
        """
        cw = t.cwnd
        ss = t.ssthresh
        grow = cw + t.mss
        slow = cw < ss
        if np.count_nonzero(slow):
            np.copyto(
                grow, np.minimum(cw * 2.0, np.maximum(ss, grow)), where=slow
            )
        np.minimum(grow, t.buffer2, out=cw, where=mask)
        t.rounds += mask
        np.add(t.rtt, tick_end, out=t.next_round_at, where=mask)
        if stretched:
            return
        lp = t.loss_pending
        tp = t.timeout_pending
        marked = lp | tp
        marked &= mask
        if np.count_nonzero(marked):
            # window_used is this tick's min(cwnd, buffer) as it was before
            # the update above: marks are set only by full ticks
            cut = np.maximum(t.window_used / 2.0, 2.0 * t.mss)
            np.copyto(ss, cut, where=marked)
            np.copyto(cw, cut, where=marked)
            if np.count_nonzero(tp):
                timed_out = tp & marked
                np.copyto(cw, t.initial_cwnd, where=timed_out)
                t.timeouts += timed_out
                marked ^= timed_out
                np.copyto(tp, False, where=mask)
            t.losses += marked
            np.copyto(lp, False, where=mask)

    # -- adaptive tick stretching ------------------------------------------
    def _plan_stretch(self, dt: float) -> Optional[_Stretch]:
        """Decide whether the coming ticks are provably linear.

        Returns a :class:`_Stretch` spanning ``m >= 2`` fine ticks when, for
        every one of them, a full tick would compute exactly what the
        settlement loop computes: constant per-flow rates, no queue
        evolution, no loss marks, and window updates that cannot change the
        effective (buffer-clamped) window.  On lossy paths each of those
        ticks still draws its uniforms; :meth:`_loss_horizon` reads them
        ahead and ends the window before the first one that is a hit.
        """
        t = self._table
        if not t.n_flows or not self._tick_quiet:
            return None
        if t.kernel == "vector":
            budget = self._stretch_budget_vector(t, dt)
        else:
            budget = self._stretch_budget_scalar(t, dt)
        draws = 0
        if budget >= 2 and t.has_lossy:
            budget, draws = self._loss_horizon(t, dt, budget)
        if budget < 2:
            return None

        # Tick boundaries, accumulated exactly as the kernel's repeated
        # ``now + dt`` scheduling would accumulate them.
        bounds = [self.sim.now + dt]
        b = bounds[0]
        for _ in range(budget):
            b = b + dt
            bounds.append(b)
        # per-flow delivery per stretched tick: rate * dt is constant across
        # the window, so one multiplication serves every settled tick
        if t.kernel == "vector":
            amounts = t.achieved * dt
        else:
            achieved = t.achieved
            amounts = [achieved[i] * dt for i in range(t.n_flows)]
        return _Stretch(bounds=bounds, dt=dt, table=t, amounts=amounts,
                        draws=draws)

    def _loss_horizon(self, t: FlowTable, dt: float,
                      budget: int) -> tuple[int, int]:
        """Hit-free ticks ahead on the loss stream, and draws per tick.

        In a quiet, clamped window every (flow, lossy link) pair's hit
        probability is the constant the scalar kernel computes (same pairs,
        same order, same python ``**``); the vector kernel's ``_POW_BAND``
        recheck makes its decisions equal to these.  The stream is read
        ahead — a few ticks first, doubling up to the budget — and put
        back where it was; settlement then consumes the draws of exactly
        the ticks it settles.  Returns ``(ticks, draws)``: the ticks before
        the first one that holds a hit (at most ``budget``).
        """
        achieved = t.achieved
        mss = t.mss
        if t.kernel == "vector":
            achieved = achieved.tolist()
            mss = mss.tolist()
        p_hit = []
        for i, survive_row in enumerate(t.lossy_rows):
            if not survive_row or achieved[i] <= 0:
                continue
            packets = achieved[i] * dt / mss[i]
            for survive in survive_row:
                p_hit.append(1.0 - survive ** packets)
        k = len(p_hit)
        if not k:
            return budget, 0
        horizon = min(budget, self.MAX_PEEK_DRAWS // k)
        rng = self._loss_rng
        bit_generator = rng.bit_generator
        state = bit_generator.state
        p_hit = np.array(p_hit)
        seen = 0
        chunk = 4
        try:
            while seen < horizon:
                n = min(chunk, horizon - seen)
                hits = rng.random((n, k)) < p_hit
                first = int(hits.argmax())
                if hits.flat[first]:
                    return seen + first // k, k
                seen += n
                chunk *= 2
        finally:
            bit_generator.state = state
        return horizon, k

    def _stretch_budget_vector(self, t: FlowTable, dt: float) -> int:
        """Stretchable tick count under the vector kernel (0 = don't)."""
        if t.loss_pending.any() or t.timeout_pending.any():
            return 0
        if (t.cwnd < t.buffer).any():
            return 0  # window not clamped: rounds would change rates
        window = np.minimum(t.cwnd, t.buffer)
        if (window != t.window_used).any():
            # an RTT boundary inside the planning tick grew the window;
            # the snapshot rate would be stale for the very next tick
            return 0
        # Pool margins: stop stretching well before any pool's remaining
        # supply could clamp an offered rate or complete a transfer.
        consumption = np.bincount(
            t.pool_row, weights=t.achieved * dt, minlength=t.n_pools
        )
        unclamped = np.minimum(window / t.rtt, t.rate_cap)
        max_draw = np.zeros(t.n_pools)
        np.maximum.at(max_draw, t.pool_row, unclamped * dt)
        budget = self.MAX_STRETCH_TICKS
        active = consumption > 0.0
        if active.any():
            headroom = t.pool_remaining[active] - max_draw[active]
            # trunc-minus-one in float space == the scalar int()-1 for any
            # ratio small enough to matter (budget caps at 4096 anyway)
            m = np.trunc(headroom / consumption[active]) - 1.0
            m_min = float(m.min())
            if m_min < budget:
                budget = int(m_min)
        return budget

    def _stretch_budget_scalar(self, t: FlowTable, dt: float) -> int:
        """Stretchable tick count under the scalar kernel (0 = don't)."""
        n = t.n_flows
        cwnd = t.cwnd
        buffer = t.buffer
        window_used = t.window_used
        loss_pending = t.loss_pending
        timeout_pending = t.timeout_pending
        for i in range(n):
            if loss_pending[i] or timeout_pending[i]:
                return 0
            cw = cwnd[i]
            bu = buffer[i]
            if cw < bu:
                return 0  # window not clamped: rounds would change rates
            window = cw if cw < bu else bu
            if window != window_used[i]:
                # an RTT boundary inside this tick grew the window
                return 0
        consumption = [0.0] * t.n_pools
        max_draw = [0.0] * t.n_pools
        achieved = t.achieved
        rtt = t.rtt
        rate_cap = t.rate_cap
        pool_row = t.pool_row
        for i in range(n):
            p = pool_row[i]
            consumption[p] += achieved[i] * dt
            cw = cwnd[i]
            bu = buffer[i]
            window = cw if cw < bu else bu
            unclamped = window / rtt[i]
            cap = rate_cap[i]
            if unclamped > cap:
                unclamped = cap
            draw = unclamped * dt
            if draw > max_draw[p]:
                max_draw[p] = draw
        budget = self.MAX_STRETCH_TICKS
        pool_remaining = t.pool_remaining
        for p in range(t.n_pools):
            per_tick = consumption[p]
            if per_tick <= 0.0:
                continue
            headroom = pool_remaining[p] - max_draw[p]
            m_pool = int(headroom / per_tick) - 1
            if m_pool < budget:
                budget = m_pool
        return budget

    def _settle_stretch(self, limit: float) -> None:
        """Replay stretched ticks whose start time is at or before ``limit``.

        Each replayed tick performs exactly the delivery and RTT-boundary
        passes a full tick would have performed, in the same order with the
        same floating-point operations, and consumes the loss draws it
        would have made (all misses, by the plan's horizon); all other
        passes are identities under the stretch preconditions.  The vector
        replay settles pools with an unclamped ``subtract.at``: the
        planner's one-tick headroom margin guarantees the scalar running-min
        clamp would never engage.
        """
        st = self._stretch
        if st is None:
            return
        bounds = st.bounds
        t = st.table
        i = st.settled
        nticks = len(bounds) - 1
        start = i
        n = t.n_flows
        pool_row = t.pool_row
        pool_remaining = t.pool_remaining
        pool_delivered = t.pool_delivered
        delivered = t.delivered
        next_round_at = t.next_round_at
        amounts = st.amounts
        if t.kernel == "vector":
            while i < nticks and bounds[i] <= limit:
                tick_end = bounds[i + 1]
                np.subtract.at(pool_remaining, pool_row, amounts)
                np.add.at(pool_delivered, pool_row, amounts)
                delivered += amounts
                mask = np.greater_equal(
                    tick_end + 1e-12, next_round_at, out=t.round_mask
                )
                if np.count_nonzero(mask):
                    self._on_round_mask(t, mask, tick_end, stretched=True)
                i += 1
        else:
            rtt = t.rtt
            cwnd = t.cwnd
            ssthresh = t.ssthresh
            rounds = t.rounds
            mss = t.mss
            buffer2 = t.buffer2
            while i < nticks and bounds[i] <= limit:
                tick_end = bounds[i + 1]
                edge = tick_end + 1e-12
                for k in range(n):
                    p = pool_row[k]
                    amount = amounts[k]
                    remaining = pool_remaining[p]
                    taken = amount if amount <= remaining else remaining
                    pool_remaining[p] = remaining - taken
                    pool_delivered[p] += taken
                    delivered[k] += taken
                    if edge >= next_round_at[k]:
                        # inline clean-round TcpState.on_round
                        rounds[k] += 1.0
                        cw = cwnd[k]
                        ss = ssthresh[k]
                        ms = mss[k]
                        if cw < ss:
                            a = cw * 2.0
                            b = cw + ms
                            if b < ss:
                                b = ss
                            cw = a if a < b else b
                        else:
                            cw = cw + ms
                        b2 = buffer2[k]
                        cwnd[k] = cw if cw < b2 else b2
                        next_round_at[k] = tick_end + rtt[k]
                i += 1
        settled_now = i - start
        if st.draws and settled_now:
            # the uniforms these ticks would have drawn, all misses
            self._loss_rng.random(settled_now * st.draws)
        self.settled_tick_count += settled_now
        self.flow_tick_count += settled_now * n
        st.settled = i

    def _abort_stretch(self) -> None:
        """Settle a stretched window up to now and wake the engine.

        Called before any mutation of the flow set so that delivered byte
        counts reflect exactly the fine ticks that have elapsed, and so the
        engine re-plans against the new flow set from the next boundary.
        """
        st = self._stretch
        if st is None:
            return
        self._settle_stretch(self.sim.now)
        bounds = st.bounds
        if st.settled < len(bounds) - 1:
            self._realign_at = bounds[st.settled]
        else:
            self._realign_at = bounds[-1]
        self._stretch = None
        # The engine is suspended in the stretched timeout; wake it so it
        # re-plans against the mutated flow set from the next boundary.
        self._process.interrupt("flow set changed")
