"""Struct-of-arrays flow tables: the data layout behind the tick kernels.

The flow engine's inner loop advances every active flow every tick.  Up
to PR 1 each pass walked a list of :class:`~repro.netsim.engine.Flow`
*objects*, paying a Python attribute lookup per field per flow per tick.
This module restructures the state into a :class:`FlowTable` — parallel
per-flow / per-link / per-pool columns — so the vectorized kernel can run
whole-array passes and the retained scalar kernel can run tight
list-indexed loops, both over the same storage.

The engine defaults to ``auto`` — each table picks the batched vector
kernel (``float64`` ndarray columns) at :data:`VECTOR_MIN_FLOWS` flows
and above, and the scalar kernel (plain-list columns, no per-tick ufunc
dispatch overhead) below it.  ``NetworkEngine(kernel="scalar")`` always
runs the scalar kernel; ``"vector"`` vectorizes every table regardless
of size.  Both kernels are required to produce
**bit-identical** simulations — the accumulation orders baked into this
layout (flow-major path pairs, link-major overflow pairs, pool rows in
first-flow order) exist precisely to reproduce the scalar loops' float
rounding and RNG draw order.  See DESIGN.md ("Flow tables").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Flow, SharedBytePool
    from repro.netsim.link import Link

__all__ = ["VECTOR_MIN_FLOWS", "FlowTable", "resolve_kernel"]

_VALID_KERNELS = ("auto", "vector", "scalar")

#: Flow count at which an ``auto`` table switches from the scalar to the
#: vector kernel.  Below this, per-tick numpy ufunc dispatch costs more
#: than it saves (the figure-5/6 scenarios run 2–11 flows and are 3–5x
#: faster scalar; measured crossover on the congested single-link
#: testbed is ~64 flows, after which the array passes win by a widening
#: margin — 2x at 128, ~10x at 10k).  Safe to tune freely: the kernels
#: are bit-identical, so the cutover can never change simulation results.
VECTOR_MIN_FLOWS = 64


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel request."""
    if kernel not in _VALID_KERNELS:
        raise ValueError(
            f"unknown netsim kernel {kernel!r}; expected one of "
            f"{_VALID_KERNELS}"
        )
    return kernel


class FlowTable:
    """Parallel columns for the active flow set of one engine.

    The table is rebuilt whenever the flow set changes (``open_flow``,
    retirement, ``cancel_pool``); while attached it is the *authoritative*
    store — ``Flow`` / ``SharedBytePool`` objects are thin views whose
    properties read through to their row and are written back (flushed)
    when they leave the table.

    Column orders deliberately reproduce the encounter orders of the
    original per-object loops, so aggregation (``bincount`` / running
    sums) and RNG draw sequences are bit-identical:

    * flow rows in arrival order,
    * link slots in first-encounter order over flow paths,
    * path pairs flow-major (flow order, hop order within a flow),
    * overflow pairs link-major (link slot, then incidence order),
    * pool rows in first-flow-encounter order.
    """

    def __init__(self, flows: list, kernel: str):
        if kernel == "auto":
            # Size cutover: the kernels are bit-identical, so picking per
            # table can never change results — only wall-clock.
            kernel = (
                "vector" if len(flows) >= VECTOR_MIN_FLOWS else "scalar"
            )
        self.kernel = kernel
        vector = kernel == "vector"
        inf = float("inf")

        n = len(flows)
        self.flows = list(flows)
        self.n_flows = n

        base_rtt = [0.0] * n
        rtt = [0.0] * n
        rate_cap = [0.0] * n
        next_round_at = [0.0] * n
        delivered = [0.0] * n
        cwnd = [0.0] * n
        ssthresh = [0.0] * n
        rounds = [0.0] * n
        losses = [0.0] * n
        timeouts = [0.0] * n
        buffer = [0.0] * n
        buffer2 = [0.0] * n
        mss = [0.0] * n
        initial_cwnd = [0.0] * n
        loss_pending = [False] * n
        timeout_pending = [False] * n
        pool_row: list[int] = [0] * n
        src_slot: list[int] = [0] * n
        dst_slot: list[int] = [0] * n

        links: list["Link"] = []
        link_slot: dict[int, int] = {}
        path_slots: list[list[int]] = []
        lossy_rows: list[tuple[float, ...]] = []
        path_flow: list[int] = []
        path_link: list[int] = []
        lossy_flow: list[int] = []
        lossy_survive: list[float] = []

        pools: list["SharedBytePool"] = []
        pool_key: dict[int, int] = {}
        pool_flow_rows: list[list[int]] = []

        src_key: dict[str, int] = {}
        dst_key: dict[str, int] = {}
        src_nics: list[float] = []
        dst_nics: list[float] = []

        has_lossy = False
        for i, f in enumerate(flows):
            base_rtt[i] = f.base_rtt
            rtt[i] = f._rtt
            rate_cap[i] = f.rate_cap
            next_round_at[i] = f.next_round_at
            delivered[i] = f._delivered
            t = f._tcp
            cwnd[i] = t.cwnd
            ssthresh[i] = t.ssthresh
            rounds[i] = float(t.rounds)
            losses[i] = float(t.losses)
            timeouts[i] = float(t.timeouts)
            buffer[i] = t._buffer_f
            buffer2[i] = t._buffer2
            mss[i] = t._mss_f
            initial_cwnd[i] = t._initial_cwnd_f
            loss_pending[i] = f._loss_pending
            timeout_pending[i] = f._timeout_pending

            slots = []
            for link in f.path:
                key = id(link)
                slot = link_slot.get(key)
                if slot is None:
                    slot = len(links)
                    link_slot[key] = slot
                    links.append(link)
                slots.append(slot)
                path_flow.append(i)
                path_link.append(slot)
            path_slots.append(slots)
            survive = tuple(
                1.0 - link.loss_rate for link in f.path if link.loss_rate > 0
            )
            lossy_rows.append(survive)
            if survive:
                has_lossy = True
                for s in survive:
                    lossy_flow.append(i)
                    lossy_survive.append(s)

            key = id(f.pool)
            prow = pool_key.get(key)
            if prow is None:
                prow = len(pools)
                pool_key[key] = prow
                pools.append(f.pool)
                pool_flow_rows.append([])
            pool_row[i] = prow
            pool_flow_rows[prow].append(i)

            slot = src_key.get(f.src.name)
            if slot is None:
                slot = len(src_nics)
                src_key[f.src.name] = slot
                src_nics.append(f.src.nic_rate)
            src_slot[i] = slot
            slot = dst_key.get(f.dst.name)
            if slot is None:
                slot = len(dst_nics)
                dst_key[f.dst.name] = slot
                dst_nics.append(f.dst.nic_rate)
            dst_slot[i] = slot

        nlinks = len(links)
        link_flows: list[list[int]] = [[] for _ in range(nlinks)]
        for k in range(len(path_flow)):
            link_flows[path_link[k]].append(path_flow[k])
        # overflow pairs: the queue-drop marking pass walks links in slot
        # order and, within a link, flows in incidence order — which is
        # ascending row order, since incidence lists are filled flow-major
        ov_pairs = sorted(zip(path_link, path_flow))

        self.links = links
        self.link_flows = link_flows
        self.n_links = nlinks
        self.path_slots = path_slots
        self.lossy_rows = lossy_rows
        self.has_lossy = has_lossy
        self.pools = pools
        self.pool_flow_rows = pool_flow_rows
        self.n_pools = len(pools)
        self.src_nics = src_nics
        self.dst_nics = dst_nics
        self.n_src_slots = len(src_nics)
        self.n_dst_slots = len(dst_nics)
        self.nic_bounded = any(r != inf for r in src_nics) or any(
            r != inf for r in dst_nics
        )

        link_capacity = [link.capacity for link in links]
        link_cross = [link.cross_traffic for link in links]
        link_queue_cap = [link.queue_capacity for link in links]
        link_queue = [link.queue for link in links]
        pool_remaining = [p._remaining for p in pools]
        pool_delivered = [p._delivered for p in pools]

        if vector:
            f64 = _np.float64
            self.base_rtt = _np.array(base_rtt, dtype=f64)
            self.rtt = _np.array(rtt, dtype=f64)
            self.rate_cap = _np.array(rate_cap, dtype=f64)
            self.next_round_at = _np.array(next_round_at, dtype=f64)
            self.delivered = _np.array(delivered, dtype=f64)
            self.cwnd = _np.array(cwnd, dtype=f64)
            self.ssthresh = _np.array(ssthresh, dtype=f64)
            self.rounds = _np.array(rounds, dtype=f64)
            self.losses = _np.array(losses, dtype=f64)
            self.timeouts = _np.array(timeouts, dtype=f64)
            self.buffer = _np.array(buffer, dtype=f64)
            self.buffer2 = _np.array(buffer2, dtype=f64)
            self.mss = _np.array(mss, dtype=f64)
            self.initial_cwnd = _np.array(initial_cwnd, dtype=f64)
            self.loss_pending = _np.array(loss_pending, dtype=bool)
            self.timeout_pending = _np.array(timeout_pending, dtype=bool)
            self.offered = _np.zeros(n, dtype=f64)
            self.achieved = _np.zeros(n, dtype=f64)
            self.window_used = _np.zeros(n, dtype=f64)
            self.pool_row = _np.array(pool_row, dtype=_np.intp)
            self.src_slot = _np.array(src_slot, dtype=_np.intp)
            self.dst_slot = _np.array(dst_slot, dtype=_np.intp)
            self.path_flow = _np.array(path_flow, dtype=_np.intp)
            self.path_link = _np.array(path_link, dtype=_np.intp)
            self.lossy_flow = _np.array(lossy_flow, dtype=_np.intp)
            self.lossy_survive = _np.array(lossy_survive, dtype=f64)
            self.ov_link = _np.array([p[0] for p in ov_pairs], dtype=_np.intp)
            self.ov_flow = _np.array([p[1] for p in ov_pairs], dtype=_np.intp)
            self.link_capacity = _np.array(link_capacity, dtype=f64)
            self.link_cross = _np.array(link_cross, dtype=f64)
            self.link_queue_cap = _np.array(link_queue_cap, dtype=f64)
            self.link_queue = _np.array(link_queue, dtype=f64)
            self.pool_remaining = _np.array(pool_remaining, dtype=f64)
            self.pool_delivered = _np.array(pool_delivered, dtype=f64)
            self.pool_rows_of = [
                _np.array(r, dtype=_np.intp) for r in pool_flow_rows
            ]
            # per-pair columns the loss passes would otherwise gather per
            # tick, and per-tick scratch (see the vector kernel)
            self.ov_mss = self.mss[self.ov_flow]
            self.lossy_mss = self.mss[self.lossy_flow]
            self.link_scale = _np.ones(nlinks)
            self.link_dropped = _np.zeros(nlinks)
            self.round_mask = _np.zeros(n, dtype=bool)
            # NIC rates may be inf (unbounded); the masked divide in the
            # kernel never touches those lanes
            self.src_nics = _np.array(src_nics, dtype=f64)
            self.dst_nics = _np.array(dst_nics, dtype=f64)
        else:
            self.base_rtt = base_rtt
            self.rtt = rtt
            self.rate_cap = rate_cap
            self.next_round_at = next_round_at
            self.delivered = delivered
            self.cwnd = cwnd
            self.ssthresh = ssthresh
            self.rounds = rounds
            self.losses = losses
            self.timeouts = timeouts
            self.buffer = buffer
            self.buffer2 = buffer2
            self.mss = mss
            self.initial_cwnd = initial_cwnd
            self.loss_pending = loss_pending
            self.timeout_pending = timeout_pending
            self.offered = [0.0] * n
            self.achieved = [0.0] * n
            self.window_used = [0.0] * n
            self.pool_row = pool_row
            self.src_slot = src_slot
            self.dst_slot = dst_slot
            self.path_flow = path_flow
            self.path_link = path_link
            self.lossy_flow = lossy_flow
            self.lossy_survive = lossy_survive
            self.ov_link = [p[0] for p in ov_pairs]
            self.ov_flow = [p[1] for p in ov_pairs]
            self.link_capacity = link_capacity
            self.link_cross = link_cross
            self.link_queue_cap = link_queue_cap
            self.link_queue = link_queue
            self.pool_remaining = pool_remaining
            self.pool_delivered = pool_delivered
            self.pool_rows_of = pool_flow_rows

        # attach the views last, once every column is consistent
        for i, f in enumerate(flows):
            f._table = self
            f._row = i
        for prow, p in enumerate(pools):
            p._table = self
            p._row = prow

    # -- view synchronisation ---------------------------------------------
    def sync_tcp(self, row: int, tcp) -> None:
        """Refresh a flow's :class:`TcpState` object from its row."""
        tcp.cwnd = float(self.cwnd[row])
        tcp.ssthresh = float(self.ssthresh[row])
        tcp.rounds = int(self.rounds[row])
        tcp.losses = int(self.losses[row])
        tcp.timeouts = int(self.timeouts[row])

    def flush_flow(self, f) -> None:
        """Write a flow's row back into the object and detach the view."""
        i = f._row
        f._delivered = float(self.delivered[i])
        f._rtt = float(self.rtt[i])
        f._loss_pending = bool(self.loss_pending[i])
        f._timeout_pending = bool(self.timeout_pending[i])
        f.next_round_at = float(self.next_round_at[i])
        self.sync_tcp(i, f._tcp)
        f._table = None

    def flush_pool(self, p) -> None:
        """Write a pool's row back into the object and detach the view."""
        row = p._row
        p._remaining = float(self.pool_remaining[row])
        p._delivered = float(self.pool_delivered[row])
        p._table = None

    def flush_all(self) -> None:
        """Detach every view still attached to this table."""
        for f in self.flows:
            if f._table is self:
                self.flush_flow(f)
        for p in self.pools:
            if p._table is self:
                self.flush_pool(p)
