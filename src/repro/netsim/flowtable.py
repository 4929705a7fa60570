"""Struct-of-arrays flow tables: the data layout behind the tick kernels.

The flow engine's inner loop advances every active flow every tick.  Up
to PR 1 each pass walked a list of :class:`~repro.netsim.engine.Flow`
*objects*, paying a Python attribute lookup per field per flow per tick.
This module restructures the state into a :class:`FlowTable` — parallel
per-flow / per-link / per-pool columns — so the vectorized kernel can run
whole-array passes and the retained scalar kernel can run tight
list-indexed loops, both over the same storage.

An engine keeps one table for its whole life: :meth:`FlowTable.append`
adds a flow as it opens and :meth:`FlowTable.compact` drops the flows of
a retired or cancelled transfer, each leaving the table exactly as a
fresh build over the surviving flows would lay it out.

The engine defaults to ``auto`` — the table runs the batched vector
kernel (``float64`` ndarray columns) while it holds
:data:`VECTOR_MIN_FLOWS` flows or more, and the scalar kernel
(plain-list columns, no per-tick ufunc dispatch overhead) below that,
converting its columns in place when it crosses the threshold.
``NetworkEngine(kernel="scalar")`` always runs the scalar kernel;
``"vector"`` vectorizes the table regardless of size.  Both kernels are
required to produce **bit-identical** simulations — the accumulation
orders baked into this layout (flow-major path pairs, link-major
overflow pairs, pool rows in first-flow order) exist precisely to
reproduce the scalar loops' float rounding and RNG draw order.  See
DESIGN.md ("Flow tables").
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Flow

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

_F64 = _np.float64
_INT = _np.intp

#: Column groups: ``group -> (dtype, columns)``.  The columns of one group
#: always have one length, so a vector table stores each group as one
#: 2-D buffer grown by doubling and exposes its rows as ``[:n]`` views.
_GROUPS = {
    "flow_f": (_F64, (
        "base_rtt", "rtt", "rate_cap", "next_round_at", "delivered",
        "cwnd", "ssthresh", "rounds", "losses", "timeouts", "buffer",
        "buffer2", "mss", "initial_cwnd", "offered", "achieved",
        "window_used",
    )),
    "flow_b": (_np.bool_, ("loss_pending", "timeout_pending", "round_mask")),
    "flow_i": (_INT, ("pool_row",)),
    "link": (_F64, (
        "link_capacity", "link_cross", "link_queue_cap", "link_queue",
        "link_scale", "link_dropped",
    )),
    "pool": (_F64, ("pool_remaining", "pool_delivered")),
    # vector tables only: the scalar kernel walks path_slots, lossy_rows
    # and link_flows instead
    "path": (_INT, ("path_flow", "path_link")),
    "lossy_i": (_INT, ("lossy_flow",)),
    "lossy_f": (_F64, ("lossy_survive", "lossy_mss")),
    "ov": (_INT, ("ov_link", "ov_flow")),
}
_VECTOR_ONLY = ("path", "lossy_i", "lossy_f", "ov")
#: the columns of both kernels' tables, and those of vector tables only
_COLUMNS = tuple(name for group, (_, names) in _GROUPS.items()
                 if group not in _VECTOR_ONLY for name in names)
_VECTOR_COLUMNS = tuple(name for group in _VECTOR_ONLY
                        for name in _GROUPS[group][1])

#: Per-tick scratch columns: every tick writes them before it reads them,
#: so where a fresh build holds zeros a kept table may hold the values of
#: its last tick.  (``link_scale`` / ``link_dropped`` are scratch too,
#: but each tick resets them to 1.0 / 0.0 after use.)
SCRATCH_COLUMNS = ("offered", "achieved", "window_used", "round_mask")


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel request."""
    if kernel not in _VALID_KERNELS:
        raise ValueError(
            f"unknown netsim kernel {kernel!r}; expected one of "
            f"{_VALID_KERNELS}"
        )
    return kernel


def _inverse(order: list[int], size: int) -> list[int]:
    """``order`` lists old indices in their new order; the map old -> new
    (-1 for an index that is gone)."""
    mapping = [-1] * size
    for new, old in enumerate(order):
        mapping[old] = new
    return mapping


def _gaps(idx: list[int], size: int):
    """The slices, last first, whose deletion turns ``range(size)`` into
    ``idx`` — None when ``idx`` is not increasing."""
    gaps = []
    prev = -1
    for i in idx:
        if i <= prev:
            return None
        if i > prev + 1:
            gaps.append((prev + 1, i))
        prev = i
    if prev + 1 < size:
        gaps.append((prev + 1, size))
    gaps.reverse()
    return gaps


class FlowTable:
    """Parallel columns for the active flow set of one engine.

    The engine keeps its table for as long as it lives: :meth:`append`
    adds an opened flow, :meth:`compact` drops retired or cancelled ones.
    While attached the table is the *authoritative* store — ``Flow`` /
    ``SharedBytePool`` objects are thin views whose properties read
    through to their row and are written back (flushed) when they leave
    the table.

    Column orders deliberately reproduce the encounter orders of the
    original per-object loops, so aggregation (``bincount`` / running
    sums) and RNG draw sequences are bit-identical.  After every append
    and every compact they are exactly those of a fresh build over the
    current flows:

    * flow rows in arrival order,
    * pool rows in first-flow order,
    * link slots in first-encounter order over flow paths,
    * path pairs flow-major (flow order, hop order within a flow),
    * overflow pairs link-major (link slot, then incidence order).

    The constructor is ``append`` over ``flows`` onto an empty table.
    """

    #: tables constructed in this process (an engine constructs one; the
    #: smoke gate's ``table_builds`` check reads the difference)
    builds = 0

    def __init__(self, flows: list, kernel: str):
        FlowTable.builds += 1
        #: the engine's kernel request: "auto", "vector" or "scalar"
        self.requested = kernel
        #: in-place conversions between the kernels ("auto" only)
        self.cutovers = 0
        self._reset()
        for f in flows:
            self.append(f)

    def _reset(self) -> None:
        """Empty every column, laid out for the kernel an empty table
        runs."""
        #: the kernel the columns are laid out for now
        self.kernel = "scalar"
        self.flows: list["Flow"] = []
        self.n_flows = 0
        self.path_slots: list[list[int]] = []
        self.lossy_rows: list[tuple[float, ...]] = []
        self.has_lossy = False
        self.links: list = []
        self.link_flows: list[list[int]] = []
        self.n_links = 0
        self._link_slot: dict[int, int] = {}
        self.pools: list = []
        self.pool_flow_rows: list[list[int]] = []
        self.n_pools = 0
        # vector tables: 2-D buffers per group and the rows in use
        self._bufs: dict = {}
        self._used: dict[str, int] = {}
        for name in _COLUMNS:
            setattr(self, name, [])
        for name in _VECTOR_COLUMNS:
            setattr(self, name, None)
        self.pool_rows_of = None
        if self._wants_vector():
            self._to_vector()

    # -- mutation -----------------------------------------------------------
    def append(self, f: "Flow") -> None:
        """Add ``f`` as the last row and attach its view; its pool and
        links take the next free slot on first encounter."""
        i = self.n_flows
        pool = f.pool
        if pool._table is self:
            prow = pool._row
            self.pool_flow_rows[prow].append(i)
        else:
            prow = self.n_pools
            self.n_pools = prow + 1
            self.pools.append(pool)
            self.pool_flow_rows.append([i])
            self._push("pool", (pool._remaining, pool._delivered))
            pool._table = self
            pool._row = prow

        link_slot = self._link_slot
        link_flows = self.link_flows
        slots = []
        for link in f.path:
            slot = link_slot.get(id(link))
            if slot is None:
                slot = link_slot[id(link)] = self.n_links
                self.n_links = slot + 1
                self.links.append(link)
                link_flows.append([])
                self._push("link", (
                    link.capacity, link.cross_traffic, link.queue_capacity,
                    link.queue, 1.0, 0.0,
                ))
            slots.append(slot)
            link_flows[slot].append(i)
        self.path_slots.append(slots)
        survive = tuple(
            1.0 - link.loss_rate for link in f.path if link.loss_rate > 0
        )
        self.lossy_rows.append(survive)
        if survive:
            self.has_lossy = True

        t = f._tcp
        mss = t._mss_f
        self._push("flow_f", (
            f.base_rtt, f._rtt, f.rate_cap, f.next_round_at, f._delivered,
            t.cwnd, t.ssthresh, float(t.rounds), float(t.losses),
            float(t.timeouts), t._buffer_f, t._buffer2, mss,
            t._initial_cwnd_f, 0.0, 0.0, 0.0,
        ))
        self._push("flow_b", (f._loss_pending, f._timeout_pending, False))
        self._push("flow_i", (prow,))
        self.flows.append(f)
        self.n_flows = i + 1
        f._table = self
        f._row = i

        if self.kernel == "vector":
            self._extend("path", ([i] * len(slots), slots))
            if survive:
                self._extend("lossy_i", ([i] * len(survive),))
                self._extend("lossy_f", (survive, [mss] * len(survive)))
            self._insert_overflow(slots, i)
            rows = _np.array(self.pool_flow_rows[prow], dtype=_INT)
            if prow < len(self.pool_rows_of):
                self.pool_rows_of[prow] = rows
            else:
                self.pool_rows_of.append(rows)
        self._cutover()

    def refresh_link(self, link) -> None:
        """Re-read ``link``'s cross-traffic into its slot, if it has one."""
        slot = self._link_slot.get(id(link))
        if slot is not None:
            self.link_cross[slot] = link.cross_traffic

    def compact(self, rows: list[int]) -> None:
        """Drop the flows at ``rows`` and every pool left without a flow.

        Only the leaving flows and pools are flushed.  The survivors keep
        their state and their relative order; pool and link slots are
        re-derived from the survivors' integer columns (no object reads)
        in first-encounter order, as a fresh build would meet them —
        retiring the flow that first met a surviving link can move that
        link behind one met later.  When every flow leaves, the table is
        simply emptied.
        """
        flows = self.flows
        if len(rows) == self.n_flows:   # the last transfer leaves
            for f in flows:
                self.flush_flow(f)
            for pool in self.pools:
                self.flush_pool(pool)
            vector = self.kernel == "vector"
            self._reset()
            self.cutovers += vector != (self.kernel == "vector")
            return
        rows = sorted(rows)
        for i in rows:
            self.flush_flow(flows[i])
        rowmap = list(range(self.n_flows))
        for i in rows:
            rowmap[i] = -1
        keep = [i for i in rowmap if i >= 0]
        for new, old in enumerate(keep):
            rowmap[old] = new
        gaps = _gaps(keep, self.n_flows)
        for column in (flows, self.path_slots, self.lossy_rows):
            for start, stop in gaps:
                del column[start:stop]
        for new, f in enumerate(flows):
            f._row = new
        self.n_flows = len(keep)
        self.has_lossy = any(self.lossy_rows)
        self._take(("flow_f", "flow_b", "flow_i"), keep, gaps)

        # pools: first-flow order over the survivors
        pool_order = list(dict.fromkeys(self._ints("pool_row")))
        pools = self.pools
        for p in set(range(self.n_pools)).difference(pool_order):
            self.flush_pool(pools[p])
        self.pools = [pools[p] for p in pool_order]
        for new, pool in enumerate(self.pools):
            pool._row = new
        pool_flow_rows = self.pool_flow_rows
        self.pool_flow_rows = [
            [rowmap[i] for i in pool_flow_rows[p] if rowmap[i] >= 0]
            for p in pool_order
        ]
        self.n_pools = len(pool_order)
        self._take(("pool",), pool_order)
        self._remap("pool_row", pool_order)

        # links: first-encounter order over the surviving paths
        link_order = list(dict.fromkeys(chain.from_iterable(self.path_slots)))
        link_flows = self.link_flows
        self.link_flows = [
            [rowmap[i] for i in link_flows[s] if rowmap[i] >= 0]
            for s in link_order
        ]
        if link_order != list(range(self.n_links)):
            if link_order != list(range(len(link_order))):
                lmap = _inverse(link_order, self.n_links)
                self.path_slots = [
                    [lmap[s] for s in p] for p in self.path_slots
                ]
            self.links = [self.links[s] for s in link_order]
            self._link_slot = {
                id(link): s for s, link in enumerate(self.links)
            }
            self.n_links = len(link_order)
            self._take(("link",), link_order)
        if self.kernel == "vector":
            self._derive_pairs()
        self._cutover()

    # -- column storage ------------------------------------------------------
    def _push(self, group: str, row: tuple) -> None:
        """Append one row (a value per column of ``group``)."""
        names = _GROUPS[group][1]
        if self.kernel != "vector":
            for name, value in zip(names, row):
                getattr(self, name).append(value)
            return
        n = self._used[group]
        self._room(group, n + 1)[:, n] = row
        self._used[group] = n + 1
        self._view(group)

    def _extend(self, group: str, columns: tuple) -> None:
        """Append rows given column by column (vector tables only)."""
        n = self._used[group]
        end = n + len(columns[0])
        self._room(group, end)[:, n:end] = columns
        self._used[group] = end
        self._view(group)

    def _room(self, group: str, size: int):
        """The group's buffer, grown by doubling to hold ``size`` rows."""
        buf = self._bufs[group]
        if size > buf.shape[1]:
            grown = _np.empty((buf.shape[0], max(2 * size, 16)), buf.dtype)
            n = self._used[group]
            grown[:, :n] = buf[:, :n]
            buf = self._bufs[group] = grown
        return buf

    def _take(self, groups: tuple, idx: list[int], gaps=None) -> None:
        """Keep the rows ``idx`` of each group, in that order (``gaps``:
        their :func:`_gaps`, when the caller has them)."""
        if self.kernel == "vector":
            idx = _np.array(idx, dtype=_INT)
            for group in groups:
                self._set(group, self._bufs[group][:, idx])
            return
        names = [name for group in groups for name in _GROUPS[group][1]]
        if gaps is None:
            gaps = _gaps(idx, len(getattr(self, names[0])))
        for name in names:
            column = getattr(self, name)
            if gaps is None:
                column[:] = [column[i] for i in idx]
            else:
                for start, stop in gaps:
                    del column[start:stop]

    def _remap(self, name: str, order: list[int]) -> None:
        """Renumber an index column whose targets now stand in ``order``
        (``order[new] == old``)."""
        if order == list(range(len(order))):
            return
        mapping = _inverse(order, max(order) + 1)
        column = getattr(self, name)
        if self.kernel == "vector":
            column[:] = _np.array(mapping, dtype=_INT)[column]
        else:
            column[:] = [mapping[x] for x in column]

    def _ints(self, name: str) -> list[int]:
        column = getattr(self, name)
        return column.tolist() if self.kernel == "vector" else column

    def _set(self, group: str, buf) -> None:
        self._bufs[group] = buf
        self._used[group] = buf.shape[1]
        self._view(group)

    def _view(self, group: str) -> None:
        rows = self._bufs[group][:, :self._used[group]]
        for name, row in zip(_GROUPS[group][1], rows):
            setattr(self, name, row)

    # -- kernel cutover ------------------------------------------------------
    def _wants_vector(self) -> bool:
        if self.requested == "auto":
            return self.n_flows >= VECTOR_MIN_FLOWS
        return self.requested == "vector"

    def _cutover(self) -> None:
        """Convert the columns in place when the flow count crossed
        :data:`VECTOR_MIN_FLOWS` (either way)."""
        if self._wants_vector() != (self.kernel == "vector"):
            if self.kernel == "vector":
                self._to_scalar()
            else:
                self._to_vector()
            self.cutovers += 1

    def _to_vector(self) -> None:
        self.kernel = "vector"
        for group, (dtype, names) in _GROUPS.items():
            if group not in _VECTOR_ONLY:
                self._set(group, _np.array(
                    [getattr(self, name) for name in names], dtype=dtype,
                ))
        self._derive_pairs()

    def _to_scalar(self) -> None:
        self.kernel = "scalar"
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name).tolist())
        for name in _VECTOR_COLUMNS:
            setattr(self, name, None)
        self.pool_rows_of = None
        self._bufs = {}
        self._used = {}

    def _derive_pairs(self) -> None:
        """The vector-only pair columns, from ``path_slots``,
        ``lossy_rows`` and ``pool_flow_rows``."""
        rows = _np.arange(self.n_flows, dtype=_INT)
        path_flow = _np.repeat(rows, [len(s) for s in self.path_slots])
        path_link = _np.fromiter(
            chain.from_iterable(self.path_slots), dtype=_INT,
            count=path_flow.size,
        )
        self._set("path", _np.array([path_flow, path_link], dtype=_INT))
        lossy_flow = _np.repeat(rows, [len(r) for r in self.lossy_rows])
        survive = _np.fromiter(
            chain.from_iterable(self.lossy_rows), dtype=_F64,
            count=lossy_flow.size,
        )
        self._set("lossy_i", lossy_flow.reshape(1, -1))
        self._set("lossy_f", _np.array(
            [survive, self.mss[lossy_flow]], dtype=_F64,
        ))
        self._derive_overflow()
        self.pool_rows_of = [
            _np.array(r, dtype=_INT) for r in self.pool_flow_rows
        ]

    def _insert_overflow(self, slots: list[int], row: int) -> None:
        """Add the pairs of ``row``, the highest row, to the overflow
        pairs: each one closes its link's group.  From the last insertion
        point back, the tail moves right by the pairs still to place."""
        at = _np.searchsorted(self.ov_link, slots, side="right").tolist()
        n = self._used["ov"]
        buf = self._room("ov", n + len(slots))
        stop = n
        places = sorted(zip(at, slots), reverse=True)
        for shift, (start, slot) in zip(range(len(slots), 0, -1), places):
            buf[:, start + shift:stop + shift] = buf[:, start:stop]
            buf[:, start + shift - 1] = (slot, row)
            stop = start
        self._used["ov"] = n + len(slots)
        self._view("ov")

    def _derive_overflow(self) -> None:
        """Overflow pairs: the queue-drop marking pass walks links in slot
        order and, within a link, flows in incidence order — a stable
        sort of the flow-major path pairs by link."""
        order = _np.argsort(self.path_link, kind="stable")
        self._set("ov", _np.array(
            [self.path_link[order], self.path_flow[order]], dtype=_INT,
        ))

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
