"""The labelled metrics registry: the grid's one source of numbers.

The paper's GridFTP ships "integrated instrumentation, for monitoring
ongoing transfer performance", and the operational follow-ups (Stockinger
et al., *Grid Data Management in Action*) make clear that a production
grid lives or dies by uniform visibility into transfers, catalogs, and
storage.  :class:`MetricsRegistry` is the simulation-side answer: one
sim-time-aware registry per grid, holding four instrument kinds —

* :class:`Counter` — monotone accumulators (``bytes``, ``drops``);
* :class:`Gauge` — last-write-wins values (``occupancy``);
* :class:`Histogram` — fixed, deterministic bucket bounds (``latency``);
* :class:`TimeSeries` — time-weighted samples stamped with sim time
  (``queue depth``), whose mean weights each value by how long it held.

Every instrument supports label dimensions: ``registry.counter(
"gridftp.stream.bytes", host="cern", stream=3)`` names one child of the
``gridftp.stream.bytes`` family.  Children are identified by their sorted
label items, so the spelling order of keyword arguments never matters.

Determinism contract: instruments record *simulation* facts only (counts,
sim-time stamps); the registry never reads wall clocks or draws random
numbers, so two identical simulations produce byte-identical
:meth:`MetricsRegistry.snapshot` documents — the determinism gate diffs
them.  *Collectors* (callbacks registered with
:meth:`MetricsRegistry.add_collector`) let passive state (pool occupancy,
catalog cache counters) be scraped into gauges right before a snapshot or
export, Prometheus-style, keeping the owning hot paths untouched.  A
plane's *section* (:meth:`MetricsRegistry.add_section`), registered
beside its collector, is how that plane's families read in the health
report.

There is always a registry: a component built without one records into
:data:`NO_METRICS`, made by :meth:`MetricsRegistry.off` to keep nothing,
so instrumented code makes its call unconditionally.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterator, NamedTuple, Optional

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "NO_METRICS",
    "Section",
]

#: Default histogram bounds for durations in simulated seconds: half-decade
#: steps from 1 ms to 1000 s.  Fixed and shared so latency histograms from
#: different subsystems are comparable (and deterministic across runs).
DEFAULT_LATENCY_BOUNDS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
    300.0, 1000.0,
)

#: Default histogram bounds for sizes in bytes: decades from 1 KiB to 1 TiB.
DEFAULT_SIZE_BOUNDS = (
    1024.0, 1024.0 ** 2, 10 * 1024.0 ** 2, 100 * 1024.0 ** 2,
    1024.0 ** 3, 10 * 1024.0 ** 3, 100 * 1024.0 ** 3, 1024.0 ** 4,
)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical child identity: sorted ``(key, str(value))`` items."""
    if len(labels) > 1:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))
    # zero or one label, the common lookups: already in order
    return tuple([(k, str(v)) for k, v in labels.items()])


class Counter:
    """A monotone accumulator."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...]):
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...]):
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Counts of observations against fixed, deterministic bucket bounds.

    ``bounds`` are the *upper* edges of the finite buckets; an implicit
    +Inf bucket catches everything above the last bound.  An observation
    ``v`` lands in the first bucket with ``v <= bound`` (Prometheus ``le``
    semantics).  ``bucket_counts`` are per-bucket (non-cumulative); the
    Prometheus exporter accumulates them into cumulative ``le`` series.
    """

    __slots__ = ("labels", "bounds", "bucket_counts", "count", "total")

    def __init__(
        self,
        labels: tuple[tuple[str, str], ...],
        bounds: tuple[float, ...],
    ):
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class TimeSeries:
    """Sim-time-stamped samples of a stepwise-constant value.

    The registry stamps each :meth:`observe` with the current simulation
    time.  :meth:`time_average` weights each sample by how long it held —
    the right mean for occupancies and queue depths.
    """

    __slots__ = ("labels", "times", "values")

    def __init__(self, labels: tuple[tuple[str, str], ...]):
        self.labels = labels
        self.times: list[float] = []
        self.values: list[float] = []

    def _sample(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be time-ordered")
        self.times.append(time)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def time_average(self) -> float:
        """Mean of the step function: each value weighted by its duration
        (the final sample gets zero weight; a single sample is its own
        average)."""
        if not self.times:
            return 0.0
        if len(self.times) == 1:
            return self.values[0]
        total = 0.0
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        span = self.times[-1] - self.times[0]
        return total / span if span > 0 else self.values[0]


def _new_child(kind: str, labels: tuple, bounds):
    if kind == "counter":
        return Counter(labels)
    if kind == "gauge":
        return Gauge(labels)
    if kind == "histogram":
        return Histogram(labels, bounds)
    return TimeSeries(labels)


class _Family:
    """All children of one metric name, plus the family's fixed shape."""

    __slots__ = ("name", "kind", "bounds", "given", "children")

    def __init__(self, name: str, kind: str, bounds=None, given=None):
        self.name = name
        self.kind = kind
        self.bounds = bounds
        #: a histogram's bounds as its first caller passed them: a later
        #: call passing the same tuple needs no normalising
        self.given = given
        self.children: dict[tuple, Any] = {}


class Section(NamedTuple):
    """One plane's part of the health report."""

    #: name prefixes of the families the section renders: the report
    #: leaves them out of its per-subsystem tables
    families: tuple[str, ...]
    #: ``render(registry, top_n)`` -> the section's lines, none when the
    #: plane has nothing to show
    render: Callable[["MetricsRegistry", int], list[str]]


class MetricsRegistry:
    """One grid's labelled instruments, stamped with simulation time.

    ``clock`` is any zero-argument callable returning the current sim time;
    passing a :class:`~repro.simulation.kernel.Simulator` uses its ``now``.
    """

    def __init__(self, clock: Any = None):
        if clock is None:
            self._clock: Callable[[], float] = lambda: 0.0
        elif callable(clock):
            self._clock = clock
        else:  # a Simulator (or anything exposing .now)
            self._clock = lambda: clock.now
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        self._sections: list[Section] = []
        self._recording = True

    @classmethod
    def off(cls, clock: Any = None) -> "MetricsRegistry":
        """A registry that records nothing: each instrument it hands out
        is a fresh one of no family, and collectors and sections are
        dropped, so it stays empty however much is recorded into it."""
        registry = cls(clock)
        registry._recording = False
        return registry

    @property
    def now(self) -> float:
        """Current simulation time as seen by the registry."""
        return self._clock()

    # -- instrument access -----------------------------------------------
    def _child(self, name: str, kind: str, labels: dict, bounds=None,
               given=None):
        family = self._families.get(name)
        if family is None:
            if not self._recording:
                return _new_child(kind, (), bounds)   # kept by nobody
            family = self._families[name] = _Family(name, kind, bounds, given)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        elif kind == "histogram" and bounds is not None \
                and bounds != family.bounds:
            raise ValueError(
                f"histogram {name!r} already has bounds {family.bounds}"
            )
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            child = family.children[key] = _new_child(kind, key, family.bounds)
        return child

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter child of ``name`` for these labels (created lazily)."""
        return self._child(name, "counter", labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge child of ``name`` for these labels (created lazily)."""
        return self._child(name, "gauge", labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
        **labels: Any,
    ) -> Histogram:
        """The histogram child of ``name``; ``bounds`` fixes the family's
        bucket upper edges on first use (later mismatching bounds raise).
        The bounds are normalised (sorted floats) when the family is
        created, and later only when a call passes other than the
        creating call's bounds."""
        family = self._families.get(name)
        if family is not None and family.kind == "histogram" \
                and bounds == family.given:
            return self._child(name, "histogram", labels)
        given = tuple(bounds)
        normalised = tuple(sorted(float(b) for b in given))
        if not normalised:
            raise ValueError("histogram needs at least one bucket bound")
        return self._child(name, "histogram", labels, bounds=normalised,
                           given=given)

    def series(self, name: str, **labels: Any) -> TimeSeries:
        """The time series child of ``name`` for these labels."""
        return self._child(name, "series", labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Sample ``value`` into the named time series at the current
        simulation time (the one-call form of ``series(...)._sample``)."""
        self.series(name, **labels)._sample(self._clock(), value)

    # -- collectors -------------------------------------------------------
    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run (in registration order) by
        :meth:`collect` before every snapshot/export; collectors scrape
        passive state into gauges so hot paths stay uninstrumented."""
        if self._recording:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Run all registered collectors once."""
        for collector in self._collectors:
            collector(self)

    # -- report sections --------------------------------------------------
    def add_section(self, section: Section) -> None:
        """Register a plane's health-report section; sections render in
        registration order."""
        if self._recording:
            self._sections.append(section)

    def sections(self) -> list[Section]:
        """The registered report sections, in registration order."""
        return list(self._sections)

    # -- introspection ----------------------------------------------------
    def families(self) -> list[str]:
        """All family names, sorted."""
        return sorted(self._families)

    def children(self, name: str) -> Iterator[Any]:
        """The children of one family in sorted label order."""
        family = self._families.get(name)
        if family is None:
            return iter(())
        return iter(
            family.children[key] for key in sorted(family.children)
        )

    def kind(self, name: str) -> Optional[str]:
        """The instrument kind of a family (None when absent)."""
        family = self._families.get(name)
        return family.kind if family is not None else None

    def value(self, name: str, **labels: Any) -> float:
        """Shortcut: the value of a counter/gauge child (0 when absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_label_key(labels))
        return child.value if child is not None else 0.0

    def __len__(self) -> int:
        return sum(len(f.children) for f in self._families.values())

    # -- export -----------------------------------------------------------
    def snapshot(self) -> dict:
        """A deterministic, JSON-friendly document of everything recorded:
        families sorted by name, children sorted by labels.  Runs the
        collectors first.  Two identical simulations produce equal
        snapshots — the determinism gate diffs these."""
        self.collect()
        out: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            children = []
            for key in sorted(family.children):
                child = family.children[key]
                record: dict[str, Any] = {"labels": dict(child.labels)}
                if family.kind in ("counter", "gauge"):
                    record["value"] = child.value
                elif family.kind == "histogram":
                    record["buckets"] = list(child.bucket_counts)
                    record["count"] = child.count
                    record["sum"] = child.total
                else:
                    record["samples"] = list(zip(child.times, child.values))
                children.append(record)
            entry: dict[str, Any] = {"kind": family.kind, "children": children}
            if family.kind == "histogram":
                entry["bounds"] = list(family.bounds)
            out[name] = entry
        return out


#: What a component built without a registry records into: nothing.
NO_METRICS = MetricsRegistry.off()
