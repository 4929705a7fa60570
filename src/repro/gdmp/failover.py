"""Ranked-replica failover: one implementation of §4.3's recovery walk.

"The error recovery mechanism is based on the principle that a failed
operation is retried, and if it fails repeatedly, an alternative replica
location is used."  Both consumers of that principle — the interactive
:meth:`GdmpClient.replicate` pipeline and the standing replicator
components of :mod:`repro.workload` — used to carry their own copy of
the candidate ordering and the retryable-error classification; this
module is the single shared implementation.

* :func:`ranked_sources` — catalog locations → scored candidate sources,
  cheapest first by the §4.2 cost function, with an optional preferred
  producer promoted to the front;
* :data:`FAILOVER_ERRORS` — the closed set of failures that mean "try
  the next replica" rather than "give up": transfer-layer errors,
  remote faults, timeouts, connection resets, and locally-open circuit
  breakers;
* :func:`failover_walk` — drive one attempt per candidate, in the
  caller's own process, until one succeeds, collecting the failed
  sources for the report.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.gdmp.data_mover import DataMoverError
from repro.gdmp.replica_selection import ReplicaScore, rank_replicas
from repro.gdmp.request_manager import GdmpError
from repro.netsim.topology import Topology
from repro.services.bus import CallTimeout, ConnectionReset, RemoteCallError
from repro.services.resilience import CircuitOpenError

__all__ = ["FAILOVER_ERRORS", "ranked_sources", "failover_walk"]

#: Failures that trigger failover to the next-ranked replica.  Everything
#: else (catalog inconsistencies, space exhaustion, programming errors)
#: propagates immediately — another source would fail the same way.
FAILOVER_ERRORS = (
    DataMoverError,
    RemoteCallError,
    CallTimeout,
    ConnectionReset,
    CircuitOpenError,
)


def ranked_sources(
    topology: Topology,
    locations: Sequence[dict],
    dst_site: str,
    size: float,
    prefer_site: Optional[str] = None,
    weather=None,
) -> list[ReplicaScore]:
    """Candidate sources for a replica fetch, best first, as scored.

    Sources are ordered by the §4.2 cost function (measured RTT plus
    size over available bandwidth), upgraded to history-blended
    forecasts when a ``weather`` site cache is wired in; ``prefer_site``
    — typically the producer that announced the file — is promoted to
    the front when it holds a replica.  Raises :class:`GdmpError` when
    no usable source exists (no replicas, or only the destination
    itself).  Ranking decides nothing: the caller that goes on to fetch
    from the head counts the selection in the weather cache.
    """
    try:
        candidates = rank_replicas(
            topology, list(locations), dst_site, size, weather=weather
        )
    except ValueError as exc:
        raise GdmpError(str(exc)) from exc
    # stable: the preferred site moves to the front, the rest keep order
    candidates.sort(key=lambda score: score.site != prefer_site)
    return candidates


def failover_walk(
    sources: Sequence[str],
    attempt: Callable[[str], object],
    *,
    describe: str = "",
    on_failover: Optional[Callable[[str, Exception], None]] = None,
):
    """Generator: try ``attempt(source)`` over ``sources`` until one works.

    ``attempt(source)`` returns a generator, driven here with ``yield
    from`` — the attempts run one at a time, so none is a process of its
    own; a failure in :data:`FAILOVER_ERRORS` records the source and
    moves on, anything else propagates.  ``on_failover`` is called with
    ``(source, error)`` per skipped source (the metrics hook).
    Returns ``(result, source, failed_sources)``; raises
    :class:`GdmpError` when every candidate failed.
    """
    failed: list[str] = []
    last_error: Optional[Exception] = None
    for source in sources:
        try:
            result = yield from attempt(source)
            return result, source, tuple(failed)
        except FAILOVER_ERRORS as exc:
            failed.append(source)
            last_error = exc
            if on_failover is not None:
                on_failover(source, exc)
    raise GdmpError(
        f"all {len(list(sources))} replica sources failed"
        f"{' for ' + describe if describe else ''}: {last_error}"
    ) from last_error
