"""Claim-based workload engine: the replication path as a standing service.

The one-shot :meth:`GdmpClient.replicate` pipeline becomes a stage in a
long-lived data-management service: an open-loop arrival stream is
admitted (fair-share + token bucket) into a leased task queue on the
service bus, and standing picker/bundler/replicator/verifier components
claim, execute and audit the work, waiting at the queue (``task.wait``)
whenever there is none — the operational shape described in
"Grid Data Management in Action", at the request volumes of the T0/T1
replication simulation studies.

Two scripted generators from the paper's application domain (§2.1, §5.1)
live beside the engine and are imported from their own modules:
:mod:`~repro.workload.production` (a detector/reconstruction production
run: a site periodically creates Objectivity database files, publishes
them to its subscribers, and archives them to its MSS) and
:mod:`~repro.workload.analysis` (a physicist's analysis session: run a
selection funnel over the event store, object-replicate the surviving
objects to the home site, and read them there).
"""

from repro.workload.admission import FairShareAdmission, TokenBucket
from repro.workload.arrivals import ArrivalGenerator, ArrivalProfile
from repro.workload.components import (
    Bundler,
    Picker,
    PipelineComponent,
    Replicator,
    Verifier,
)
from repro.workload.engine import WorkloadEngine
from repro.workload.queue import (
    Task,
    TaskQueue,
    TaskQueueProxy,
    TaskQueueService,
)

__all__ = [
    "ArrivalGenerator",
    "ArrivalProfile",
    "Bundler",
    "FairShareAdmission",
    "Picker",
    "PipelineComponent",
    "Replicator",
    "Task",
    "TaskQueue",
    "TaskQueueProxy",
    "TaskQueueService",
    "TokenBucket",
    "Verifier",
    "WorkloadEngine",
]
