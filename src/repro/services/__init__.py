"""The control-plane service bus.

One request/reply implementation — dispatch, middleware, timeouts, trace
propagation — shared by GDMP's Request Manager, the GridFTP control
channel, and the replica catalog service, plus the two mechanisms every
plane built on it shares: exactly-once writes (:mod:`~repro.services.replay`)
and soft-state push (:mod:`~repro.services.softstate`).  See DESIGN.md,
"Control plane: service bus and middleware".
"""

from repro.services.bus import (
    DEFAULT_MESSAGE_SIZE,
    CallOutcome,
    CallTimeout,
    RemoteCallError,
    ServiceClient,
    ServiceEndpoint,
    ServiceError,
    ServiceFault,
    ServiceRequest,
)
from repro.services.context import RequestContext
from repro.services.middleware import (
    AuthResult,
    DeadlineMiddleware,
    GsiAuthenticator,
    GsiAuthMiddleware,
)
from repro.services.replay import ReplayWindow
from repro.services.softstate import PushNames, PushPlane, SoftStatePusher
from repro.services.tracelog import Span, TraceLog

__all__ = [
    "DEFAULT_MESSAGE_SIZE",
    "AuthResult",
    "CallOutcome",
    "CallTimeout",
    "DeadlineMiddleware",
    "GsiAuthenticator",
    "GsiAuthMiddleware",
    "PushNames",
    "PushPlane",
    "RemoteCallError",
    "ReplayWindow",
    "RequestContext",
    "ServiceClient",
    "ServiceEndpoint",
    "ServiceError",
    "ServiceFault",
    "ServiceRequest",
    "SoftStatePusher",
    "Span",
    "TraceLog",
]
