"""GridFTP: the secure, high-performance transfer substrate (§3.2).

Protocol features reproduced from the paper's list:

* GSI security on the control channel;
* third-party control of data transfer;
* parallel data transfer (one host to one host, multiple TCP streams);
* striped data transfer (m hosts to n hosts);
* partial file transfer;
* (automatic) negotiation of TCP buffer/window sizes;
* reliable and restartable data transfer (restart markers);
* integrated instrumentation (performance markers).

:class:`~repro.gridftp.server.GridFTPServer` runs one wuftpd-style daemon
per site; :class:`~repro.gridftp.client.GridFTPClient` is the
``globus_ftp_client`` equivalent.
"""

from repro.gridftp.client import GridFTPClient, TransferError, TransferResult
from repro.gridftp.markers import PerfMarker, RangeSet, RestartMarker
from repro.gridftp.protocol import (
    FEATURES,
    Command,
    ProtocolError,
    Reply,
)
from repro.gridftp.server import FailureInjector, GridFTPServer

__all__ = [
    "Command",
    "FEATURES",
    "FailureInjector",
    "GridFTPClient",
    "GridFTPServer",
    "PerfMarker",
    "ProtocolError",
    "RangeSet",
    "Reply",
    "RestartMarker",
    "TransferError",
    "TransferResult",
]
