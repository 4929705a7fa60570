"""GDMP — the Grid Data Management Pilot (the paper's contribution, §4).

The second-generation architecture: a GDMP server per site built from three
principal components behind a security layer (Figure 4):

* **Replica Catalog Service** (:mod:`~repro.gdmp.replica_service`) — the
  high-level catalog wrapper, hosted centrally on one LDAP server and
  accessed over the WAN;
* **Data Mover Service** (:mod:`~repro.gdmp.data_mover`) — GridFTP
  transfers with CRC end-to-end checks and restart-marker recovery;
* **Storage Manager Service** (:mod:`~repro.gdmp.storage_manager`) —
  stage-on-demand between the disk pool and the MSS via HRM.

Client requests flow through the **Request Manager**
(:mod:`~repro.gdmp.request_manager`), authenticated (GSI) and authorized
(gridmap) per request.  File-format specifics (Objectivity attach, schema
import) live in pre/post-processing plugins (:mod:`~repro.gdmp.plugins`).

:class:`~repro.gdmp.grid.DataGrid` wires a whole multi-site grid together;
:class:`~repro.gdmp.client.GdmpClient` exposes the paper's four client
services: subscribe, publish, get-catalog, and file replication.
"""

from repro.gdmp.client import GdmpClient, ReplicationReport
from repro.gdmp.config import GdmpConfig
from repro.gdmp.consistency import (
    AssociatedFilesPolicy,
    FileAssociationGraph,
    IndependentFilesPolicy,
)
from repro.gdmp.data_mover import DataMover, DataMoverError
from repro.gdmp.grid import DataGrid, GdmpSite
from repro.gdmp.plugins import (
    FlatFilePlugin,
    ObjectivityPlugin,
    PluginRegistry,
)
from repro.gdmp.replica_selection import choose_replica, rank_replicas
from repro.gdmp.replica_service import CatalogProxy, ReplicaCatalogService
from repro.gdmp.request_manager import (
    GdmpError,
    RequestClient,
    RequestServer,
)
from repro.gdmp.server import GdmpServer
from repro.gdmp.storage_manager import StorageManager

__all__ = [
    "AssociatedFilesPolicy",
    "CatalogProxy",
    "FileAssociationGraph",
    "IndependentFilesPolicy",
    "DataGrid",
    "DataMover",
    "DataMoverError",
    "FlatFilePlugin",
    "GdmpClient",
    "GdmpConfig",
    "GdmpError",
    "GdmpServer",
    "GdmpSite",
    "ObjectivityPlugin",
    "PluginRegistry",
    "ReplicaCatalogService",
    "ReplicationReport",
    "RequestClient",
    "RequestServer",
    "StorageManager",
    "choose_replica",
    "rank_replicas",
]
