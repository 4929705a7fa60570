"""Site storage substrate: filesystem, disk-pool cache, tape MSS.

§4.4 of the paper: "files are permanently stored in Mass Storage Systems
(MSS) such as HPSS and moved between disk to tape on demand.  Thus, a disk
pool is considered as a cache.  GDMP provides a plug-in for initiating file
stage requests on demand between a disk pool and a Mass Storage System."

* :class:`~repro.storage.filesystem.FileSystem` — a site's disk storage with
  capacity accounting, content identity (CRC), and I/O rates;
* :class:`~repro.storage.diskpool.DiskPool` — the grid transfer cache with
  pinning and LRU eviction;
* :class:`~repro.storage.mss.MassStorageSystem` — tape: drives, mount/seek
  latency, streaming rate.

The paper's HRM plug-in [Bern00], the one staging API over disk and tape,
is :class:`~repro.gdmp.storage_manager.StorageManager`.
"""

from repro.storage.diskpool import DiskPool, PinError, Reservation
from repro.storage.filesystem import FileSystem, StorageError, StoredFile, file_crc
from repro.storage.mss import MassStorageSystem, TapeError

__all__ = [
    "DiskPool",
    "FileSystem",
    "MassStorageSystem",
    "PinError",
    "Reservation",
    "StorageError",
    "StoredFile",
    "TapeError",
    "file_crc",
]
