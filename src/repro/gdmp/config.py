"""Per-site GDMP configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.units import GB, KiB

__all__ = ["GdmpConfig"]

#: Directory every site stores its replicas under.
STORAGE_PREFIX = "/storage"


@dataclass
class GdmpConfig:
    """Knobs of one site's GDMP installation.

    Transfer defaults mirror the tuning conclusions of §6: sites that have
    run the measurement workflow set ``tcp_buffer`` to the
    bandwidth-delay product and a small stream count; untuned sites ride on
    the 64 KiB system default with more streams.
    """

    site: str
    disk_capacity: float = 500 * GB
    # transfer defaults (the GridFTP negotiation GDMP performs)
    tcp_buffer: int = 64 * KiB
    parallel_streams: int = 4
    # mass storage (tapes at the system's default rate)
    has_mss: bool = False
    # behaviour
    auto_replicate: bool = False  # fetch files as soon as a notify arrives
    attrs: dict = field(default_factory=dict)

    def storage_path(self, lfn: str) -> str:
        """The site-local path an LFN is stored under."""
        return f"{STORAGE_PREFIX}/{lfn}"
