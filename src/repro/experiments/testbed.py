"""The simulated §6 test environment, packaged for experiments.

"The test environment consisted of a 45 Mbps link between CERN and ANL with
a RTT of 125 milliseconds.  The GSI enabled WU-ftpd server version 0.4b6
was used as the test server.  Test programs extended_get and extended_put
from the Globus distribution were the chosen clients."

:func:`gridftp_testbed` builds that: two sites, a GridFTP daemon at CERN,
a client at ANL, plus credentials and gridmap.  :func:`extended_get` is the
measurement program: authenticate once, negotiate buffer/streams, fetch,
report the achieved rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gridftp.client import GridFTPClient
from repro.gridftp.server import GridFTPServer
from repro.netsim.calibration import TestbedParams, cern_anl_testbed
from repro.netsim.channels import MessageNetwork
from repro.netsim.units import GB, to_mbps
from repro.security import CertificateAuthority, GridMap, new_user_credential
from repro.storage.filesystem import FileSystem
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["GridFTPTestbed", "gridftp_testbed", "extended_get"]


@dataclass
class GridFTPTestbed:
    sim: object
    topology: object
    engine: object
    msgnet: object
    server: GridFTPServer
    client: GridFTPClient
    server_fs: FileSystem
    client_fs: FileSystem


def gridftp_testbed(
    params: TestbedParams | None = None,
    metrics: MetricsRegistry = NO_METRICS,
) -> GridFTPTestbed:
    """Build the simulated CERN-ANL GridFTP test environment of §6.

    ``metrics`` is the :class:`~repro.telemetry.metrics.MetricsRegistry`
    the engine and server record into; the Fig. 5/6 benches pass none,
    so nothing is kept."""
    sim, topology, engine = cern_anl_testbed(params, metrics=metrics)
    msgnet = MessageNetwork(sim, topology)
    ca = CertificateAuthority()
    gridmap = GridMap()
    server_cred = new_user_credential(ca, "/O=Grid/OU=cern.ch/CN=wuftpd")
    user_cred = new_user_credential(ca, "/O=Grid/OU=anl.gov/CN=tester")
    gridmap.add(server_cred.subject, "ftpd")
    gridmap.add(user_cred.subject, "tester")
    server_fs = FileSystem("cern", capacity=100 * GB)
    client_fs = FileSystem("anl", capacity=100 * GB)
    server = GridFTPServer(
        sim, msgnet, engine, topology.host("cern"), server_fs,
        server_cred, [ca], gridmap, metrics=metrics,
    )
    client = GridFTPClient(
        sim, msgnet, topology.host("anl"),
        user_cred.create_proxy(now=0.0, lifetime=1e9),
        filesystem=client_fs,
    )
    return GridFTPTestbed(
        sim=sim,
        topology=topology,
        engine=engine,
        msgnet=msgnet,
        server=server,
        client=client,
        server_fs=server_fs,
        client_fs=client_fs,
    )


def extended_get(
    testbed: GridFTPTestbed,
    size_bytes: float,
    streams: int,
    buffer: int,
) -> float:
    """One measurement: fetch a ``size_bytes`` file with the given stream
    count and socket buffer; returns the achieved rate in Mbps (transfer
    time as the extended_get program reports it)."""
    tag = testbed.sim.next_serial("testbed-file")
    remote = f"/store/test{tag}.dat"
    local = f"/recv/test{tag}.dat"
    testbed.server_fs.create(remote, size_bytes)

    def measure():
        client = testbed.client
        session = yield from client.connect("cern")
        yield from client.set_buffer(session, buffer)
        if streams != 1:
            yield from client.set_parallelism(session, streams)
        result = yield from client.get(session, remote, local)
        yield from client.quit(session)
        return result

    result = testbed.sim.run(until=testbed.sim.spawn(measure(), name="extended_get"))
    # keep the testbed reusable: drop the moved files
    testbed.server_fs.delete(remote)
    testbed.client_fs.delete(local)
    return to_mbps(result.throughput)
