"""Tests for SPAS-style striped serving (multiple data nodes per server)
and GSI session behaviour over simulated time."""

import pytest

from repro.gridftp import GridFTPClient, GridFTPServer, TransferError
from repro.netsim.channels import MessageNetwork
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.tcp import TcpParams
from repro.netsim.topology import Host, Topology
from repro.netsim.units import GB, KiB, MB, mbps
from repro.security import CertificateAuthority, GridMap, new_user_credential
from repro.simulation import Simulator
from repro.storage import FileSystem


def build_striped_testbed(data_nodes=("cern-dn1",)):
    """A server at cern with extra stripe hosts, each on its own 10 Mbps
    path to the client at anl (so striping multiplies throughput)."""
    sim = Simulator()
    topo = Topology()
    for name in ("cern", *data_nodes, "anl"):
        topo.add_host(Host(name))
    for name in ("cern", *data_nodes):
        topo.connect(
            name, "anl",
            Link(f"wan-{name}", capacity=mbps(10), delay=0.01),
        )
    engine = NetworkEngine(sim, topo, seed=1)
    msgnet = MessageNetwork(sim, topo)
    ca = CertificateAuthority()
    gridmap = GridMap()
    server_cred = new_user_credential(ca, "/O=Grid/CN=striped-server")
    user_cred = new_user_credential(ca, "/O=Grid/CN=user")
    gridmap.add(server_cred.subject, "ftpd")
    gridmap.add(user_cred.subject, "user")
    server_fs = FileSystem("cern", capacity=10 * GB)
    client_fs = FileSystem("anl", capacity=10 * GB)
    server = GridFTPServer(
        sim, msgnet, engine, topo.host("cern"), server_fs,
        server_cred, [ca], gridmap, data_nodes=data_nodes,
    )
    client = GridFTPClient(sim, msgnet, topo.host("anl"), user_cred,
                           filesystem=client_fs)
    return sim, server, client, server_fs, client_fs


def run_get(sim, client, size):
    def go():
        session = yield from client.connect("cern")
        yield from client.set_buffer(session, 256 * KiB)
        result = yield from client.get(session, "/store/f", "/recv/f")
        yield from client.quit(session)
        return result

    return sim.run(until=sim.spawn(go()))


def test_striped_server_uses_every_data_node():
    sim, server, client, server_fs, client_fs = build_striped_testbed(
        data_nodes=("cern-dn1", "cern-dn2")
    )
    server_fs.create("/store/f", 30 * MB)
    result = run_get(sim, client, 30 * MB)
    # three 10 Mbps paths: aggregate near 30 Mbps, far above a single path
    assert result.throughput * 8 / 1e6 > 18
    assert client_fs.stat("/recv/f").crc == server_fs.stat("/store/f").crc


def test_single_host_baseline_is_path_limited():
    sim, server, client, server_fs, client_fs = build_striped_testbed(
        data_nodes=()
    )
    server_fs.create("/store/f", 30 * MB)
    result = run_get(sim, client, 30 * MB)
    assert result.throughput * 8 / 1e6 < 11


def test_striping_composes_with_parallel_streams():
    sim, server, client, server_fs, client_fs = build_striped_testbed(
        data_nodes=("cern-dn1",)
    )
    server_fs.create("/store/f", 20 * MB)

    def go():
        session = yield from client.connect("cern")
        yield from client.set_parallelism(session, 4)
        result = yield from client.get(session, "/store/f", "/recv/f")
        yield from client.quit(session)
        return result

    result = sim.run(until=sim.spawn(go()))
    # 2 stripes x 4 streams: both untuned-64KiB paths saturate
    assert result.throughput * 8 / 1e6 > 15


# --------------------------------------------------- GSI over sim time ----
def test_expired_proxy_rejected_after_time_passes():
    """Certificate validity is checked against *simulation* time: a proxy
    that was valid at connect time is rejected once it expires."""
    sim, server, client, server_fs, _client_fs = build_striped_testbed()
    server_fs.create("/store/f", 1 * MB)
    ca = CertificateAuthority()
    # rebuild trust so the short proxy chains to the server's trusted CA
    user = new_user_credential(server.trusted_cas[0], "/O=Grid/CN=shortlived")
    server.gridmap.add(user.subject, "user")
    client.credential = user.create_proxy(now=0.0, lifetime=30.0)

    def first(sim=sim):
        session = yield from client.connect("cern")
        yield from client.quit(session)

    sim.run(until=sim.spawn(first()))  # works while the proxy is fresh
    sim.run(until=sim.now + 60.0)      # let the proxy expire

    def second(sim=sim):
        yield from client.connect("cern")

    with pytest.raises(TransferError, match="authentication failed"):
        sim.run(until=sim.spawn(second()))
