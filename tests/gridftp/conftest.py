"""Shared fixtures: a two-site grid with GridFTP servers and clients."""

import pytest

from repro.gridftp import GridFTPClient, GridFTPServer
from repro.netsim import TestbedParams, cern_anl_testbed
from repro.netsim.channels import MessageNetwork
from repro.netsim.units import GB, MB
from repro.security import CertificateAuthority, GridMap, new_user_credential
from repro.storage import FileSystem
from repro.telemetry import MetricsRegistry


class TwoSiteGrid:
    """CERN and ANL with a GridFTP daemon each and a client at ANL."""

    def __init__(self, params=None):
        #: what the daemons and the engine count is read from here
        self.metrics = MetricsRegistry(lambda: self.sim.now)
        self.sim, self.topology, self.engine = cern_anl_testbed(
            params, metrics=self.metrics
        )
        self.msgnet = MessageNetwork(self.sim, self.topology)
        self.ca = CertificateAuthority()
        self.gridmap = GridMap()
        self.fs = {}
        self.servers = {}
        self.server_creds = {}
        for site in ("cern", "anl"):
            cred = new_user_credential(
                self.ca, f"/O=Grid/OU={site}/CN=gridftp/host={site}"
            )
            self.server_creds[site] = cred
            self.gridmap.add(cred.subject, f"gdmp-{site}")
            self.fs[site] = FileSystem(site, capacity=100 * GB)
            self.servers[site] = GridFTPServer(
                self.sim,
                self.msgnet,
                self.engine,
                self.topology.host(site),
                self.fs[site],
                cred,
                [self.ca],
                self.gridmap,
                metrics=self.metrics,
            )
        self.user = new_user_credential(self.ca, "/O=Grid/OU=cern.ch/CN=Alice")
        self.gridmap.add(self.user.subject, "alice")
        self.client = GridFTPClient(
            self.sim,
            self.msgnet,
            self.topology.host("anl"),
            self.user.create_proxy(now=0.0),
            filesystem=self.fs["anl"],
        )


@pytest.fixture
def grid():
    g = TwoSiteGrid()
    g.fs["cern"].create("/store/data.db", 10 * MB, now=0.0)
    return g
