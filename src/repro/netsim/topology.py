"""Grid topology: hosts (sites) connected by links, with routing.

A :class:`Topology` is a directed graph of named hosts; each directed
edge carries a :class:`~repro.netsim.link.Link`.  :meth:`Topology.connect`
installs both directions at once — over the *same* link object by
default (the symmetric wide-area circuit every existing builder
assumes), or over a distinct ``reverse`` link for asymmetric paths
(ADSL-style tails, saturated uplinks) so that the forward and return
directions can differ in capacity, delay, and cross-traffic.  Routing
picks the minimum-propagation-delay path per direction (networkx
Dijkstra), matching the static routing of the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


import networkx as nx

from repro.netsim.link import Link

__all__ = ["Host", "Topology", "RouteError"]


class RouteError(Exception):
    """No route between the requested hosts."""


@dataclass
class Host:
    """A network endpoint (a grid site's storage/server node).

    ``attrs`` is free-form site metadata.  A host puts no cap of its own
    on the flows it ends: the §5.3 "single box driving a very high-end
    network card" is :class:`repro.objectrep.overhead.ServerResources`.
    """

    name: str
    attrs: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Host) and other.name == self.name


class Topology:
    """Named hosts and the links between them."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._hosts: dict[str, Host] = {}
        self._links: list[Link] = []
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        #: (src, dst) -> what :meth:`path` returns; cleared with the routes
        self._path_cache: dict[
            tuple[str, str], tuple[tuple[Link, ...], float, float]
        ] = {}
        #: names of the hosts and links that are down (crashed,
        #: partitioned): the one record of it, which the message network
        #: and the flow engine both read
        self.down: set[str] = set()
        #: callables ``fn(link)`` told after :meth:`set_cross_traffic`
        #: changed a link (each engine over this topology registers one)
        self.link_watchers: list = []

    # -- construction ------------------------------------------------------
    def add_host(self, host: Host | str, **kwargs) -> Host:
        """Add a host (by object or name); names must be unique."""
        if isinstance(host, str):
            host = Host(host, **kwargs)
        if host.name in self._hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._graph.add_node(host.name)
        return host

    def connect(
        self,
        a: Host | str,
        b: Host | str,
        link: Link,
        reverse: Link | None = None,
    ) -> Link:
        """Join two hosts.  ``a -> b`` traffic rides ``link``; ``b -> a``
        traffic rides ``reverse`` when given, else the same ``link`` (the
        symmetric circuit the paper's testbed assumes)."""
        name_a = a.name if isinstance(a, Host) else a
        name_b = b.name if isinstance(b, Host) else b
        for name in (name_a, name_b):
            if name not in self._hosts:
                raise KeyError(f"unknown host {name!r}")
        if self._graph.has_edge(name_a, name_b) or self._graph.has_edge(
            name_b, name_a
        ):
            raise ValueError(f"hosts {name_a!r} and {name_b!r} already connected")
        back = reverse if reverse is not None else link
        self._graph.add_edge(name_a, name_b, link=link, weight=link.delay)
        self._graph.add_edge(name_b, name_a, link=back, weight=back.delay)
        self._links.append(link)
        if back is not link:
            self._links.append(back)
        self._route_cache.clear()
        self._path_cache.clear()
        return link

    def set_cross_traffic(self, link: Link, rate: float) -> None:
        """Change a built link's constant background load to ``rate``
        bytes/s.  Every reader sees it from the next tick or message: the
        kept routes and paths are dropped and each engine over this
        topology is told (:attr:`link_watchers`)."""
        if not 0 <= rate < link.capacity:
            raise ValueError(
                f"link {link.name}: cross traffic must be in [0, capacity)"
            )
        link.cross_traffic = rate
        self._route_cache.clear()
        self._path_cache.clear()
        for watcher in self.link_watchers:
            watcher(link)

    # -- lookup ------------------------------------------------------------
    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    @property
    def hosts(self) -> tuple[Host, ...]:
        return tuple(self._hosts.values())

    @property
    def links(self) -> tuple[Link, ...]:
        """Every distinct link, in connection order (a symmetric pair's
        shared link appears once)."""
        return tuple(self._links)

    # -- routing -----------------------------------------------------------
    def route(self, src: Host | str, dst: Host | str) -> list[Link]:
        """Links along the minimum-delay path from ``src`` to ``dst``."""
        name_src = src.name if isinstance(src, Host) else src
        name_dst = dst.name if isinstance(dst, Host) else dst
        for name in (name_src, name_dst):
            if name not in self._hosts:
                raise KeyError(f"unknown host {name!r}")
        if name_src == name_dst:
            return []
        cached = self._route_cache.get((name_src, name_dst))
        if cached is None:
            try:
                nodes = nx.shortest_path(
                    self._graph, name_src, name_dst, weight="weight"
                )
            except nx.NetworkXNoPath:
                raise RouteError(
                    f"no route from {name_src!r} to {name_dst!r}"
                ) from None
            cached = [
                self._graph.edges[u, v]["link"] for u, v in zip(nodes, nodes[1:])
            ]
            self._route_cache[(name_src, name_dst)] = cached
        return list(cached)

    def path(self, src: str, dst: str) -> tuple[tuple[Link, ...], float, float]:
        """``(links, propagation, bandwidth)`` of the route from ``src`` to
        ``dst`` (distinct host names): its links, the sum of their delays
        and the least capacity any leaves to messages.  Kept per pair:
        what a link's message latency reads besides its queue changes only
        through :meth:`set_cross_traffic`, which drops what is kept."""
        cached = self._path_cache.get((src, dst))
        if cached is None:
            links = self.route(src, dst)
            cached = self._path_cache[(src, dst)] = (
                tuple(links),
                sum(link.delay for link in links),
                min(link.available_capacity for link in links),
            )
        return cached

    def severed(self, src: str, dst: str, path: list[Link]) -> bool:
        """Whether traffic from ``src`` to ``dst`` along ``path`` touches a
        host or link that is down."""
        down = self.down
        return src in down or dst in down or any(
            link.name in down for link in path
        )

    def base_rtt(self, src: Host | str, dst: Host | str) -> float:
        """Round-trip propagation delay (no queueing): the forward route
        out plus the — possibly asymmetric — return route back."""
        return sum(link.delay for link in self.route(src, dst)) + sum(
            link.delay for link in self.route(dst, src)
        )

    def bottleneck(self, src: Host | str, dst: Host | str) -> Link:
        """The minimum-capacity link on the route."""
        links = self.route(src, dst)
        if not links:
            raise RouteError("src and dst are the same host")
        return min(links, key=lambda l: l.capacity)

    def reset(self) -> None:
        """Drain all link queues (between experiment repetitions)."""
        for link in self.links:
            link.reset()
