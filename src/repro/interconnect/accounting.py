"""Flit and flit-hop accounting (the paper's interconnect-energy metric).

Figure 15 reports "traffic in terms of flits transmitted across all network
hops" as a relative measure of dynamic interconnect energy.  Every message
the protocol engines emit is routed here: its byte size is packetized into
16-byte flits and multiplied by the XY hop count of its route.

Recording a message is one count add in a flat list indexed by
``flits * nodes**2 + src * nodes + dst``; its latency is a lookup in a
table laid out the same way.  Message, flit and flit-hop totals are
derived from the counts when read, so the per-message cost does not
depend on how many totals exist.
"""

from __future__ import annotations

from typing import List

from repro.common.params import NetworkConfig
from repro.interconnect.mesh import MeshTopology
from repro.obs.metrics import BoundHistogram, HistogramData


class NetworkAccountant:
    """Per-route message counts plus the latency of every route."""

    def __init__(self, topology: MeshTopology):
        self.topology = topology
        self.config: NetworkConfig = topology.config
        self._flit_bytes = self.config.flit_bytes
        nodes = topology.nodes
        self._nodes = nodes
        self._routes = nodes * nodes
        #: XY hop count of route ``src * nodes + dst``.
        self._route_hops: List[int] = [
            topology.hops(src, dst) for src in range(nodes) for dst in range(nodes)
        ]
        #: Message count per ``flits * nodes**2 + src * nodes + dst``.
        self.counts: List[int] = []
        #: Latency per index of ``counts``; one row of routes per flit
        #: count, added when a message first needs it.
        self._latency: List[int] = []

    def _grow(self, flits: int) -> None:
        """Extend the count and latency rows (in place) up to ``flits``."""
        per_hop = self.config.link_latency + self.config.router_latency
        router = self.config.router_latency
        for row in range(len(self._latency) // self._routes, flits + 1):
            serial = max(row - 1, 0) + router
            self._latency.extend(h * per_hop + serial for h in self._route_hops)
            self.counts.extend([0] * self._routes)

    def flits(self, size_bytes: int) -> int:
        """Number of flits needed for a message of ``size_bytes``."""
        if size_bytes <= 0:
            return 0
        fb = self.config.flit_bytes
        return (size_bytes + fb - 1) // fb

    def transfer(self, src_node: int, dst_node: int, size_bytes: int) -> int:
        """Record one message on the network; returns its network latency.

        Latency = per-hop (link + router) pipeline plus serialization of the
        tail flits.  A self-send (src == dst, e.g. a core whose home tile is
        its own) costs the router traversal only and no flit-hops.
        """
        fb = self._flit_bytes
        flits = (size_bytes + fb - 1) // fb if size_bytes > 0 else 0  # flits()
        index = flits * self._routes + src_node * self._nodes + dst_node
        try:
            self.counts[index] += 1
        except IndexError:
            self._grow(flits)
            self.counts[index] += 1
        return self._latency[index]

    # -- derived totals ----------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.counts)

    @property
    def total_flits(self) -> int:
        routes = self._routes
        return sum(n * (index // routes)
                   for index, n in enumerate(self.counts) if n)

    @property
    def total_flit_hops(self) -> int:
        routes = self._routes
        hops = self._route_hops
        return sum(n * (index // routes) * hops[index % routes]
                   for index, n in enumerate(self.counts) if n)

    def snapshot(self) -> dict:
        return {
            "messages": self.total_messages,
            "flits": self.total_flits,
            "flit_hops": self.total_flit_hops,
        }


class RouteHistogramFold:
    """Folds route-count deltas into message hop/flit histograms.

    Follows the messages counted from construction on.  Registered with
    :meth:`repro.obs.metrics.MetricsRegistry.defer`, so the registry calls
    :meth:`fold` before any read.  Each fold adds the messages counted
    since the previous one, per route, to the value-indexed counts of two
    :class:`~repro.obs.metrics.BoundHistogram` and folds those, which is
    exactly equivalent to one ``observe(hops)`` and one ``observe(flits)``
    per message.  :meth:`close` folds what is left and stops following
    the accountant.
    """

    __slots__ = ("_net", "_seen", "_hops", "_flits")

    def __init__(self, net: NetworkAccountant, hops: HistogramData,
                 flits: HistogramData):
        self._net = net
        self._seen = list(net.counts)
        self._hops = BoundHistogram(hops, net.topology.max_hops)
        self._flits = BoundHistogram(flits, 0)  # grows on the first fold

    def fold(self) -> bool:
        """Move the new messages into the histograms; True if any moved."""
        net = self._net
        if net is None:
            return False
        counts = net.counts
        seen = self._seen
        seen.extend([0] * (len(counts) - len(seen)))
        routes = net._routes
        route_hops = net._route_hops
        hop_counts = self._hops
        flit_counts = self._flits
        moved = False
        for index, n in enumerate(counts):
            delta = n - seen[index]
            if delta:
                seen[index] = n
                hops = route_hops[index % routes]
                flits = index // routes
                if hops >= len(hop_counts.counts):
                    hop_counts.grow(hops)
                if flits >= len(flit_counts.counts):
                    flit_counts.grow(flits)
                hop_counts.counts[hops] += delta
                flit_counts.counts[flits] += delta
                moved = True
        if moved:
            hop_counts.fold()
            flit_counts.fold()
        return moved

    def close(self) -> None:
        """Fold the remaining deltas, then ignore the accountant."""
        self.fold()
        self._net = None
