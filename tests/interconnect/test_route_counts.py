"""Route-count accounting equals per-message accounting.

The accountant keeps one count per (flits, src, dst) and derives every
total from the counts; these tests replay the same messages through a
per-message reference and compare totals, snapshots, latencies and the
obs hop/flit histograms folded from the counts.
"""

import random

import pytest

from repro.common.params import NetworkConfig, ProtocolKind, SystemConfig
from repro.interconnect.accounting import NetworkAccountant
from repro.interconnect.mesh import MeshTopology
from repro.obs import ObsConfig, Observability
from repro.obs.metrics import MetricsRegistry
from repro.system._simulator import Simulator
from repro.system.machine import build_protocol
from repro.trace.workloads import build_streams


class Reference:
    """The per-message accountant the route counts replaced."""

    def __init__(self, topology):
        self.topology = topology
        self.messages = self.flits = self.flit_hops = 0

    def transfer(self, src, dst, size):
        config = self.topology.config
        flits = 0 if size <= 0 else -(-size // config.flit_bytes)
        hops = self.topology.hops(src, dst)
        self.messages += 1
        self.flits += flits
        self.flit_hops += flits * hops
        per_hop = config.link_latency + config.router_latency
        return hops * per_hop + max(flits - 1, 0) + config.router_latency


def replay(config, messages):
    topology = MeshTopology(config)
    acc = NetworkAccountant(topology)
    ref = Reference(topology)
    for src, dst, size in messages:
        assert acc.transfer(src, dst, size) == ref.transfer(src, dst, size)
    return acc, ref


def random_messages(nodes, count, max_size, seed):
    rand = random.Random(seed)
    return [(rand.randrange(nodes), rand.randrange(nodes),
             rand.randrange(0, max_size + 1)) for _ in range(count)]


@pytest.mark.parametrize("kw", [
    {},
    {"flit_bytes": 8},
    {"mesh_width": 2, "mesh_height": 3, "link_latency": 2},
])
def test_totals_match_per_message_reference(kw):
    config = NetworkConfig(**kw)
    messages = random_messages(config.nodes, 3000, 300, seed=len(kw))
    acc, ref = replay(config, messages)
    assert acc.total_messages == ref.messages
    assert acc.total_flits == ref.flits
    assert acc.total_flit_hops == ref.flit_hops
    assert acc.snapshot() == {"messages": ref.messages, "flits": ref.flits,
                              "flit_hops": ref.flit_hops}


def test_wider_message_grows_the_rows_in_place():
    topology = MeshTopology(NetworkConfig())
    acc = NetworkAccountant(topology)
    counts = acc.counts
    acc.transfer(3, 0, 72)  # an 8-word WBACK: 5 flits
    assert len(counts) == 6 * topology.nodes ** 2
    # A 16-word WBACK (136 bytes, 9 flits) is past the rows built so far.
    latency = acc.transfer(0, 15, 136)
    assert acc.counts is counts
    assert len(counts) == 10 * topology.nodes ** 2
    assert latency == Reference(topology).transfer(0, 15, 136)
    assert acc.snapshot() == {"messages": 2, "flits": 14, "flit_hops": 69}


def test_empty_accountant_totals_are_zero():
    acc = NetworkAccountant(MeshTopology(NetworkConfig()))
    assert acc.snapshot() == {"messages": 0, "flits": 0, "flit_hops": 0}


def test_fold_equals_per_message_observe_on_a_traced_cell():
    config = SystemConfig(protocol=ProtocolKind.PROTOZOA_MW, cores=16)
    protocol = build_protocol(config)
    reference = MetricsRegistry()
    topology = protocol.topology

    def observe(mtype, src, dst, payload_words):
        size = mtype.size_bytes(payload_words)
        reference.observe("repro_message_hops", topology.hops(src, dst))
        reference.observe("repro_message_flits", protocol.net.flits(size))

    protocol.trace_hook = observe
    session = Observability(ObsConfig(enabled=True, sample_every=8))
    streams = build_streams("canneal", cores=16, per_core=300, seed=0)
    Simulator(protocol, streams, obs=session).run()
    got = session.metrics.histograms()
    want = reference.histograms()
    assert protocol.net.total_messages > 1000
    for name in ("repro_message_hops", "repro_message_flits"):
        assert got[name].to_dict() == want[name].to_dict()
        assert got[name].count == protocol.net.total_messages


def test_fold_counts_only_while_attached():
    config = SystemConfig(protocol=ProtocolKind.MESI, cores=4)
    protocol = build_protocol(config)
    protocol.read(0, 0, 8, 0)  # before attach: not observed
    before = protocol.net.total_messages
    session = Observability(ObsConfig(enabled=True))
    protocol.attach_obs(session)
    protocol.write(1, 0, 8, 0)
    during = protocol.net.total_messages - before
    protocol.attach_obs(None)
    protocol.read(2, 0, 8, 0)  # after detach: not observed
    hists = session.metrics.histograms()
    assert before > 0 and during > 0
    assert hists["repro_message_hops"].count == during
    assert hists["repro_message_flits"].count == during
