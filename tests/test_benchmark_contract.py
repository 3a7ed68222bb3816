"""Names that the benchmark under ``perfbench/`` imports, patches or reads.

The tier-1 suite does not run the benchmark's own tests, so without this
check a rename here would first show up as a broken benchmark run.
"""

import dataclasses
import inspect

import carelay.relay
from carelay import bench, ca_wire
from carelay.endpoints import CaClient, IocSim
from carelay.netsim import VirtualNetwork
from carelay.packet import Cidr, Ipv4UdpPacket, checksum16, decode, encode
from carelay.relay import (
    RealUdpTransport,
    Relay,
    RelayConfig,
    RelayCounters,
    RelayMode,
    SimTransport,
    TransportUnavailable,
)


def test_names_the_benchmark_depends_on():
    # perfbench.loopback.conservation_failures reads drop counters by name.
    assert [f.name for f in dataclasses.fields(RelayCounters)] == [
        "received",
        "relayed",
        "dropped_local",
        "dropped_not_allowed",
        "dropped_port",
        "dropped_rate_limited",
        "replies_forwarded",
    ]
    for name in ("serve", "handle_packet", "on_flow_packet", "expire_flows"):
        assert callable(getattr(Relay, name)), name
    for name in ("emit_spoofed", "flow_send"):
        assert callable(getattr(SimTransport, name)), name
    # Patched at module level, so the relay must look them up there per call.
    assert callable(carelay.relay.classify)
    assert callable(carelay.relay.encode)

    net = VirtualNetwork(bench.paper_topology())
    relay = Relay(
        RelayConfig(target_broadcast="255.255.255.255", mode=RelayMode.PROXY),
        SimTransport(net, "IMX1-HOST1"),
    )
    assert relay.flows == {}
    assert bench.CLIENT in {h.name for h in net.topology.hosts}
    assert callable(bench.scenario_c)

    # Calls made by perfbench.micro and perfbench.sim.
    inspect.signature(IocSim).bind(net, "IMX1-HOST1", "bench", {}, server_port=5901)
    inspect.signature(IocSim.on_search_datagram).bind(None, b"", ("10.2.105.171", 40000))
    inspect.signature(CaClient).bind(net, bench.CLIENT, config=None)

    # perfbench.micro times the ca_wire encoder and finders on its own inputs.
    inspect.signature(ca_wire.SearchRequest).bind("PV:1", 7)
    datagram = ca_wire.encode_search_datagram(ca_wire.SearchRequest("PV:1", 7))
    assert [r.search_id for r in ca_wire.find_search_requests(datagram)] == [7]
    assert ca_wire.find_search_response(datagram) is None

    # perfbench.micro times the packet layer on frames it builds itself.
    packet = Ipv4UdpPacket("127.0.0.2", "127.0.0.1", 40000, 6064, b"search")
    frame = encode(packet)
    assert decode(frame) == packet
    assert isinstance(checksum16(frame), int)
    assert Cidr.parse("127.0.1.0/24").contains("127.0.1.7")

    # perfbench.relay_proc builds the real transport and reports this error.
    assert issubclass(TransportUnavailable, Exception)
    inspect.signature(RealUdpTransport).bind(
        RelayConfig(target_broadcast="127.0.0.1"), bind_ip="127.0.0.1", socket_factory=None
    )


def test_endpoints_reach_the_finders_through_ca_wire(monkeypatch):
    # perfbench.sim times the finders by patching them on carelay.ca_wire, so
    # IocSim and CaClient must look them up there per call; a
    # `from .ca_wire import find_...` would read zero for ca_wire.find.
    calls = dict.fromkeys(("find_search_requests", "find_search_response"), 0)
    for name in calls:

        def counted(data, real=getattr(ca_wire, name), name=name):
            calls[name] += 1
            return real(data)

        monkeypatch.setattr(ca_wire, name, counted)
    scenario = bench.scenario_c()
    net, _ = bench.build_network(scenario)
    result = CaClient(net, bench.CLIENT, config=scenario.client_config).query(scenario.queries[0].pv_name)
    assert not result.timed_out
    assert all(calls.values()), calls
