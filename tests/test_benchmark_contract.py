"""Names that the benchmark under ``perfbench/`` imports, patches or reads.

The tier-1 suite does not run the benchmark's own tests, so without this
check a rename here would first show up as a broken benchmark run.
"""

import dataclasses
import heapq
import inspect
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import carelay.relay
from carelay import bench, ca_wire, config, netsim
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
        "flows_evicted",
        "recv_errors",
        "send_errors",
        "reply_send_errors",
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
        RelayConfig(target_broadcast="255.255.255.255", mode=RelayMode.PROXY, local_subnet=Cidr("10.2.1.0", 24)),
        SimTransport(net, "IMX1-HOST1"),
    )
    assert relay.flows == {}
    assert bench.CLIENT in {h.name for h in net.topology.hosts}
    assert callable(bench.scenario_c)

    # Calls made by perfbench.micro and perfbench.sim.
    inspect.signature(IocSim).bind(net, "IMX1-HOST1", "bench", {}, server_port=5901)
    inspect.signature(bench.run_benchmark).bind(repetitions=30, seed=1)
    inspect.signature(bench.run_scenario).bind(bench.scenario_a())
    inspect.signature(bench.emit_report).bind(bench.ScenarioReport("bench", 1), "records")
    inspect.signature(IocSim.on_search_datagram).bind(None, b"", ("10.2.105.171", 40000))
    inspect.signature(CaClient).bind(net, bench.CLIENT, config=None)

    # perfbench.micro times the ca_wire encoder and finders on its own inputs.
    inspect.signature(ca_wire.SearchRequest).bind("PV:1", 7)
    datagram = ca_wire.encode_search_datagram(ca_wire.SearchRequest("PV:1", 7))
    assert [r.search_id for r in ca_wire.find_search_requests(datagram)] == [7]
    assert ca_wire.find_search_response(datagram) is None

    # perfbench.micro times the packet layer on frames it builds itself, and
    # micro and relay_proc read the payload and the source of a packet.
    packet = Ipv4UdpPacket("127.0.0.2", "127.0.0.1", 40000, 6064, b"search")
    frame = encode(packet)
    assert decode(frame) == packet
    assert (packet.payload, packet.src_ip) == (b"search", "127.0.0.2")
    # perfbench's own tests build frames with an identification keyword.
    keyword = Ipv4UdpPacket("127.0.0.5", "255.255.255.255", 40001, 5064, b"search", identification=48)
    assert decode(encode(keyword)).identification == 48
    assert isinstance(checksum16(frame), int)
    assert Cidr.parse("127.0.1.0/24").contains("127.0.1.7")

    # perfbench.relay_proc builds the real transport and reports this error.
    assert issubclass(TransportUnavailable, Exception)
    inspect.signature(RealUdpTransport).bind(
        RelayConfig(target_broadcast="127.0.0.1", local_subnet=Cidr.parse("127.0.1.0/24")),
        bind_ip="127.0.0.1", socket_factory=None,
    )


def test_names_perfbench_sim_builds_scenarios_from():
    # perfbench.sim.load_scenarios turns parsed fixtures into Scenarios itself.
    inspect.signature(bench.Scenario).bind(
        name="scenario_a",
        topology=None,
        iocs=[],
        queries=[],
        relay_config=None,
        relay_host=None,
        client_config=None,
        repetitions=10,
        seed=0,
        pre_bindings=[],
    )
    assert callable(config.parse_config)
    assert callable(config.install_relay_prerouting)
    fields = {f.name for f in dataclasses.fields(config.ConfigFile)}
    assert {
        "topology", "iocs", "queries", "relay", "relay_host", "client",
        "relay_install_prerouting", "extra_bindings",
    } <= fields


def test_importing_the_relay_does_not_import_yaml():
    # Each loopback relay process imports carelay.relay and pays its import
    # time in setup_s: yaml alone costs about 8 ms of CPU, the simulator and
    # the benchmark about 30 ms more.
    src = Path(carelay.relay.__file__).resolve().parents[1]
    script = (
        "import sys, carelay.relay\n"
        "print(sorted(m for m in sys.modules if m == 'yaml' or m.startswith('carelay')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.split("\n")[0] == "['carelay', 'carelay.ca_wire', 'carelay.packet', 'carelay.relay']"


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


def test_the_query_span_key_goes_up_by_one_per_query():
    # perfbench.sim keys each endpoints.query span on client._next_search_id,
    # read before the call, so each query must take the next one.
    scenario = bench.scenario_c()
    net, _ = bench.build_network(scenario)
    client = CaClient(net, bench.CLIENT, config=scenario.client_config)
    keys = []
    for pv_name in [q.pv_name for q in scenario.queries] + ["NO:SUCH:PV"]:
        keys.append(client._next_search_id)
        client.query(pv_name)
    keys.append(client._next_search_id)
    assert keys == list(range(keys[0], keys[0] + len(keys)))


def test_a_class_level_step_patch_sees_every_event(monkeypatch):
    # perfbench.sim counts netsim events and deliveries by wrapping _step on
    # the class, so every event must be fired through it and return what it
    # delivered.
    fired_per_step = []
    step = VirtualNetwork._step

    def counted(net):
        fired = step(net)
        fired_per_step.append(len(fired))
        return fired

    pops = Counter()

    def heappop(queue, real=netsim.heapq.heappop):
        pops["heappop"] += 1
        return real(queue)

    monkeypatch.setattr(VirtualNetwork, "_step", counted)
    monkeypatch.setattr(netsim, "heapq", SimpleNamespace(**{**vars(heapq), "heappop": heappop}))
    run = bench.execute_scenario(bench.scenario_c())
    assert run.report.all_expected
    assert len(fired_per_step) == pops["heappop"] > 0
    assert sum(fired_per_step) == len(run.net.delivery_log) > 0


def test_a_class_level_ioc_search_patch_sees_every_ioc_delivery(monkeypatch):
    # perfbench.sim times endpoints.ioc_search by wrapping on_search_datagram
    # on the class, so each delivery to an IOC must call it through the
    # instance; inlined into the delivery callback, that row would read 0.
    searched = []
    search = IocSim.on_search_datagram

    def counted(ioc, data, source_addr):
        searched.append(ioc.name)
        return search(ioc, data, source_addr)

    monkeypatch.setattr(IocSim, "on_search_datagram", counted)
    scenario = bench.scenario_c()
    run = bench.execute_scenario(scenario)
    assert run.report.all_expected
    ioc_names = {spec.name for spec in scenario.iocs}
    assert searched == [d.binding.owner for d in run.net.delivery_log if d.binding.owner in ioc_names]
    assert len(searched) > len(scenario.queries)


def test_every_ioc_delivery_calls_the_request_finder(monkeypatch):
    # perfbench.sim times find_search_requests per call, so an IOC must call
    # it for each delivery even when the datagram's parse is already kept.
    calls, parses = Counter(), Counter()

    def find(data, real=ca_wire.find_search_requests):
        calls[data] += 1
        return real(data)

    def parse(data, real=ca_wire.search_messages):
        parses[data] += 1
        return real(data)

    monkeypatch.setattr(ca_wire, "find_search_requests", find)
    monkeypatch.setattr(ca_wire, "search_messages", parse)
    scenario = bench.scenario_c()
    net, _ = bench.build_network(scenario)
    ioc_names = {spec.name for spec in scenario.iocs}
    result = CaClient(net, bench.CLIENT, config=scenario.client_config).query(scenario.queries[0].pv_name)
    assert not result.timed_out
    ioc_deliveries = [d for d in net.delivery_log if d.binding.owner in ioc_names]
    assert sum(calls.values()) == len(ioc_deliveries) > 1
    # Every IOC after the first is handed the same broadcast and reuses its parse.
    search = ioc_deliveries[0].packet.payload
    assert calls[search] == len(ioc_deliveries)
    assert parses[search] == 1


# A search and its answer, as a proxy relay forwards them.
SEARCH = ca_wire.encode_search_datagram(ca_wire.SearchRequest("PV:1", 7))
REPLY = ca_wire.encode_search_response_datagram(ca_wire.SearchResponse(5901, 7))


class ProxySocket:
    """Shaped like perfbench.relay_proc.TracedSocket: ``fileno`` bound
    directly, ``recvfrom`` and ``sendto`` wrapped, the rest through
    ``__getattr__``."""

    def __init__(self, sock, calls: Counter) -> None:
        self._sock = sock
        self.fileno = sock.fileno
        for method in ("recvfrom", "sendto"):

            def wrapped(*args, real=getattr(sock, method), method=method, **kwargs):
                calls[method] += 1
                return real(*args, **kwargs)

            setattr(self, method, wrapped)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_real_transport_serves_through_traced_socket_proxies():
    # Traced benchmark runs hand the transport such a proxy for every socket.
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for sock in (sink, client):
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2)
    config = RelayConfig(
        target_broadcast="127.0.0.1",
        listen_port=17164,
        target_port=sink.getsockname()[1],
        mode=RelayMode.PROXY,
        local_subnet=Cidr("192.0.2.0", 24),
    )
    calls: Counter = Counter()
    transport = RealUdpTransport(
        config,
        bind_ip="127.0.0.1",
        socket_factory=lambda family, kind, proto=0: ProxySocket(socket.socket(family, kind, proto), calls),
    )
    relay = Relay(config, transport)
    stop = threading.Event()
    thread = threading.Thread(target=relay.serve, args=(stop,), daemon=True)
    thread.start()
    try:
        client.sendto(SEARCH, ("127.0.0.1", config.listen_port))
        data, flow_addr = sink.recvfrom(65535)
        assert data == SEARCH
        sink.sendto(REPLY, flow_addr)
        assert client.recvfrom(65535) == (REPLY, flow_addr)
    finally:
        stop.set()
        thread.join(timeout=3)
        transport.close()
        sink.close()
        client.close()
    assert not thread.is_alive()
    assert (relay.counters.relayed, relay.counters.replies_forwarded) == (1, 1)
    # The search and the reply were each read and sent through a proxy.
    assert calls["sendto"] == 2
    assert calls["recvfrom"] >= 2


class RecordingRawSocket:
    """Stand-in for the SOCK_RAW socket, as perfbench.relay_proc.RawSendToSink is."""

    def __init__(self) -> None:
        self.sent: list[bytes] = []

    def setsockopt(self, *args) -> None:
        pass

    def sendto(self, frame: bytes, address) -> int:
        self.sent.append(bytes(frame))
        return len(frame)

    def close(self) -> None:
        pass

    def factory(self, family, kind, proto=0):
        return self if kind == socket.SOCK_RAW else socket.socket(family, kind, proto)


def counted(calls: Counter, name: str, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def counting_relay(config, calls: Counter, socket_factory=None):
    """A relay whose entry points are wrapped as perfbench.relay_proc.instrument
    wraps them: on the instance, after it is built and attached."""
    transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=socket_factory)
    relay = Relay(config, transport)
    relay.handle_packet = counted(calls, "handle_packet", relay.handle_packet)
    relay.on_flow_packet = counted(calls, "on_flow_packet", relay.on_flow_packet)
    transport.emit_spoofed = counted(calls, "emit_spoofed", transport.emit_spoofed)
    transport.flow_send = counted(calls, "flow_send", transport.flow_send)
    return relay, transport


@contextmanager
def serving(relay, transport):
    stop = threading.Event()
    thread = threading.Thread(target=relay.serve, args=(stop,), daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=3)
        transport.close()
    assert not thread.is_alive()


def test_wrappers_installed_before_serve_see_every_datagram(monkeypatch):
    # Traced runs read zero for a layer whose calls bypass its wrapper, as a
    # lookup bound at construction or attach() would. Every wrapper goes on
    # before serve() starts, as in a traced benchmark run. The relay calls
    # neither finder, or perfbench's ca_wire.find rows would count its work.
    calls: Counter = Counter()
    for name in ("classify", "encode"):
        monkeypatch.setattr(carelay.relay, name, counted(calls, name, getattr(carelay.relay, name)))
    for name in ("find_search_requests", "find_search_response"):
        monkeypatch.setattr(ca_wire, name, counted(calls, name, getattr(ca_wire, name)))
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    # Loopback answers for all of 127.0.0.0/8: a local and a not-allowed source.
    local = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    denied = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for sock, ip in ((sink, "127.0.0.1"), (client, "127.0.0.1"), (local, "127.0.1.5"), (denied, "127.0.2.5")):
        sock.bind((ip, 0))
        sock.settimeout(2)
    try:
        proxy = RelayConfig(
            target_broadcast="127.0.0.1",
            listen_port=17264,
            target_port=sink.getsockname()[1],
            mode=RelayMode.PROXY,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        relay, transport = counting_relay(proxy, calls)
        with serving(relay, transport):
            client.sendto(SEARCH, ("127.0.0.1", proxy.listen_port))
            data, flow_addr = sink.recvfrom(65535)
            assert data == SEARCH
            sink.sendto(REPLY, flow_addr)
            assert client.recvfrom(65535) == (REPLY, flow_addr)
        assert calls == {"handle_packet": 1, "classify": 1, "flow_send": 2, "on_flow_packet": 1}
        calls.clear()

        raw = RecordingRawSocket()
        spoof = RelayConfig(
            target_broadcast="127.255.255.255",
            listen_port=17364,
            target_port=15064,
            mode=RelayMode.SPOOF,
            allow_sources=(Cidr("127.0.0.0", 24),),
            local_subnet=Cidr("127.0.1.0", 24),
        )
        relay, transport = counting_relay(spoof, calls, raw.factory)
        with serving(relay, transport):
            for sock in (local, denied, client):
                sock.sendto(b"search", ("127.0.0.1", spoof.listen_port))
            deadline = time.monotonic() + 2
            while relay.counters.received < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
    finally:
        for sock in (sink, client, local, denied):
            sock.close()
    assert [decode(frame).payload for frame in raw.sent] == [b"search"]
    counters = relay.counters
    assert (counters.relayed, counters.dropped_local, counters.dropped_not_allowed) == (1, 1, 1)
    assert calls == {"handle_packet": 3, "classify": 3, "encode": 1, "emit_spoofed": 1}


def recorded(seen: list, fn):
    def wrapper(*args):
        seen.append(args)
        return fn(*args)

    return wrapper


def test_real_transport_hands_the_relay_plain_packet_values():
    # The serve loop builds each packet without the constructor; the value
    # must still be an Ipv4UdpPacket with the constructor's defaults.
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for sock in (sink, client):
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2)
    config = RelayConfig(
        target_broadcast="127.0.0.1",
        listen_port=17464,
        target_port=sink.getsockname()[1],
        mode=RelayMode.PROXY,
        local_subnet=Cidr("192.0.2.0", 24),
    )
    transport = RealUdpTransport(config, bind_ip="127.0.0.1")
    relay = Relay(config, transport)
    searches: list = []
    replies: list = []
    relay.handle_packet = recorded(searches, relay.handle_packet)
    relay.on_flow_packet = recorded(replies, relay.on_flow_packet)
    client_port, sink_port = client.getsockname()[1], sink.getsockname()[1]
    try:
        with serving(relay, transport):
            client.sendto(SEARCH, ("127.0.0.1", config.listen_port))
            _, flow_addr = sink.recvfrom(65535)
            sink.sendto(REPLY, flow_addr)
            client.recvfrom(65535)
    finally:
        sink.close()
        client.close()
    ((search, _),) = searches
    ((flow_port, reply, _),) = replies
    assert type(search) is Ipv4UdpPacket and type(reply) is Ipv4UdpPacket
    defaults = {"ttl": 64, "identification": 0, "dscp_ecn": 0, "flags_fragment": 0}
    assert search == Ipv4UdpPacket(
        src_ip="127.0.0.1", dst_ip="127.0.0.1", src_port=client_port, dst_port=config.listen_port,
        payload=SEARCH, **defaults,
    )
    assert flow_port == flow_addr[1]
    assert reply == Ipv4UdpPacket(
        src_ip="127.0.0.1", dst_ip="127.0.0.1", src_port=sink_port, dst_port=flow_port,
        payload=REPLY, **defaults,
    )
