import dataclasses
import errno
import ipaddress
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carelay.ca_wire import (
    ReplyFlag,
    SearchRequest,
    SearchResponse,
    encode_search_datagram,
    encode_search_response_datagram,
    find_search_requests,
)
from carelay.netsim import (
    BroadcastDomain,
    HelperRule,
    Interface,
    PreroutingRule,
    VirtualHost,
    VirtualNetwork,
    VirtualTopology,
)
from carelay.packet import ADDRESS_TABLE_SIZE, Cidr, Ipv4UdpPacket, decode, encode, int_to_ip, ip_to_int
from carelay.relay import (
    FLOW_IDLE_TIMEOUT_US,
    FLOW_TABLE_SIZE,
    InvalidRelayConfig,
    PrivilegeRequired,
    Relay,
    RelayConfig,
    RelayMode,
    SimTransport,
    RealUdpTransport,
    Verdict,
    classify,
)

BEAMLINE = Cidr("10.2.1.0", 24)
SOL = Cidr("10.2.105.0", 24)

PAPER_CONFIG = RelayConfig(
    target_broadcast="255.255.255.255",
    listen_port=6064,
    target_port=5064,
    allow_sources=(SOL,),
    local_subnet=BEAMLINE,
    mode=RelayMode.SPOOF,
)


def search(search_id=7, name="LOOP:PV"):
    return encode_search_datagram(SearchRequest(name, search_id))


def response(search_id=7):
    return encode_search_response_datagram(SearchResponse(5901, search_id))


def query_packet(src_ip="10.2.105.171", src_port=44256, dst_ip="10.2.1.31", dst_port=6064, payload=b"q" * 48):
    return Ipv4UdpPacket(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port, payload=payload)


class TestClassify:
    def test_paper_configuration_accepts_sol_client(self):
        assert classify(query_packet(), PAPER_CONFIG) is Verdict.ACCEPT

    def test_local_source_dropped(self):
        assert classify(query_packet(src_ip="10.2.1.31"), PAPER_CONFIG) is Verdict.DROP_LOCAL_SOURCE

    def test_unlisted_source_dropped(self):
        assert classify(query_packet(src_ip="10.2.200.5"), PAPER_CONFIG) is Verdict.DROP_NOT_ALLOWED

    def test_port_mismatch_dropped_first(self):
        assert classify(query_packet(dst_port=5064), PAPER_CONFIG) is Verdict.DROP_PORT_MISMATCH

    def test_local_drop_outranks_allowlist(self):
        # A local source that is also outside the allowlist must be reported
        # as local: loop prevention cannot depend on the allowlist.
        assert classify(query_packet(src_ip="10.2.1.99"), PAPER_CONFIG) is Verdict.DROP_LOCAL_SOURCE

    def test_empty_allowlist_accepts_any_nonlocal(self):
        config = RelayConfig(target_broadcast="255.255.255.255", local_subnet=BEAMLINE)
        assert classify(query_packet(src_ip="172.16.0.9"), config) is Verdict.ACCEPT

    prefix = st.tuples(st.sampled_from((0, 32)) | st.integers(min_value=0, max_value=32), st.booleans())

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        prefix,
        st.lists(prefix, max_size=3),
        st.sampled_from((6064, 5064)) | st.integers(min_value=1, max_value=65535),
    )
    @settings(max_examples=300)
    def test_agrees_with_ipaddress_reference(self, src, local_spec, allow_specs, dst_port):
        # Each prefix is cut around the source; a flipped last prefix bit
        # makes it just miss the source. /0 and /32 are drawn as often as
        # all other lengths together.
        def around(plen: int, miss: bool) -> ipaddress.IPv4Network:
            addr = src ^ (1 << (32 - plen)) if miss and plen else src
            return ipaddress.ip_network(f"{int_to_ip(addr)}/{plen}", strict=False)

        local = around(*local_spec)
        allow = [around(*spec) for spec in allow_specs]
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            local_subnet=Cidr.parse(str(local)),
            allow_sources=tuple(Cidr.parse(str(net)) for net in allow),
        )
        ip = ipaddress.ip_address(src)
        if dst_port != config.listen_port:
            expected = Verdict.DROP_PORT_MISMATCH
        elif ip in local:
            expected = Verdict.DROP_LOCAL_SOURCE
        elif allow and not any(ip in net for net in allow):
            expected = Verdict.DROP_NOT_ALLOWED
        else:
            expected = Verdict.ACCEPT
        assert classify(query_packet(src_ip=str(ip), dst_port=dst_port), config) is expected

    def test_integer_prefixes_stay_outside_the_fields(self):
        assert [f.name for f in dataclasses.fields(RelayConfig)] == [
            "target_broadcast", "listen_port", "target_port", "allow_sources", "local_subnet", "mode",
            "max_packets_per_second",
        ]
        twin = RelayConfig(**{f.name: getattr(PAPER_CONFIG, f.name) for f in dataclasses.fields(RelayConfig)})
        assert twin == PAPER_CONFIG and hash(twin) == hash(PAPER_CONFIG)
        assert twin != dataclasses.replace(PAPER_CONFIG, local_subnet=SOL)
        assert repr(PAPER_CONFIG) == (
            "RelayConfig(target_broadcast='255.255.255.255', listen_port=6064, target_port=5064, "
            "allow_sources=(Cidr(base_ip='10.2.105.0', prefix_len=24),), "
            "local_subnet=Cidr(base_ip='10.2.1.0', prefix_len=24), mode=<RelayMode.SPOOF: 'spoof'>, "
            "max_packets_per_second=None)"
        )

    def test_replace_recomputes_the_integer_prefixes(self):
        swapped = dataclasses.replace(PAPER_CONFIG, local_subnet=SOL, allow_sources=(BEAMLINE,))
        assert classify(query_packet(), swapped) is Verdict.DROP_LOCAL_SOURCE
        assert classify(query_packet(src_ip="10.2.1.5"), swapped) is Verdict.ACCEPT
        open_config = dataclasses.replace(PAPER_CONFIG, local_subnet=Cidr("192.0.2.0", 24), allow_sources=())
        assert classify(query_packet(src_ip="10.2.1.5"), open_config) is Verdict.ACCEPT


class SpoofRecorder:
    """Transport that keeps each spoofed emission."""

    def __init__(self):
        self.emitted = []

    def attach(self, relay):
        del relay

    def emit_spoofed(self, packet):
        self.emitted.append(packet)


def spoofed(*packets, first_id=1):
    """What a paper spoof relay emits for the packets, its identifications counting up from first_id."""
    transport = SpoofRecorder()
    relay = Relay(PAPER_CONFIG, transport)
    relay._next_id = first_id
    for packet in packets:
        relay.handle_packet(packet, now_us=0)
    return transport.emitted


def rewritten(packet, identification, config=PAPER_CONFIG):
    """The reference spoof rewrite: the relay's target, a fresh TTL and the given identification."""
    return packet._replace(
        dst_ip=config.target_broadcast, dst_port=config.target_port, ttl=64, identification=identification
    )


class TestRewriteSpoof:
    def test_paper_flow(self):
        (out,) = spoofed(query_packet())
        assert (out.src_ip, out.src_port) == ("10.2.105.171", 44256)
        assert (out.dst_ip, out.dst_port) == ("255.255.255.255", 5064)

    def test_payload_identity_for_various_lengths(self):
        packets = [query_packet(payload=bytes(range(256)) * (n // 256) + bytes(n % 256)) for n in (0, 1, 40, 48, 1400)]
        assert [out.payload for out in spoofed(*packets)] == [pkt.payload for pkt in packets]

    def test_own_emission_fed_back_is_a_port_mismatch(self):
        transport = SpoofRecorder()
        relay = Relay(PAPER_CONFIG, transport)
        relay.handle_packet(query_packet(), now_us=0)
        relay.handle_packet(transport.emitted[0], now_us=0)
        assert len(transport.emitted) == 1
        assert (relay.counters.relayed, relay.counters.dropped_port) == (1, 1)

    def test_ttl_reset_and_fresh_identification(self):
        worn = query_packet()._replace(ttl=3, identification=777)
        (out,) = spoofed(worn, first_id=42)
        assert out.ttl == 64
        assert out.identification == 42

    def test_equals_replace(self):
        rng = random.Random(11)
        for _ in range(200):
            pkt = Ipv4UdpPacket(
                src_ip=f"10.2.105.{rng.randrange(1, 255)}",
                dst_ip="10.2.1.31",
                src_port=rng.randrange(1024, 65536),
                dst_port=6064,
                payload=rng.randbytes(rng.randrange(0, 200)),
                ttl=rng.randrange(1, 256),
                identification=rng.randrange(0, 0x10000),
                dscp_ecn=rng.randrange(0, 0x100),
                flags_fragment=rng.randrange(0, 0x10000),
            )
            ident = rng.randrange(1, 0x10000)
            (out,) = spoofed(pkt, first_id=ident)
            assert type(out) is Ipv4UdpPacket
            assert out == rewritten(pkt, ident)

    def test_checksums_valid_after_rewrite(self):
        (out,) = spoofed(query_packet())
        assert decode(encode(out)) == out

    def test_source_preserved_for_randomized_packets(self):
        rng = random.Random(3)
        packets = [
            query_packet(
                src_ip=f"10.2.105.{rng.randrange(1, 255)}",
                src_port=rng.randrange(1024, 65536),
                payload=rng.randbytes(rng.randrange(0, 200)),
            )
            for _ in range(200)
        ]
        outs = spoofed(*packets)
        assert [(out.src_ip, out.src_port) for out in outs] == [(pkt.src_ip, pkt.src_port) for pkt in packets]


class TestSpoofIdentification:
    def test_identification_starts_at_one_and_increments(self):
        transport = SpoofRecorder()
        relay = Relay(PAPER_CONFIG, transport)
        for _ in range(3):
            relay.handle_packet(query_packet(), now_us=0)
        assert [p.identification for p in transport.emitted] == [1, 2, 3]

    def test_counter_wraps_without_zero(self):
        transport = SpoofRecorder()
        relay = Relay(PAPER_CONFIG, transport)
        for _ in range(0xFFFF + 2):
            relay.handle_packet(query_packet(), now_us=0)
        ids = [p.identification for p in transport.emitted]
        assert ids[0xFFFE:] == [0xFFFF, 1, 2]
        assert 0 not in ids


class WireRecorder(SpoofRecorder):
    """Encodes each spoofed emission, as the raw socket transport does."""

    def emit_spoofed(self, packet):
        self.emitted.append(encode(packet))


def test_address_table_stays_bounded_under_a_flood_of_sources():
    # 10k distinct sources spread over the whole address space, about half of
    # them allowed. Each is filtered and, if accepted, encoded.
    config = dataclasses.replace(PAPER_CONFIG, allow_sources=(SOL, Cidr("128.0.0.0", 1)))
    transport = WireRecorder()
    relay = Relay(config, transport)
    sources = [int_to_ip(i * 429_467) for i in range(10_000)]
    assert len(set(sources)) == 10_000
    for src_ip in sources:
        relay.handle_packet(query_packet(src_ip=src_ip), now_us=0)
    table = ip_to_int.cache_info()
    assert table.currsize == table.maxsize == ADDRESS_TABLE_SIZE
    counters = relay.counters
    assert counters.received == 10_000 and counters.conserved()
    allowed = [ipaddress.ip_network(str(net)) for net in config.allow_sources]
    accepted = [s for s in sources if any(ipaddress.ip_address(s) in net for net in allowed)]
    assert counters.relayed == len(accepted) and counters.dropped_not_allowed > 0
    for ident, (src_ip, wire) in enumerate(zip(accepted, transport.emitted, strict=True), start=1):
        assert decode(wire) == rewritten(query_packet(src_ip=src_ip), ident, config)


def relay_topology(negate_src=BEAMLINE, helper_back_to_relay=False):
    """Client subnet + beamline with the helper/prerouting chain installed."""
    rules = [PreroutingRule(5064, "10.2.1.31", 6064, negate_src=negate_src)]
    helpers = [HelperRule("sol", 5064, ("10.2.1.31",))]
    if helper_back_to_relay:
        helpers.append(HelperRule("beamline", 5064, ("10.2.1.31",)))
    return VirtualTopology(
        domains=[BroadcastDomain("beamline", BEAMLINE), BroadcastDomain("sol", SOL)],
        hosts=[
            VirtualHost("IMX1-HOST1", [Interface("10.2.1.31", BEAMLINE)], prerouting_rules=rules),
            VirtualHost("IMX1-HOST2", [Interface("10.2.1.32", BEAMLINE)]),
            VirtualHost("TesterHEpics", [Interface("10.2.105.171", SOL)]),
        ],
        helper_rules=helpers,
    )


def attach_relay(net, config):
    return Relay(config, SimTransport(net, "IMX1-HOST1"))


def client_broadcast(net, src_port=44256, payload=b"q" * 48):
    pkt = Ipv4UdpPacket(
        src_ip="10.2.105.171", dst_ip="10.2.105.255",
        src_port=src_port, dst_port=5064, payload=payload,
    )
    net.inject("TesterHEpics", pkt)


class TestSpoofRelayOnSim:
    def test_rebroadcast_reaches_every_binding_on_both_hosts(self):
        net = VirtualNetwork(relay_topology())
        seen = []
        for i in range(1, 8):
            net.bind("IMX1-HOST1", 5064, f"h1-ioc-{i}", callback=lambda d: seen.append(d))
        net.bind("IMX1-HOST2", 5064, "h2-ioc", callback=lambda d: seen.append(d))
        relay = attach_relay(net, PAPER_CONFIG)
        client_broadcast(net)
        net.advance_clock(10_000)
        assert relay.counters.relayed == 1
        assert len(seen) == 8
        assert all(d.packet.src_ip == "10.2.105.171" and d.packet.src_port == 44256 for d in seen)
        assert all(d.wire_dst_ip == "255.255.255.255" for d in seen)

    def test_no_amplification_when_relay_host_is_in_target_domain(self):
        net = VirtualNetwork(relay_topology())
        net.bind("IMX1-HOST1", 5064, "ioc")
        relay = attach_relay(net, PAPER_CONFIG)
        for i in range(50):
            client_broadcast(net, src_port=40000 + i)
            net.advance_clock(5_000)
        assert relay.counters.received == 50
        assert relay.counters.relayed == 50
        assert relay.counters.conserved()
        emissions = [d for d in net.delivery_log if d.wire_dst_ip == "255.255.255.255"]
        assert len(emissions) == 50

    def test_own_broadcast_reentering_is_dropped_as_local(self):
        # Helper rule on the beamline points back at the relay host and the
        # prerouting rule has no source exemption, so the relay's own PROXY
        # emission returns to its listen port and must be dropped.
        net = VirtualNetwork(relay_topology(negate_src=None, helper_back_to_relay=True))
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            listen_port=6064,
            target_port=5064,
            allow_sources=(),
            local_subnet=BEAMLINE,
            mode=RelayMode.PROXY,
        )
        relay = attach_relay(net, config)
        client_broadcast(net)
        net.advance_clock(50_000)
        assert relay.counters.relayed == 1
        assert relay.counters.dropped_local == 1
        assert relay.counters.conserved()

    def test_payload_bytes_never_altered(self):
        net = VirtualNetwork(relay_topology())
        captured = []
        net.bind("IMX1-HOST1", 5064, "ioc", callback=lambda d: captured.append(d.packet.payload))
        attach_relay(net, PAPER_CONFIG)
        payload = bytes(range(97))  # arbitrary, not valid CA -- must pass through
        client_broadcast(net, payload=payload)
        net.advance_clock(10_000)
        assert captured == [payload]


class TestProxyRelayOnSim:
    def make_proxy(self, net, **overrides):
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            listen_port=6064,
            target_port=5064,
            allow_sources=(SOL,),
            local_subnet=BEAMLINE,
            mode=RelayMode.PROXY,
            **overrides,
        )
        return attach_relay(net, config)

    def test_forwarded_query_uses_relay_source(self):
        net = VirtualNetwork(relay_topology())
        seen = []
        net.bind("IMX1-HOST1", 5064, "ioc", callback=lambda d: seen.append(d.packet))
        self.make_proxy(net)
        client_broadcast(net, payload=search())
        net.advance_clock(10_000)
        (pkt,) = seen
        assert pkt.src_ip == "10.2.1.31"
        assert pkt.src_port == 6064  # the listen port: servers answer it
        assert pkt.payload == search()

    def test_reply_forwarded_back_to_client(self):
        net = VirtualNetwork(relay_topology())
        client_seen = []

        net.bind("IMX1-HOST2", 5064, "ioc", callback=self.ioc_reply(net))
        net.bind("TesterHEpics", 44256, "client", callback=lambda d: client_seen.append(d.packet))
        relay = self.make_proxy(net)
        client_broadcast(net, payload=search())
        net.advance_clock(50_000)
        (pkt,) = client_seen
        assert pkt.payload == response()
        assert relay.counters.replies_forwarded == 1

    @staticmethod
    def ioc_reply(net, src_port=5064):
        """An IOC on IMX1-HOST2 that answers every search from src_port."""

        def reply(delivery):
            (request,) = find_search_requests(delivery.packet.payload)
            net.inject("IMX1-HOST2", Ipv4UdpPacket(
                src_ip="10.2.1.32", dst_ip=delivery.packet.src_ip,
                src_port=src_port, dst_port=delivery.packet.src_port,
                payload=response(request.search_id),
            ))

        return reply

    def test_two_clients_on_one_id_each_get_their_own_reply(self):
        net = VirtualNetwork(relay_topology())
        sent_ids = []

        def ioc(delivery):
            sent_ids.append(struct.unpack_from(">II", delivery.packet.payload, 24))  # the search's param1 and param2
            return self.ioc_reply(net)(delivery)

        net.bind("IMX1-HOST2", 5064, "ioc", callback=ioc)
        seen = {port: [] for port in (44256, 44257)}
        for port, got in seen.items():
            net.bind("TesterHEpics", port, f"client-{port}", callback=lambda d, got=got: got.append(d.packet))
        relay = self.make_proxy(net)
        for port in seen:
            client_broadcast(net, src_port=port, payload=search(7))
            net.advance_clock(10_000)
        assert [len(got) for got in seen.values()] == [1, 1]
        assert all(got[0].payload == response(7) for got in seen.values())
        assert relay.counters.replies_forwarded == 2
        # The first keeps its ID; the second goes out under a fresh one, in param1 and param2 alike.
        first, second = sent_ids
        assert first == (7, 7)
        assert second[0] == second[1] != 7
        assert relay.flows[7][:3] == ("10.2.105.171", 44256, 7)
        assert relay.flows[second[0]][:3] == ("10.2.105.171", 44257, 7)

    def test_a_response_from_another_port_is_a_search(self):
        # Only target_port answers: the same response from port 5065 is classified, here as a local source.
        net = VirtualNetwork(relay_topology())
        net.bind("IMX1-HOST2", 5064, "ioc", callback=self.ioc_reply(net, src_port=5065))
        client_seen = []
        net.bind("TesterHEpics", 44256, "client", callback=lambda d: client_seen.append(d.packet))
        relay = self.make_proxy(net)
        client_broadcast(net, payload=search())
        net.advance_clock(50_000)
        assert client_seen == []
        counters = relay.counters
        assert (counters.received, counters.relayed, counters.dropped_local) == (2, 1, 1)
        assert counters.replies_forwarded == 0
        assert 7 in relay.flows

    def test_a_not_found_is_classified_as_a_search(self):
        # CA_PROTO_NOT_FOUND (command 14) answers a DO_REPLY search, but the
        # relay routes only search responses: from the IOC side it is a local drop.
        net = VirtualNetwork(relay_topology())

        def not_found(delivery):
            (request,) = find_search_requests(delivery.packet.payload)
            payload = struct.pack(">HHHHII", 14, 0, 10, 13, request.search_id, request.search_id)
            net.inject("IMX1-HOST2", Ipv4UdpPacket(
                "10.2.1.32", delivery.packet.src_ip, 5064, delivery.packet.src_port, payload
            ))

        net.bind("IMX1-HOST2", 5064, "ioc", callback=not_found)
        client_seen = []
        net.bind("TesterHEpics", 44256, "client", callback=lambda d: client_seen.append(d.packet))
        relay = self.make_proxy(net)
        client_broadcast(net, payload=encode_search_datagram(SearchRequest("LOOP:PV", 7, ReplyFlag.DO_REPLY)))
        net.advance_clock(50_000)
        assert client_seen == []
        assert (relay.counters.dropped_local, relay.counters.replies_forwarded) == (1, 0)

    def test_flow_reused_for_same_client(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        for _ in range(5):  # a client's retries carry the same ID
            client_broadcast(net, src_port=44256, payload=search(7))
            net.advance_clock(5_000)
        assert len(relay.flows) == 1

    def test_flow_table_bounded_by_distinct_searches(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        for i in range(20):
            client_broadcast(net, src_port=50000 + (i % 7), payload=search(i % 7))
            net.advance_clock(1_000)
        assert len(relay.flows) == 7

    def test_flows_expire_after_idle_timeout(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        client_broadcast(net, payload=search())
        net.advance_clock(10_000)
        assert len(relay.flows) == 1
        net.advance_clock(31_000_000)
        assert len(relay.flows) == 0

    def test_thousand_clients_then_timeout_empties_table(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        for i in range(1000):
            client_broadcast(net, src_port=1024 + i, payload=search(i))
        net.advance_clock(10_000)
        assert len(relay.flows) == 1000
        net.advance_clock(40_000_000)
        assert len(relay.flows) == 0
        assert relay.counters.conserved()


class TestExpireFlows:
    def make_detached_relay(self):
        net = VirtualNetwork(relay_topology())
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            mode=RelayMode.PROXY,
            local_subnet=BEAMLINE,
        )
        return Relay(config, SimTransport(net, "IMX1-HOST1"))

    def test_no_entries(self):
        relay = self.make_detached_relay()
        assert relay.expire_flows(0) == 0

    def test_boundary_is_inclusive(self):
        relay = self.make_detached_relay()
        relay.handle_packet(query_packet(payload=search()), now_us=0)
        assert relay.expire_flows(FLOW_IDLE_TIMEOUT_US - 1) == 0
        assert relay.expire_flows(FLOW_IDLE_TIMEOUT_US) == 1
        assert relay.flows == {}

    def test_a_full_table_evicts_its_oldest_entry(self):
        relay = self.make_detached_relay()
        for search_id in range(FLOW_TABLE_SIZE + 1):
            relay.handle_packet(query_packet(payload=search(search_id)), now_us=search_id)
        assert len(relay.flows) == FLOW_TABLE_SIZE
        assert 0 not in relay.flows and next(iter(relay.flows)) == 1
        relay.on_flow_packet(6064, query_packet(src_ip="10.2.1.32", src_port=5064, payload=response(0)), 0)
        assert relay.counters.replies_forwarded == 0
        assert relay.counters.relayed == FLOW_TABLE_SIZE + 1
        assert relay.counters.flows_evicted == 1


class FlowSends:
    """Transport that keeps the payload and destination of every flow_send, or fails each while ``failing``."""

    def __init__(self):
        self.sent = []
        self.failing = False

    def attach(self, relay):
        del relay

    def flow_send(self, local_port, payload, dst_ip, dst_port):
        if self.failing:
            raise OSError(errno.ENOBUFS, "No buffer space available")
        self.sent.append((payload, dst_ip, dst_port))


class TestSearchIds:
    def make_relay(self):
        config = RelayConfig(target_broadcast="255.255.255.255", mode=RelayMode.PROXY, local_subnet=BEAMLINE)
        transport = FlowSends()
        return Relay(config, transport), transport

    def test_every_response_of_a_reply_gets_its_client_id_back(self):
        # A server answers every name it owns from one search datagram in one
        # reply; each response goes back under the second client's own ID.
        relay, transport = self.make_relay()
        two_names = search(1, "A:PV") + search(2, "B:PV")[16:]
        for port in (44256, 44257):
            relay.handle_packet(query_packet(src_port=port, payload=two_names), now_us=0)
        fresh = [request.search_id for request in find_search_requests(transport.sent[1][0])]
        assert len(set(fresh)) == 2 and not set(fresh) & {1, 2}
        reply = query_packet(src_ip="10.2.1.32", src_port=5064, payload=response(fresh[0]) + response(fresh[1])[16:])
        assert relay.on_flow_packet(6064, reply, now_us=1)
        assert transport.sent[2] == (response(1) + response(2)[16:], "10.2.105.171", 44257)
        assert [flow[3] for flow in relay.flows.values()] == [0, 0, 1, 1]  # both answered flows refreshed

    def test_a_resent_search_keeps_its_relay_id(self):
        # Clients resend a search until it resolves: a rewritten one holds one flow, under one fresh ID,
        # also after the client that held the ID first has gone.
        relay, transport = self.make_relay()
        relay.handle_packet(query_packet(src_port=44256, payload=search(7)), now_us=0)
        for now_us in (1, 2, 3):
            relay.handle_packet(query_packet(src_port=44257, payload=search(7)), now_us=now_us)
        assert len(relay.flows) == 2
        relay.expire_flows(FLOW_IDLE_TIMEOUT_US + 1)
        relay.handle_packet(query_packet(src_port=44257, payload=search(7)), now_us=4)
        assert len(relay.flows) == 1
        resent = {payload for payload, _, _ in transport.sent[1:]}
        assert len(resent) == 1 and resent != {search(7)}


    def test_a_search_that_was_not_sent_opens_no_flow(self):
        # A failed send takes back the flows its search opened, with their entries in the reverse map;
        # a resent search whose send fails keeps the flow its first send opened.
        relay, transport = self.make_relay()
        transport.failing = True
        relay.handle_packet(query_packet(src_port=1000, payload=search(9)), now_us=0)
        assert (relay.flows, relay.counters.send_errors) == ({}, 1)
        transport.failing = False
        relay.handle_packet(query_packet(src_port=1000, payload=search(9)), now_us=1)
        transport.failing = True
        relay.handle_packet(query_packet(src_port=1001, payload=search(9)), now_us=2)  # would take a fresh ID
        relay.handle_packet(query_packet(src_port=1000, payload=search(9)), now_us=3)  # the same search again
        two_names = search(9, "A:PV") + search(10, "B:PV")[16:]
        relay.handle_packet(query_packet(src_port=1002, payload=two_names), now_us=4)
        assert list(relay.flows.items()) == [(9, ("10.2.105.171", 1000, 9, 3))]
        assert relay._renamed == {}
        assert (relay.counters.relayed, relay.counters.send_errors) == (1, 4)


class TestForkModel:
    def test_emission_delayed_by_fork_cost(self):
        net = VirtualNetwork(relay_topology())
        arrival = []
        net.bind("IMX1-HOST2", 5064, "ioc", callback=lambda d: arrival.append(d.time_us))
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            allow_sources=(SOL,),
            local_subnet=BEAMLINE,
            mode=RelayMode.PROXY,
        )
        Relay(config, SimTransport(net, "IMX1-HOST1", request_delay_us=5000))
        client_broadcast(net)
        net.advance_clock(100_000)
        # helper copy: 2 hops; broadcast after the host's fork cost: 1 hop.
        assert arrival == [2 * 200 + 5000 + 200]

    def test_replies_are_not_delayed(self):
        net = VirtualNetwork(relay_topology())
        net.bind("IMX1-HOST2", 5064, "ioc", callback=TestProxyRelayOnSim.ioc_reply(net))
        arrival = []
        net.bind("TesterHEpics", 44256, "client", callback=lambda d: arrival.append(d.time_us))
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            allow_sources=(SOL,),
            local_subnet=BEAMLINE,
            mode=RelayMode.PROXY,
        )
        Relay(config, SimTransport(net, "IMX1-HOST1", request_delay_us=5000))
        client_broadcast(net, payload=search())
        net.advance_clock(100_000)
        # The search waits out the fork cost once; the reply goes back hop by hop.
        assert arrival == [2 * 200 + 5000 + 200 + 200 + 2 * 200]

    def test_a_flow_is_stamped_when_the_relay_handles_its_search(self):
        # It used to be stamped at the search's arrival, the fork cost earlier, so a reply
        # handled in between left the flows out of time order for expire_flows.
        net = VirtualNetwork(relay_topology())
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            allow_sources=(SOL,),
            local_subnet=BEAMLINE,
            mode=RelayMode.PROXY,
        )
        relay = Relay(config, SimTransport(net, "IMX1-HOST1", request_delay_us=5000))
        client_broadcast(net, payload=search())
        net.advance_clock(100_000)
        arrived_us = 2 * 200  # the helper's copy: 2 hops
        assert [flow[3] for flow in relay.flows.values()] == [arrived_us + 5000]


class TestCountersConservation:
    def test_random_injection_mix(self):
        rng = random.Random(11)
        net = VirtualNetwork(relay_topology())
        relay = attach_relay(net, PAPER_CONFIG)
        sources = ["10.2.105.171", "10.2.1.31", "10.2.200.5", "10.2.105.9"]
        for _ in range(300):
            pkt = query_packet(
                src_ip=rng.choice(sources),
                src_port=rng.randrange(1024, 60000),
                dst_port=6064,
            )
            relay.handle_packet(pkt, net.now_us)
        assert relay.counters.received == 300
        assert relay.counters.conserved()
        assert relay.counters.dropped_port == 0

    def test_rate_limit_drops_excess_and_conserves(self):
        net = VirtualNetwork(relay_topology())
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            allow_sources=(SOL,),
            local_subnet=BEAMLINE,
            max_packets_per_second=10,
        )
        relay = attach_relay(net, config)
        for _ in range(25):
            relay.handle_packet(query_packet(), now_us=net.now_us)
        assert relay.counters.relayed == 10
        assert relay.counters.dropped_rate_limited == 15
        assert relay.counters.conserved()


class SendCounts:
    """Transport that notes the relay's relayed and replies_forwarded counts as each send is made."""

    def __init__(self):
        self.seen = []

    def attach(self, relay):
        self.counters = relay.counters

    def emit_spoofed(self, packet):
        self.seen.append((self.counters.relayed, self.counters.replies_forwarded))

    def flow_send(self, local_port, payload, dst_ip, dst_port):
        self.emit_spoofed(None)


def test_a_datagram_is_counted_before_it_is_sent():
    # A reader on another thread who has seen the datagram arrive, as a
    # benchmark's counter snapshot has, must find it counted already.
    spoof, proxy = SendCounts(), SendCounts()
    Relay(PAPER_CONFIG, spoof).handle_packet(query_packet(), now_us=0)
    relay = Relay(dataclasses.replace(PAPER_CONFIG, mode=RelayMode.PROXY), proxy)
    relay.handle_packet(query_packet(payload=search()), now_us=0)
    relay.on_flow_packet(6064, query_packet(src_ip="10.2.1.31", src_port=5064, payload=response()), now_us=0)
    assert spoof.seen == [(1, 0)]
    assert proxy.seen == [(1, 0), (1, 1)]


class TestRelayConfigValidation:
    def test_listen_equals_target_rejected(self):
        with pytest.raises(ValueError):
            RelayConfig(target_broadcast="255.255.255.255", listen_port=5064, target_port=5064, local_subnet=BEAMLINE)

    def test_port_range(self):
        with pytest.raises(ValueError):
            RelayConfig(target_broadcast="255.255.255.255", listen_port=0, local_subnet=BEAMLINE)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target_broadcast", "999.1.1.1"),
            ("target_broadcast", "relay.example"),
            ("target_broadcast", "10.2.511"),
        ],
    )
    def test_values_the_relay_cannot_serve_rejected(self, field, value):
        # A target that encode cannot convert ended the relay at its first search.
        # A short form converts, but names no interface of the simulated network.
        with pytest.raises(ValueError, match=field):
            RelayConfig(**{"target_broadcast": "255.255.255.255", "local_subnet": BEAMLINE, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("local_subnet", "10.0.0.0/8"),
            ("local_subnet", None),
            ("allow_sources", ("10.2.105.0/24",)),
            ("allow_sources", (SOL, "10.2.105.0/24")),
            ("allow_sources", "10.2.105.0/24"),
            ("allow_sources", ""),
        ],
        ids=["subnet-string", "subnet-none", "string-item", "mixed-items", "bare-string", "empty-string"],
    )
    def test_prefixes_must_be_cidrs(self, field, value):
        # A string prefix used to fail on its first use with an AttributeError
        # that named no field.
        with pytest.raises(InvalidRelayConfig, match=field) as excinfo:
            RelayConfig(**{"target_broadcast": "1.2.3.4", "local_subnet": BEAMLINE, field: value})
        assert excinfo.value.field == field

    @pytest.mark.parametrize("value", [0, -1, True, 2.5, "10"])
    def test_a_rate_limit_that_drops_everything_or_is_no_count_rejected(self, value):
        # 0 would drop every datagram, and True passes as an int; none of these is a count of datagrams.
        with pytest.raises(InvalidRelayConfig, match="max_packets_per_second") as excinfo:
            RelayConfig(target_broadcast="255.255.255.255", local_subnet=BEAMLINE, max_packets_per_second=value)
        assert excinfo.value.field == "max_packets_per_second"

    def test_defaults_match_documented_values(self):
        config = RelayConfig(target_broadcast="255.255.255.255", local_subnet=BEAMLINE)
        assert config.listen_port == 6064
        assert config.target_port == 5064
        assert FLOW_IDLE_TIMEOUT_US == 30_000_000


class TestRealTransportPrivilege:
    def test_spoof_without_raw_capability_fails_fast(self):
        real_socket = __import__("socket").socket

        def factory(family, type_, proto=0):
            if type_ == __import__("socket").SOCK_RAW:
                raise PermissionError(1, "Operation not permitted")
            return real_socket(family, type_, proto)

        config = RelayConfig(
            target_broadcast="255.255.255.255",
            listen_port=16064,
            target_port=15064,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        with pytest.raises(PrivilegeRequired) as excinfo:
            RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        assert "proxy" in str(excinfo.value)

    def test_spoof_without_local_subnet_rejected_before_any_socket(self):
        # The loop guard is a required field: no config, so no transport, lacks it.
        with pytest.raises(TypeError, match="local_subnet"):
            RelayConfig(target_broadcast="255.255.255.255", listen_port=16064, target_port=15064)
