import dataclasses
import ipaddress
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PrivilegeRequired,
    Relay,
    RelayConfig,
    RelayMode,
    SimTransport,
    RealUdpTransport,
    Verdict,
    classify,
    rewrite_spoof,
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
        st.one_of(st.none(), prefix),
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

        local = None if local_spec is None else around(*local_spec)
        allow = [around(*spec) for spec in allow_specs]
        config = RelayConfig(
            target_broadcast="255.255.255.255",
            local_subnet=None if local is None else Cidr.parse(str(local)),
            allow_sources=tuple(Cidr.parse(str(net)) for net in allow),
        )
        ip = ipaddress.ip_address(src)
        if dst_port != config.listen_port:
            expected = Verdict.DROP_PORT_MISMATCH
        elif local is not None and ip in local:
            expected = Verdict.DROP_LOCAL_SOURCE
        elif allow and not any(ip in net for net in allow):
            expected = Verdict.DROP_NOT_ALLOWED
        else:
            expected = Verdict.ACCEPT
        assert classify(query_packet(src_ip=str(ip), dst_port=dst_port), config) is expected

    def test_integer_prefixes_stay_outside_the_fields(self):
        assert [f.name for f in dataclasses.fields(RelayConfig)] == [
            "target_broadcast", "listen_port", "target_port", "allow_sources", "local_subnet", "mode",
            "flow_idle_timeout_s", "max_packets_per_second",
        ]
        twin = RelayConfig(**{f.name: getattr(PAPER_CONFIG, f.name) for f in dataclasses.fields(RelayConfig)})
        assert twin == PAPER_CONFIG and hash(twin) == hash(PAPER_CONFIG)
        assert twin != dataclasses.replace(PAPER_CONFIG, local_subnet=None)
        assert repr(PAPER_CONFIG) == (
            "RelayConfig(target_broadcast='255.255.255.255', listen_port=6064, target_port=5064, "
            "allow_sources=(Cidr(base_ip='10.2.105.0', prefix_len=24),), "
            "local_subnet=Cidr(base_ip='10.2.1.0', prefix_len=24), mode=<RelayMode.SPOOF: 'spoof'>, "
            "flow_idle_timeout_s=30.0, max_packets_per_second=None)"
        )

    def test_replace_recomputes_the_integer_prefixes(self):
        swapped = dataclasses.replace(PAPER_CONFIG, local_subnet=SOL, allow_sources=(BEAMLINE,))
        assert classify(query_packet(), swapped) is Verdict.DROP_LOCAL_SOURCE
        assert classify(query_packet(src_ip="10.2.1.5"), swapped) is Verdict.ACCEPT
        open_config = dataclasses.replace(PAPER_CONFIG, local_subnet=None, allow_sources=())
        assert classify(query_packet(src_ip="10.2.1.5"), open_config) is Verdict.ACCEPT


class TestRewriteSpoof:
    def test_paper_flow(self):
        out = rewrite_spoof(query_packet(), PAPER_CONFIG, identification=9)
        assert (out.src_ip, out.src_port) == ("10.2.105.171", 44256)
        assert (out.dst_ip, out.dst_port) == ("255.255.255.255", 5064)

    def test_payload_identity_for_various_lengths(self):
        for n in (0, 1, 40, 48, 1400):
            pkt = query_packet(payload=bytes(range(256)) * (n // 256) + bytes(n % 256))
            out = rewrite_spoof(pkt, PAPER_CONFIG, identification=1)
            assert out.payload == pkt.payload

    def test_double_application_idempotent_on_src_and_payload(self):
        once = rewrite_spoof(query_packet(), PAPER_CONFIG, identification=1)
        twice = rewrite_spoof(once, PAPER_CONFIG, identification=2)
        assert (twice.src_ip, twice.src_port, twice.payload) == (once.src_ip, once.src_port, once.payload)
        assert (twice.dst_ip, twice.dst_port) == (once.dst_ip, once.dst_port)

    def test_ttl_reset_and_fresh_identification(self):
        pkt = query_packet()
        worn = Ipv4UdpPacket(**{**pkt._asdict(), "ttl": 3, "identification": 777})
        out = rewrite_spoof(worn, PAPER_CONFIG, identification=42)
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
            expected = pkt._replace(
                dst_ip=PAPER_CONFIG.target_broadcast,
                dst_port=PAPER_CONFIG.target_port,
                identification=ident,
                ttl=64,
            )
            assert rewrite_spoof(pkt, PAPER_CONFIG, ident) == expected

    def test_checksums_valid_after_rewrite(self):
        out = rewrite_spoof(query_packet(), PAPER_CONFIG, identification=5)
        assert decode(encode(out)) == out

    def test_source_preserved_for_randomized_packets(self):
        rng = random.Random(3)
        for _ in range(200):
            pkt = query_packet(
                src_ip=f"10.2.105.{rng.randrange(1, 255)}",
                src_port=rng.randrange(1024, 65536),
                payload=rng.randbytes(rng.randrange(0, 200)),
            )
            out = rewrite_spoof(pkt, PAPER_CONFIG, identification=1)
            assert (out.src_ip, out.src_port) == (pkt.src_ip, pkt.src_port)


class SpoofRecorder:
    """Transport that keeps each spoofed emission."""

    def __init__(self):
        self.emitted = []

    def attach(self, relay):
        del relay

    def emit_spoofed(self, packet):
        self.emitted.append(packet)


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
        assert decode(wire) == rewrite_spoof(query_packet(src_ip=src_ip), config, ident)


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
    return net.inject("TesterHEpics", pkt)


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
        client_broadcast(net)
        net.advance_clock(10_000)
        (pkt,) = seen
        assert pkt.src_ip == "10.2.1.31"
        assert pkt.src_port >= 40000

    def test_reply_forwarded_back_to_client(self):
        net = VirtualNetwork(relay_topology())
        client_seen = []

        def ioc_reply(delivery):
            reply = Ipv4UdpPacket(
                src_ip="10.2.1.32", dst_ip=delivery.packet.src_ip,
                src_port=5064, dst_port=delivery.packet.src_port,
                payload=b"reply!",
            )
            net.inject("IMX1-HOST2", reply)

        net.bind("IMX1-HOST2", 5064, "ioc", callback=ioc_reply)
        net.bind("TesterHEpics", 44256, "client", callback=lambda d: client_seen.append(d.packet))
        relay = self.make_proxy(net)
        client_broadcast(net)
        net.advance_clock(50_000)
        (pkt,) = client_seen
        assert pkt.payload == b"reply!"
        assert relay.counters.replies_forwarded == 1

    def test_flow_reused_for_same_client(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        for _ in range(5):
            client_broadcast(net, src_port=44256)
            net.advance_clock(5_000)
        assert len(relay.flows) == 1

    def test_flow_table_bounded_by_distinct_clients(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        for i in range(20):
            client_broadcast(net, src_port=50000 + (i % 7))
            net.advance_clock(1_000)
        assert len(relay.flows) == 7

    def test_flows_expire_after_idle_timeout(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        client_broadcast(net)
        net.advance_clock(10_000)
        assert len(relay.flows) == 1
        net.advance_clock(31_000_000)
        assert len(relay.flows) == 0

    def test_thousand_clients_then_timeout_empties_table(self):
        net = VirtualNetwork(relay_topology())
        relay = self.make_proxy(net)
        for i in range(1000):
            client_broadcast(net, src_port=1024 + i)
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
        relay.handle_packet(query_packet(), now_us=0)
        timeout_us = int(relay.config.flow_idle_timeout_s * 1e6)
        assert relay.expire_flows(timeout_us - 1) == 0
        assert relay.expire_flows(timeout_us) == 1
        assert relay.flows == {}

    def test_expired_ports_are_reusable(self):
        relay = self.make_detached_relay()
        relay.handle_packet(query_packet(src_port=1), now_us=0)
        first_port = next(iter(relay.flows.values())).relay_local_port
        relay.expire_flows(int(relay.config.flow_idle_timeout_s * 1e6))
        relay.handle_packet(query_packet(src_port=2), now_us=0)
        assert next(iter(relay.flows.values())).relay_local_port == first_port

    def test_flow_ports_distinct_after_a_middle_port_is_freed(self):
        transport = self.make_detached_relay().transport
        first = [transport.open_flow() for _ in range(3)]
        transport.close_flow(first[1])
        live = [first[0], first[2], transport.open_flow(), transport.open_flow()]
        assert len(set(live)) == 4


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


class TestRelayConfigValidation:
    def test_listen_equals_target_rejected(self):
        with pytest.raises(ValueError):
            RelayConfig(target_broadcast="255.255.255.255", listen_port=5064, target_port=5064)

    def test_port_range(self):
        with pytest.raises(ValueError):
            RelayConfig(target_broadcast="255.255.255.255", listen_port=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flow_idle_timeout_s", math.inf),
            ("flow_idle_timeout_s", math.nan),
            ("target_broadcast", "999.1.1.1"),
            ("target_broadcast", "relay.example"),
        ],
    )
    def test_values_the_relay_cannot_serve_rejected(self, field, value):
        # An infinite or NaN timeout ended the relay at its first expiry
        # tick, and a target encode cannot convert at its first search.
        with pytest.raises(ValueError, match=field.removesuffix("_s")):
            RelayConfig(**{"target_broadcast": "255.255.255.255", field: value})

    def test_defaults_match_documented_values(self):
        config = RelayConfig(target_broadcast="255.255.255.255")
        assert config.listen_port == 6064
        assert config.target_port == 5064
        assert config.flow_idle_timeout_s == 30.0


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
        created = []

        def factory(*args):
            created.append(args)
            raise AssertionError("no socket may be created")

        config = RelayConfig(target_broadcast="255.255.255.255", listen_port=16064, target_port=15064)
        with pytest.raises(ValueError, match="local_subnet"):
            RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        assert created == []
