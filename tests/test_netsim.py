import random

import pytest

from carelay.netsim import (
    BroadcastDomain,
    ChannelRefused,
    HelperRule,
    Interface,
    NetsimError,
    NoRoute,
    PreroutingRule,
    UnknownHost,
    VirtualHost,
    VirtualNetwork,
    VirtualTopology,
)
from carelay.packet import Cidr, Ipv4UdpPacket, encode, decode

BEAMLINE = Cidr("10.2.1.0", 24)
SOL = Cidr("10.2.105.0", 24)


def make_topology(helper_destinations=("10.2.1.31",), jitter_us=0, prerouting=None):
    return VirtualTopology(
        domains=[
            BroadcastDomain("beamline", BEAMLINE),
            BroadcastDomain("sol", SOL),
        ],
        hosts=[
            VirtualHost(
                "IMX1-HOST1",
                [Interface("10.2.1.31", BEAMLINE)],
                prerouting_rules=list(prerouting or []),
            ),
            VirtualHost("IMX1-HOST2", [Interface("10.2.1.32", BEAMLINE)]),
            VirtualHost("TesterHEpics", [Interface("10.2.105.171", SOL)]),
        ],
        helper_rules=[HelperRule("sol", 5064, tuple(helper_destinations))],
        jitter_us=jitter_us,
    )


def search_packet(dst_ip, dst_port=5064, src_ip="10.2.105.171", src_port=35687, payload=b"x" * 48):
    return Ipv4UdpPacket(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port, payload=payload)


def bind_seven_iocs(net, host="IMX1-HOST1"):
    return [net.bind(host, 5064, f"ioc-{i}") for i in range(1, 8)]


class TestBind:
    def test_seven_bindings_sequenced_1_to_7(self):
        net = VirtualNetwork(make_topology())
        bindings = bind_seven_iocs(net)
        assert [b.bind_sequence for b in bindings] == [1, 2, 3, 4, 5, 6, 7]

    def test_two_hosts_have_independent_sequences(self):
        net = VirtualNetwork(make_topology())
        b1 = net.bind("IMX1-HOST1", 5064, "a")
        b2 = net.bind("IMX1-HOST2", 5064, "b")
        assert b1.bind_sequence == 1
        assert b2.bind_sequence == 1

    def test_unknown_host(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(UnknownHost):
            net.bind("NOPE", 5064, "x")

    def test_last_binder_is_the_last_bound_after_unbinds(self):
        net = VirtualNetwork(make_topology())
        first, second, third = (net.bind("IMX1-HOST1", 5064, name) for name in "abc")
        net.unbind("IMX1-HOST1", third)
        pkt = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        assert [d.binding for d in net.inject("IMX1-HOST2", pkt)] == [second]
        net.unbind("IMX1-HOST1", first)
        net.unbind("IMX1-HOST1", second)
        assert net.inject("IMX1-HOST2", pkt) == []
        assert net.host("IMX1-HOST1").bindings == {}

    def test_unbind_frees_binding_but_not_sequence(self):
        net = VirtualNetwork(make_topology())
        b1 = net.bind("IMX1-HOST1", 5064, "a")
        net.unbind("IMX1-HOST1", b1)
        b2 = net.bind("IMX1-HOST1", 5064, "b")
        assert b2.bind_sequence == 2
        assert net.host("IMX1-HOST1").bindings == {5064: [b2]}


class TestBroadcastDelivery:
    def test_directed_broadcast_reaches_all_seven_bindings(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        pkt = search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000)
        deliveries = net.inject("IMX1-HOST2", pkt)
        assert len(deliveries) == 7
        assert {d.binding.owner for d in deliveries} == {f"ioc-{i}" for i in range(1, 8)}

    def test_limited_broadcast_within_sender_domain(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        net.bind("IMX1-HOST2", 5064, "ioc-h2")
        pkt = search_packet("255.255.255.255", src_ip="10.2.1.31", src_port=4000)
        deliveries = net.inject("IMX1-HOST1", pkt)
        assert len(deliveries) == 8  # both beamline hosts, no sol hosts

    def test_broadcast_does_not_cross_domains(self):
        net = VirtualNetwork(make_topology(helper_destinations=("10.2.1.31",)))
        bind_seven_iocs(net)
        net.bind("TesterHEpics", 9999, "client")
        pkt = search_packet("10.2.105.255", dst_port=9999)
        deliveries = net.inject("TesterHEpics", pkt)
        # Port 9999 has no helper rule, so nothing reaches the beamline.
        assert {d.host for d in deliveries} == {"TesterHEpics"}

    def test_sender_receives_own_broadcast(self):
        net = VirtualNetwork(make_topology())
        net.bind("IMX1-HOST1", 5064, "ioc")
        pkt = search_packet("10.2.1.255", src_ip="10.2.1.31", src_port=4000)
        assert len(net.inject("IMX1-HOST1", pkt)) == 1


class TestHelperRule:
    def test_broadcast_converted_to_unicast_copy(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        pkt = search_packet("10.2.105.255")
        deliveries = net.inject("TesterHEpics", pkt)
        # No sol bindings on 5064, so the only delivery is the helper copy.
        assert len(deliveries) == 1
        d = deliveries[0]
        assert d.host == "IMX1-HOST1"
        assert d.wire_dst_ip == "10.2.1.31"

    def test_helper_preserves_source_and_payload(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        pkt = search_packet("10.2.105.255", payload=b"SEARCH-PAYLOAD-1")
        d = net.inject("TesterHEpics", pkt)[0]
        assert (d.packet.src_ip, d.packet.src_port) == ("10.2.105.171", 35687)
        assert d.packet.payload == pkt.payload
        assert d.packet.dst_ip == "10.2.1.31"
        # Checksums are consistent with the rewritten header.
        assert decode(encode(d.packet)) == d.packet

    def test_helper_fans_out_to_multiple_destinations(self):
        net = VirtualNetwork(make_topology(helper_destinations=("10.2.1.31", "10.2.1.32")))
        net.bind("IMX1-HOST1", 5064, "a")
        net.bind("IMX1-HOST2", 5064, "b")
        deliveries = net.inject("TesterHEpics", search_packet("10.2.105.255"))
        assert {d.host for d in deliveries} == {"IMX1-HOST1", "IMX1-HOST2"}

    def test_helper_ignores_other_ports(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        assert net.inject("TesterHEpics", search_packet("10.2.105.255", dst_port=5065)) == []


class TestUnicastDelivery:
    def test_last_binder_only(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        deliveries = net.inject("TesterHEpics", search_packet("10.2.1.31"))
        assert len(deliveries) == 1
        assert deliveries[0].binding.bind_sequence == 7

    def test_prerouting_limited_broadcast_delivers_to_all(self):
        rule = PreroutingRule(5064, "255.255.255.255", 5064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bind_seven_iocs(net)
        deliveries = net.inject("TesterHEpics", search_packet("10.2.1.31"))
        assert len(deliveries) == 7
        # Wire view keeps the unicast destination; endpoints see the rewrite.
        assert all(d.wire_dst_ip == "10.2.1.31" for d in deliveries)
        assert all(d.packet.dst_ip == "255.255.255.255" for d in deliveries)

    def test_prerouting_rewrite_is_local_only(self):
        # The defining limitation: the rewrite never re-emits onto the wire,
        # so another host's bindings see nothing.
        rule = PreroutingRule(5064, "255.255.255.255", 5064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bind_seven_iocs(net)
        net.bind("IMX1-HOST2", 5064, "ioc-h2")
        deliveries = net.inject("TesterHEpics", search_packet("10.2.1.31"))
        assert {d.host for d in deliveries} == {"IMX1-HOST1"}

    def test_prerouting_negate_src_exempts_local_sources(self):
        rule = PreroutingRule(5064, "255.255.255.255", 5064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bind_seven_iocs(net)
        pkt = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        deliveries = net.inject("IMX1-HOST2", pkt)
        assert len(deliveries) == 1
        assert deliveries[0].binding.bind_sequence == 7

    def test_prerouting_port_redirect_to_own_address(self):
        rule = PreroutingRule(5064, "10.2.1.31", 6064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bind_seven_iocs(net)
        relay_binding = net.bind("IMX1-HOST1", 6064, "relay")
        deliveries = net.inject("TesterHEpics", search_packet("10.2.1.31"))
        assert len(deliveries) == 1
        assert deliveries[0].binding is relay_binding
        assert deliveries[0].packet.dst_port == 6064
        assert deliveries[0].wire_dst_port == 5064

    def test_prerouting_forward_to_other_host(self):
        rule = PreroutingRule(5064, "10.2.1.32", 5064, negate_src=None)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        net.bind("IMX1-HOST2", 5064, "ioc-h2")
        deliveries = net.inject("TesterHEpics", search_packet("10.2.1.31"))
        assert len(deliveries) == 1
        assert deliveries[0].host == "IMX1-HOST2"
        assert deliveries[0].packet.ttl == 63  # one forwarding hop spent

    # Each hop changes only the fields it names; the header fields no hop
    # touches (identification, DSCP/ECN, flags and fragment offset) survive.
    @pytest.mark.parametrize(
        "prerouting, bind, dst_ip, changed",
        [
            pytest.param([], ("IMX1-HOST1", 5064), "10.2.105.255", {"dst_ip": "10.2.1.31"}, id="helper-copy"),
            pytest.param(
                [PreroutingRule(5064, "10.2.1.31", 6064, negate_src=BEAMLINE)],
                ("IMX1-HOST1", 6064), "10.2.1.31", {"dst_port": 6064}, id="prerouting-local",
            ),
            pytest.param(
                [PreroutingRule(5064, "10.2.1.32", 5064, negate_src=None)],
                ("IMX1-HOST2", 5064), "10.2.1.31", {"dst_ip": "10.2.1.32", "ttl": 16}, id="prerouting-forward",
            ),
        ],
    )
    def test_hop_changes_only_its_own_fields(self, prerouting, bind, dst_ip, changed):
        net = VirtualNetwork(make_topology(prerouting=prerouting))
        net.bind(*bind, "ioc")
        pkt = search_packet(dst_ip)._replace(ttl=17, identification=0xBEEF, dscp_ecn=0xB8, flags_fragment=0x4000)
        deliveries = net.inject("TesterHEpics", pkt)
        assert [d.packet for d in deliveries] == [pkt._replace(**changed)]

    def test_no_route(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(NoRoute):
            net.inject("TesterHEpics", search_packet("10.9.9.9"))

    def test_unicast_to_bindingless_port_disappears(self):
        net = VirtualNetwork(make_topology())
        assert net.inject("TesterHEpics", search_packet("10.2.1.31", dst_port=7777)) == []


class TestClock:
    def test_advance_with_no_pending_deliveries(self):
        net = VirtualNetwork(make_topology())
        assert net.advance_clock(1000) == []
        assert net.now_us == 1000

    def test_window_boundary(self):
        net = VirtualNetwork(make_topology())
        fired = []
        net.call_at(10, lambda: fired.append(10))
        net.call_at(20, lambda: fired.append(20))
        net.advance_clock(15)
        assert fired == [10]
        assert net.now_us == 15
        net.advance_clock(5)
        assert fired == [10, 20]

    def test_deliveries_fire_in_timestamp_then_injection_order(self):
        net = VirtualNetwork(make_topology())
        net.bind("IMX1-HOST1", 5064, "a", callback=None)
        first = net.inject("IMX1-HOST2", search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=1))
        second = net.inject("IMX1-HOST2", search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=2))
        assert first[0].time_us == second[0].time_us
        fired = net.advance_clock(1000)
        assert [d.packet.src_port for d in fired] == [1, 2]

    def test_same_seed_same_delivery_log(self):
        def run(seed):
            net = VirtualNetwork(make_topology(jitter_us=50), seed=seed)
            bind_seven_iocs(net)
            for i in range(5):
                net.inject("TesterHEpics", search_packet("10.2.105.255", src_port=35000 + i))
            net.advance_clock(100_000)
            return [(d.time_us, d.host, d.binding.owner, d.packet.src_port) for d in net.delivery_log]

        assert run(7) == run(7)

    def test_different_seed_changes_jittered_times(self):
        def times(seed):
            net = VirtualNetwork(make_topology(jitter_us=100), seed=seed)
            bind_seven_iocs(net)
            net.inject("TesterHEpics", search_packet("10.2.105.255"))
            return [d.time_us for d in net.advance_clock(100_000)]

        assert times(1) != times(2)

    @pytest.mark.parametrize("jitter_us", [0, 1, 7, 8, 10, 1000])
    def test_jitter_draws_what_randint_draws(self, jitter_us):
        for seed in (0, 1, 7):
            net = VirtualNetwork(make_topology(jitter_us=jitter_us), seed=seed)
            reference = random.Random(seed)
            assert [net._jitter() for _ in range(300)] == [reference.randint(0, jitter_us) for _ in range(300)]

    def test_calls_in_turn_break_ties_as_if_queued_at_once(self):
        net = VirtualNetwork(make_topology())
        fired = []

        def call(label, go_on=True):
            return lambda: fired.append(label) or go_on

        net.call_in_turn([(10, call("first")), (20, call("second")), (30, call("third"))])
        # Queued after the chain was made, so it fires after the chain's call
        # at the same time, although that call is queued only at time 10.
        net.call_at(20, call("later"))
        net.advance_clock(100)
        assert fired == ["first", "second", "later", "third"]

    def test_a_call_returning_false_ends_the_chain(self):
        net = VirtualNetwork(make_topology())
        fired = []
        cancel = net.call_in_turn([(10, lambda: fired.append(1)), (20, lambda: fired.append(2) or True)])
        net.advance_clock(100)
        assert fired == [1]
        assert net._queue == []
        cancel()  # nothing left to remove

    def test_cancel_removes_the_queued_call(self):
        net = VirtualNetwork(make_topology())
        fired = []
        net.call_at(50, lambda: fired.append("other"))
        cancel = net.call_in_turn([(10, lambda: fired.append(1) or True), (20, lambda: fired.append(2))])
        net.advance_clock(15)
        cancel()
        assert len(net._queue) == 1
        net.advance_clock(100)
        assert fired == [1, "other"]

    def test_callback_cascade_within_window(self):
        net = VirtualNetwork(make_topology())
        seen = []

        def respond(delivery):
            seen.append(delivery.packet.dst_port)
            if delivery.packet.dst_port == 5064:
                reply = Ipv4UdpPacket(
                    src_ip="10.2.1.31", dst_ip="10.2.105.171", src_port=5064,
                    dst_port=9000, payload=b"r",
                )
                net.inject("IMX1-HOST1", reply)

        net.bind("IMX1-HOST1", 5064, "ioc", callback=respond)
        net.bind("TesterHEpics", 9000, "client", callback=lambda d: seen.append("reply"))
        net.inject("TesterHEpics", search_packet("10.2.1.31"))
        net.advance_clock(10_000)
        assert seen == [5064, "reply"]


class TestChannels:
    def test_in_order_duplex_messaging(self):
        net = VirtualNetwork(make_topology())
        got_server, got_client = [], []

        def acceptor(side, peer_host):
            side.on_message = lambda payload: (got_server.append(payload), side.send(b"ack:" + payload))

        net.register_channel_listener("10.2.1.31", 5901, acceptor)
        side = net.open_channel("TesterHEpics", "10.2.1.31", 5901)
        side.on_message = got_client.append
        side.send(b"one")
        side.send(b"two")
        net.advance_clock(10_000)
        assert got_server == [b"one", b"two"]
        assert got_client == [b"ack:one", b"ack:two"]

    def test_a_second_listener_on_one_address_is_refused(self):
        net = VirtualNetwork(make_topology())
        accepted = []
        net.register_channel_listener("10.2.1.31", 5901, lambda side, peer: accepted.append("first"))
        with pytest.raises(NetsimError, match="10.2.1.31:5901"):
            net.register_channel_listener("10.2.1.31", 5901, lambda side, peer: accepted.append("second"))
        net.open_channel("TesterHEpics", "10.2.1.31", 5901)
        assert accepted == ["first"]

    def test_refused_when_nothing_listens(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(ChannelRefused):
            net.open_channel("TesterHEpics", "10.2.1.31", 5901)

    def test_cross_domain_channel_pays_two_hops(self):
        net = VirtualNetwork(make_topology())
        times = []
        net.register_channel_listener(
            "10.2.1.31", 5901, lambda side, peer: setattr(side, "on_message", lambda _: times.append(net.now_us))
        )
        side = net.open_channel("TesterHEpics", "10.2.1.31", 5901)
        side.send(b"x")
        net.advance_clock(10_000)
        assert times == [2 * net.topology.per_hop_delay_us]


class TestTopologyValidation:
    def test_duplicate_interface_ip_rejected(self):
        topo = make_topology()
        topo.hosts[1].interfaces = [Interface("10.2.1.31", BEAMLINE)]
        with pytest.raises(ValueError):
            VirtualNetwork(topo)

    def test_interface_without_domain_rejected(self):
        topo = make_topology()
        topo.hosts[0].interfaces = [Interface("192.168.0.1", Cidr("192.168.0.0", 24))]
        with pytest.raises(ValueError):
            VirtualNetwork(topo)

    def test_host_without_interfaces_rejected(self):
        topo = make_topology()
        topo.hosts[0].interfaces = []
        with pytest.raises(ValueError):
            VirtualNetwork(topo)

    def test_helper_rule_needs_destinations(self):
        with pytest.raises(ValueError):
            HelperRule("sol", 5064, ())


def test_trace_lines_look_like_a_capture():
    net = VirtualNetwork(make_topology())
    bind_seven_iocs(net)
    net.inject("TesterHEpics", search_packet("10.2.105.255"))
    net.advance_clock(10_000)
    (line,) = net.trace_lines()
    assert line == "00:00:00.000400 IP 10.2.105.171.35687 > 10.2.1.31.5064: UDP, length 48"
