import heapq
import random
from types import SimpleNamespace

import pytest

from carelay import bench, netsim
from carelay.netsim import (
    LIMITED_BROADCAST,
    BroadcastDomain,
    ChannelRefused,
    Delivery,
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


def delivered(net, source_host, packet):
    """The deliveries the packet makes, in the order they fire, once the clock has run past them."""
    logged = len(net.delivery_log)
    net.inject(source_host, packet)
    net.advance_clock(10_000)
    return net.delivery_log[logged:]


def bind_seven_iocs(net, host="IMX1-HOST1"):
    return [net.bind(host, 5064, f"ioc-{i}") for i in range(1, 8)]


class TestBind:
    def test_seven_bindings_sequenced_1_to_7(self):
        # A broadcast reaches them in bind order; a unicast only the last bound.
        net = VirtualNetwork(make_topology())
        bindings = bind_seven_iocs(net)
        broadcast = search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000)
        assert [d.binding for d in delivered(net, "IMX1-HOST2", broadcast)] == bindings
        unicast = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        assert [d.binding for d in delivered(net, "IMX1-HOST2", unicast)] == [bindings[-1]]

    def test_two_hosts_have_independent_sequences(self):
        # A binding on one host does not make it the last binder on another.
        net = VirtualNetwork(make_topology())
        b1 = net.bind("IMX1-HOST1", 5064, "a")
        b2 = net.bind("IMX1-HOST2", 5064, "b")
        assert [d.binding for d in delivered(net, "TesterHEpics", search_packet("10.2.1.31"))] == [b1]
        assert [d.binding for d in delivered(net, "TesterHEpics", search_packet("10.2.1.32"))] == [b2]

    def test_unknown_host(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(UnknownHost):
            net.bind("NOPE", 5064, "x")
        with pytest.raises(UnknownHost):
            net.inject("NOPE", search_packet("10.2.1.31"))

    def test_last_binder_is_the_last_bound_after_unbinds(self):
        net = VirtualNetwork(make_topology())
        first, second, third = (net.bind("IMX1-HOST1", 5064, name) for name in "abc")
        net.unbind("IMX1-HOST1", third)
        pkt = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        assert [d.binding for d in delivered(net, "IMX1-HOST2", pkt)] == [second]
        net.unbind("IMX1-HOST1", first)
        net.unbind("IMX1-HOST1", second)
        assert delivered(net, "IMX1-HOST2", pkt) == []
        broadcast = pkt._replace(dst_ip="10.2.1.255")
        assert delivered(net, "IMX1-HOST2", broadcast) == []

    def test_unbind_frees_binding_but_not_sequence(self):
        # Unbinding removes that binding only, even when one with its port and owner remains.
        net = VirtualNetwork(make_topology())
        b1 = net.bind("IMX1-HOST1", 5064, "a")
        b2 = net.bind("IMX1-HOST1", 5064, "a")
        net.unbind("IMX1-HOST1", b2)
        b3 = net.bind("IMX1-HOST1", 5064, "b")
        broadcast = search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000)
        assert [d.binding for d in delivered(net, "IMX1-HOST2", broadcast)] == [b1, b3]

    def test_a_binding_belongs_to_its_network_not_the_topology(self):
        topology = make_topology()
        VirtualNetwork(topology).bind("IMX1-HOST1", 5064, "x")
        assert delivered(VirtualNetwork(topology), "TesterHEpics", search_packet("10.2.1.31")) == []


class TestBroadcastDelivery:
    def test_directed_broadcast_reaches_all_seven_bindings(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        pkt = search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000)
        deliveries = delivered(net, "IMX1-HOST2", pkt)
        assert len(deliveries) == 7
        assert {d.binding.owner for d in deliveries} == {f"ioc-{i}" for i in range(1, 8)}

    def test_limited_broadcast_within_sender_domain(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        net.bind("IMX1-HOST2", 5064, "ioc-h2")
        pkt = search_packet("255.255.255.255", src_ip="10.2.1.31", src_port=4000)
        deliveries = delivered(net, "IMX1-HOST1", pkt)
        assert len(deliveries) == 8  # both beamline hosts, no sol hosts

    def test_broadcast_does_not_cross_domains(self):
        net = VirtualNetwork(make_topology(helper_destinations=("10.2.1.31",)))
        bind_seven_iocs(net)
        net.bind("TesterHEpics", 9999, "client")
        pkt = search_packet("10.2.105.255", dst_port=9999)
        deliveries = delivered(net, "TesterHEpics", pkt)
        # Port 9999 has no helper rule, so nothing reaches the beamline.
        assert {d.host for d in deliveries} == {"TesterHEpics"}

    def test_sender_receives_own_broadcast(self):
        net = VirtualNetwork(make_topology())
        net.bind("IMX1-HOST1", 5064, "ioc")
        pkt = search_packet("10.2.1.255", src_ip="10.2.1.31", src_port=4000)
        assert len(delivered(net, "IMX1-HOST1", pkt)) == 1

    def test_a_directed_broadcast_from_another_domain_is_not_delivered(self):
        # No router forwards it, so neither the sol hosts nor sol's helper see a broadcast;
        # it used to reach the sender itself and a helper copy to 10.2.1.31.
        net = VirtualNetwork(bench.paper_topology())
        for host in net.topology.hosts:
            net.bind(host.name, 5064, host.name)
        assert delivered(net, "TesterHEpics", search_packet("10.2.1.255")) == []


class TestHelperRule:
    def test_broadcast_converted_to_unicast_copy(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        pkt = search_packet("10.2.105.255")
        deliveries = delivered(net, "TesterHEpics", pkt)
        # No sol bindings on 5064, so the only delivery is the helper copy.
        assert len(deliveries) == 1
        d = deliveries[0]
        assert d.host == "IMX1-HOST1"
        assert d.wire_dst_ip == "10.2.1.31"

    def test_helper_preserves_source_and_payload(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        pkt = search_packet("10.2.105.255", payload=b"SEARCH-PAYLOAD-1")
        d = delivered(net, "TesterHEpics", pkt)[0]
        assert (d.packet.src_ip, d.packet.src_port) == ("10.2.105.171", 35687)
        assert d.packet.payload == pkt.payload
        assert d.packet.dst_ip == "10.2.1.31"
        # Checksums are consistent with the rewritten header.
        assert decode(encode(d.packet)) == d.packet

    def test_helper_fans_out_to_multiple_destinations(self):
        net = VirtualNetwork(make_topology(helper_destinations=("10.2.1.31", "10.2.1.32")))
        net.bind("IMX1-HOST1", 5064, "a")
        net.bind("IMX1-HOST2", 5064, "b")
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.105.255"))
        assert {d.host for d in deliveries} == {"IMX1-HOST1", "IMX1-HOST2"}

    def test_helper_ignores_other_ports(self):
        net = VirtualNetwork(make_topology())
        bind_seven_iocs(net)
        assert delivered(net, "TesterHEpics", search_packet("10.2.105.255", dst_port=5065)) == []

    def test_a_rule_for_another_port_or_another_domain_makes_no_copy(self):
        topology = make_topology()
        topology.helper_rules = [
            HelperRule("beamline", 5064, ("10.2.105.171",)),
            HelperRule("sol", 5065, ("10.2.1.31",)),
        ]
        net = VirtualNetwork(topology)
        for host in ("IMX1-HOST1", "IMX1-HOST2", "TesterHEpics"):
            for port in (5064, 5065):
                net.bind(host, port, host)
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.105.255"))
        assert [(d.host, d.wire_dst_ip) for d in deliveries] == [("TesterHEpics", "10.2.105.255")]

    def test_a_topology_without_helper_rules_delivers_broadcasts_and_unicasts(self):
        topology = make_topology()
        topology.helper_rules = []
        net = VirtualNetwork(topology)
        for host in ("IMX1-HOST1", "IMX1-HOST2", "TesterHEpics"):
            net.bind(host, 5064, host)
        sol = delivered(net, "TesterHEpics", search_packet("10.2.105.255"))
        assert [d.host for d in sol] == ["TesterHEpics"]
        beamline = delivered(net, "IMX1-HOST2", search_packet("10.2.1.255", src_ip="10.2.1.32"))
        assert [d.host for d in beamline] == ["IMX1-HOST1", "IMX1-HOST2"]
        unicast = delivered(net, "TesterHEpics", search_packet("10.2.1.31"))
        assert [(d.host, d.wire_dst_ip) for d in unicast] == [("IMX1-HOST1", "10.2.1.31")]

    def test_rules_sharing_a_domain_and_port_copy_in_rule_order(self):
        # The copies draw their jitter in rule order, then destination order,
        # skipping the rule for another port; the times, in firing order, are pinned.
        topology = make_topology(jitter_us=100)
        topology.helper_rules = [
            HelperRule("sol", 5064, ("10.2.1.32",)),
            HelperRule("sol", 5065, ("10.2.1.31",)),
            HelperRule("sol", 5064, ("10.2.1.31", "10.2.1.32")),
        ]
        net = VirtualNetwork(topology, seed=3)
        for host in ("IMX1-HOST1", "IMX1-HOST2", "TesterHEpics"):
            net.bind(host, 5064, host)
        for src_port in (35000, 35001):
            net.inject("TesterHEpics", search_packet("10.2.105.255", src_port=src_port))
            net.advance_clock(1000)
        assert [(d.time_us, d.host, d.wire_dst_ip) for d in net.delivery_log] == [
            (230, "TesterHEpics", "10.2.105.255"), (416, "IMX1-HOST2", "10.2.1.32"),
            (469, "IMX1-HOST1", "10.2.1.31"), (475, "IMX1-HOST2", "10.2.1.32"),
            (1247, "TesterHEpics", "10.2.105.255"), (1460, "IMX1-HOST1", "10.2.1.31"),
            (1477, "IMX1-HOST2", "10.2.1.32"), (1480, "IMX1-HOST2", "10.2.1.32"),
        ]


class TestPositionalDeliveries:
    # Each routing path builds its deliveries with new_record; each must equal
    # the constructor's build in type and in every field.

    @staticmethod
    def check(built, expected):
        assert [type(d) for d in built] == [Delivery] * len(expected)
        assert [d._asdict() for d in built] == [d._asdict() for d in expected]

    def test_broadcast(self):
        net = VirtualNetwork(make_topology())
        bindings = bind_seven_iocs(net)
        pkt = search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000)
        expected = [
            Delivery(
                time_us=200, host="IMX1-HOST1", binding=b, packet=pkt, wire_dst_ip="10.2.1.255", wire_dst_port=5064
            )
            for b in bindings
        ]
        self.check(delivered(net, "IMX1-HOST2", pkt), expected)

    def test_unicast_to_the_last_binder(self):
        net = VirtualNetwork(make_topology())
        bindings = bind_seven_iocs(net)
        pkt = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        expected = Delivery(
            time_us=200, host="IMX1-HOST1", binding=bindings[-1], packet=pkt,
            wire_dst_ip="10.2.1.31", wire_dst_port=5064,
        )
        self.check(delivered(net, "IMX1-HOST2", pkt), [expected])

    def test_rewrite_to_the_limited_broadcast(self):
        rule = PreroutingRule(match_dst_port=5064, new_dst_ip=LIMITED_BROADCAST, new_dst_port=5064)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bindings = bind_seven_iocs(net)
        pkt = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        seen = pkt._replace(dst_ip=LIMITED_BROADCAST)
        expected = [
            Delivery(200, "IMX1-HOST1", b, packet=seen, wire_dst_ip="10.2.1.31", wire_dst_port=5064)
            for b in bindings
        ]
        self.check(delivered(net, "IMX1-HOST2", pkt), expected)


class TestUnicastDelivery:
    def test_last_binder_only(self):
        net = VirtualNetwork(make_topology())
        bindings = bind_seven_iocs(net)
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.1.31"))
        assert len(deliveries) == 1
        assert deliveries[0].binding is bindings[-1]

    def test_prerouting_limited_broadcast_delivers_to_all(self):
        rule = PreroutingRule(5064, "255.255.255.255", 5064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bind_seven_iocs(net)
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.1.31"))
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
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.1.31"))
        assert {d.host for d in deliveries} == {"IMX1-HOST1"}

    def test_prerouting_negate_src_exempts_local_sources(self):
        rule = PreroutingRule(5064, "255.255.255.255", 5064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bindings = bind_seven_iocs(net)
        pkt = search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=4000)
        deliveries = delivered(net, "IMX1-HOST2", pkt)
        assert len(deliveries) == 1
        assert deliveries[0].binding is bindings[-1]

    def test_prerouting_port_redirect_to_own_address(self):
        rule = PreroutingRule(5064, "10.2.1.31", 6064, negate_src=BEAMLINE)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        bind_seven_iocs(net)
        relay_binding = net.bind("IMX1-HOST1", 6064, "relay")
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.1.31"))
        assert len(deliveries) == 1
        assert deliveries[0].binding is relay_binding
        assert deliveries[0].packet.dst_port == 6064
        assert deliveries[0].wire_dst_port == 5064

    def test_prerouting_forward_to_other_host(self):
        rule = PreroutingRule(5064, "10.2.1.32", 5064, negate_src=None)
        net = VirtualNetwork(make_topology(prerouting=[rule]))
        net.bind("IMX1-HOST2", 5064, "ioc-h2")
        deliveries = delivered(net, "TesterHEpics", search_packet("10.2.1.31"))
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
        deliveries = delivered(net, "TesterHEpics", pkt)
        assert [d.packet for d in deliveries] == [pkt._replace(**changed)]

    def test_each_packet_takes_the_first_rule_that_applies_to_it(self):
        # Rules are tried in list order: an outside source takes the first
        # 5064 rule, an inside one the second, and 5065 its own rule.
        rules = [
            PreroutingRule(5064, "10.2.1.31", 6064, negate_src=BEAMLINE),
            PreroutingRule(5065, "10.2.1.31", 7064),
            PreroutingRule(5064, "255.255.255.255", 5064),
        ]
        net = VirtualNetwork(make_topology(prerouting=rules))
        for port, owner in ((5064, "a"), (5064, "b"), (6064, "relay"), (7064, "other"), (5066, "plain")):
            net.bind("IMX1-HOST1", port, owner)
        sent = [
            ("TesterHEpics", search_packet("10.2.1.31")),
            ("IMX1-HOST2", search_packet("10.2.1.31", src_ip="10.2.1.32")),
            ("TesterHEpics", search_packet("10.2.1.31", dst_port=5065)),
            ("IMX1-HOST2", search_packet("10.2.1.31", dst_port=5065, src_ip="10.2.1.32")),
            ("TesterHEpics", search_packet("10.2.1.31", dst_port=5066)),
        ]
        received = [[(d.binding.owner, d.packet.dst_port) for d in delivered(net, *each)] for each in sent]
        assert received == [
            [("relay", 6064)], [("a", 5064), ("b", 5064)], [("other", 7064)], [("other", 7064)], [("plain", 5066)],
        ]

    def test_no_route(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(NoRoute):
            net.inject("TesterHEpics", search_packet("10.9.9.9"))

    def test_unicast_to_bindingless_port_disappears(self):
        net = VirtualNetwork(make_topology())
        assert delivered(net, "TesterHEpics", search_packet("10.2.1.31", dst_port=7777)) == []


class TestClock:
    def test_advance_with_no_pending_deliveries(self):
        net = VirtualNetwork(make_topology())
        net.advance_clock(1000)
        assert net.delivery_log == []
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
        for src_port in (2, 1):
            net.inject("IMX1-HOST2", search_packet("10.2.1.31", src_ip="10.2.1.32", src_port=src_port))
        net.advance_clock(1000)
        assert [(d.time_us, d.packet.src_port) for d in net.delivery_log] == [(200, 2), (200, 1)]

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
            net.advance_clock(100_000)
            return [d.time_us for d in net.delivery_log]

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
            return lambda arg: fired.append((label, arg)) or go_on

        net.call_in_turn(5, [(5, call("first")), (15, call("second")), (25, call("third"))], "arg")
        # Queued after the chain was made, so it fires after the chain's call
        # at the same time, although that call is queued only at time 10.
        net.call_at(20, lambda: fired.append(("later", None)))
        net.advance_clock(100)
        assert fired == [("first", "arg"), ("second", "arg"), ("later", None), ("third", "arg")]

    def test_a_call_returning_false_ends_the_chain(self):
        net = VirtualNetwork(make_topology())
        fired = []
        cancel = net.call_in_turn(0, [(10, lambda _: fired.append(1)), (20, lambda _: fired.append(2) or True)], None)
        net.advance_clock(100)
        assert fired == [1]
        assert net._queue == []
        cancel()  # nothing left to remove

    def test_cancel_removes_the_queued_call(self):
        net = VirtualNetwork(make_topology())
        fired = []
        net.call_at(50, lambda: fired.append("other"))
        cancel = net.call_in_turn(0, [(10, lambda _: fired.append(1) or True), (20, lambda _: fired.append(2))], None)
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


class TestHostArrivals:
    def test_a_broadcast_to_seven_bindings_is_one_event(self, monkeypatch):
        pops = []

        def heappop(queue, real=heapq.heappop):
            pops.append(queue[0][0])
            return real(queue)

        monkeypatch.setattr(netsim, "heapq", SimpleNamespace(**{**vars(heapq), "heappop": heappop}))
        net = VirtualNetwork(make_topology())
        bindings = bind_seven_iocs(net)
        net.inject("IMX1-HOST2", search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000))
        fired = net._step()
        assert [d.binding for d in fired] == bindings
        assert len(pops) == 1
        assert net._queue == []
        assert net.delivery_log == fired

    def test_a_packet_sent_during_an_arrival_comes_after_its_other_members(self):
        # With no hop delay, the packet is due at once; the members of the
        # arrival that was being handed out still go first.
        topology = make_topology()
        topology.per_hop_delay_us = 0
        net = VirtualNetwork(topology)
        seen = []

        def first(delivery):
            seen.append("ioc-1")
            net.inject("IMX1-HOST1", search_packet("10.2.1.31", dst_port=9000, src_ip="10.2.1.31"))

        net.bind("IMX1-HOST1", 5064, "ioc-1", callback=first)
        for name in ("ioc-2", "ioc-3"):
            net.bind("IMX1-HOST1", 5064, name, callback=lambda d, name=name: seen.append(name))
        net.bind("IMX1-HOST1", 9000, "late", callback=lambda d: seen.append("late"))
        net.inject("IMX1-HOST2", search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000))
        net.advance_clock(0)
        assert seen == ["ioc-1", "ioc-2", "ioc-3", "late"]
        assert {d.time_us for d in net.delivery_log} == {0}

    def test_an_unbound_binding_gets_its_deliveries_logged_but_not_called(self):
        net = VirtualNetwork(make_topology())
        seen = []
        binding = net.bind("IMX1-HOST1", 5064, "closed", callback=seen.append)
        net.inject("TesterHEpics", search_packet("10.2.1.31"))
        net.unbind("IMX1-HOST1", binding)
        net.advance_clock(10_000)
        assert [d.binding for d in net.delivery_log] == [binding]
        assert seen == []

        # Unbound by an earlier turn of the same arrival.
        first = net.bind("IMX1-HOST1", 5064, "first", callback=lambda d: net.unbind("IMX1-HOST1", second))
        second = net.bind("IMX1-HOST1", 5064, "second", callback=seen.append)
        net.inject("IMX1-HOST2", search_packet("10.2.1.255", src_ip="10.2.1.32", src_port=4000))
        net.advance_clock(10_000)
        assert [d.binding for d in net.delivery_log[1:]] == [first, second]
        assert seen == []

    def test_a_returned_packet_is_sent_from_the_receiving_host(self):
        # A source no interface owns is sent into the sending host's first
        # domain, so the limited broadcast shows which host sent it.
        net = VirtualNetwork(make_topology())
        reply = search_packet(LIMITED_BROADCAST, dst_port=9000, src_ip="10.9.9.9", payload=b"r")
        net.bind("IMX1-HOST1", 5064, "ioc", callback=lambda d: reply)
        for host in ("IMX1-HOST2", "TesterHEpics"):
            net.bind(host, 9000, f"listener-{host}")
        net.inject("TesterHEpics", search_packet("10.2.1.31"))
        net.advance_clock(10_000)
        fired = net.delivery_log
        assert [(d.host, d.packet) for d in fired[1:]] == [("IMX1-HOST2", reply)]
        assert fired[1].time_us == fired[0].time_us + net.topology.per_hop_delay_us


class TestChannels:
    def test_the_reply_comes_back_one_hop_delay_each_way(self):
        net = VirtualNetwork(make_topology())
        got_server, got_client = [], []

        def serve(payload):
            got_server.append((net.now_us, payload))
            return b"ack:" + payload

        net.register_channel_listener("10.2.1.31", 5901, serve)
        net.request("TesterHEpics", "10.2.1.31", 5901, b"one", lambda reply: got_client.append((net.now_us, reply)))
        net.advance_clock(10_000)
        hop = 2 * net.topology.per_hop_delay_us
        assert got_server == [(hop, b"one")]
        assert got_client == [(2 * hop, b"ack:one")]

    def test_a_listener_that_returns_none_sends_nothing(self):
        net = VirtualNetwork(make_topology())
        served, replies = [], []
        net.register_channel_listener("10.2.1.31", 5901, lambda payload: served.append(payload))
        net.request("TesterHEpics", "10.2.1.31", 5901, b"x", replies.append)
        net.advance_clock(10_000)
        assert served == [b"x"]
        assert replies == []
        assert net._queue == []

    def test_a_second_listener_on_one_address_is_refused(self):
        net = VirtualNetwork(make_topology())
        served = []
        net.register_channel_listener("10.2.1.31", 5901, lambda payload: served.append("first"))
        with pytest.raises(NetsimError, match="10.2.1.31:5901"):
            net.register_channel_listener("10.2.1.31", 5901, lambda payload: served.append("second"))
        net.request("TesterHEpics", "10.2.1.31", 5901, b"x", lambda reply: None)
        net.advance_clock(10_000)
        assert served == ["first"]

    def test_refused_when_nothing_listens(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(ChannelRefused):
            net.request("TesterHEpics", "10.2.1.31", 5901, b"x", lambda reply: None)
        assert net._queue == []

    def test_a_listener_at_an_address_no_interface_owns_is_refused(self):
        net = VirtualNetwork(make_topology())
        with pytest.raises(NetsimError, match="no interface owns 10.9.9.9"):
            net.register_channel_listener("10.9.9.9", 5901, lambda payload: b"reply")
        with pytest.raises(ChannelRefused):
            net.request("TesterHEpics", "10.9.9.9", 5901, b"x", lambda reply: None)

    def test_cross_domain_channel_pays_two_hops(self):
        net = VirtualNetwork(make_topology())
        times = []
        net.register_channel_listener("10.2.1.31", 5901, lambda payload: times.append(net.now_us))
        net.request("TesterHEpics", "10.2.1.31", 5901, b"x", lambda reply: None)
        net.advance_clock(10_000)
        assert times == [2 * net.topology.per_hop_delay_us]


LAB = Cidr("10.2.7.0", 24)


def multi_homed_net():
    """A gateway on beamline and sol, and a lab host on lab and sol: they share sol only."""
    net = VirtualNetwork(VirtualTopology(
        domains=[BroadcastDomain("beamline", BEAMLINE), BroadcastDomain("sol", SOL), BroadcastDomain("lab", LAB)],
        hosts=[
            VirtualHost("GW", [Interface("10.2.1.1", BEAMLINE), Interface("10.2.105.1", SOL)]),
            VirtualHost("IMX1-HOST1", [Interface("10.2.1.31", BEAMLINE)]),
            VirtualHost("TesterHEpics", [Interface("10.2.105.171", SOL)]),
            VirtualHost("LAB", [Interface("10.2.7.2", LAB), Interface("10.2.105.2", SOL)]),
        ],
    ))
    for host in ("GW", "IMX1-HOST1", "TesterHEpics", "LAB"):
        net.bind(host, 5064, host)
    return net


class TestMultiHomedHosts:
    @pytest.mark.parametrize("src_ip, hosts", [
        ("10.2.1.1", {"GW", "IMX1-HOST1"}),
        ("10.2.105.1", {"GW", "TesterHEpics", "LAB"}),
        ("10.9.9.9", {"GW", "IMX1-HOST1"}),  # owned by no interface: the first interface's domain
    ], ids=["first-interface", "second-interface", "spoofed"])
    def test_a_broadcast_reaches_the_domain_of_its_source_address(self, src_ip, hosts):
        net = multi_homed_net()
        deliveries = delivered(net, "GW", search_packet(LIMITED_BROADCAST, src_ip=src_ip))
        assert {d.host for d in deliveries} == hosts

    @pytest.mark.parametrize("src_ip, dst_ip, hosts", [
        ("10.2.105.1", "10.2.1.255", {"GW", "IMX1-HOST1"}),
        ("10.2.1.1", "10.2.105.255", {"GW", "TesterHEpics", "LAB"}),
        ("10.2.1.1", "10.2.7.255", set()),  # GW has no interface on lab: no router forwards it
    ], ids=["from-its-other-address", "from-its-first-address", "into-a-domain-it-is-not-on"])
    def test_a_directed_broadcast_reaches_the_domain_it_names(self, src_ip, dst_ip, hosts):
        net = multi_homed_net()
        deliveries = delivered(net, "GW", search_packet(dst_ip, src_ip=src_ip))
        assert {d.host for d in deliveries} == hosts

    def test_a_unicast_and_a_request_are_priced_by_one_rule(self):
        # GW and LAB share sol, though not the domain of the packet's source
        # address; the unicast used to take two hops and the request one.
        net = multi_homed_net()
        net.inject("GW", search_packet("10.2.7.2", src_ip="10.2.1.1"))
        served = []
        net.register_channel_listener("10.2.7.2", 5901, lambda payload: served.append(net.now_us))
        net.request("GW", "10.2.7.2", 5901, b"x", lambda reply: None)
        net.advance_clock(10_000)
        (delivery,) = net.delivery_log
        assert delivery.time_us == served[0] == net.topology.per_hop_delay_us

    def test_hosts_sharing_one_of_their_domains_are_one_hop_apart(self):
        net = multi_homed_net()
        hop = net.topology.per_hop_delay_us
        net.inject("GW", search_packet("10.2.7.2", src_ip="10.2.105.1"))
        times = []
        net.register_channel_listener("10.2.7.2", 5901, lambda payload: times.append(net.now_us) or b"ack")
        net.request("GW", "10.2.7.2", 5901, b"x", lambda reply: times.append(net.now_us))
        net.advance_clock(10_000)
        assert [(d.host, d.time_us) for d in net.delivery_log] == [("LAB", hop)]
        assert times == [hop, 2 * hop]


class TestTopologyValidation:
    def test_duplicate_interface_ip_rejected(self):
        topo = make_topology()
        topo.hosts[1].interfaces = [Interface("10.2.1.31", BEAMLINE)]
        with pytest.raises(ValueError) as excinfo:
            VirtualNetwork(topo)
        assert excinfo.value.path == "hosts[1].interfaces[0].ip"

    def test_interface_without_domain_rejected(self):
        topo = make_topology()
        topo.hosts[0].interfaces = [Interface("192.168.0.1", Cidr("192.168.0.0", 24))]
        with pytest.raises(ValueError) as excinfo:
            VirtualNetwork(topo)
        assert excinfo.value.path == "hosts[0].interfaces[0].subnet"

    def test_host_without_interfaces_rejected(self):
        topo = make_topology()
        topo.hosts[0].interfaces = []
        with pytest.raises(ValueError) as excinfo:
            VirtualNetwork(topo)
        assert excinfo.value.path == "hosts[0].interfaces"

    # A host on 10.2.1.255 would receive every directed broadcast of its
    # domain as a unicast, and a unicast to it was delivered as a broadcast.
    @pytest.mark.parametrize("ip, prefix_len, refused", [
        ("10.2.1.255", 24, True),
        ("10.2.1.0", 24, True),
        ("10.2.1.5", 24, False),
        ("10.2.1.7", 30, True),
        ("10.2.1.4", 30, True),
        ("10.2.1.4", 31, False),
        ("10.2.1.5", 31, False),
        ("10.2.1.4", 32, False),
    ])
    def test_interface_on_its_subnets_network_or_broadcast_address(self, ip, prefix_len, refused):
        subnet = Cidr("10.2.1.0" if prefix_len == 24 else "10.2.1.4", prefix_len)
        topo = VirtualTopology([BroadcastDomain("beamline", subnet)], [VirtualHost("A", [Interface(ip, subnet)])])
        if not refused:
            VirtualNetwork(topo)
            return
        with pytest.raises(ValueError) as excinfo:
            VirtualNetwork(topo)
        assert excinfo.value.path == "hosts[0].interfaces[0].ip"

    def test_helper_rule_needs_destinations(self):
        with pytest.raises(ValueError) as excinfo:
            VirtualNetwork(make_topology(helper_destinations=()))
        assert excinfo.value.path == "helper_rules[0].destinations"

    @pytest.mark.parametrize("change, path", [
        (lambda topo: topo.domains.append(BroadcastDomain("sol2", SOL)), "domains[2].subnet"),
        (lambda topo: topo.domains.append(BroadcastDomain("sol", Cidr("10.3.0.0", 24))), "domains[2].name"),
        (
            lambda topo: topo.hosts.append(VirtualHost("IMX1-HOST1", [Interface("10.2.1.40", BEAMLINE)])),
            "hosts[3].name",
        ),
        (lambda topo: topo.hosts[2].interfaces.append(Interface("10.2.105.5", SOL)), "hosts[2].interfaces[1].subnet"),
        (lambda topo: topo.hosts[0].interfaces.append(Interface("10.2.1.50", SOL)), "hosts[0].interfaces[1].ip"),
        (
            lambda topo: topo.hosts[1].prerouting_rules.append(PreroutingRule(5064, "10.2.1.99", 5064)),
            "hosts[1].prerouting_rules[0].new_dst_ip",
        ),
        (lambda topo: topo.helper_rules.append(HelperRule("lab", 5064, ("10.2.1.31",))), "helper_rules[1].domain"),
        (
            lambda topo: topo.helper_rules.append(HelperRule("sol", 5064, ("10.2.1.31", "10.2.1.99"))),
            "helper_rules[1].destinations[1]",
        ),
    ], ids=[
        "duplicate-subnet", "duplicate-domain-name", "duplicate-host-name", "two-interfaces-in-one-domain",
        "ip-outside-subnet", "prerouting-to-unowned", "helper-domain", "helper-destination",
    ])
    def test_fault_names_its_field(self, change, path):
        topo = make_topology()
        change(topo)
        with pytest.raises(ValueError) as excinfo:
            VirtualNetwork(topo)
        assert excinfo.value.path == path


def test_trace_lines_look_like_a_capture():
    net = VirtualNetwork(make_topology())
    bind_seven_iocs(net)
    net.inject("TesterHEpics", search_packet("10.2.105.255"))
    net.advance_clock(10_000)
    (line,) = net.trace_lines()
    assert line == "00:00:00.000400 IP 10.2.105.171.35687 > 10.2.1.31.5064: UDP, length 48"
