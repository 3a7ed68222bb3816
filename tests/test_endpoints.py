import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carelay import bench
from carelay.ca_wire import (
    SearchRequest,
    SearchResponse,
    encode_search_datagram,
    encode_search_response_datagram,
    find_search_response,
)
from carelay.endpoints import (
    FIRST_EPHEMERAL_PORT,
    CaClient,
    ChannelTimeout,
    ClientQueryConfig,
    IocSim,
    timeout_message,
)
from carelay.netsim import BroadcastDomain, Interface, NetsimError, VirtualHost, VirtualNetwork, VirtualTopology
from carelay.packet import Cidr, Ipv4UdpPacket
from carelay.relay import RelayMode

BEAMLINE = Cidr("10.2.1.0", 24)


def direct_topology():
    return VirtualTopology(
        domains=[BroadcastDomain("beamline", BEAMLINE)],
        hosts=[
            VirtualHost("IMX1-HOST1", [Interface("10.2.1.31", BEAMLINE)]),
            VirtualHost("IMX1-HOST2", [Interface("10.2.1.32", BEAMLINE)]),
            VirtualHost("TesterDirect", [Interface("10.2.1.100", BEAMLINE)]),
        ],
    )


def make_net_with_iocs(advertise_own_address=True):
    net = VirtualNetwork(direct_topology())
    ioc1 = IocSim(
        net, "IMX1-HOST1", "dmc4",
        {"IMX:DMC4:m1": -2.06e-05, "IMX:DMC4:m2": -1.47e-05},
        server_port=5901,
        advertise_own_address=advertise_own_address,
    )
    ioc2 = IocSim(
        net, "IMX1-HOST2", "dmc4b",
        {"IMX:DMC4:m3": 0.002496},
        server_port=5902,
        advertise_own_address=advertise_own_address,
    )
    return net, ioc1, ioc2


def search_send_times(net, ioc_host="IMX1-HOST1"):
    """When the client broadcast each search: the log has its arrival at one
    IOC host, one hop later on a network without jitter."""
    return [
        d.time_us - net.topology.per_hop_delay_us
        for d in net.delivery_log
        if d.host == ioc_host and d.wire_dst_ip == "10.2.1.255"
    ]


class TestIocOnSearch:
    def test_owned_name_yields_40_byte_response(self):
        _, ioc1, _ = make_net_with_iocs()
        datagram = encode_search_datagram(SearchRequest("IMX:DMC4:m1", search_id=5))
        response = ioc1.on_search_datagram(datagram, ("10.2.105.171", 35687))
        assert response is not None and len(response) == 40
        fields = find_search_response(response)
        assert fields.search_id == 5
        assert fields.server_port == 5901

    def test_unowned_name_is_silent(self):
        _, ioc1, _ = make_net_with_iocs()
        datagram = encode_search_datagram(SearchRequest("IMX:DMC4:m3", search_id=5))
        assert ioc1.on_search_datagram(datagram, ("10.2.105.171", 35687)) is None

    def test_name_match_is_case_sensitive(self):
        _, ioc1, _ = make_net_with_iocs()
        datagram = encode_search_datagram(SearchRequest("imx:dmc4:m1", search_id=5))
        assert ioc1.on_search_datagram(datagram, ("10.2.105.171", 35687)) is None

    def test_two_searches_echo_their_own_ids(self):
        _, ioc1, _ = make_net_with_iocs()
        for sid in (11, 22):
            datagram = encode_search_datagram(SearchRequest("IMX:DMC4:m2", search_id=sid))
            response = ioc1.on_search_datagram(datagram, ("10.2.105.171", 1))
            assert find_search_response(response).search_id == sid

    def test_garbage_datagram_is_silent_in_sim(self):
        net, _, _ = make_net_with_iocs()
        from carelay.packet import Ipv4UdpPacket

        pkt = Ipv4UdpPacket(
            src_ip="10.2.1.100", dst_ip="10.2.1.255", src_port=9, dst_port=5064,
            payload=b"\x01\x02\x03",
        )
        net.inject("TesterDirect", pkt)
        net.advance_clock(10_000)
        assert len(net.delivery_log) == 2  # both IOC bindings got it, neither replied

    def test_non_ascii_search_name_is_silent_in_sim(self):
        net, _, _ = make_net_with_iocs()
        from carelay.packet import Ipv4UdpPacket

        datagram = bytearray(encode_search_datagram(SearchRequest("IMX:DMC4:m1", search_id=5)))
        datagram[32] = 0xFF  # first byte of the name
        pkt = Ipv4UdpPacket(
            src_ip="10.2.1.100", dst_ip="10.2.1.255", src_port=9, dst_port=5064,
            payload=bytes(datagram),
        )
        net.inject("TesterDirect", pkt)
        net.advance_clock(10_000)
        assert len(net.delivery_log) == 2  # both IOC bindings got it, neither replied
        assert CaClient(net, "TesterDirect").caget("IMX:DMC4:m1") == -2.06e-05

    @given(name=st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=60))
    @settings(max_examples=150)
    def test_never_answers_random_unowned_names(self, name):
        _, ioc1, _ = make_net_with_iocs()
        if name in ioc1.pvs:
            return
        datagram = encode_search_datagram(SearchRequest(name, search_id=1))
        assert ioc1.on_search_datagram(datagram, ("10.2.1.100", 1)) is None


class TestCaget:
    def test_resolves_value_in_same_subnet(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        assert client.caget("IMX:DMC4:m1") == -2.06e-05

    def test_latency_is_four_hops_in_same_subnet(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        result = client.query("IMX:DMC4:m3")
        assert not result.timed_out
        assert result.latency_us == 4 * net.topology.per_hop_delay_us

    def test_unknown_pv_times_out_with_exact_message(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        with pytest.raises(ChannelTimeout) as excinfo:
            client.caget("IMX:DMC4:m9")
        assert str(excinfo.value) == "Channel connect timed out: 'IMX:DMC4:m9' not found."

    def test_timeout_sends_five_times_with_doubling_gaps(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        result = client.query("NOPE")
        assert result.timed_out
        sends = search_send_times(net)
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert gaps == [30_000, 60_000, 120_000, 240_000]

    def test_retry_gap_formula_for_custom_schedule(self):
        net, *_ = make_net_with_iocs()
        config = ClientQueryConfig(initial_retry_s=0.010, backoff_factor=3.0, max_tries=4, total_timeout_s=5.0)
        client = CaClient(net, "TesterDirect", config=config)
        client.query("NOPE")
        sends = search_send_times(net)
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert gaps == [round(0.010 * 3.0**k * 1e6) for k in range(3)]

    def test_searching_stops_after_resolution(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client.query("IMX:DMC4:m1")
        assert len(search_send_times(net)) == 1

    @pytest.mark.parametrize("pv_name", ["IMX:DMC4:m1", "NOPE"])
    def test_a_finished_query_leaves_none_of_its_timers_queued(self, pv_name):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client.query(pv_name)
        # No relay runs here, so every queued timer would be the query's own.
        assert [entry for entry in net._queue if callable(entry[-1])] == []

    def test_a_query_without_a_verdict_ends_past_its_deadline(self, monkeypatch):
        # The IOC answers the search but never the value request: the search
        # resolves, but the query never gets a verdict.
        net = VirtualNetwork(direct_topology())
        register, requests = net.register_channel_listener, []
        monkeypatch.setattr(net, "register_channel_listener", lambda ip, port, serve: register(ip, port, requests.append))
        IocSim(net, "IMX1-HOST1", "mute", {"LOST:PV": 1.0}, server_port=5901)
        result = CaClient(net, "TesterDirect").query("LOST:PV")
        assert result.timed_out
        assert requests == [("LOST:PV", None)]
        assert net.now_us == sum(ClientQueryConfig().wait_schedule_us())

    def test_two_iocs_on_one_host_and_server_port_are_refused(self):
        # The second would take the first's value requests, which then go
        # unanswered; it is refused before it binds the search port.
        net = VirtualNetwork(direct_topology())
        IocSim(net, "IMX1-HOST1", "a", {"A": 1.0}, server_port=5901)
        with pytest.raises(NetsimError, match="5901"):
            IocSim(net, "IMX1-HOST1", "b", {"B": 2.0}, server_port=5901)
        assert CaClient(net, "TesterDirect").caget("A") == 1.0
        search = encode_search_datagram(SearchRequest("A", 1))
        broadcast = Ipv4UdpPacket("10.2.1.100", "10.2.1.255", 40000, 5064, search)
        logged = len(net.delivery_log)
        net.inject("TesterDirect", broadcast)
        net.advance_clock(10_000)
        assert [d.binding.owner for d in net.delivery_log[logged:]] == ["a"]

    def test_first_response_wins_single_value_read(self, monkeypatch):
        net = VirtualNetwork(direct_topology())
        register, served = net.register_channel_listener, []

        def counted(ip, port, serve):
            register(ip, port, lambda request: served.append((ip, request)) or serve(request))

        monkeypatch.setattr(net, "register_channel_listener", counted)
        # The same PV published by two IOCs on different hosts: both answer,
        # the client must read exactly once.
        IocSim(net, "IMX1-HOST1", "a", {"DUP:PV": 1.0}, server_port=5901)
        IocSim(net, "IMX1-HOST2", "b", {"DUP:PV": 2.0}, server_port=5902)
        client = CaClient(net, "TesterDirect")
        result = client.query("DUP:PV")
        assert not result.timed_out
        responses = [d for d in net.delivery_log if d.host == "TesterDirect"]
        assert {d.packet.src_ip for d in responses} == {"10.2.1.31", "10.2.1.32"}
        assert served == [("10.2.1.31", ("DUP:PV", None))]
        assert result.value == 1.0

    def test_use_packet_source_addressing_resolves(self):
        net, *_ = make_net_with_iocs(advertise_own_address=False)
        client = CaClient(net, "TesterDirect")
        assert client.caget("IMX:DMC4:m3") == 0.002496

    def test_sequential_queries_use_fresh_ports(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client.caget("IMX:DMC4:m1")
        client.caget("IMX:DMC4:m2")
        sends = [d for d in net.delivery_log if d.wire_dst_ip == "10.2.1.255"]
        ports = {d.packet.src_port for d in sends}
        assert len(ports) == 2

    def test_ephemeral_ports_wrap_to_the_first_after_65535(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client._next_ephemeral = 65535
        for pv in ("IMX:DMC4:m1", "IMX:DMC4:m2", "IMX:DMC4:m1"):
            client.caget(pv)
        sends = [d for d in net.delivery_log if d.wire_dst_ip == "10.2.1.255"]
        ports = list(dict.fromkeys(d.packet.src_port for d in sends))
        assert ports == [65535, FIRST_EPHEMERAL_PORT, FIRST_EPHEMERAL_PORT + 1]

    def test_slow_network_read_outlives_search_deadline(self):
        # Resolution succeeds near the end of the retry schedule; the value
        # read completes after the search deadline and must still win.
        topo = direct_topology()
        topo.per_hop_delay_us = 300_000
        net = VirtualNetwork(topo)
        IocSim(net, "IMX1-HOST1", "slow", {"SLOW:PV": 7.5}, server_port=5901)
        client = CaClient(net, "TesterDirect")
        result = client.query("SLOW:PV")
        assert not result.timed_out
        assert result.value == 7.5
        assert result.latency_us == 4 * 300_000


class TestCaput:
    def test_caput_then_caget_returns_written_value(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client.caput("IMX:DMC4:m2", 0.5)
        assert client.caget("IMX:DMC4:m2") == 0.5

    def test_an_integer_written_reads_back_as_a_float(self):
        # The IOC stores a written value as a float, as its table holds every
        # value, while the write reports the value as it was passed.
        net, *_ = make_net_with_iocs()
        IocSim(net, "IMX1-HOST1", "ints", {"INT:PV": 3}, server_port=5903)
        client = CaClient(net, "TesterDirect")
        client.caput("IMX:DMC4:m2", 5)
        assert [(v, type(v)) for v in map(client.caget, ["IMX:DMC4:m2", "INT:PV"])] == [(5.0, float), (3.0, float)]
        assert client.query("IMX:DMC4:m2", write_value=7).outcome == "value:7"

    def test_caput_unknown_pv_times_out(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        with pytest.raises(ChannelTimeout) as excinfo:
            client.caput("NOPE", 1.0)
        assert str(excinfo.value) == timeout_message("NOPE")

    def test_zero_is_a_value(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client.caput("IMX:DMC4:m2", 0.0)
        assert client.caget("IMX:DMC4:m2") == 0.0

    def test_a_write_changes_only_its_own_pv(self):
        net, ioc1, ioc2 = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        client.caput("IMX:DMC4:m1", 9.0)
        assert ioc1.pvs == {"IMX:DMC4:m1": 9.0, "IMX:DMC4:m2": -1.47e-05}
        assert ioc2.pvs == {"IMX:DMC4:m3": 0.002496}

    @pytest.mark.parametrize(
        "request_, reply, stored",
        [
            (("IMX:DMC4:m1", None), -2.06e-05, -2.06e-05),
            (("IMX:DMC4:m1", 4), 4.0, 4.0),
            (("IMX:DMC4:m3", 4), None, -2.06e-05),
        ],
        ids=["read", "write", "not-owned"],
    )
    def test_the_ioc_answers_a_request_with_the_value(self, request_, reply, stored):
        _, ioc1, _ = make_net_with_iocs()
        answer = ioc1._on_channel_message(request_)
        assert (answer, type(answer)) == (reply, type(reply))
        assert ioc1.pvs["IMX:DMC4:m1"] == stored


class TestPositionalRecords:
    # The client and the IOC build their records with new_record; each must
    # equal the constructor's build in type and in every field.

    @pytest.mark.parametrize("advertise", [True, False])
    def test_the_search_response(self, advertise):
        _, ioc1, _ = make_net_with_iocs(advertise_own_address=advertise)
        datagram = encode_search_datagram(SearchRequest("IMX:DMC4:m1", search_id=5))
        expected = SearchResponse(server_port=5901, search_id=5, server_address="10.2.1.31" if advertise else None)
        assert ioc1.on_search_datagram(datagram, ("10.2.1.100", 1)) == encode_search_response_datagram(expected)

    def test_the_client_search(self):
        net, *_ = make_net_with_iocs()
        client = CaClient(net, "TesterDirect")
        search_id = client._next_search_id
        client.query("IMX:DMC4:m1")
        expected = encode_search_datagram(SearchRequest(pv_name="IMX:DMC4:m1", search_id=search_id))
        assert net.delivery_log[0].packet.payload == expected


class TestReferenceCycles:
    @pytest.mark.parametrize("mode", [RelayMode.SPOOF, RelayMode.PROXY])
    def test_queries_on_a_live_network_leave_nothing_for_the_collector(self, mode):
        # Each query's objects must be freed by reference count alone: with
        # the collector off, nothing the queries made may wait for it.
        scenario = bench.scenario_c(mode=mode)
        net, _ = bench.build_network(scenario)
        client = CaClient(net, bench.CLIENT, config=scenario.client_config)
        results = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                results += [client.query(q.pv_name) for q in scenario.queries]
            results.append(client.query(scenario.queries[0].pv_name, write_value=1.5))
            garbage = gc.collect()
        finally:
            gc.enable()
        assert len(results) == 10 * len(scenario.queries) + 1
        assert not any(r.timed_out for r in results)
        assert garbage == 0

    @pytest.mark.parametrize(
        "build",
        [bench.scenario_a, bench.scenario_b, lambda: bench.benchmark_scenarios(1, 0)["DIRECT"]],
        ids=["A", "B", "DIRECT"],
    )
    def test_a_network_without_a_relay_is_freed_with_its_run(self, build):
        # An IOC answers by returning its packet and keeps no network, and a
        # closed client socket drops its callback, so nothing the network
        # holds points back at it: reference counts alone free it.
        scenario = build()
        gc.collect()
        gc.disable()
        try:
            run = bench.execute_scenario(scenario)
            net = weakref.ref(run.net)
            del run
            freed = net() is None
        finally:
            gc.enable()
        assert freed


class TestClientQueryConfig:
    def test_defaults_cover_waits(self):
        config = ClientQueryConfig()
        assert sum(config.wait_schedule_us()) == 930_000

    def test_backoff_must_exceed_one(self):
        with pytest.raises(ValueError):
            ClientQueryConfig(backoff_factor=1.0)

    def test_total_timeout_must_cover_waits(self):
        with pytest.raises(ValueError):
            ClientQueryConfig(total_timeout_s=0.5)
