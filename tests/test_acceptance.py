"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time

import pytest

from carelay.bench import (
    execute_scenario,
    run_benchmark,
    run_scenario,
    scenario_a,
    scenario_b,
    scenario_c,
    emit_report,
)
from carelay.ca_wire import (
    SearchRequest,
    SearchResponse,
    encode_search_datagram,
    encode_search_response_datagram,
)
from carelay.endpoints import CaClient, ChannelTimeout, IocSim
from carelay.netsim import VirtualNetwork
from carelay.packet import Ipv4UdpPacket, checksum16, decode, encode, int_to_ip
from carelay.relay import Relay, RelayMode, SimTransport

CLIENT = "TesterHEpics"
CLIENT_IP = "10.2.105.171"

PAPER_PV_NAMES = ("IMX1-HOST1", "IMX:DMC4:m1", "IMX:DMC4:m2", "IMX:DMC4:m3")
EXACT_GAPS_US = [30_000, 60_000, 120_000, 240_000]


def _build_plain_scenario_net(scenario):
    net = VirtualNetwork(scenario.topology, seed=scenario.seed)
    for spec in scenario.iocs:
        IocSim(
            net,
            spec.host,
            spec.name,
            spec.pvs,
            server_port=spec.server_port,
            advertise_own_address=spec.advertise_own_address,
        )
    return net


def test_criterion_1_scenario_a_last_binder_and_failure_schedule():
    started = time.perf_counter()
    scenario = scenario_a()
    net = _build_plain_scenario_net(scenario)
    client = CaClient(net, CLIENT)

    # The last-bound IOC's PV resolves through the bare unicast conversion.
    assert client.caget("IMX1-HOST1") == 155.836

    # Every other IOC on the host is unreachable, with the exact failure
    # message and the exact doubling send schedule.
    other_pvs = [
        pv for spec in scenario.iocs if spec.host == "IMX1-HOST1" for pv in spec.pvs if pv != "IMX1-HOST1"
    ]
    assert len(other_pvs) == 6
    for pv in other_pvs:
        result = client.query(pv)
        assert result.timed_out, pv
        assert len(result.send_times_us) == 5
        gaps = [b - a for a, b in zip(result.send_times_us, result.send_times_us[1:])]
        assert gaps == EXACT_GAPS_US, pv

    with pytest.raises(ChannelTimeout) as excinfo:
        client.caget("IMX:DMC4:m1")
    assert str(excinfo.value) == "Channel connect timed out: 'IMX:DMC4:m1' not found."

    # The delivery log mirrors the capture: 48-byte searches toward the
    # server's unicast address, a 40-byte response for the success.
    trace = "\n".join(net.trace_lines())
    assert "> 10.2.1.31.5064: UDP, length 48" in trace
    assert "UDP, length 40" in trace

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: scenario A last-binder delivery, exact retry gaps ({elapsed:.2f}s)")


def test_criterion_2_scenario_b_prerouting_partial_fix():
    started = time.perf_counter()
    scenario = scenario_b()
    report = run_scenario(scenario)
    assert report.all_expected, report.mismatches
    outcomes = {s.query: s.outcome for s in report.samples}
    for pv in [pv for spec in scenario.iocs if spec.host == "IMX1-HOST1" for pv in spec.pvs]:
        assert outcomes[pv].startswith("value:"), pv
    assert outcomes["IMX:DMC4:m3"] == "timeout"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: scenario B rewrite fixes host 1 only ({elapsed:.2f}s)")


def test_criterion_3_scenario_c_relay_full_fix_with_source_preservation():
    started = time.perf_counter()
    run = execute_scenario(scenario_c())
    report = run.report
    assert report.all_expected, report.mismatches
    outcomes = {s.query: s.outcome for s in report.samples}
    assert outcomes["IMX:DMC4:m1"] == "value:-2.06e-05"
    assert outcomes["IMX:DMC4:m3"] == "value:0.002496"
    assert outcomes["IMX1-HOST1"].startswith("value:")

    # Source preservation: every search response lands directly on the
    # client's address and ephemeral port, never on the relay.
    responses = [
        d for d in run.net.delivery_log if d.packet.src_port == 5064 and d.host == CLIENT
    ]
    assert len(responses) == 3
    assert all(d.packet.dst_ip == CLIENT_IP for d in responses)
    search_ports = {
        d.packet.src_port
        for d in run.net.delivery_log
        if d.packet.src_ip == CLIENT_IP and d.wire_dst_port in (5064, 6064)
    }
    assert {d.packet.dst_port for d in responses} <= search_ports
    relay_ip_responses = [
        d for d in run.net.delivery_log
        if d.packet.src_port == 5064 and d.packet.dst_ip == "10.2.1.31"
    ]
    assert relay_ip_responses == []

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: scenario C resolves across both servers, sources preserved ({elapsed:.2f}s)")


def test_criterion_4_loop_safety_thousand_queries():
    scenario = scenario_c()
    net = VirtualNetwork(scenario.topology, seed=0)
    net.bind("IMX1-HOST2", 5064, "observer")  # one binding to observe emissions
    relay = Relay(scenario.relay_config, SimTransport(net, scenario.relay_host))

    datagram = encode_search_datagram(SearchRequest("IMX:DMC4:m1", search_id=1))
    for i in range(1000):
        packet = Ipv4UdpPacket(
            src_ip=CLIENT_IP,
            dst_ip="10.2.105.255",
            src_port=20_000 + i,
            dst_port=5064,
            payload=datagram,
        )
        net.inject(CLIENT, packet)
        net.advance_clock(2_000)
    net.advance_clock(1_000_000)

    assert relay.counters.received == 1000
    assert relay.counters.relayed == 1000
    assert relay.counters.conserved()
    emissions = [d for d in net.delivery_log if d.wire_dst_ip == "255.255.255.255"]
    assert len(emissions) == 1000
    assert len({d.packet.src_port for d in emissions}) == 1000
    print("\nACCEPTANCE 4 PASS: 1000 queries -> 1000 emissions, counters conserve")


def test_criterion_5_codec_conformance():
    for pv in PAPER_PV_NAMES:
        assert len(encode_search_datagram(SearchRequest(pv, search_id=1))) == 48, pv
    assert len(encode_search_response_datagram(SearchResponse(5901, 1))) == 40
    assert (
        len(encode_search_response_datagram(SearchResponse(5901, 1, server_address="10.2.1.31")))
        == 40
    )

    rng = random.Random(0xACCE)
    for _ in range(10_000):
        packet = Ipv4UdpPacket(
            src_ip=int_to_ip(rng.getrandbits(32)),
            dst_ip=int_to_ip(rng.getrandbits(32)),
            src_port=rng.randrange(0, 65536),
            dst_port=rng.randrange(0, 65536),
            payload=rng.randbytes(rng.randrange(0, 256)),
            ttl=rng.randrange(1, 256),
            identification=rng.randrange(0, 65536),
            dscp_ecn=rng.randrange(0, 256),
            flags_fragment=rng.randrange(0, 65536),
        )
        assert decode(encode(packet)) == packet

    def oracle(data: bytes) -> int:
        if len(data) % 2:
            data += b"\x00"
        total = sum((data[i] << 8) | data[i + 1] for i in range(0, len(data), 2))
        r = total % 0xFFFF
        if r == 0 and total != 0:
            r = 0xFFFF
        return 0xFFFF - r

    for _ in range(1000):
        buf = rng.randbytes(rng.randrange(0, 200))
        assert checksum16(buf) == oracle(buf)
    print("\nACCEPTANCE 5 PASS: 48/40-byte datagrams, 10k roundtrips, 1k checksum oracle cases")


def test_criterion_6_latency_ordering_and_bounds():
    report = run_benchmark(repetitions=100, seed=20130823)
    stats = report.arm_stats
    assert report.median_ordering_ok is True
    assert stats["DIRECT"].median_us <= stats["PERSISTENT"].median_us
    assert stats["PERSISTENT"].median_us <= stats["FORK_MODEL"].median_us
    assert stats["DIRECT"].median_us < 75_000
    fork_cost_us = 5_000
    assert stats["FORK_MODEL"].median_us - stats["PERSISTENT"].median_us >= fork_cost_us
    print(
        "\nACCEPTANCE 6 PASS: medians DIRECT=%.0fus <= PERSISTENT=%.0fus <= FORK_MODEL=%.0fus"
        % (stats["DIRECT"].median_us, stats["PERSISTENT"].median_us, stats["FORK_MODEL"].median_us)
    )


def test_criterion_7_determinism_byte_identical_reports():
    for build in (
        lambda: emit_report(run_scenario(scenario_a(seed=3)), "records"),
        lambda: emit_report(run_scenario(scenario_c(seed=3)), "records"),
        lambda: emit_report(run_benchmark(repetitions=30, seed=3), "records"),
    ):
        assert build().encode() == build().encode()
    print("\nACCEPTANCE 7 PASS: same-seed reruns emit byte-identical records")


def test_criterion_8_proxy_mode_with_flow_expiry():
    run = execute_scenario(scenario_c(mode=RelayMode.PROXY))
    assert run.report.all_expected, run.report.mismatches
    assert run.relay is not None
    assert run.relay.counters.replies_forwarded >= 3
    assert len(run.relay.flows) >= 1
    run.net.advance_clock(31_000_000)  # 31 s of idle virtual time
    assert len(run.relay.flows) == 0
    print("\nACCEPTANCE 8 PASS: proxy flows forward replies and expire after 30s idle")
