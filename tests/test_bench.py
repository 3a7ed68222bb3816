import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from carelay import bench
from carelay.bench import (
    ARM_ORDER,
    Sample,
    ScenarioReport,
    benchmark_scenarios,
    build_network,
    emit_report,
    execute_scenario,
    run_benchmark,
    run_scenario,
    scenario_a,
    scenario_b,
    scenario_c,
)
from carelay.config import TIMEOUT, VALUE, Query
from carelay.netsim import UnknownHost
from carelay.relay import RelayMode
from records import parse_records

REFERENCE_DIGEST = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "bench_records_reps100_seed1.sha256"
)
# sha256 of `carelay bench --reps 100 --seed 1` in text format.
BENCH_TEXT_REPS100_SEED1_SHA256 = "44ac2d2bc71476ea3f5b29a1a8c99ee9460d1f7c938a88704c9e796f24ffec9e"
# sha256 of `run_benchmark(repetitions=30, seed=7)` in records format, the
# benchmark that each round of perfbench's sim_paper workload runs at its seed 7.
BENCH_RECORDS_REPS30_SEED7_SHA256 = "56a80e89d62c6389b145637e5831087d9e4d1b1191d20db5d4ed0d6c0a42644f"

# Hop counts on the shipped topology, worked out from the routing rules
# before running anything: DIRECT pays broadcast + response + read request +
# read reply inside one domain; the spoof relay adds the helper conversion
# (2 hops), the rebroadcast (1), and cross-domain response/read (2 each).
DIRECT_HOPS = 4
PERSISTENT_HOPS = 9


class TestScenarioA:
    def test_last_bound_pv_resolves_and_others_time_out(self):
        report = run_scenario(scenario_a())
        assert report.all_expected, report.mismatches
        outcomes = {s.query: s.outcome for s in report.samples}
        assert outcomes["IMX1-HOST1"] == "value:155.836"
        assert outcomes["IMX:DMC4:m1"] == "timeout"
        assert outcomes["IMX:DMC4:m2"] == "timeout"


class TestScenarioB:
    def test_all_server1_pvs_resolve_but_server2_times_out(self):
        report = run_scenario(scenario_b())
        assert report.all_expected, report.mismatches
        outcomes = {s.query: s.outcome for s in report.samples}
        assert outcomes["IMX:DMC4:m1"] == "value:-2.06e-05"
        assert outcomes["IMX:DMC4:m3"] == "timeout"


class TestScenarioC:
    def test_spoof_relay_resolves_across_both_servers(self):
        report = run_scenario(scenario_c())
        assert report.all_expected, report.mismatches

    def test_proxy_relay_resolves_across_both_servers(self):
        report = run_scenario(scenario_c(mode=RelayMode.PROXY))
        assert report.all_expected, report.mismatches

    def test_spoof_with_use_packet_source_responses(self):
        # Responders that advertise no address force the client back onto the
        # datagram source, which spoofing has preserved.
        scenario = scenario_c()
        scenario.iocs = [replace(spec, advertise_own_address=False) for spec in scenario.iocs]
        report = run_scenario(scenario)
        assert report.all_expected, report.mismatches

    def test_relay_counters_snapshot_in_report(self):
        report = run_scenario(scenario_c())
        counters = report.counters["C-relay-spoof"]
        assert counters["relayed"] == 3
        assert counters["received"] == 3

    def test_source_preservation_visible_in_delivery_log(self):
        run = execute_scenario(scenario_c())
        responses = [
            d
            for d in run.net.delivery_log
            if d.packet.src_port == 5064 and d.host == "TesterHEpics"
        ]
        assert responses, "no search responses reached the client"
        assert all(d.packet.dst_ip == "10.2.105.171" for d in responses)


class TestRunTwice:
    def test_one_scenario_run_twice_gives_the_same_trace_and_samples(self):
        scenario = scenario_b()
        first, second = execute_scenario(scenario), execute_scenario(scenario)
        assert second.net.trace_lines() == first.net.trace_lines()
        assert second.report.samples == first.report.samples


def proxy_scenario_c():
    return scenario_c(mode=RelayMode.PROXY)


class TestUnloggedNetworks:
    """A network that keeps no delivery log runs as one that keeps it."""

    @pytest.mark.parametrize("build", [scenario_a, scenario_b, scenario_c, proxy_scenario_c],
                             ids=["A", "B", "C-spoof", "C-proxy"])
    def test_a_scenario_reports_the_same_without_a_log(self, build):
        logged, unlogged = build(), build()
        logged.repetitions = unlogged.repetitions = 3
        logged, unlogged = execute_scenario(logged), execute_scenario(unlogged, log=False)
        assert logged.net.delivery_log and unlogged.net.delivery_log is None
        assert unlogged.report == logged.report  # samples, mismatches, counters, stats
        assert (unlogged.net.now_us, unlogged.net._seq) == (logged.net.now_us, logged.net._seq)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_the_benchmark_reports_what_logged_arms_report(self, seed):
        report = run_benchmark(repetitions=30, seed=seed)
        scenarios = benchmark_scenarios(30, seed)
        runs = [execute_scenario(scenarios[arm], arm=arm).report for arm in ARM_ORDER]
        assert all(run.samples for run in runs)
        assert report.samples == [sample for run in runs for sample in run.samples]
        assert report.mismatches == [mismatch for run in runs for mismatch in run.mismatches]
        assert report.counters == {arm: c for run in runs for arm, c in run.counters.items()}

    def test_run_scenario_and_run_benchmark_build_networks_without_a_log(self, monkeypatch):
        nets = []

        def recorded(scenario, log=True):
            net, relay = build_network(scenario, log)
            nets.append(net)
            return net, relay

        monkeypatch.setattr(bench, "build_network", recorded)
        run_scenario(scenario_c())
        run_benchmark(repetitions=30, seed=7)
        assert len(nets) == 1 + len(ARM_ORDER)
        assert all(net.delivery_log is None for net in nets)

    def test_an_executed_scenario_keeps_its_log(self):
        run = execute_scenario(scenario_c())
        assert len(run.net.trace_lines()) == len(run.net.delivery_log) > 0


class TestFixtureLoader:
    """The builders parse each fixture once but hand out fresh objects."""

    def test_calls_give_independent_networks(self):
        first = scenario_c()
        build_network(first)
        fresh = scenario_c()
        assert fresh.topology is not first.topology
        (host1,) = [h for h in fresh.topology.hosts if h.name == "IMX1-HOST1"]
        assert len(host1.prerouting_rules) == 1

    def test_added_pv_does_not_leak_into_next_call(self):
        scenario_c().iocs[0].pvs["EXTRA:PV"] = 1.0
        assert all("EXTRA:PV" not in spec.pvs for spec in scenario_c().iocs)

    def test_proxy_mode_changes_only_the_relay_mode(self):
        base = scenario_c()
        proxy = scenario_c(mode=RelayMode.PROXY)
        assert proxy.name == "C-relay-proxy"
        assert proxy.relay_config.mode is RelayMode.PROXY
        assert replace(proxy.relay_config, mode=RelayMode.SPOOF) == base.relay_config
        assert replace(proxy, name=base.name, relay_config=base.relay_config) == base


class TestScenarioValidation:
    def test_zero_repetitions_rejected(self):
        scenario = scenario_a()
        scenario.repetitions = 0
        with pytest.raises(ValueError, match="repetitions must be at least 1"):
            run_scenario(scenario)

    def test_unknown_client_host_rejected(self):
        scenario = scenario_a()
        scenario.queries = [Query("NOPE", "IMX1-HOST1", VALUE(155.836))]
        with pytest.raises(UnknownHost, match="NOPE"):
            run_scenario(scenario)

    def test_relay_host_without_config_rejected(self):
        scenario = scenario_a()
        scenario.relay_host = "IMX1-HOST1"
        with pytest.raises(ValueError, match="relay_config and relay_host go together"):
            run_scenario(scenario)

    def test_mismatch_reported_not_raised(self):
        scenario = scenario_a()
        scenario.queries = [Query("TesterHEpics", "IMX1-HOST1", TIMEOUT)]
        report = run_scenario(scenario)
        assert not report.all_expected
        assert "IMX1-HOST1" in report.mismatches[0]


class TestBenchmark:
    def test_median_ordering_and_bounds(self):
        report = run_benchmark(repetitions=30, seed=1)
        stats = report.arm_stats
        assert report.median_ordering_ok is True
        assert stats["DIRECT"].median_us < 75_000
        assert stats["FORK_MODEL"].median_us - stats["PERSISTENT"].median_us >= 5_000

    def test_persistent_overhead_bounded_by_extra_hops(self):
        # Expected gap computed from the hop counts above, plus jitter room.
        scenarios = benchmark_scenarios(repetitions=30, seed=3)
        for scenario in scenarios.values():
            scenario.topology.jitter_us = 0
        direct = execute_scenario(scenarios["DIRECT"], arm="DIRECT").report
        persistent = execute_scenario(scenarios["PERSISTENT"], arm="PERSISTENT").report
        per_hop = scenarios["DIRECT"].topology.per_hop_delay_us
        gap = persistent.arm_stats["PERSISTENT"].median_us - direct.arm_stats["DIRECT"].median_us
        assert gap == (PERSISTENT_HOPS - DIRECT_HOPS) * per_hop

    def test_no_time_travel(self):
        report = run_benchmark(repetitions=30, seed=2)
        per_hop = 200
        floors = {"DIRECT": DIRECT_HOPS * per_hop, "PERSISTENT": PERSISTENT_HOPS * per_hop}
        for sample in report.samples:
            if sample.arm in floors and sample.latency_us is not None:
                assert sample.latency_us >= floors[sample.arm]

    def test_sample_count_is_repetitions_times_queries(self):
        report = run_benchmark(repetitions=30, seed=0)
        assert len(report.samples) == 30 * 3 * 3

    def test_repetitions_floor(self):
        with pytest.raises(ValueError, match="benchmark needs at least 30 repetitions"):
            run_benchmark(repetitions=29)


class TestDeterminism:
    def test_same_seed_byte_identical_records(self):
        first = emit_report(run_scenario(scenario_c(seed=5)), "records")
        second = emit_report(run_scenario(scenario_c(seed=5)), "records")
        assert first.encode() == second.encode()

    def test_benchmark_same_seed_byte_identical(self):
        a = emit_report(run_benchmark(repetitions=30, seed=9), "records")
        b = emit_report(run_benchmark(repetitions=30, seed=9), "records")
        assert a.encode() == b.encode()

    def test_seeded_records_match_reference_digest(self):
        # The seeded records are an output of the latency model, so a change
        # that leaves the model alone leaves them byte-identical.
        reference = REFERENCE_DIGEST.read_text(encoding="utf-8").split()[0]
        records = emit_report(run_benchmark(repetitions=100, seed=1), "records")
        assert hashlib.sha256(records.encode()).hexdigest() == reference

    def test_seeded_text_matches_digest(self):
        text = emit_report(run_benchmark(repetitions=100, seed=1), "text")
        assert hashlib.sha256(text.encode()).hexdigest() == BENCH_TEXT_REPS100_SEED1_SHA256

    def test_seeded_sim_paper_records_match_digest(self):
        records = emit_report(run_benchmark(repetitions=30, seed=7), "records")
        assert hashlib.sha256(records.encode()).hexdigest() == BENCH_RECORDS_REPS30_SEED7_SHA256

    def test_different_seed_changes_jittered_benchmark(self):
        a = emit_report(run_benchmark(repetitions=30, seed=1), "records")
        b = emit_report(run_benchmark(repetitions=30, seed=2), "records")
        assert a != b


class TestEmitReport:
    def test_empty_report_is_header_only(self):
        report = ScenarioReport(scenario="empty", seed=0)
        assert emit_report(report, "records") == "scenario\tarm\tquery\toutcome\tlatency_us\n"

    def test_records_roundtrip(self):
        report = run_scenario(scenario_a())
        assert parse_records(emit_report(report, "records")) == report.samples

    def test_arms_listed_in_fixed_order(self):
        report = run_benchmark(repetitions=30, seed=0)
        text = emit_report(report, "text")
        positions = [text.index(arm) for arm in ARM_ORDER]
        assert positions == sorted(positions)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            emit_report(ScenarioReport(scenario="x", seed=0), "yaml")

    def test_text_contains_counters_and_verdict(self):
        text = emit_report(run_scenario(scenario_c()), "text")
        assert "counters[C-relay-spoof]" in text
        assert "all queries matched" in text

    @pytest.mark.parametrize("build", [scenario_a, scenario_c])
    def test_each_sample_is_what_its_constructor_builds(self, build):
        # Samples are built with new_record; each must equal the constructor's
        # build in type and in every field.
        scenario = build()
        report = execute_scenario(scenario, arm="an-arm").report
        assert report.all_expected
        for sample, query in zip(report.samples, scenario.queries, strict=True):
            timed_out = query.expected.kind == "timeout"
            expected = Sample(
                scenario=scenario.name,
                arm="an-arm",
                query=query.pv_name,
                outcome="timeout" if timed_out else f"value:{query.expected.value!r}",
                latency_us=None if timed_out else sample.latency_us,
            )
            assert type(sample) is Sample
            assert sample._asdict() == expected._asdict()
            assert timed_out or type(sample.latency_us) is int

    def test_timeout_sample_serialized_with_dash(self):
        report = run_scenario(scenario_a())
        records = emit_report(report, "records")
        assert "\ttimeout\t-" in records
        parsed = parse_records(records)
        assert any(s.latency_us is None for s in parsed)
