"""Scenario runner and latency benchmark.

The paper's two-subnet test network (a beamline segment with two multi-IOC
servers, a client segment behind a broadcast-to-unicast helper) and its
three scenarios are defined once, in ``configs/scenario_{a,b,c}.yaml``; the
builders here load those fixtures:

* A -- helper conversion only: the unicast lands on the last-bound IOC, so
  exactly one PV per server resolves and everything else times out.
* B -- plus a prerouting rewrite to the limited broadcast on server 1: all
  of server 1's PVs resolve, but the rewrite never re-emits onto the wire,
  so server 2 stays unreachable.
* C -- plus the relay: queries resolve across both servers.

The benchmark compares resolution latency for a client inside the target
subnet (DIRECT), the source-preserving relay (PERSISTENT), and the
fork-per-request cost model (FORK_MODEL: a proxy relay whose host takes the
fork cost to process each request) on the virtual clock.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from .ca_wire import new_record
from .config import ExpectedOutcome, Scenario, config_from_mapping, load_yaml
from .endpoints import CaClient, IocSim
from .netsim import Interface, VirtualHost, VirtualNetwork, VirtualTopology
from .relay import Relay, RelayMode, SimTransport

ARM_ORDER = ("DIRECT", "PERSISTENT", "FORK_MODEL")

CONFIG_DIR = Path(__file__).resolve().parents[2] / "configs"
# The fixtures' client host, which perfbench.micro queries from.
CLIENT = "TesterHEpics"
# The DIRECT arm's client sits inside the servers' subnet; it is not part of
# the paper's network, so the fixtures do not carry it.
DIRECT_CLIENT = "TesterDirect"
DIRECT_CLIENT_IP = "10.2.1.100"
# The fork model's per-request processing cost on the relay host.
FORK_COST_S = 0.005
# Fewest repetitions per query that the benchmark's medians are taken over.
MIN_BENCH_REPETITIONS = 30
# Per-hop jitter of the benchmark's networks, so that the samples spread.
BENCH_JITTER_US = 10


class Sample(NamedTuple):
    scenario: str
    arm: str
    query: str
    outcome: str
    latency_us: int | None


@dataclass(frozen=True)
class ArmStats:
    count: int
    median_us: float
    mean_us: float
    p95_us: int
    max_us: int


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    samples: list[Sample] = field(default_factory=list)
    arm_stats: dict[str, ArmStats] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    median_ordering_ok: bool | None = None

    @property
    def all_expected(self) -> bool:
        return not self.mismatches


@dataclass
class ScenarioRun:
    """Execution artifacts: the report plus the live harness for inspection."""

    report: ScenarioReport
    net: VirtualNetwork
    relay: Relay | None
    clients: dict[str, CaClient]


@functools.cache
def _fixture(name: str):
    return load_yaml((CONFIG_DIR / name).read_text(encoding="utf-8"))


def _load_scenario(fixture: str, name: str, seed: int) -> Scenario:
    """Fresh objects on every call, built from the fixture's YAML parsed once per process."""
    return config_from_mapping(_fixture(fixture)).scenario(name, seed, repetitions=1)


def paper_topology() -> VirtualTopology:
    """The paper's network as scenario A has it: no prerouting rule, no relay."""
    return scenario_a().topology


def scenario_a(seed: int = 0) -> Scenario:
    return _load_scenario("scenario_a.yaml", "A-helper-only", seed)


def scenario_b(seed: int = 0) -> Scenario:
    return _load_scenario("scenario_b.yaml", "B-prerouting-rewrite", seed)


def scenario_c(seed: int = 0, mode: RelayMode = RelayMode.SPOOF) -> Scenario:
    scenario = _load_scenario("scenario_c.yaml", f"C-relay-{mode.value}", seed)
    scenario.relay_config = replace(scenario.relay_config, mode=mode)
    return scenario


def _matches(expected: ExpectedOutcome, outcome_timed_out: bool, value: float | None) -> bool:
    if expected.kind == "timeout":
        return outcome_timed_out
    return not outcome_timed_out and value == expected.value


def build_network(scenario: Scenario, log: bool = True) -> tuple[VirtualNetwork, Relay | None]:
    """The scenario's network, keeping its delivery log if ``log``, with its bare bindings, IOCs and relay in place."""
    net = VirtualNetwork(scenario.topology, seed=scenario.seed, log=log)
    for host, port, owner in scenario.pre_bindings:
        net.bind(host, port, owner)
    for spec in scenario.iocs:
        IocSim(
            net,
            spec.host,
            spec.name,
            spec.pvs,
            server_port=spec.server_port,
            advertise_own_address=spec.advertise_own_address,
        )
    relay = None
    if scenario.relay_config is not None:
        transport = SimTransport(net, scenario.relay_host, scenario.relay_request_delay_us)
        relay = Relay(scenario.relay_config, transport)
    return net, relay


def execute_scenario(scenario: Scenario, arm: str | None = None, log: bool = True) -> ScenarioRun:
    """Run every query repetitions times on a fresh network, which keeps its delivery log if ``log``."""
    if scenario.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if (scenario.relay_config is None) != (scenario.relay_host is None):
        raise ValueError("relay_config and relay_host go together")

    net, relay = build_network(scenario, log)
    clients: dict[str, CaClient] = {}
    arm_name = arm or scenario.name
    report = ScenarioReport(scenario=scenario.name, seed=scenario.seed)
    for _ in range(scenario.repetitions):
        for query in scenario.queries:
            client = clients.get(query.client_host)
            if client is None:
                client = CaClient(net, query.client_host, config=scenario.client_config)
                clients[query.client_host] = client
            result = client.query(query.pv_name)
            sample = (scenario.name, arm_name, query.pv_name, result.outcome, result.latency_us)
            report.samples.append(new_record(Sample, sample))
            if not _matches(query.expected, result.timed_out, result.value):
                report.mismatches.append(
                    f"{arm_name}/{query.pv_name}: expected {query.expected}, got {result.outcome}"
                )
    _fill_stats(report)
    if relay is not None:
        report.counters[arm_name] = dict(vars(relay.counters))
    return ScenarioRun(report, net, relay, clients)


def run_scenario(scenario: Scenario) -> ScenarioReport:
    return execute_scenario(scenario, log=False).report


def benchmark_scenarios(repetitions: int, seed: int) -> dict[str, Scenario]:
    """One scenario per benchmark arm, on the common paper network.

    DIRECT asks scenario C's queries from a client in the servers' subnet on
    scenario A's network, which has no relay.
    """
    arms = {
        "DIRECT": scenario_a(seed),
        "PERSISTENT": scenario_c(seed + 1),
        "FORK_MODEL": scenario_c(seed + 2, RelayMode.PROXY),
    }
    direct = arms["DIRECT"]
    subnet = next(d.subnet for d in direct.topology.domains if d.subnet.contains(DIRECT_CLIENT_IP))
    direct.topology.hosts.append(VirtualHost(DIRECT_CLIENT, [Interface(DIRECT_CLIENT_IP, subnet)]))
    direct.queries = [replace(q, client_host=DIRECT_CLIENT) for q in arms["PERSISTENT"].queries]
    arms["FORK_MODEL"].relay_request_delay_us = int(FORK_COST_S * 1e6)
    for scenario in arms.values():
        scenario.name = "bench"
        scenario.topology.jitter_us = BENCH_JITTER_US
        scenario.repetitions = repetitions
    return arms


def run_benchmark(repetitions: int = 100, seed: int = 0) -> ScenarioReport:
    if repetitions < MIN_BENCH_REPETITIONS:
        raise ValueError(f"benchmark needs at least {MIN_BENCH_REPETITIONS} repetitions")

    scenarios = benchmark_scenarios(repetitions, seed)
    report = ScenarioReport(scenario="bench", seed=seed)
    for arm in ARM_ORDER:
        run = execute_scenario(scenarios[arm], arm=arm, log=False)
        report.samples.extend(run.report.samples)
        report.mismatches.extend(run.report.mismatches)
        report.counters.update(run.report.counters)
    _fill_stats(report)

    medians = {arm: report.arm_stats[arm].median_us for arm in report.arm_stats}
    if all(arm in medians for arm in ARM_ORDER):
        report.median_ordering_ok = (
            medians["DIRECT"] <= medians["PERSISTENT"] <= medians["FORK_MODEL"]
        )
    return report


def _fill_stats(report: ScenarioReport) -> None:
    by_arm: dict[str, list[int]] = {}
    for sample in report.samples:
        if sample.latency_us is not None:
            by_arm.setdefault(sample.arm, []).append(sample.latency_us)
    report.arm_stats = {
        arm: ArmStats(
            count=len(values),
            median_us=statistics.median(values),
            mean_us=statistics.fmean(values),
            p95_us=sorted(values)[max(0, -(-len(values) * 95 // 100) - 1)],
            max_us=max(values),
        )
        for arm, values in by_arm.items()
    }


RECORD_HEADER = "scenario\tarm\tquery\toutcome\tlatency_us"


def emit_report(report: ScenarioReport, fmt: str) -> str:
    if fmt == "records":
        return _emit_records(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _emit_records(report: ScenarioReport) -> str:
    lines = [RECORD_HEADER]
    for s in report.samples:
        latency = "-" if s.latency_us is None else str(s.latency_us)
        lines.append(f"{s.scenario}\t{s.arm}\t{s.query}\t{s.outcome}\t{latency}")
    return "\n".join(lines) + "\n"


def _emit_text(report: ScenarioReport) -> str:
    lines = [f"scenario: {report.scenario}  seed: {report.seed}"]
    lines.append(f"{'arm':<14} {'count':>6} {'median_us':>10} {'mean_us':>10} {'p95_us':>8} {'max_us':>8}")
    for arm, stats in report.arm_stats.items():
        lines.append(
            f"{arm:<14} {stats.count:>6} {stats.median_us:>10.1f} "
            f"{stats.mean_us:>10.1f} {stats.p95_us:>8} {stats.max_us:>8}"
        )
    if report.median_ordering_ok is not None:
        lines.append(f"median ordering DIRECT <= PERSISTENT <= FORK_MODEL: {report.median_ordering_ok}")
    for arm, counters in report.counters.items():
        pairs = " ".join(f"{k}={v}" for k, v in counters.items())
        lines.append(f"counters[{arm}]: {pairs}")
    if report.mismatches:
        lines.append("mismatches:")
        lines.extend(f"  {m}" for m in report.mismatches)
    else:
        lines.append("all queries matched their expected outcomes")
    return "\n".join(lines) + "\n"
