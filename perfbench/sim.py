"""sim_paper: the deterministic simulator, in-process and single-threaded.

Parses the three ``configs/scenario_*.yaml`` fixtures, builds scenarios A,
B, C-spoof and C-proxy from them, and runs those plus ``run_benchmark`` for
all three arms in rounds until the time is up. No sockets are opened and
``packet.encode`` never runs, so only ``netsim``, ``endpoints``, ``ca_wire``
and the sans-IO relay core are measured.

Correctness: every query must match its expected outcome, every round's
seeded ``run_benchmark`` records must equal the first round's, and
``run_benchmark(repetitions=100, seed=1)`` in ``--format records`` form must
hash to the digest kept in ``reference/``.
"""

from __future__ import annotations

import copy
import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import carelay.ca_wire
import carelay.relay
from carelay.bench import Scenario, emit_report, run_benchmark, run_scenario
from carelay.config import install_relay_prerouting, parse_config
from carelay.endpoints import CaClient, IocSim
from carelay.netsim import VirtualNetwork
from carelay.relay import Relay, RelayMode, SimTransport

from .calib import Calibrator, scale
from .spans import Tracer
from .wire import request_key

FIXTURES = ("scenario_a.yaml", "scenario_b.yaml", "scenario_c.yaml")
SCENARIO_REPS = 10
BENCH_REPS = 30
REFERENCE_REPS, REFERENCE_SEED = 100, 1
REFERENCE_DIGEST = Path(__file__).with_name("reference") / "bench_records_reps100_seed1.sha256"


def records_digest(report) -> str:
    return hashlib.sha256(emit_report(report, "records").encode()).hexdigest()


def load_scenarios(root: Path, seed: int) -> list[Scenario]:
    """A, B, C-spoof and C-proxy, built from the parsed fixtures."""
    built = []
    for fixture in FIXTURES:
        config = parse_config((root / "configs" / fixture).read_text(encoding="utf-8"))
        if config.relay_install_prerouting:
            install_relay_prerouting(config)
        built.append(
            Scenario(
                name=fixture.removesuffix(".yaml"),
                topology=config.topology,
                iocs=config.iocs,
                queries=config.queries,
                relay_config=config.relay if config.relay_host is not None else None,
                relay_host=config.relay_host,
                client_config=config.client,
                repetitions=SCENARIO_REPS,
                seed=seed,
                pre_bindings=config.extra_bindings,
            )
        )
    proxy = copy.deepcopy(built[-1])
    proxy.name = "scenario_c_proxy"
    proxy.relay_config = replace(proxy.relay_config, mode=RelayMode.PROXY)
    return built + [proxy]


def set_up(root: Path, seed: int) -> list[Scenario]:
    """Parse the fixtures and build each scenario's network once."""
    scenarios = load_scenarios(root, seed)
    for scenario in scenarios:
        VirtualNetwork(copy.deepcopy(scenario.topology), seed=seed)
    return scenarios


@contextmanager
def patched(*patches):
    """Temporarily set (owner, attribute, value) triples."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def instrumentation(tracer: Tracer) -> list[tuple]:
    """Span wrappers around each simulator layer boundary; restored afterwards."""

    def step_counter(step):
        def counted(net):
            fired = step(net)
            tracer.counts["netsim.events"] += 1
            tracer.counts["netsim.deliveries"] += len(fired)
            return fired

        return counted

    packet_key = lambda self, packet, now: request_key(packet.payload)  # noqa: E731
    return [
        (CaClient, "query", tracer.wrap("endpoints.query", CaClient.query, lambda client, *a, **k: client._next_search_id)),
        (VirtualNetwork, "run_until", tracer.wrap("netsim.run_until", VirtualNetwork.run_until)),
        (VirtualNetwork, "_step", step_counter(VirtualNetwork._step)),
        (IocSim, "on_search_datagram", tracer.wrap("endpoints.ioc_search", IocSim.on_search_datagram)),
        (Relay, "handle_packet", tracer.wrap("relay.handle_packet", Relay.handle_packet, packet_key)),
        (Relay, "on_flow_packet", tracer.wrap("relay.on_flow_packet", Relay.on_flow_packet,
                                              lambda self, port, packet, now: request_key(packet.payload))),
        (Relay, "expire_flows", tracer.wrap("relay.expire_flows", Relay.expire_flows)),
        (SimTransport, "emit_spoofed", tracer.wrap("transport.emit_spoofed", SimTransport.emit_spoofed)),
        (SimTransport, "flow_send", tracer.wrap("transport.flow_send", SimTransport.flow_send)),
        (carelay.relay, "classify", tracer.wrap("relay.classify", carelay.relay.classify)),
        (carelay.relay, "encode", tracer.wrap("packet.encode", carelay.relay.encode)),
        (carelay.ca_wire, "find_search_requests",
         tracer.wrap("ca_wire.find_search_requests", carelay.ca_wire.find_search_requests)),
        (carelay.ca_wire, "find_search_response",
         tracer.wrap("ca_wire.find_search_response", carelay.ca_wire.find_search_response)),
    ]


@dataclass
class SimStats:
    """Totals over the rounds; ``*_ref`` figures are scaled to the reference core."""

    queries: int = 0
    mismatches: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    round_rates: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    query_wall_ns: list[int] = field(default_factory=list)
    query_wall_ref_ns: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)

    @property
    def searches_per_cpu_s(self) -> float:
        """Median over the rounds, on the reference core."""
        return statistics.median(self.round_rates)

    @property
    def raw_searches_per_cpu_s(self) -> float:
        return self.queries / self.cpu_s


def _timed_query(samples: list[int]):
    query = CaClient.query

    def timed(client, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return query(client, *args, **kwargs)
        finally:
            samples.append(time.perf_counter_ns() - start)

    return timed


def run_rounds(
    scenarios: list[Scenario], seed: int, seconds: float | None = None, rounds: int | None = None
) -> SimStats:
    """Run the scenarios and the seeded benchmark in rounds until time or count is up.

    Only the calls into carelay are on the CPU clock; copying the pristine
    scenarios for each round is not. A calibration before and after each
    round scales that round to the reference core.
    """
    stats = SimStats()
    wall0 = time.perf_counter()
    done = 0
    calibrator = Calibrator()
    calib = calibrator.run()
    round_wall_ns: list[int] = []
    with patched((CaClient, "query", _timed_query(round_wall_ns))):
        while (seconds is None or time.perf_counter() - wall0 < seconds) and (rounds is None or done < rounds):
            fresh = copy.deepcopy(scenarios)
            round_wall_ns.clear()
            cpu0 = time.thread_time()
            reports = [run_scenario(s) for s in fresh]
            reports.append(run_benchmark(repetitions=BENCH_REPS, seed=seed))
            cpu = time.thread_time() - cpu0
            calib_after = calibrator.run()
            factor = scale(calib, calib_after)
            calib = calib_after
            stats.cpu_s += cpu
            stats.query_wall_ns += round_wall_ns
            stats.query_wall_ref_ns += [ns * factor for ns in round_wall_ns]
            stats.round_rates.append(sum(len(r.samples) for r in reports) / (cpu * factor))
            for report in reports:
                stats.queries += len(report.samples)
                stats.mismatches.extend(report.mismatches)
                for counters in report.counters.values():
                    for name, value in counters.items():
                        stats.counters[name] = stats.counters.get(name, 0) + value
            stats.digests.append(records_digest(reports[-1]))
            done += 1
    calibrator.close()
    stats.wall_s = time.perf_counter() - wall0
    return stats


def reference_failures() -> list[str]:
    """The fixed-seed benchmark records must hash to the committed digest."""
    want = REFERENCE_DIGEST.read_text(encoding="ascii").split()[0]
    got = records_digest(run_benchmark(repetitions=REFERENCE_REPS, seed=REFERENCE_SEED))
    if got != want:
        return [f"run_benchmark(repetitions={REFERENCE_REPS}, seed={REFERENCE_SEED}) records sha256 {got}, reference {want}"]
    return []


def determinism_failures(stats: SimStats) -> list[str]:
    return [
        f"round {i} benchmark records differ from round 0 at the same seed"
        for i, digest in enumerate(stats.digests)
        if digest != stats.digests[0]
    ]
