"""carelay benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Prints one line per metric (name, value,
unit), an ``env`` line with the run's environment record, and as the last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. The exit code is 0
only if every correctness gate held; 2 means the tree holds no carelay to
measure. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2
SETUP_REPEATS = 9
RELAY_PROCESSES = 8
OUT_DIR = ROOT / "perfbench" / "out"


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latency(samples_ns, prefix: str = "") -> dict[str, float]:
    if not samples_ns:  # every search failed; the run is reported as incorrect
        return {f"{prefix}rtt_p50_us": 0.0, f"{prefix}rtt_p99_us": 0.0}
    return {
        f"{prefix}rtt_p50_us": statistics.median(samples_ns) / 1e3,
        f"{prefix}rtt_p99_us": _percentile(samples_ns, 0.99) / 1e3,
    }


def _us(ns: float, per: int) -> float:
    return ns / 1e3 / per if per else 0.0


def _span(spans: dict, name: str, field: str = "total_ns") -> int:
    return spans.get(name, {}).get(field, 0)


def _relay_layers(spans: dict, counters: dict[str, int], per: int) -> dict[str, float]:
    """Per-search figures of the relay core, from spans and counter deltas."""
    received = counters.get("received", 0)
    return {
        "packet.encode.us_per_search": _us(_span(spans, "packet.encode"), per),
        "relay.classify.us_per_search": _us(_span(spans, "relay.classify"), per),
        "relay.handle_packet.self_us_per_search": _us(_span(spans, "relay.handle_packet", "self_ns"), per),
        "relay.on_flow_packet.us_per_search": _us(_span(spans, "relay.on_flow_packet"), per),
        "relay.expire_flows.us_per_search": _us(_span(spans, "relay.expire_flows"), per),
        "relay.received": received,
        "relay.relayed": counters.get("relayed", 0),
        "relay.dropped_local": counters.get("dropped_local", 0),
        "relay.dropped_not_allowed": counters.get("dropped_not_allowed", 0),
        "relay.replies_forwarded": counters.get("replies_forwarded", 0),
        "relay.accept_frac": counters.get("relayed", 0) / received if received else 0.0,
    }


# Layers that only the simulator runs; the loopback workloads report them as 0.
SIM_ONLY = (
    "netsim.events_per_s",
    "netsim.deliveries_per_query",
    "netsim.run_until.self_us_per_query",
    "endpoints.ioc_search.us_per_query",
    "ca_wire.find.us_per_query",
)


def _transport_send_us(spans: dict, names: tuple[str, ...]) -> float:
    calls = sum(_span(spans, n, "calls") for n in names)
    return _us(sum(_span(spans, n) for n in names), calls)


# -- loopback workloads ----------------------------------------------------------


def run_loopback(spec, seed: int, seconds: float, trace: bool):
    from perfbench import loopback

    run = loopback.Run(spec, ROOT, seed)
    relay = None
    try:
        if not trace:
            # Each relay process lands on its own memory layout and hash
            # seed, which moved its round trip by up to a quarter in trials;
            # pooling several processes' segments averages that out.
            setups, walls, parts = [], [], []
            for _ in range(RELAY_PROCESSES):
                relay, setup_s, wall_s = run.start()
                setups.append(setup_s)
                walls.append(wall_s)
                run.warm_up()
                parts.append(run.measure(relay, seconds / RELAY_PROCESSES, rtt=True))
                relay.stop()
                relay = None
            plain = loopback.Measurement.pooled(parts)
            latency = _latency(plain.rtts_ref_ns[loopback.SMALL])
            metrics = {
                "searches_per_cpu_s": plain.searches_per_cpu_s,
                "rtt_p50_us": latency["rtt_p50_us"],
                "setup_s": statistics.median(setups),
            }
            extra = {
                "rtt_samples": len(plain.rtts_ns[loopback.SMALL]),
                **latency,
                **_latency(plain.rtts_ns[loopback.SMALL], "raw_"),
                "raw_setup_wall_s": statistics.median(walls),
            }
            if plain.rtts_ns[loopback.BATCHED]:
                extra["batched_rtt_samples"] = len(plain.rtts_ns[loopback.BATCHED])
                extra.update(_latency(plain.rtts_ref_ns[loopback.BATCHED], "batched_"))
        else:
            relay = run.start()[0]
            run.warm_up()
            plain = run.measure(relay, 0.5 * seconds, rtt=False)
            relay.stop()
            relay = None
            OUT_DIR.mkdir(exist_ok=True)
            relay = run.start(trace=True, spans_path=str(OUT_DIR / f"spans-{spec.mode}.tsv"))[0]
            run.warm_up()
            traced = run.measure(relay, 0.5 * seconds, rtt=False)
            spans = relay.stop().get("spans", {})
            relay = None
            per = traced.relayed
            metrics = _relay_layers(spans, traced.deltas, per)
            metrics.update(
                {
                    "transport.recv_us_per_datagram": _us(
                        _span(spans, "transport.recv"), _span(spans, "transport.recv", "calls")
                    ),
                    "transport.send_us_per_datagram": _transport_send_us(spans, ("transport.send",)),
                    "transport.serve.self_us_per_search": _us(
                        traced.relay_cpu_s * 1e9 - _span(spans, "<top>"), per
                    ),
                    "transport.wakeups_per_search": _span(spans, "relay.expire_flows", "calls") / per,
                    "transport.kernel_drops": plain.kernel_drops + traced.kernel_drops,
                    "trace.overhead_frac": 1 - traced.searches_per_cpu_s / plain.searches_per_cpu_s,
                    **dict.fromkeys(SIM_ONLY, 0.0),
                }
            )
            extra = {
                "untraced_searches_per_cpu_s": plain.searches_per_cpu_s,
                "traced_searches_per_cpu_s": traced.searches_per_cpu_s,
            }
        metrics.update(
            {
                "wall_searches_per_s": plain.completed / plain.wall_s,
                # Generator and relay share one CPU; this is the generator's part.
                "gen.cpu_frac": plain.gen_cpu_s / (plain.gen_cpu_s + plain.relay_cpu_s),
                "host.steal_frac": plain.steal_frac,
            }
        )
        extra.update(
            raw_searches_per_cpu_s=plain.raw_searches_per_cpu_s,
            kernel_drops=plain.kernel_drops,
            traffic="loopback interface only (127.0.0.0/8)",
            raw_send=(
                "IPPROTO_RAW send replaced by a UDP send of the identical encoded IPv4+UDP frame"
                if spec.mode == "spoof"
                else "not used (proxy mode)"
            ),
        )
        return metrics, run.attempted, run.failed, run.gen.notes, extra
    finally:
        if relay is not None:
            relay.kill()
        run.close()


# -- simulator workload ----------------------------------------------------------


def run_sim(seed: int, seconds: float, trace: bool):
    from perfbench import sim
    from perfbench.calib import Calibrator, scale
    from perfbench.spans import Tracer

    setups, walls = [], []
    calibrator = Calibrator()
    calib = calibrator.run()
    for _ in range(SETUP_REPEATS):
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        scenarios = sim.set_up(ROOT, seed)
        cpu, wall = time.thread_time() - cpu0, time.perf_counter() - wall0
        calib_after = calibrator.run()
        setups.append(cpu * scale(calib, calib_after))
        walls.append(wall)
        calib = calib_after
    calibrator.close()

    if not trace:
        stats = sim.run_rounds(scenarios, seed, seconds=seconds)
        plain = stats
        latency = _latency(stats.query_wall_ref_ns)
        metrics = {
            "searches_per_cpu_s": stats.searches_per_cpu_s,
            "rtt_p50_us": latency["rtt_p50_us"],
            "setup_s": statistics.median(setups),
        }
        extra = {
            "rtt_samples": len(stats.query_wall_ns),
            **latency,
            **_latency(stats.query_wall_ns, "raw_"),
        }
        checked = [stats]
    else:
        plain = sim.run_rounds(scenarios, seed, seconds=0.5 * seconds)
        tracer = Tracer()
        with sim.patched(*sim.instrumentation(tracer)):
            stats = sim.run_rounds(scenarios, seed, seconds=0.5 * seconds)
        spans = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / "spans-sim.tsv")
        per = stats.queries
        run_until_s = _span(spans, "netsim.run_until") / 1e9
        metrics = _relay_layers(spans, stats.counters, per)
        metrics.update(
            {
                "transport.recv_us_per_datagram": 0.0,
                "transport.send_us_per_datagram": _transport_send_us(
                    spans, ("transport.emit_spoofed", "transport.flow_send")
                ),
                "transport.serve.self_us_per_search": 0.0,
                "transport.wakeups_per_search": 0.0,
                "transport.kernel_drops": 0,
                "netsim.events_per_s": tracer.counts["netsim.events"] / run_until_s if run_until_s else 0.0,
                "netsim.deliveries_per_query": tracer.counts["netsim.deliveries"] / per,
                "netsim.run_until.self_us_per_query": _us(_span(spans, "netsim.run_until", "self_ns"), per),
                "endpoints.ioc_search.us_per_query": _us(_span(spans, "endpoints.ioc_search"), per),
                "ca_wire.find.us_per_query": _us(
                    _span(spans, "ca_wire.find_search_requests") + _span(spans, "ca_wire.find_search_response"),
                    per,
                ),
                "trace.overhead_frac": 1 - stats.searches_per_cpu_s / plain.searches_per_cpu_s,
            }
        )
        extra = {
            "untraced_searches_per_cpu_s": plain.searches_per_cpu_s,
            "traced_searches_per_cpu_s": stats.searches_per_cpu_s,
        }
        checked = [plain, stats]
    metrics.update(
        {
            "wall_searches_per_s": plain.queries / plain.wall_s,
            "gen.cpu_frac": plain.cpu_s / plain.wall_s,
        }
    )
    extra.update(
        raw_searches_per_cpu_s=plain.raw_searches_per_cpu_s,
        raw_setup_wall_s=statistics.median(walls),
        traffic="none (in-process simulator)",
    )
    notes = []
    for s in checked:
        notes += s.mismatches + sim.determinism_failures(s)
    if plain.digests[:1] != stats.digests[:1]:
        notes.append("traced rounds produced different benchmark records from untraced rounds")
    notes += sim.reference_failures()
    attempted = sum(s.queries for s in checked)
    return metrics, attempted, len(notes), notes, extra


# -- entry point -----------------------------------------------------------------


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("proxy_flows", "spoof_batched", "sim_paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    missing = [p for p in ("src/carelay/relay.py", "configs/scenario_c.yaml", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: nothing to benchmark, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import envinfo

    host0 = envinfo.cpu_times()
    if args.workload == "sim_paper":
        metrics, attempted, failed, notes, extra = run_sim(args.seed, args.seconds, trace)
    else:
        from perfbench import loopback

        spec = loopback.PROXY_FLOWS if args.workload == "proxy_flows" else loopback.SPOOF_BATCHED
        metrics, attempted, failed, notes, extra = run_loopback(spec, args.seed, args.seconds, trace)
    if trace:
        from perfbench.micro import run_micro

        metrics.update(run_micro(ROOT, args.seed))
        metrics["failed_frac"] = failed / attempted if attempted else 1.0
        metrics.setdefault("host.steal_frac", envinfo.steal_frac(host0, envinfo.cpu_times()))

    units = _declared(trace)
    unmeasured = sorted(set(units) - set(metrics))
    if unmeasured:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run did not measure: {unmeasured}")
    env = envinfo.record(
        ROOT,
        vars(args),
        {**extra, **metrics, "run_steal_frac": envinfo.steal_frac(host0, envinfo.cpu_times())},
        generator_cpu_frac=None if args.workload == "sim_paper" else metrics["gen.cpu_frac"],
    )
    for name in units:
        print(f"{name:<42} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'attempted':<42} {attempted:>16d}")
    print(f"{'failed':<42} {failed:>16d}  (failed_frac {failed / max(attempted, 1):.3g})")
    for note in notes:
        print(f"gate: {note}")
    if env["generator_saturated"]:
        print("warning: the generator took most of the shared CPU; its RTT figures measure the generator")
    print("env " + json.dumps(env, sort_keys=True))
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
