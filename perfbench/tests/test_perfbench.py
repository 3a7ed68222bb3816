"""Self-tests of the benchmark: its oracle, every workload at tiny size, and
that the tracing wrappers change only timing.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from carelay import ca_wire
from carelay.packet import Ipv4UdpPacket, encode
from perfbench import loopback, sim, wire
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 0.5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_oracle_accepts_encoded_frames_and_rejects_any_flipped_bit():
    rng = random.Random(1)
    for size in (0, 1, 47, 48, 1296):
        payload = bytes(rng.getrandbits(8) for _ in range(size))
        packet = Ipv4UdpPacket("127.0.0.5", "255.255.255.255", 40001, 5064, payload, identification=size)
        frame = encode(packet)
        assert wire.check_frame(frame) == ("127.0.0.5", 40001, "255.255.255.255", 5064, payload)
        for index in range(0, len(frame), max(1, len(frame) // 64)):
            corrupt = bytearray(frame)
            corrupt[index] ^= 0x10
            with pytest.raises(wire.FrameError):
                wire.check_frame(bytes(corrupt))


def test_generator_templates_are_valid_channel_access():
    rng = random.Random(2)
    small = wire.with_search_id(wire.search_template(rng), 77)
    batched = wire.with_search_id(wire.search_template(rng, wire.BATCH_NAMES), 78)
    assert (len(small), len(batched)) == (48, 1296)
    assert [r.search_id for r in ca_wire.find_search_requests(small)] == [77]
    found = ca_wire.find_search_requests(batched)
    assert len(found) == wire.BATCH_NAMES and found[0].search_id == 78
    response = wire.with_response_id(wire.response_template(), 79)
    assert ca_wire.find_search_response(response).search_id == 79
    assert wire.search_id_of(response) == wire.search_id_of(wire.with_search_id(small, 79)) == 79


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _relay_counts(spec, trace: bool):
    run = loopback.Run(spec, ROOT, seed=7)
    try:
        relay = run.start(trace=trace)[0]
        try:
            before = relay.request("snap")
            stats = run.gen.drive(spec.window, count=300)
            after = relay.request("snap")
        finally:
            relay.stop()
        return loopback._deltas(before, after), stats.sent, run.failed + stats.failed
    finally:
        run.close()


@pytest.mark.parametrize("spec", [loopback.PROXY_FLOWS, loopback.SPOOF_BATCHED], ids=["proxy", "spoof"])
def test_tracing_leaves_relay_counters_unchanged(spec):
    plain, traced = _relay_counts(spec, False), _relay_counts(spec, True)
    assert plain == traced
    assert plain[2] == 0 and plain[0]["relayed"] > 0


def test_tracing_leaves_sim_records_unchanged():
    scenarios = sim.set_up(ROOT, 3)
    plain = sim.run_rounds(scenarios, 3, rounds=1)
    tracer = Tracer()
    with sim.patched(*sim.instrumentation(tracer)):
        traced = sim.run_rounds(scenarios, 3, rounds=1)
    assert tracer.spans, "the wrappers recorded nothing"
    assert (plain.digests, plain.counters, plain.queries) == (traced.digests, traced.counters, traced.queries)
    assert plain.mismatches == traced.mismatches == []


def test_reference_digest_matches_seeded_benchmark():
    assert sim.reference_failures() == []


def test_conservation_gate_flags_a_lost_search():
    stats = loopback.PhaseStats()
    stats.sent.update(small=10, local=1, not_allowed=1)
    stats.stub_replies = 10
    honest = {"received": 12, "relayed": 10, "dropped_local": 1, "dropped_not_allowed": 1,
              "dropped_port": 0, "dropped_rate_limited": 0, "replies_forwarded": 10}
    assert loopback.conservation_failures(loopback.PROXY_FLOWS, stats, honest, 0) == []
    lossy = dict(honest, relayed=9, received=11)
    assert len(loopback.conservation_failures(loopback.PROXY_FLOWS, stats, lossy, 0)) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    for workload in WORKLOADS:
        done = run_bench(workload, 0, cwd=tmp_path)
        assert done.returncode != 0
        assert not done.stdout.strip()


def test_compare_flags_a_regression(tmp_path):
    def line(value):
        return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"searches_per_cpu_s": {"value": value, "unit": "1/s"}}})

    (tmp_path / "a.jsonl").write_text("\n".join(line(v) for v in (100, 101, 99, 100)))
    (tmp_path / "b.jsonl").write_text("\n".join(line(v) for v in (60, 61, 59, 60)))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"), str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert "worse" in done.stdout
