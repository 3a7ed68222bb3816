"""Layer microbenchmarks on inputs drawn from the workload seed.

Each figure is the median, over ``REPEATS`` timed repeats, of the mean time
per call across the seeded inputs. "small" is a single-name 48 B search
(76 B as an IPv4+UDP frame); "batched" packs 40 names into 1296 B (1324 B
framed). Every traced run reports all of them, whatever its workload.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

from carelay import ca_wire
from carelay.bench import CLIENT, execute_scenario, paper_topology, scenario_c
from carelay.config import parse_config
from carelay.endpoints import IocSim
from carelay.netsim import VirtualNetwork
from carelay.packet import Cidr, Ipv4UdpPacket, checksum16, decode, encode
from carelay.relay import Relay, RelayConfig, RelayMode, classify

from . import wire
from .loopback import ALLOW, LOCAL, LOCAL_SUBNET, NOT_ALLOWED, PROXY_FLOWS, SMALL, SPOOF_TARGET

REPEATS = 7
REPEAT_S = 0.01
LISTEN_PORT = 6064
FLOWS = 256


def per_call_us(fn, inputs: list[tuple]) -> float:
    """Median over repeats of the mean microseconds per ``fn(*args)``."""
    start = time.perf_counter()
    for args in inputs:
        fn(*args)
    once = time.perf_counter() - start
    loops = max(1, int(REPEAT_S / max(once, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            for args in inputs:
                fn(*args)
        samples.append((time.perf_counter() - start) / (loops * len(inputs)))
    return statistics.median(samples) * 1e6


class RecordingTransport:
    """Sans-IO transport that keeps what the relay emits.

    ``emit_spoofed`` encodes exactly as the real transport does before its
    raw send, so the spoof figure includes the checksum work.
    """

    def __init__(self) -> None:
        self.sent: list = []
        self._next_port = 40000

    def attach(self, relay) -> None:
        del relay

    def emit_spoofed(self, packet) -> None:
        self.sent.append(encode(packet))

    def open_flow(self) -> int:
        self._next_port += 1
        return self._next_port

    def close_flow(self, port: int) -> None:
        del port

    def flow_send(self, local_port, payload, dst_ip, dst_port) -> None:
        self.sent.append((local_port, payload, dst_ip, dst_port))

    def drain(self) -> None:
        self.sent.clear()


def _relay_config(mode: RelayMode) -> RelayConfig:
    return RelayConfig(
        target_broadcast=SPOOF_TARGET[0],
        target_port=SPOOF_TARGET[1],
        listen_port=LISTEN_PORT,
        allow_sources=(Cidr.parse(ALLOW),),
        local_subnet=Cidr.parse(LOCAL_SUBNET),
        mode=mode,
    )


def _source(rng: random.Random, kind: str) -> str:
    prefix = {LOCAL: "127.0.1", NOT_ALLOWED: "127.0.2"}.get(kind, "127.0.0")
    return f"{prefix}.{rng.randrange(2, 250)}"


def _packet(rng: random.Random, src_ip: str, payload: bytes) -> Ipv4UdpPacket:
    return Ipv4UdpPacket(src_ip, "127.0.0.1", rng.randrange(1024, 65536), LISTEN_PORT, payload)


def run_micro(root: Path, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    small = wire.search_template(rng)
    batched = wire.search_template(rng, wire.BATCH_NAMES)
    accepted = [_packet(rng, _source(rng, SMALL), small) for _ in range(16)]
    mixed = [_packet(rng, _source(rng, kind), small) for kind in PROXY_FLOWS.block]
    big = [_packet(rng, p.src_ip, batched) for p in accepted[:4]]
    frames_small = [encode(p) for p in accepted]
    frames_big = [encode(p) for p in big]
    responses = [wire.with_response_id(wire.response_template(), rng.getrandbits(32)) for _ in range(16)]
    names = [wire.random_name(rng) for _ in range(16)]
    local = Cidr.parse(LOCAL_SUBNET)

    out = {
        "packet.checksum16_us.small": per_call_us(checksum16, [(f,) for f in frames_small]),
        "packet.checksum16_us.batched": per_call_us(checksum16, [(f,) for f in frames_big]),
        "packet.encode_us.small": per_call_us(encode, [(p,) for p in accepted]),
        "packet.encode_us.batched": per_call_us(encode, [(p,) for p in big]),
        "packet.decode_us.small": per_call_us(decode, [(f,) for f in frames_small]),
        "packet.decode_us.batched": per_call_us(decode, [(f,) for f in frames_big]),
        "packet.cidr_contains_us": per_call_us(local.contains, [(p.src_ip,) for p in mixed]),
        "ca_wire.encode_search_us": per_call_us(
            ca_wire.encode_search_datagram,
            [(ca_wire.SearchRequest(n, rng.getrandbits(32)),) for n in names],
        ),
        "ca_wire.find_search_requests_us.small": per_call_us(
            ca_wire.find_search_requests, [(p.payload,) for p in accepted]
        ),
        "ca_wire.find_search_requests_us.batched": per_call_us(
            ca_wire.find_search_requests, [(p.payload,) for p in big]
        ),
        "ca_wire.find_search_response_us": per_call_us(
            ca_wire.find_search_response, [(r,) for r in responses]
        ),
    }

    config = _relay_config(RelayMode.SPOOF)
    out["relay.classify_us"] = per_call_us(classify, [(p, config) for p in mixed])
    for mode, label in ((RelayMode.SPOOF, "spoof"), (RelayMode.PROXY, "proxy")):
        transport = RecordingTransport()
        relay = Relay(_relay_config(mode), transport)
        inputs = [(p, 0) for p in accepted]
        for args in inputs:  # opens the proxy flows before timing
            relay.handle_packet(*args)
        out[f"relay.handle_packet_us.{label}"] = per_call_us(
            lambda p, now, r=relay, t=transport: (r.handle_packet(p, now), t.drain()), inputs
        )
    relay = Relay(_relay_config(RelayMode.PROXY), RecordingTransport())
    for port in range(FLOWS):
        relay.handle_packet(Ipv4UdpPacket("127.0.0.2", "127.0.0.1", 1024 + port, LISTEN_PORT, small), 0)
    out[f"relay.expire_flows_us.{FLOWS}"] = per_call_us(relay.expire_flows, [(1,)])
    if len(relay.flows) != FLOWS:
        raise RuntimeError(f"expire_flows dropped live flows: {len(relay.flows)} left of {FLOWS}")

    run = execute_scenario(scenario_c(seed=seed))
    client = run.clients[CLIENT]
    out["endpoints.query_us"] = per_call_us(client.query, [(q.pv_name,) for q in scenario_c().queries])
    net = VirtualNetwork(paper_topology(), seed=seed)
    owned = names[:4]
    ioc = IocSim(net, "IMX1-HOST1", "bench", {n: 1.0 for n in owned}, server_port=5901)
    searches = [ca_wire.encode_search_datagram(ca_wire.SearchRequest(n, i + 1)) for i, n in enumerate(owned)]
    out["endpoints.ioc_search_us"] = per_call_us(
        ioc.on_search_datagram, [(s, ("10.2.105.171", 40000)) for s in searches]
    )

    text = (root / "configs" / "scenario_c.yaml").read_text(encoding="utf-8")
    out["config.parse_config_s"] = per_call_us(parse_config, [(text,)]) / 1e6
    return out
