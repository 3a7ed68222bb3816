"""Loopback workloads: the real relay in its own process, driven from here.

This process is the single-threaded load generator. It owns every client
socket and the IOC stub, builds datagrams only from ``perfbench.wire``
templates, and never imports carelay, so its cost per search does not move
when carelay changes. The relay runs in ``perfbench.relay_proc``.

Addresses, all on the loopback interface:

* accepted clients bind to 127.0.0.2-127.0.0.9 inside ``allow_sources``
  (127.0.0.0/24);
* local-source drops come from 127.0.1.x, the relay's ``local_subnet``;
* not-allowed drops come from 127.0.2.x, outside both prefixes.

Searches run in a closed loop: a fixed window of accepted searches is
outstanding, and each verified reply releases the next. Drop-source searches
are sent inline at a fixed share and expect no reply; the relay counters
account for them.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import wire
from .calib import Calibrator, scale
from .envinfo import cpu_times, steal_frac

ALLOW = "127.0.0.0/24"
LOCAL_SUBNET = "127.0.1.0/24"
SPOOF_TARGET = ("255.255.255.255", 5064)
SEARCH_TIMEOUT_NS = 1_000_000_000
WARMUP_S = 0.5
WINDOW_SEGMENT_S = 0.3
RTT_SEGMENT_S = 0.2
MAX_FAILURE_NOTES = 20

# Each block of 16 sends holds exactly these kinds, in a seeded order, so
# every seed offers the same mix.
SMALL, BATCHED, LOCAL, NOT_ALLOWED = "small", "batched", "local", "not_allowed"
DROPS = (LOCAL, NOT_ALLOWED)


@dataclass(frozen=True)
class LoopbackSpec:
    mode: str
    clients: int
    window: int
    block: tuple[str, ...]


def _block(small: int, batched: int) -> tuple[str, ...]:
    return (LOCAL, NOT_ALLOWED) + (SMALL,) * small + (BATCHED,) * batched


# 256 flows keeps the relay's select() below FD_SETSIZE; more live flows
# crash the unmodified transport, a known limit and not a traffic choice.
PROXY_FLOWS = LoopbackSpec("proxy", clients=256, window=32, block=_block(14, 0))
SPOOF_BATCHED = LoopbackSpec("spoof", clients=8, window=16, block=_block(10, 4))


@dataclass
class PhaseStats:
    sent: dict[str, int] = field(default_factory=lambda: dict.fromkeys((SMALL, BATCHED, LOCAL, NOT_ALLOWED), 0))
    completed: int = 0
    failed: int = 0
    stub_replies: int = 0
    # Round trips by datagram kind: single-name and batched searches.
    rtts_ns: dict[str, list[int]] = field(default_factory=lambda: {SMALL: [], BATCHED: []})
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.sent.values())

    @property
    def accepted(self) -> int:
        return self.sent[SMALL] + self.sent[BATCHED]


def _udp(ip: str, port: int = 0) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((ip, port))
    sock.setblocking(False)
    return sock


def free_port(avoid: int) -> int:
    while True:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        finally:
            probe.close()
        if port != avoid:
            return port


def kernel_drops(port: int) -> int:
    """The ``drops`` column of /proc/net/udp for 127.0.0.1:port (udp(7))."""
    local = "0100007F:%04X" % port if sys.byteorder == "little" else "7F000001:%04X" % port
    with open("/proc/net/udp", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) > 12 and fields[1] == local:
                return int(fields[-1])
    return 0


def pin_cpu() -> None:
    """Pin this process, and the relays it starts later, to one CPU.

    With relay and generator on one CPU every hop of a round trip is a
    context switch there, not a wakeup of another virtual CPU, whose latency
    on a VM depends on the host; and the scheduler cannot change the
    placement from run to run. CPU per search is counted per process, so
    sharing the CPU does not change what it measures.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Generator:
    def __init__(self, spec: LoopbackSpec, seed: int) -> None:
        self.spec = spec
        pin_cpu()
        self.rng = random.Random(seed)
        self.templates = {
            SMALL: wire.search_template(self.rng),
            BATCHED: wire.search_template(self.rng, wire.BATCH_NAMES),
        }
        self.response = wire.response_template()
        self.stub = _udp("127.0.0.1")
        self.stub_addr = self.stub.getsockname()
        self.clients = [_udp(f"127.0.0.{2 + i % 8}") for i in range(spec.clients)]
        self.client_addrs = [s.getsockname() for s in self.clients]
        self.droppers = {
            LOCAL: [_udp(f"127.0.1.{2 + i}") for i in range(4)],
            NOT_ALLOWED: [_udp(f"127.0.2.{2 + i}") for i in range(4)],
        }
        self.poller = select.epoll()
        self.poller.register(self.stub.fileno(), select.EPOLLIN)
        self.client_of_fd = {}
        for index, sock in enumerate(self.clients):
            self.poller.register(sock.fileno(), select.EPOLLIN)
            self.client_of_fd[sock.fileno()] = index
        self.listen: tuple[str, int] | None = None
        self.outstanding: dict[int, tuple[int, int, bytes]] = {}
        self.next_id = 1
        self.schedule: list[str] = []
        self.stats = PhaseStats()
        self.notes: list[str] = []

    def close(self) -> None:
        self.poller.close()
        for sock in [self.stub, *self.clients, *self.droppers[LOCAL], *self.droppers[NOT_ALLOWED]]:
            sock.close()

    def relay_spec(self, listen_port: int, trace: bool, spans_path: str | None) -> dict:
        spoof = self.spec.mode == "spoof"
        return {
            "mode": self.spec.mode,
            "listen_port": listen_port,
            "target": list(SPOOF_TARGET) if spoof else list(self.stub_addr),
            "allow": [ALLOW],
            "local_subnet": LOCAL_SUBNET,
            "sink": list(self.stub_addr) if spoof else None,
            "trace": trace,
            "spans_path": spans_path,
        }

    # -- sending ---------------------------------------------------------------

    def _next_kind(self, drops: bool) -> str:
        while True:
            if not self.schedule:
                block = list(self.spec.block)
                self.rng.shuffle(block)
                self.schedule = block[::-1]
            kind = self.schedule.pop()
            if drops or kind not in DROPS:
                return kind

    def _send(self, kind: str) -> None:
        search_id = self.next_id
        self.next_id = search_id % 0xFFFFFFFF + 1
        payload = wire.with_search_id(self.templates[BATCHED if kind == BATCHED else SMALL], search_id)
        self.stats.sent[kind] += 1
        if kind in DROPS:
            self.rng.choice(self.droppers[kind]).sendto(payload, self.listen)
            return
        index = self.rng.randrange(len(self.clients))
        self.outstanding[search_id] = (time.perf_counter_ns(), index, payload)
        self.clients[index].sendto(payload, self.listen)

    def _fail(self, note: str) -> None:
        self.stats.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    # -- receiving -------------------------------------------------------------

    def _on_stub(self) -> None:
        spoof = self.spec.mode == "spoof"
        while True:
            try:
                data, addr = self.stub.recvfrom(65535)
            except BlockingIOError:
                return
            if spoof:
                try:
                    src_ip, src_port, dst_ip, dst_port, payload = wire.check_frame(data)
                except wire.FrameError as exc:
                    search_id = wire.request_key(data[28:])
                    self.outstanding.pop(search_id, None)  # fails here, not again at its timeout
                    self._fail(f"frame of search {search_id}: {exc}")
                    continue
                reply_to = (src_ip, src_port)
            else:
                payload, reply_to = data, addr
            search_id = wire.search_id_of(payload)
            entry = self.outstanding.get(search_id)
            if entry is None:
                self._fail(f"relayed search {search_id} is not outstanding")
                continue
            if payload != entry[2]:
                self._fail(f"search {search_id} payload changed in the relay")
                del self.outstanding[search_id]
                continue
            if spoof and (reply_to != self.client_addrs[entry[1]] or (dst_ip, dst_port) != SPOOF_TARGET):
                self._fail(f"search {search_id} frame {reply_to}->{dst_ip}:{dst_port} lost the client source")
                del self.outstanding[search_id]
                continue
            self.stub.sendto(wire.with_response_id(self.response, search_id), reply_to)
            self.stats.stub_replies += 1

    def _on_client(self, index: int, record_rtt: bool) -> None:
        sock = self.clients[index]
        while True:
            try:
                data = sock.recv(65535)
            except BlockingIOError:
                return
            now = time.perf_counter_ns()
            search_id = wire.search_id_of(data)
            entry = self.outstanding.pop(search_id, None)
            if entry is None or entry[1] != index or data != wire.with_response_id(self.response, search_id):
                self._fail(f"unexpected reply for search {search_id} on client {index}")
                continue
            self.stats.completed += 1
            if record_rtt:
                kind = SMALL if len(entry[2]) == len(self.templates[SMALL]) else BATCHED
                self.stats.rtts_ns[kind].append(now - entry[0])

    def _expire(self, now: int) -> None:
        for search_id, (sent, _, _) in list(self.outstanding.items()):
            if now - sent > SEARCH_TIMEOUT_NS:
                del self.outstanding[search_id]
                self._fail(f"search {search_id} got no reply within {SEARCH_TIMEOUT_NS / 1e9:g} s")

    # -- phases ----------------------------------------------------------------

    def drive(
        self,
        window: int,
        seconds: float | None = None,
        count: int | None = None,
        record_rtt: bool = False,
        drops: bool = True,
    ) -> PhaseStats:
        """Closed loop until ``seconds`` pass or ``count`` sends are made.

        The phase ends with its last accepted search answered (or timed
        out), so the relay has processed every datagram of the phase.
        """
        self.stats = PhaseStats()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        deadline = None if seconds is None else time.perf_counter_ns() + int(seconds * 1e9)
        sends = 0
        last_kind = SMALL
        next_expiry = time.perf_counter_ns() + SEARCH_TIMEOUT_NS // 4
        stub_fd = self.stub.fileno()
        while True:
            now = time.perf_counter_ns()
            issuing = (deadline is None or now < deadline) and (count is None or sends < count)
            if not issuing and last_kind in DROPS:
                # A trailing drop-source search is fenced by one accepted
                # search, so its verdict is counted before the phase ends.
                self._send(SMALL)
                last_kind = SMALL
            while issuing and len(self.outstanding) < window:
                last_kind = self._next_kind(drops)
                self._send(last_kind)
                sends += 1
                if count is not None and sends >= count:
                    issuing = False
            if not issuing and not self.outstanding:
                break
            for fd, _ in self.poller.poll(0.05):
                if fd == stub_fd:
                    self._on_stub()
                else:
                    self._on_client(self.client_of_fd[fd], record_rtt)
            if now >= next_expiry:
                self._expire(now)
                next_expiry = now + SEARCH_TIMEOUT_NS // 4
        self.stats.wall_s = time.perf_counter() - wall0
        self.stats.cpu_s = time.process_time() - cpu0
        return self.stats


class RelayProcess:
    """``perfbench.relay_proc`` in a child process, driven over its stdin/stdout."""

    def __init__(self, root: Path, spec: dict) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.relay_proc", json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"relay process exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        final = self.request("stop")
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def start_relay(root: Path, gen: Generator, trace: bool = False, spans_path: str | None = None):
    """Start a relay and wait until its first search is answered.

    Returns the RelayProcess, the CPU seconds the relay process spent from
    its start until then (scaled to the reference core), and the wall
    seconds from launch until then.
    """
    started = time.perf_counter()
    for _ in range(5):  # the probed port can be taken before the relay binds it
        port = free_port(avoid=gen.stub_addr[1])
        relay = RelayProcess(root, gen.relay_spec(port, trace, spans_path))
        if relay.ready.get("ready"):
            break
        relay.kill()
    else:
        raise RuntimeError(f"relay could not bind: {relay.ready}")
    gen.listen = ("127.0.0.1", port)
    try:
        gen.drive(window=1, count=1, drops=False)  # a failed probe counts, like any search
        wall_s = time.perf_counter() - started
        ready = relay.request("snap")
    except BaseException:
        relay.kill()
        raise
    return relay, ready["process_cpu_s"] * scale(ready["calib_s"]), wall_s


def _deltas(before: dict, after: dict) -> dict[str, int]:
    return {k: after["counters"][k] - before["counters"][k] for k in after["counters"]}


def conservation_failures(
    spec: LoopbackSpec, stats: PhaseStats, deltas: dict[str, int], kdrops: int
) -> list[str]:
    """Relay counters against the generator's own counts for one phase."""
    expected = {
        "received": stats.attempted - kdrops,
        "dropped_port": 0,
        "dropped_rate_limited": 0,
        "replies_forwarded": stats.stub_replies if spec.mode == "proxy" else 0,
    }
    if kdrops == 0:
        expected.update(
            relayed=stats.accepted,
            dropped_local=stats.sent[LOCAL],
            dropped_not_allowed=stats.sent[NOT_ALLOWED],
        )
    return [
        f"relay {name}={deltas[name]}, generator expects {want}"
        for name, want in expected.items()
        if deltas[name] != want
    ]


@dataclass
class Measurement:
    """Totals over the measured segments of one relay process.

    ``segment_rates`` and ``rtts_ref_ns`` are scaled to the reference core
    of ``perfbench.calib`` by the calibrations taken around each segment;
    the other figures are raw.
    """

    relayed: int = 0
    relay_cpu_s: float = 0.0
    segment_rates: list[float] = field(default_factory=list)
    completed: int = 0
    wall_s: float = 0.0
    gen_cpu_s: float = 0.0
    rtts_ns: dict[str, list[int]] = field(default_factory=lambda: {SMALL: [], BATCHED: []})
    rtts_ref_ns: dict[str, list[float]] = field(default_factory=lambda: {SMALL: [], BATCHED: []})
    kernel_drops: int = 0
    steal_frac: float = 0.0
    deltas: dict[str, int] = field(default_factory=dict)

    @property
    def searches_per_cpu_s(self) -> float:
        """Median over the closed-loop segments, on the reference core."""
        return statistics.median(self.segment_rates)

    @property
    def raw_searches_per_cpu_s(self) -> float:
        return self.relayed / self.relay_cpu_s

    @classmethod
    def pooled(cls, parts: list["Measurement"]) -> "Measurement":
        """One measurement from several relay processes' segments."""
        whole = cls()
        for part in parts:
            for name in ("relayed", "relay_cpu_s", "completed", "wall_s", "gen_cpu_s", "kernel_drops"):
                setattr(whole, name, getattr(whole, name) + getattr(part, name))
            whole.segment_rates += part.segment_rates
            for kind in (SMALL, BATCHED):
                whole.rtts_ns[kind] += part.rtts_ns[kind]
                whole.rtts_ref_ns[kind] += part.rtts_ref_ns[kind]
            for name, value in part.deltas.items():
                whole.deltas[name] = whole.deltas.get(name, 0) + value
        whole.steal_frac = statistics.fmean(part.steal_frac for part in parts)
        return whole


class Run:
    """One workload run: the generator, its relays and the totals over all phases."""

    def __init__(self, spec: LoopbackSpec, root: Path, seed: int) -> None:
        self.spec = spec
        self.root = root
        self.gen = Generator(spec, seed)
        self.calibrator = Calibrator()
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self.calibrator.close()
        self.gen.close()

    def _tally(self, stats: PhaseStats) -> PhaseStats:
        self.attempted += stats.attempted
        self.failed += stats.failed
        return stats

    def start(self, trace: bool = False, spans_path: str | None = None):
        """``start_relay`` with the probe counted in the run's totals."""
        started = start_relay(self.root, self.gen, trace, spans_path)
        self._tally(self.gen.stats)
        return started

    def warm_up(self) -> None:
        """Opens a flow for every client (all 256 are hit with near certainty)."""
        self._tally(self.gen.drive(self.spec.window, seconds=WARMUP_S))

    def measure(self, relay: RelayProcess, seconds: float, rtt: bool) -> Measurement:
        """Closed-loop segments, alternating with one-outstanding ones if ``rtt``.

        Each segment starts and ends drained, with a relay snapshot and a
        calibration in both processes, and has its counters checked on its
        own.
        """
        m = Measurement()
        port = self.gen.listen[1]
        host0 = cpu_times()
        relay.request("mark")
        snap, gen_calib, drops = relay.request("snap"), self.calibrator.run(), kernel_drops(port)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for windowed in (True, False) if rtt else (True,):
                if windowed:
                    stats = self.gen.drive(self.spec.window, seconds=WINDOW_SEGMENT_S)
                else:
                    stats = self.gen.drive(1, seconds=RTT_SEGMENT_S, record_rtt=True, drops=False)
                self._tally(stats)
                after, gen_after, drops_after = relay.request("snap"), self.calibrator.run(), kernel_drops(port)
                deltas = _deltas(snap, after)
                gate = conservation_failures(self.spec, stats, deltas, drops_after - drops)
                self.failed += len(gate)
                self.gen.notes.extend(gate)
                for name, value in deltas.items():
                    m.deltas[name] = m.deltas.get(name, 0) + value
                m.kernel_drops += drops_after - drops
                if windowed:
                    cpu = after["cpu_s"] - snap["cpu_s"]
                    m.relayed += deltas["relayed"]
                    m.relay_cpu_s += cpu
                    m.segment_rates.append(deltas["relayed"] / (cpu * scale(snap["calib_s"], after["calib_s"])))
                    m.completed += stats.completed
                    m.wall_s += stats.wall_s
                    m.gen_cpu_s += stats.cpu_s
                else:
                    factor = scale(snap["calib_s"], after["calib_s"], gen_calib, gen_after)
                    for kind, rtts in stats.rtts_ns.items():
                        m.rtts_ns[kind] += rtts
                        m.rtts_ref_ns[kind] += [r * factor for r in rtts]
                snap, gen_calib, drops = after, gen_after, drops_after
        relay.request("mark")
        m.steal_frac = steal_frac(host0, cpu_times())
        return m
