"""Source-preserving relay for unicast-converted name-resolution datagrams.

The relay listens on a redirect port fed by a helper/prerouting chain,
filters by source, and re-emits each accepted datagram toward a broadcast
target so every server behind it sees the query. Two modes:

* SPOOF: rebuild the datagram with the original client's source address so
  servers answer the client directly (raw-send capability needed on real
  sockets, nothing special on the virtual network).
* PROXY: forward the payload from a per-client flow port using the relay's
  own source, and pass any reply on that flow port back to the client; runs
  unprivileged.

A relay that forks a subprocess per query is not a mode of this relay: the
benchmark models it as a PROXY relay on a SimTransport whose host takes
``request_delay_us`` to process each request.

The real transport is Linux-only, as are the raw sockets and the prerouting
redirect it serves behind. SPOOF blocks in its one socket's receive, with a
``SO_RCVTIMEO`` of ``IDLE_WAKE_S`` (0.2 s) to see its stop event. PROXY
registers each socket once with one ``select.epoll`` (no 1024-descriptor
limit), reads one datagram per readable socket and wakeup, and drains the
listen socket only if it was readable at the wakeup before too (epoll(7)
reports a still-readable socket again), so a lone search pays no empty read.
Its ``close()`` closes every descriptor it opened: a failed build leaves none.
Both transports expire idle flows on a tick of ``EXPIRY_TICK_US`` (1 s), at
most one tick after their timeout.

Per datagram, packet values are built with ``packet.new_record`` as ``_make``
does, the spoof rewrite among them, in ``Relay.handle_packet`` itself (0.38 µs
against 1.3 µs for ``_replace``: ``timeit``, Intel Xeon, Python 3.11);
``classify`` tests the config's ``(base, mask)`` integer prefixes and
``encode`` runs in one pass, each still called through the name a tracer wraps.

No socket error stops the relay. A failed receive counts as ``recv_errors``,
a failed send of an accepted search as ``send_errors``, and of a reply as
``reply_send_errors``; neither is left in ``relayed`` or ``replies_forwarded``.
"""

from __future__ import annotations

import enum
import errno
import logging
import math
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .ca_wire import CA_SERVER_PORT
from .packet import (
    HEADER_DEFAULTS, Cidr, Ipv4UdpPacket, encode, ip_to_int, is_dotted_quad, new_record as _new_record, udp_packet,
)

log = logging.getLogger(__name__)
DEFAULT_LISTEN_PORT = 6064
DEFAULT_TTL = 64
DEFAULT_FLOW_IDLE_TIMEOUT_S = 30.0

FLOW_PORT_BASE = 40000
EXPIRY_TICK_US = 1_000_000
# Most datagrams one drain of the listen socket reads, so the flows are not starved.
LISTEN_DRAIN_CAP = 64
# Longest an idle serve loop waits before it looks at its stop event again.
IDLE_WAKE_S = 0.2


class TransportUnavailable(Exception):
    """The relay's sockets cannot be opened; the message names the failed step."""


class PrivilegeRequired(Exception):
    """Raw-send capability is missing; carries a remediation hint."""


class InvalidRelayConfig(ValueError):
    """A RelayConfig value the relay cannot serve; ``field`` names the field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class RelayMode(enum.Enum):
    SPOOF = "spoof"
    PROXY = "proxy"


class Verdict(enum.Enum):
    """Each value names the RelayCounters field that counts the verdict."""

    ACCEPT = "relayed"
    DROP_LOCAL_SOURCE = "dropped_local"
    DROP_NOT_ALLOWED = "dropped_not_allowed"
    DROP_PORT_MISMATCH = "dropped_port"


# The verdicts as module constants, in definition order: classify skips the class lookup.
_ACCEPT, _DROP_LOCAL_SOURCE, _DROP_NOT_ALLOWED, _DROP_PORT_MISMATCH = Verdict


@dataclass(frozen=True)
class RelayConfig:
    """What the relay serves; it also keeps its prefixes as (base, mask) integers, outside the fields."""

    target_broadcast: str
    listen_port: int = DEFAULT_LISTEN_PORT
    target_port: int = CA_SERVER_PORT
    allow_sources: tuple[Cidr, ...] = ()
    local_subnet: Cidr = field(kw_only=True)  # the loop guard: sources inside it are never relayed
    mode: RelayMode = RelayMode.SPOOF
    flow_idle_timeout_s: float = DEFAULT_FLOW_IDLE_TIMEOUT_S
    max_packets_per_second: int | None = None

    def __post_init__(self) -> None:
        for name in ("listen_port", "target_port"):
            if not 1 <= getattr(self, name) <= 65535:
                raise InvalidRelayConfig(name, f"port out of range: {getattr(self, name)}")
        if self.listen_port == self.target_port:
            raise InvalidRelayConfig("listen_port", "listen_port and target_port must differ (loop hazard)")
        if not 0 < self.flow_idle_timeout_s < math.inf:  # also false for NaN
            raise InvalidRelayConfig(
                "flow_idle_timeout_s",
                f"flow_idle_timeout must be positive and finite: {self.flow_idle_timeout_s}",
            )
        if not is_dotted_quad(self.target_broadcast):  # a short form such as 10.2.511 names no interface
            raise InvalidRelayConfig(
                "target_broadcast", f"target_broadcast must be an IPv4 address, got {self.target_broadcast!r}"
            )
        local = self.local_subnet
        if not isinstance(local, Cidr):
            raise InvalidRelayConfig("local_subnet", f"local_subnet must be a Cidr, got {local!r}")
        if isinstance(self.allow_sources, str) or not all(isinstance(n, Cidr) for n in self.allow_sources):
            raise InvalidRelayConfig(
                "allow_sources", f"allow_sources must be a sequence of Cidr, got {self.allow_sources!r}"
            )
        object.__setattr__(self, "_local_prefix", (local.base, local.mask))
        object.__setattr__(self, "_allow_prefixes", tuple((net.base, net.mask) for net in self.allow_sources))


@dataclass
class RelayCounters:
    received: int = 0
    relayed: int = 0
    dropped_local: int = 0
    dropped_not_allowed: int = 0
    dropped_port: int = 0
    dropped_rate_limited: int = 0
    replies_forwarded: int = 0
    # Accepted searches that found no flow and none could be opened (EMFILE).
    dropped_flow_limit: int = 0
    # Socket errors the relay counted and served on: a failed receive, a
    # failed send of an accepted search, and a failed send of a reply.
    # ``relayed`` and ``replies_forwarded`` go up just before their send, so
    # a reader on another thread who has seen the datagram sees it counted;
    # a failed send takes its count back.
    recv_errors: int = 0
    send_errors: int = 0
    reply_send_errors: int = 0

    def conserved(self) -> bool:
        """Each search received is relayed (once sent), dropped or a send error; replies are outside the sum."""
        drops = self.dropped_local + self.dropped_not_allowed + self.dropped_port + self.dropped_rate_limited
        return self.received == self.relayed + drops + self.dropped_flow_limit + self.send_errors


@dataclass
class FlowEntry:
    client_ip: str
    client_port: int
    relay_local_port: int
    last_activity_us: int


def classify(packet: Ipv4UdpPacket, config: RelayConfig) -> Verdict:
    """Filter decision, checked in fixed order: port, local source, allowlist.

    The local-source drop comes before the allowlist so loop prevention can
    never be disabled by a generous allow rule. The source is converted to an
    integer once and tested against the config's integer prefixes inline.
    """
    if packet.dst_port != config.listen_port:
        return _DROP_PORT_MISMATCH
    src = ip_to_int(packet.src_ip)
    base, mask = config._local_prefix
    if src & mask == base:
        return _DROP_LOCAL_SOURCE
    allow = config._allow_prefixes
    for base, mask in allow:
        if src & mask == base:
            return _ACCEPT
    return _DROP_NOT_ALLOWED if allow else _ACCEPT


class Relay:
    """Sequential reactor: receive, classify, re-emit; owns all flow state."""

    def __init__(self, config: RelayConfig, transport) -> None:
        self.config = config
        self.transport = transport
        self.counters = RelayCounters()
        self.flows: dict[tuple[str, int], FlowEntry] = {}
        self._flows_by_port: dict[int, FlowEntry] = {}
        # IP identification of the next spoofed datagram: 1 to 0xFFFF, then 1 again.
        self._next_id = 1
        self._spoof = config.mode is RelayMode.SPOOF
        self._rate_window = -1
        self._rate_count = 0
        transport.attach(self)

    # -- listen-port path ------------------------------------------------------

    def handle_packet(self, packet: Ipv4UdpPacket, now_us: int) -> None:
        counters = self.counters
        counters.received += 1
        config = self.config
        limit = config.max_packets_per_second
        if limit is not None and self._rate_limited(now_us, limit):
            counters.dropped_rate_limited += 1
            return
        verdict = classify(packet, config)
        if verdict is not _ACCEPT:
            name = verdict.value
            setattr(counters, name, getattr(counters, name) + 1)
            log.debug("%s: packet from %s:%d", verdict, packet.src_ip, packet.src_port)
            return

        try:
            if self._spoof:
                ident = self._next_id
                self._next_id = ident % 0xFFFF + 1
                # packet._replace(dst_ip=, dst_port=, ttl=, identification=), built as _make does
                src_ip, _, src_port, _, data, _, _, tos, frag = packet
                counters.relayed += 1
                self.transport.emit_spoofed(_new_record(Ipv4UdpPacket, (
                    src_ip, config.target_broadcast, src_port, config.target_port, data, DEFAULT_TTL, ident, tos, frag
                )))
            else:
                flow = self.flows.get((packet.src_ip, packet.src_port))
                if flow is None:
                    flow = self._open_flow(packet.src_ip, packet.src_port, now_us)
                    if flow is None:
                        counters.dropped_flow_limit += 1
                        return
                else:
                    flow.last_activity_us = now_us
                counters.relayed += 1
                self.transport.flow_send(
                    flow.relay_local_port, packet.payload, config.target_broadcast, config.target_port
                )
        except OSError as exc:  # ENOBUFS, a netfilter EPERM, EMSGSIZE over the path MTU (raw(7))
            counters.relayed -= 1
            counters.send_errors += 1
            log.debug("send failed for %s:%d: %s", packet.src_ip, packet.src_port, exc)

    def _rate_limited(self, now_us: int, limit: int) -> bool:
        window = now_us // 1_000_000
        if window != self._rate_window:
            self._rate_window = window
            self._rate_count = 0
        self._rate_count += 1
        return self._rate_count > limit

    # -- flow path (PROXY) -----------------------------------------------------

    def _open_flow(self, client_ip: str, client_port: int, now_us: int) -> FlowEntry | None:
        """A new flow for a client that has none; None if none can be opened."""
        try:
            port = self.transport.open_flow()
        except OSError as exc:  # EMFILE and the like: the search is dropped
            log.debug("no flow for %s:%d: %s", client_ip, client_port, exc)
            return None
        flow = FlowEntry(client_ip, client_port, port, now_us)
        self.flows[client_ip, client_port] = flow
        self._flows_by_port[port] = flow
        return flow

    def on_flow_packet(self, local_port: int, packet: Ipv4UdpPacket, now_us: int) -> None:
        flow = self._flows_by_port.get(local_port)
        if flow is None:
            return
        flow.last_activity_us = now_us
        self.counters.replies_forwarded += 1
        try:
            self.transport.flow_send(local_port, packet.payload, flow.client_ip, flow.client_port)
        except OSError as exc:
            self.counters.replies_forwarded -= 1
            self.counters.reply_send_errors += 1
            log.debug("reply to %s:%d failed: %s", flow.client_ip, flow.client_port, exc)

    def expire_flows(self, now_us: int) -> int:
        """Drop flows idle for at least the configured timeout; returns how many."""
        timeout_us = int(self.config.flow_idle_timeout_s * 1e6)
        expired = [
            key
            for key, flow in self.flows.items()
            if now_us - flow.last_activity_us >= timeout_us
        ]
        for key in expired:
            flow = self.flows.pop(key)
            del self._flows_by_port[flow.relay_local_port]
            self.transport.close_flow(flow.relay_local_port)
        return len(expired)

    def serve(self, stop: threading.Event) -> None:
        self.transport.serve(self, stop)


class SimTransport:
    """Adapts the relay reactor onto a VirtualNetwork host.

    request_delay_us models the host's per-request processing cost: each
    listen-port datagram reaches the relay that long after its delivery.
    """

    def __init__(self, net, host_name: str, request_delay_us: int = 0) -> None:
        self.net = net
        self.host_name = host_name
        self.request_delay_us = request_delay_us
        self.local_ip = net.host(host_name).interfaces[0].ip
        self._flow_bindings: dict[int, object] = {}
        self._free_flow_ports: list[int] = []
        self._relay: Relay | None = None

    def attach(self, relay: Relay) -> None:
        self._relay = relay
        if self.request_delay_us:
            def on_request(d) -> None:
                self.net.call_later(
                    self.request_delay_us, lambda: relay.handle_packet(d.packet, d.time_us)
                )
        else:
            def on_request(d) -> None:
                relay.handle_packet(d.packet, d.time_us)
        self.net.bind(self.host_name, relay.config.listen_port, owner="relay", callback=on_request)
        if relay.config.mode is RelayMode.PROXY:
            self.net.call_later(EXPIRY_TICK_US, self._expiry_tick)

    def _expiry_tick(self) -> None:
        self._relay.expire_flows(self.net.now_us)
        self.net.call_later(EXPIRY_TICK_US, self._expiry_tick)

    def emit_spoofed(self, packet: Ipv4UdpPacket) -> None:
        self.net.inject(self.host_name, packet)

    def open_flow(self) -> int:
        # With no freed port, every allocated port is bound: the next follows them.
        free = self._free_flow_ports
        port = free.pop() if free else FLOW_PORT_BASE + len(self._flow_bindings)
        binding = self.net.bind(
            self.host_name,
            port,
            owner=f"relay-flow-{port}",
            callback=lambda d, p=port: self._relay.on_flow_packet(p, d.packet, d.time_us),
        )
        self._flow_bindings[port] = binding
        return port

    def close_flow(self, port: int) -> None:
        binding = self._flow_bindings.pop(port)
        self.net.unbind(self.host_name, binding)
        self._free_flow_ports.append(port)

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self.net.inject(self.host_name, udp_packet(self.local_ip, dst_ip, local_port, dst_port, payload))


class RealUdpTransport:
    """Plain-socket transport: SPOOF blocks in its one receive and needs raw-send capability, PROXY uses epoll.

    ``_readers`` maps each PROXY descriptor to (recvfrom, local port); the
    listen socket is the one whose port is the config's ``listen_port``.
    """

    def __init__(self, config: RelayConfig, bind_ip: str = "0.0.0.0", socket_factory=None) -> None:
        self._bind_ip = bind_ip  # the destination address of received datagrams
        # Resolved at call time so tests can substitute the module's socket.
        self._socket_factory = socket_factory or socket.socket
        self._listen = self._raw = self._epoll = None
        self._flow_sockets: dict[int, socket.socket] = {}
        self._readers: dict[int, tuple] = {}
        raw_step = "open a raw socket for spoof mode"
        step = "create UDP socket"
        try:
            self._listen = self._socket_factory(socket.AF_INET, socket.SOCK_DGRAM)
            # No SO_REUSEADDR here: silently sharing the listen port would put
            # this relay on the losing side of last-binder delivery.
            step = f"bind {bind_ip}:{config.listen_port}"
            self._listen.bind((bind_ip, config.listen_port))
            if config.mode is RelayMode.SPOOF:
                step = raw_step
                self._raw = self._socket_factory(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_RAW)
                self._raw.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
                # socket(7): a receive idle this long fails with EAGAIN; settimeout() would poll(2) before each
                step = "set the listen socket's receive timeout"
                timeval = struct.pack("@ll", *divmod(round(IDLE_WAKE_S * 1_000_000), 1_000_000))
                self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
            else:
                step = "create an epoll instance"
                self._epoll = select.epoll()
                self._watch(self._listen, config.listen_port)
        except OSError as exc:
            self.close()
            if isinstance(exc, PermissionError) and step == raw_step:  # not bind's EACCES, nor any EMFILE
                raise PrivilegeRequired(
                    "spoof mode rewrites raw IP headers and needs CAP_NET_RAW; "
                    "run as root, grant the capability (setcap cap_net_raw+ep), "
                    "or use --mode proxy which runs unprivileged"
                ) from exc
            raise TransportUnavailable(f"cannot {step}: {exc}") from exc

    def _watch(self, sock, port: int) -> None:
        fd = sock.fileno()
        self._epoll.register(fd, select.EPOLLIN)
        self._readers[fd] = (sock.recvfrom, port)

    def attach(self, relay: Relay) -> None:
        del relay  # serve() is handed the relay

    def emit_spoofed(self, packet: Ipv4UdpPacket) -> None:
        self._raw.sendto(encode(packet), (packet.dst_ip, 0))

    def open_flow(self) -> int:
        """Bind and watch a new flow socket; its OSError leaves nothing open."""
        sock = self._socket_factory(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            sock.bind(("0.0.0.0", 0))
            port = sock.getsockname()[1]
            self._watch(sock, port)
        except OSError:
            sock.close()
            raise
        self._flow_sockets[port] = sock
        return port

    def close_flow(self, port: int) -> None:
        sock = self._flow_sockets.pop(port)
        fd = sock.fileno()
        del self._readers[fd]
        self._epoll.unregister(fd)
        sock.close()

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self._flow_sockets[local_port].sendto(payload, (dst_ip, dst_port))

    def serve(self, relay: Relay, stop: threading.Event) -> None:
        """Receive loop; returns when stop is set, within ``IDLE_WAKE_S`` when idle.

        SPOOF handles each datagram of a blocking receive at its own time.
        PROXY reads one datagram per readable socket, but drains a listen
        socket readable at the wakeup before too (``LISTEN_DRAIN_CAP``), and
        hands the listen socket's datagrams to ``handle_packet``, the others
        to ``on_flow_packet``, so the replies are not held back.
        """
        listen_port = relay.config.listen_port
        bind_ip = self._bind_ip
        new_record = _new_record
        packet_type = Ipv4UdpPacket
        stopped = stop.is_set
        ttl, ident, tos, frag = HEADER_DEFAULTS
        # Looked up here, not in attach() or open_flow(), so that wrappers
        # installed on the relay instance before serve() starts see every datagram.
        handle_packet = relay.handle_packet
        on_flow_packet = relay.on_flow_packet
        if self._epoll is None:
            listen_recv = self._listen.recvfrom
            monotonic_ns = time.monotonic_ns
            while not stopped():
                try:
                    data, (src_ip, src_port) = listen_recv(65535)
                except BlockingIOError:  # the receive timed out
                    continue
                except OSError as exc:
                    if exc.errno == errno.EBADF:  # close() ran under the loop: no receive can succeed
                        raise
                    relay.counters.recv_errors += 1
                    log.debug("receive failed: %s", exc)
                    continue
                fields = (src_ip, bind_ip, src_port, listen_port, data, ttl, ident, tos, frag)
                handle_packet(new_record(packet_type, fields), monotonic_ns() // 1000)
            return
        poll = self._epoll.poll
        readers = self._readers
        dontwait = socket.MSG_DONTWAIT
        one_read, drain = range(1), range(LISTEN_DRAIN_CAP)  # built once, not per wakeup
        backlog = False  # the listen socket was readable at the wakeup before
        next_tick_us = 0
        while not stopped():
            events = poll(IDLE_WAKE_S)
            now = time.monotonic_ns() // 1000
            listen_readable = False
            for fd, _ in events:
                recv, port = readers[fd]
                if port == listen_port:
                    listen_readable = True
                    reads = drain if backlog else one_read
                else:
                    reads = one_read
                for _ in reads:
                    # select(2) BUGS: a datagram dropped for a bad checksum can
                    # leave a socket reported readable with nothing to read.
                    try:
                        data, (src_ip, src_port) = recv(65535, dontwait)
                    except BlockingIOError:
                        break
                    except OSError as exc:  # counted; what is still queued is read at the next wakeup
                        relay.counters.recv_errors += 1
                        log.debug("receive on port %d failed: %s", port, exc)
                        break
                    packet = new_record(packet_type, (src_ip, bind_ip, src_port, port, data, ttl, ident, tos, frag))
                    if port == listen_port:
                        handle_packet(packet, now)
                    else:
                        on_flow_packet(port, packet, now)
            backlog = listen_readable
            if now >= next_tick_us:
                relay.expire_flows(now)
                next_tick_us = now + EXPIRY_TICK_US

    def close(self) -> None:
        """Close every descriptor opened so far; safe on a half-built transport, and twice."""
        for opened in (self._epoll, self._listen, self._raw, *self._flow_sockets.values()):
            if opened is not None:
                opened.close()
        self._flow_sockets.clear()
        self._readers.clear()
