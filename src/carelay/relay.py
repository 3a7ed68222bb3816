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
redirect it serves behind. It registers each socket once with one
``select.epoll``, so it has no 1024-descriptor limit. Each wakeup reads the
listen socket until it is empty, but at most ``LISTEN_DRAIN_CAP`` (64)
datagrams, so a burst of searches costs one wakeup per 64 and cannot starve
the flow sockets, which are read once per wakeup. Both transports expire idle
flows on a tick of ``EXPIRY_TICK_US`` (1 s), at most one tick after their
timeout.

Per datagram, packet values are built with ``tuple.__new__`` as ``_make``
does, ``classify`` tests the config's ``(base, mask)`` integer prefixes and
``encode`` runs in one pass, each still called through the name a tracer wraps.
"""

from __future__ import annotations

import enum
import logging
import math
import select
import socket
import threading
import time
from dataclasses import dataclass

from .ca_wire import CA_SERVER_PORT
from .packet import Cidr, Ipv4UdpPacket, encode, ip_to_int

log = logging.getLogger(__name__)
_new_packet = tuple.__new__  # an Ipv4UdpPacket from all nine fields (module docstring)
# The header fields after the payload at the packet's defaults, for serve's packets.
_HEADER_DEFAULTS = tuple(Ipv4UdpPacket._field_defaults[name] for name in Ipv4UdpPacket._fields[5:])

DEFAULT_LISTEN_PORT = 6064
DEFAULT_TTL = 64
DEFAULT_FLOW_IDLE_TIMEOUT_S = 30.0

FLOW_PORT_BASE = 40000
EXPIRY_TICK_US = 1_000_000
# Most listen-socket datagrams read in one wakeup, so the flows are not starved.
LISTEN_DRAIN_CAP = 64


class RelayError(Exception):
    pass


class TransportUnavailable(RelayError):
    pass


class PrivilegeRequired(RelayError):
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
_NO_PREFIX = (1, 0)  # no local subnet: a (base, mask) pair no address matches, as address & 0 is 0


@dataclass(frozen=True)
class RelayConfig:
    """What the relay serves; it also keeps its prefixes as (base, mask) integers, outside the fields."""

    target_broadcast: str
    listen_port: int = DEFAULT_LISTEN_PORT
    target_port: int = CA_SERVER_PORT
    allow_sources: tuple[Cidr, ...] = ()
    local_subnet: Cidr | None = None
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
        try:
            ip_to_int(self.target_broadcast)  # the conversion encode applies
        except OSError:
            raise InvalidRelayConfig(
                "target_broadcast",
                f"target_broadcast must be an IPv4 address, got {self.target_broadcast!r}",
            ) from None
        local = self.local_subnet
        object.__setattr__(self, "_local_prefix", _NO_PREFIX if local is None else (local.base, local.mask))
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

    @property
    def dropped_total(self) -> int:
        return (
            self.dropped_local
            + self.dropped_not_allowed
            + self.dropped_port
            + self.dropped_rate_limited
            + self.dropped_flow_limit
        )

    def conserved(self) -> bool:
        return self.received == self.relayed + self.dropped_total


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
    local = config._local_prefix
    allow = config._allow_prefixes
    if local is _NO_PREFIX and not allow:  # unfiltered: no address to convert
        return _ACCEPT
    src = ip_to_int(packet.src_ip)
    base, mask = local
    if src & mask == base:
        return _DROP_LOCAL_SOURCE
    for base, mask in allow:
        if src & mask == base:
            return _ACCEPT
    return _DROP_NOT_ALLOWED if allow else _ACCEPT


def rewrite_spoof(packet: Ipv4UdpPacket, config: RelayConfig, identification: int) -> Ipv4UdpPacket:
    """Rebuild an accepted datagram for broadcast, keeping the client source.

    Equal to ``packet._replace`` with the new destination, TTL and
    identification, but built as ``_make`` does: ``_replace`` cost 1.3 µs and
    the constructor 0.67 µs against 0.38 µs for this (``timeit``, Intel Xeon,
    Python 3.11), once per spoofed search.
    """
    src_ip, _, src_port, _, payload, _, _, dscp_ecn, flags_fragment = packet
    return _new_packet(Ipv4UdpPacket, (
        src_ip, config.target_broadcast, src_port, config.target_port, payload,
        DEFAULT_TTL, identification, dscp_ecn, flags_fragment,
    ))


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

        if self._spoof:
            counters.relayed += 1
            ident = self._next_id
            self._next_id = ident % 0xFFFF + 1
            self.transport.emit_spoofed(rewrite_spoof(packet, config, ident))
            return

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
        self.transport.flow_send(local_port, packet.payload, flow.client_ip, flow.client_port)

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

    def serve(self, stop: threading.Event | None = None) -> None:
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
        self.net.inject(self.host_name, Ipv4UdpPacket(self.local_ip, dst_ip, local_port, dst_port, payload))


class RealUdpTransport:
    """Plain-socket transport; SPOOF additionally needs raw-send capability."""

    def __init__(
        self,
        config: RelayConfig,
        bind_ip: str = "0.0.0.0",
        socket_factory=None,
    ) -> None:
        if config.mode is RelayMode.SPOOF and config.local_subnet is None:
            # The local-source drop is the loop guard: without it a search
            # broadcast on the relay's own subnet can be relayed back there.
            raise ValueError("spoof mode on real sockets needs local_subnet (the loop guard)")
        self._bind_ip = bind_ip  # the destination address of received datagrams
        # Resolved at call time so tests can substitute the module's socket.
        self._socket_factory = socket_factory or socket.socket
        self._raw = None
        try:
            self._listen = self._socket_factory(socket.AF_INET, socket.SOCK_DGRAM)
        except OSError as exc:
            raise TransportUnavailable(f"cannot create UDP socket: {exc}") from exc
        # No SO_REUSEADDR here: silently sharing the listen port would put
        # this relay on the losing side of last-binder delivery.
        try:
            self._listen.bind((bind_ip, config.listen_port))
        except OSError as exc:
            self._listen.close()
            raise TransportUnavailable(
                f"cannot bind {bind_ip}:{config.listen_port}: {exc}"
            ) from exc
        if config.mode is RelayMode.SPOOF:
            try:
                self._raw = self._socket_factory(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_RAW)
                self._raw.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            except (PermissionError, OSError) as exc:
                self._listen.close()
                raise PrivilegeRequired(
                    "spoof mode rewrites raw IP headers and needs CAP_NET_RAW; "
                    "run as root, grant the capability (setcap cap_net_raw+ep), "
                    "or use --mode proxy which runs unprivileged"
                ) from exc
        self._flow_sockets: dict[int, socket.socket] = {}
        # Flow sockets by descriptor, each with its local port; the listen
        # socket is told apart by its descriptor alone.
        self._flows_by_fd: dict[int, tuple[socket.socket, int]] = {}
        self._epoll = select.epoll()
        self._epoll.register(self._listen.fileno(), select.EPOLLIN)

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
            fd = sock.fileno()
            self._epoll.register(fd, select.EPOLLIN)
        except OSError:
            sock.close()
            raise
        self._flow_sockets[port] = sock
        self._flows_by_fd[fd] = (sock, port)
        return port

    def close_flow(self, port: int) -> None:
        sock = self._flow_sockets.pop(port)
        fd = sock.fileno()
        del self._flows_by_fd[fd]
        self._epoll.unregister(fd)
        sock.close()

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self._flow_sockets[local_port].sendto(payload, (dst_ip, dst_port))

    def serve(self, relay: Relay, stop: threading.Event | None = None) -> None:
        """Receive loop; returns when stop is set.

        Each wakeup reads the listen socket until it is empty or
        ``LISTEN_DRAIN_CAP`` datagrams have been read, and each readable flow
        socket once, so a search burst cannot hold back the replies.
        """
        poll = self._epoll.poll
        listen_fd = self._listen.fileno()
        listen_recv = self._listen.recvfrom
        listen_port = relay.config.listen_port
        flows_by_fd = self._flows_by_fd
        bind_ip = self._bind_ip
        dontwait = socket.MSG_DONTWAIT
        new_packet = _new_packet
        packet_type = Ipv4UdpPacket
        stopped = (lambda: False) if stop is None else stop.is_set
        ttl, ident, tos, frag = _HEADER_DEFAULTS
        # Looked up here, not in attach(), so that wrappers installed on the
        # relay instance before serve() starts see every datagram.
        handle_packet = relay.handle_packet
        on_flow_packet = relay.on_flow_packet
        next_tick_us = 0
        while not stopped():
            events = poll(0.2)
            now = time.monotonic_ns() // 1000
            for fd, _ in events:
                if fd == listen_fd:
                    for _ in range(LISTEN_DRAIN_CAP):
                        try:
                            data, (src_ip, src_port) = listen_recv(65535, dontwait)
                        except BlockingIOError:
                            break
                        fields = (src_ip, bind_ip, src_port, listen_port, data, ttl, ident, tos, frag)
                        handle_packet(new_packet(packet_type, fields), now)
                    continue
                sock, port = flows_by_fd[fd]
                # select(2) BUGS: a datagram dropped for a bad checksum can
                # leave a socket reported readable with nothing to read.
                try:
                    data, (src_ip, src_port) = sock.recvfrom(65535, dontwait)
                except BlockingIOError:
                    continue
                fields = (src_ip, bind_ip, src_port, port, data, ttl, ident, tos, frag)
                on_flow_packet(port, new_packet(packet_type, fields), now)
            if now >= next_tick_us:
                relay.expire_flows(now)
                next_tick_us = now + EXPIRY_TICK_US

    def close(self) -> None:
        self._epoll.close()
        self._listen.close()
        if self._raw is not None:
            self._raw.close()
        for sock in self._flow_sockets.values():
            sock.close()
        self._flow_sockets.clear()
        self._flows_by_fd.clear()
