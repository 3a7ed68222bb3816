"""Source-preserving relay for unicast-converted name-resolution datagrams.

The relay listens on a redirect port fed by a helper/prerouting chain,
filters by source, and re-emits each accepted datagram toward a broadcast
target so every server behind it sees the query. Two modes:

* SPOOF: rebuild the datagram with the original client's source address so
  servers answer the client directly (raw-send capability needed on real
  sockets, nothing special on the virtual network).
* PROXY: forward the payload from the listen port with the relay's own source
  and pass each reply there back to its client; runs unprivileged. A relay
  that forks per query is modelled as a PROXY relay on a SimTransport whose
  host takes ``request_delay_us`` to process each search.

A PROXY flow is a relay search ID: ``Relay.flows`` maps it to (client ip,
client port, client ID, last use), oldest first; a full table
(``FLOW_TABLE_SIZE``) evicts its oldest. A search keeps the client's ID unless
another client holds it, as a NAT keeps a source port (RFC 4787); else a fresh
ID goes into both of its ID fields, and the same search again goes out under
the same relay ID. A reply comes from ``target_port`` and its first search
message is a response naming a live ID (``CA_PROTO_NOT_FOUND`` is not one);
``on_flow_packet`` says whether a datagram is one, and gives each response in it
its client's ID back. Anything else is a search and meets ``classify``. Both
paths read the IDs with ``ca_wire.search_messages`` and write them with its
writers; ``ca_wire`` alone knows the CA layout. A search it refuses goes out as
it came, and a datagram it refuses is no reply. A search whose send fails
leaves none of the flows it opened. Both transports expire idle flows on a
tick of ``EXPIRY_TICK_US`` (1 s).

The real transport is Linux-only. Both modes block in the listen socket's
receive, with a ``SO_RCVTIMEO`` of ``IDLE_WAKE_S`` (0.2 s) to see the stop
event. Packet values are built with ``packet.new_record`` as ``_make`` does
(0.38 µs against 1.3 µs for ``_replace``: ``timeit``, Intel Xeon, Python 3.11);
``classify`` and ``encode`` are called through the names a tracer wraps. No
socket error stops the relay: it counts ``recv_errors``, ``send_errors`` (a
search) or ``reply_send_errors``, and a failed send is not left in ``relayed``
or ``replies_forwarded``.
"""

from __future__ import annotations

import enum
import errno
import logging
import math
import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .ca_wire import CA_SERVER_PORT, REQUEST_CODES, CaWireError, search_messages, set_request_ids, set_response_id
from .packet import (
    HEADER_DEFAULTS, Cidr, Ipv4UdpPacket, encode, ip_to_int, is_dotted_quad, new_record as _new_record, udp_packet,
)

log = logging.getLogger(__name__)
DEFAULT_LISTEN_PORT = 6064
DEFAULT_TTL = 64
DEFAULT_FLOW_IDLE_TIMEOUT_S = 30.0

EXPIRY_TICK_US = 1_000_000
# Most flows a PROXY relay keeps. A flow must outlast the searches forwarded while its reply waits in the
# listen queue: at most 2,820 with a full 208 KiB queue of 20-name searches on loopback (ROADMAP item 15).
FLOW_TABLE_SIZE = 4096
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
        limit = self.max_packets_per_second  # 0 would drop every datagram, and True is an int
        if limit is not None and (type(limit) is not int or limit < 1):
            raise InvalidRelayConfig("max_packets_per_second", f"max_packets_per_second must be an int >= 1: {limit!r}")
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
    flows_evicted: int = 0  # PROXY flows a full table dropped before they expired; a later reply to one is not passed on
    # Socket errors served on. ``relayed`` and ``replies_forwarded`` go up just before their send, so a
    # reader on another thread who has seen the datagram sees it counted; a failed send takes it back.
    recv_errors: int = 0
    send_errors: int = 0
    reply_send_errors: int = 0

    def conserved(self) -> bool:
        """Each search received is relayed (once sent), dropped or a send error; replies are outside the sum."""
        drops = self.dropped_local + self.dropped_not_allowed + self.dropped_port + self.dropped_rate_limited
        return self.received == self.relayed + drops + self.send_errors


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
        # relay search ID -> (client ip, client port, client ID, last use in µs), least recently used first
        self.flows: OrderedDict[int, tuple[str, int, int, int]] = OrderedDict()
        # (client ip, client port, client ID) -> relay ID, for each flow whose two IDs differ
        self._renamed: dict[tuple[str, int, int], int] = {}
        # IP identification of the next spoofed datagram: 1 to 0xFFFF, then 1 again.
        self._next_id = 1
        self._next_search_id = 1  # where the search for a fresh relay ID goes on
        self._spoof = config.mode is RelayMode.SPOOF
        self._rate_window = -1
        self._rate_count = 0
        transport.attach(self)

    # -- search path -----------------------------------------------------------

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
                opened: list[int] = []
                data = self._track_requests(packet, now_us, opened)
                counters.relayed += 1
                self.transport.flow_send(config.listen_port, data, config.target_broadcast, config.target_port)
        except OSError as exc:  # ENOBUFS, a netfilter EPERM, EMSGSIZE over the path MTU (raw(7))
            counters.relayed -= 1
            counters.send_errors += 1
            if not self._spoof:  # a search that was not sent opens no flow
                for relay_id in opened:
                    self._drop_flow(relay_id)
            log.debug("send failed for %s:%d: %s", packet.src_ip, packet.src_port, exc)

    def _rate_limited(self, now_us: int, limit: int) -> bool:
        window = now_us // 1_000_000
        if window != self._rate_window:
            self._rate_window = window
            self._rate_count = 0
        self._rate_count += 1
        return self._rate_count > limit

    # -- flow path (PROXY) -----------------------------------------------------

    def _track_requests(self, packet: Ipv4UdpPacket, now_us: int, opened: list[int]) -> bytes:
        """The payload to forward, each request's relay ID in place; the IDs of new flows go into ``opened``."""
        data = packet.payload
        src_ip, src_port = packet.src_ip, packet.src_port
        rewritten = None
        try:
            messages = search_messages(data)
        except CaWireError:
            return data
        # param1 is the ID a server answers
        for offset, data_type, _, client_id, _, _ in messages:
            if data_type in REQUEST_CODES:
                relay_id = self._flow_id(src_ip, src_port, client_id, now_us, opened)
                if relay_id != client_id:
                    rewritten = rewritten or bytearray(data)
                    set_request_ids(rewritten, offset, relay_id)
        return data if rewritten is None else bytes(rewritten)

    def _flow_id(self, src_ip: str, src_port: int, client_id: int, now_us: int, opened: list[int]) -> int:
        """The relay ID a request goes out under, by the rule the module docstring gives; its flow is written youngest."""
        flows, renamed = self.flows, self._renamed
        relay_id = renamed.get((src_ip, src_port, client_id), client_id) if renamed else client_id
        held = flows.get(relay_id)
        if held is None:
            opened.append(relay_id)
        elif held[:3] == (src_ip, src_port, client_id):  # the same search again
            flows.move_to_end(relay_id)
        else:  # another client's: the next ID no entry holds
            while relay_id in flows:
                relay_id = self._next_search_id
                self._next_search_id = relay_id % 0xFFFFFFFF + 1  # 1 to 0xFFFFFFFF
            renamed[src_ip, src_port, client_id] = relay_id
            opened.append(relay_id)
        flows[relay_id] = (src_ip, src_port, client_id, now_us)
        if len(flows) > FLOW_TABLE_SIZE:
            oldest, (client_ip, client_port, oldest_client_id, _) = flows.popitem(last=False)
            if oldest_client_id != oldest:
                del renamed[client_ip, client_port, oldest_client_id]
            self.counters.flows_evicted += 1
        return relay_id

    def on_flow_packet(self, local_port: int, packet: Ipv4UdpPacket, now_us: int) -> bool:
        """Pass a reply to its client, or return False and do nothing if the datagram is not one.

        The transports ask this of datagrams from ``target_port`` only. A reply's first search message
        is a response naming a live relay ID; each response in it to that ID's client refreshes its
        flow and gets the client's ID back in param2.
        """
        data = packet.payload
        flows = self.flows
        client_ip = client_port = rewritten = None
        try:
            messages = search_messages(data)
        except CaWireError:
            return False
        for offset, data_type, _, _, relay_id, _ in messages:
            flow = flows.get(relay_id)
            if flow is None or data_type in REQUEST_CODES or (
                client_ip is not None and flow[:2] != (client_ip, client_port)
            ):
                if client_ip is None:  # the first search message is no response to a live flow
                    return False
                continue
            client_ip, client_port, client_id, _ = flow
            flows[relay_id] = (client_ip, client_port, client_id, now_us)
            flows.move_to_end(relay_id)
            if client_id != relay_id:
                rewritten = rewritten or bytearray(data)
                set_response_id(rewritten, offset, client_id)
        if client_ip is None:
            return False
        if rewritten is not None:
            data = bytes(rewritten)
        self.counters.replies_forwarded += 1
        try:
            self.transport.flow_send(local_port, data, client_ip, client_port)
        except OSError as exc:
            self.counters.replies_forwarded -= 1
            self.counters.reply_send_errors += 1
            log.debug("reply to %s:%d failed: %s", client_ip, client_port, exc)
        return True

    def _drop_flow(self, relay_id: int) -> None:
        client_ip, client_port, client_id, _ = self.flows.pop(relay_id)
        if client_id != relay_id:
            del self._renamed[client_ip, client_port, client_id]

    def expire_flows(self, now_us: int) -> int:
        """Drop flows idle for at least the configured timeout; returns how many."""
        stale_us = now_us - int(self.config.flow_idle_timeout_s * 1e6)  # a flow last used by then has expired
        flows, before = self.flows, len(self.flows)
        while flows and next(iter(flows.values()))[3] <= stale_us:
            self._drop_flow(next(iter(flows)))
        return before - len(flows)

    def serve(self, stop: threading.Event) -> None:
        self.transport.serve(self, stop)


class SimTransport:
    """Adapts the relay reactor onto a VirtualNetwork host. ``request_delay_us`` models the
    host's per-request cost: each search reaches the relay that long after its delivery."""

    def __init__(self, net, host_name: str, request_delay_us: int = 0) -> None:
        self.net = net
        self.host_name = host_name
        self.request_delay_us = request_delay_us
        self.local_ip = net.host(host_name).interfaces[0].ip

    def attach(self, relay: Relay) -> None:
        listen_port, reply_port = relay.config.listen_port, relay.config.target_port
        delay = self.request_delay_us

        def on_datagram(d) -> None:
            if d.packet.src_port == reply_port and relay.on_flow_packet(listen_port, d.packet, d.time_us):
                return
            if delay:
                self.net.call_later(delay, lambda: relay.handle_packet(d.packet, d.time_us))
            else:
                relay.handle_packet(d.packet, d.time_us)

        def expiry_tick() -> None:
            relay.expire_flows(self.net.now_us)
            self.net.call_later(EXPIRY_TICK_US, expiry_tick)

        self.net.bind(self.host_name, listen_port, owner="relay", callback=on_datagram)
        if relay.config.mode is RelayMode.PROXY:
            self.net.call_later(EXPIRY_TICK_US, expiry_tick)

    def emit_spoofed(self, packet: Ipv4UdpPacket) -> None:
        self.net.inject(self.host_name, packet)

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self.net.inject(self.host_name, udp_packet(self.local_ip, dst_ip, local_port, dst_port, payload))


class RealUdpTransport:
    """Plain-socket transport on one listen socket; SPOOF also sends through a raw socket and needs the capability."""

    def __init__(self, config: RelayConfig, bind_ip: str = "0.0.0.0", socket_factory=None) -> None:
        self._bind_ip = bind_ip  # the destination address of received datagrams
        # Resolved at call time so tests can substitute the module's socket.
        self._socket_factory = socket_factory or socket.socket
        self._listen = self._raw = None
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
            else:
                step = "allow broadcast on the listen socket"
                self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            # socket(7): a receive idle this long fails with EAGAIN; settimeout() would poll(2) before each
            step = "set the listen socket's receive timeout"
            timeval = struct.pack("@ll", *divmod(round(IDLE_WAKE_S * 1_000_000), 1_000_000))
            self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        except OSError as exc:
            self.close()
            if isinstance(exc, PermissionError) and step == raw_step:  # not bind's EACCES, nor any EMFILE
                raise PrivilegeRequired(
                    "spoof mode rewrites raw IP headers and needs CAP_NET_RAW; "
                    "run as root, grant the capability (setcap cap_net_raw+ep), "
                    "or use --mode proxy which runs unprivileged"
                ) from exc
            raise TransportUnavailable(f"cannot {step}: {exc}") from exc

    def attach(self, relay: Relay) -> None:
        del relay  # serve() is handed the relay

    def emit_spoofed(self, packet: Ipv4UdpPacket) -> None:
        self._raw.sendto(encode(packet), (packet.dst_ip, 0))

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self._listen.sendto(payload, (dst_ip, dst_port))

    def serve(self, relay: Relay, stop: threading.Event) -> None:
        """Receive loop; returns when stop is set, within ``IDLE_WAKE_S`` when idle.

        A datagram from ``target_port`` goes to ``on_flow_packet``; one that is
        not a reply there, and any other, goes to ``handle_packet``.
        """
        config = relay.config
        listen_port, reply_port = config.listen_port, config.target_port
        bind_ip = self._bind_ip
        new_record, packet_type = _new_record, Ipv4UdpPacket
        stopped = stop.is_set
        ttl, ident, tos, frag = HEADER_DEFAULTS
        # Looked up here, not in attach(), so that wrappers installed on the
        # relay instance before serve() starts see every datagram.
        handle_packet, on_flow_packet = relay.handle_packet, relay.on_flow_packet
        expire_flows = relay.expire_flows
        listen_recv, monotonic_ns = self._listen.recvfrom, time.monotonic_ns
        next_tick_us = 0 if config.mode is RelayMode.PROXY else math.inf
        while not stopped():
            try:
                data, (src_ip, src_port) = listen_recv(65535)
            except BlockingIOError:  # the receive timed out: only the tick may be due
                data = None
            except OSError as exc:
                if exc.errno == errno.EBADF:  # close() ran under the loop: no receive can succeed
                    raise
                relay.counters.recv_errors += 1
                log.debug("receive failed: %s", exc)
                continue
            now = monotonic_ns() // 1000
            if data is not None:
                packet = new_record(packet_type, (src_ip, bind_ip, src_port, listen_port, data, ttl, ident, tos, frag))
                if src_port != reply_port or not on_flow_packet(listen_port, packet, now):
                    handle_packet(packet, now)
            if now >= next_tick_us:
                expire_flows(now)
                next_tick_us = now + EXPIRY_TICK_US

    def close(self) -> None:
        """Close every descriptor opened so far; safe on a half-built transport, and twice."""
        for opened in (self._listen, self._raw):
            if opened is not None:
                opened.close()
