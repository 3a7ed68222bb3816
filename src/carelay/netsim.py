"""Deterministic in-process virtual IPv4 network.

Models just enough of a routed campus network to reproduce broadcast-domain
behavior around UDP name resolution: per-host port bindings with bind order,
switch-level broadcast-to-unicast helper rules, and host-level prerouting
destination rewrites. Time is a virtual microsecond clock; every delivery is
scheduled onto a single event queue, so a fixed topology, seed, and injection
sequence always produce the same delivery log.

Delivery semantics, applied in order for each injected packet:

1. A broadcast destination (a domain's directed broadcast or the limited
   broadcast 255.255.255.255) is delivered to every host in the sender's
   domain, to all bindings on the destination port. Broadcasts never cross
   domains on their own.
2. A helper rule whose domain and port match a broadcast additionally emits
   unicast copies toward each configured destination, source preserved.
3. A unicast arrival first passes the receiving host's prerouting rules: the
   first matching rule rewrites the destination. A rewrite to the limited
   broadcast is delivered to all local bindings on the new port but is not
   re-emitted onto the wire; any other rewrite is delivered locally or
   forwarded. Without a rewrite, the packet goes only to the binding with the
   highest bind sequence on the port (last-binder delivery).
4. Each hop costs a fixed per-hop delay plus optional seeded jitter.

Each event costs a constant amount of work. A host keeps its bindings by port,
in bind order, so the last binder is the last entry of one list; timers such as
a client's search retries are queued one at a time (``call_in_turn``), so an
answered query leaves none behind; and all IOCs handed one broadcast share one
parse of it (``ca_wire.find_search_requests``).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .packet import Cidr, Ipv4UdpPacket

LIMITED_BROADCAST = "255.255.255.255"

DEFAULT_PER_HOP_DELAY_US = 200


class NetsimError(Exception):
    pass


class UnknownHost(NetsimError):
    pass


class NoRoute(NetsimError):
    pass


class ChannelRefused(NetsimError):
    pass


@dataclass(frozen=True)
class BroadcastDomain:
    name: str
    subnet: Cidr


@dataclass(frozen=True)
class Interface:
    ip: str
    subnet: Cidr


@dataclass(frozen=True)
class HelperRule:
    """Switch rule: convert matching broadcasts to unicast toward servers."""

    domain: str
    udp_port: int
    destinations: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.destinations:
            raise ValueError("helper rule needs at least one destination")


@dataclass(frozen=True)
class PreroutingRule:
    """Host rule: rewrite the destination of matching unicast arrivals.

    negate_src limits the rule to packets whose source lies OUTSIDE the
    prefix; None applies it to any source. A new_dst_ip equal to the limited
    broadcast makes the host accept the packet on all local bindings of
    new_dst_port without re-emitting it.
    """

    match_dst_port: int
    new_dst_ip: str
    new_dst_port: int
    negate_src: Cidr | None = None

    def applies(self, packet: Ipv4UdpPacket) -> bool:
        if packet.dst_port != self.match_dst_port:
            return False
        return self.negate_src is None or not self.negate_src.contains(packet.src_ip)


@dataclass
class SocketBinding:
    port: int
    owner: str
    bind_sequence: int
    callback: Callable[["Delivery"], None] | None = field(
        default=None, compare=False, repr=False
    )


@dataclass
class VirtualHost:
    name: str
    interfaces: list[Interface]
    prerouting_rules: list[PreroutingRule] = field(default_factory=list)
    # Port -> its bindings in bind order, which is bind_sequence order, so the
    # last binder on a port is the last entry of its list.
    bindings: dict[int, list[SocketBinding]] = field(default_factory=dict)
    _bind_counter: int = field(default=0, repr=False)

    def interface_for_source(self, src_ip: str) -> Interface:
        # A relay emitting spoofed sources will not match any interface;
        # fall back to the first one (hosts here have one interface per domain).
        for iface in self.interfaces:
            if iface.ip == src_ip:
                return iface
        return self.interfaces[0]


@dataclass
class VirtualTopology:
    domains: list[BroadcastDomain]
    hosts: list[VirtualHost]
    helper_rules: list[HelperRule] = field(default_factory=list)
    per_hop_delay_us: int = DEFAULT_PER_HOP_DELAY_US
    jitter_us: int = 0


class Delivery(NamedTuple):
    """One packet handed to one binding, as it appeared on the wire.

    wire_dst_* is the destination before any prerouting rewrite (what a
    capture on the receiving host would show); packet carries the rewritten
    destination actually seen by the endpoint.
    """

    time_us: int
    host: str
    binding: SocketBinding
    packet: Ipv4UdpPacket
    wire_dst_ip: str
    wire_dst_port: int


_DELIVERY = 0
_TIMER = 1


class ChannelSide:
    """One end of a reliable in-order duplex byte-message channel."""

    def __init__(self, net: "VirtualNetwork", host: str, peer_host: str) -> None:
        self._net = net
        self.host = host
        self.peer_host = peer_host
        self.on_message: Callable[[bytes], None] | None = None
        self._peer: "ChannelSide" | None = None
        self._last_scheduled_us = 0

    def send(self, payload: bytes) -> None:
        peer = self._peer
        assert peer is not None
        delay = self._net._hop_delay_us(self.host, peer.host)
        due = max(self._net.now_us + delay, self._last_scheduled_us)
        self._last_scheduled_us = due

        def fire() -> None:
            if peer.on_message is not None:
                peer.on_message(payload)

        self._net.call_at(due, fire)


class _CallsInTurn:
    """``(time_us, fn)`` calls in time order, each queued when the one before
    fires and returns true; ``cancel`` removes the one still queued. Sequence
    numbers are reserved up front, so each call breaks ties with other events
    as if all were queued at once. The chain is its own queued timer, so no
    reference cycle outlives its last queued call.
    """

    def __init__(self, net: "VirtualNetwork", calls: list[tuple[int, Callable[[], bool]]]) -> None:
        self._net, self._calls, self._entry = net, calls, None
        self._first_seq = net._seq + 1
        net._seq += len(calls)
        self._queue(0)

    def _queue(self, i: int) -> None:
        time_us = self._calls[i][0]
        if time_us < self._net.now_us:
            raise ValueError(f"cannot schedule at {time_us} before now {self._net.now_us}")
        self._i, self._entry = i, (time_us, self._first_seq + i, _TIMER, self)
        heapq.heappush(self._net._queue, self._entry)

    def __call__(self) -> None:
        i, self._entry = self._i, None
        if self._calls[i][1]() and i + 1 < len(self._calls):
            self._queue(i + 1)

    def cancel(self) -> None:
        if self._entry is not None:
            self._net._queue.remove(self._entry)
            heapq.heapify(self._net._queue)
            self._entry = None


class VirtualNetwork:
    """Sequential event loop over a VirtualTopology."""

    def __init__(self, topology: VirtualTopology, seed: int = 0) -> None:
        self.topology = topology
        self.now_us = 0
        self.delivery_log: list[Delivery] = []
        self._rng = random.Random(seed)
        self._queue: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self._hosts = {h.name: h for h in topology.hosts}
        self._channel_listeners: dict[tuple[str, int], Callable] = {}
        # Domain membership, resolved once: the topology is not changed after
        # the network is built. A host's subnets are its domains' own Cidr
        # objects, so membership tests match by identity and do not call the
        # dataclass __eq__.
        self._domain_of_subnet = {d.subnet: d for d in topology.domains}
        self._validate()
        # In topology order, which is the order the jitter draws follow.
        self._hosts_in_domain: dict[str, list[VirtualHost]] = {d.name: [] for d in topology.domains}
        self._subnets_of_host: dict[str, frozenset[Cidr]] = {}
        for host in topology.hosts:
            domains = [self._domain_of_subnet[i.subnet] for i in host.interfaces]
            for domain in domains:
                self._hosts_in_domain[domain.name].append(host)
            self._subnets_of_host[host.name] = frozenset(d.subnet for d in domains)
        # Interface addresses are unique (checked by _validate).
        self._host_of_ip = {i.ip: host for host in topology.hosts for i in host.interfaces}
        self._broadcasts = frozenset(
            [LIMITED_BROADCAST, *(d.subnet.broadcast_address() for d in topology.domains)]
        )
        self._jitter_max = topology.jitter_us
        self._jitter_bits = (topology.jitter_us + 1).bit_length()
        self._getrandbits = self._rng.getrandbits

    def _validate(self) -> None:
        if len(self._hosts) != len(self.topology.hosts):
            raise ValueError("duplicate host names")
        seen_ips: set[str] = set()
        if len(self._domain_of_subnet) != len(self.topology.domains):
            raise ValueError("duplicate domain subnets")
        domain_names = {d.name for d in self.topology.domains}
        for host in self.topology.hosts:
            if not host.interfaces:
                raise ValueError(f"{host.name} has no interfaces")
            host_domains = set()
            for iface in host.interfaces:
                if iface.ip in seen_ips:
                    raise ValueError(f"duplicate interface address {iface.ip}")
                seen_ips.add(iface.ip)
                domain = self._domain_of_subnet.get(iface.subnet)
                if domain is None:
                    raise ValueError(f"{host.name} interface {iface.ip} matches no domain")
                if domain.name in host_domains:
                    raise ValueError(f"{host.name} has two interfaces in {domain.name}")
                host_domains.add(domain.name)
        for rule in self.topology.helper_rules:
            if rule.domain not in domain_names:
                raise ValueError(f"helper rule references unknown domain {rule.domain}")

    # -- hosts and addressing -------------------------------------------------

    def host(self, name: str) -> VirtualHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise UnknownHost(name) from None

    def _hop_delay_us(self, src_host: str, dst_host: str) -> int:
        try:
            same_domain = not self._subnets_of_host[src_host].isdisjoint(self._subnets_of_host[dst_host])
        except KeyError as exc:
            raise UnknownHost(exc.args[0]) from None
        return (1 if same_domain else 2) * self.topology.per_hop_delay_us + self._jitter()

    def _jitter(self) -> int:
        """``Random.randint(0, jitter_us)``'s draw, without its three layers of calls."""
        if self._jitter_max <= 0:
            return 0
        r = self._getrandbits(self._jitter_bits)
        while r > self._jitter_max:
            r = self._getrandbits(self._jitter_bits)
        return r

    # -- bindings -------------------------------------------------------------

    def bind(
        self,
        host_name: str,
        port: int,
        owner: str,
        callback: Callable[[Delivery], None] | None = None,
    ) -> SocketBinding:
        """Append a binding; several owners may share one port."""
        host = self.host(host_name)
        host._bind_counter += 1
        binding = SocketBinding(port=port, owner=owner, bind_sequence=host._bind_counter, callback=callback)
        host.bindings.setdefault(port, []).append(binding)
        return binding

    def unbind(self, host_name: str, binding: SocketBinding) -> None:
        bindings = self.host(host_name).bindings
        on_port = bindings[binding.port]
        on_port.remove(binding)
        if not on_port:
            del bindings[binding.port]

    # -- scheduling -----------------------------------------------------------

    def call_at(self, time_us: int, fn: Callable[[], None]) -> None:
        if time_us < self.now_us:
            raise ValueError(f"cannot schedule at {time_us} before now {self.now_us}")
        self._seq += 1
        heapq.heappush(self._queue, (time_us, self._seq, _TIMER, fn))

    def call_later(self, delta_us: int, fn: Callable[[], None]) -> None:
        self.call_at(self.now_us + delta_us, fn)

    def call_in_turn(self, calls: list[tuple[int, Callable[[], bool]]]) -> Callable[[], None]:
        """Queue the calls as a ``_CallsInTurn`` chain; returns its ``cancel``."""
        return _CallsInTurn(self, calls).cancel

    # -- packet routing -------------------------------------------------------

    def inject(self, source_host: str, packet: Ipv4UdpPacket) -> list[Delivery]:
        """Submit a packet at the current virtual time; returns the deliveries it scheduled."""
        at = self.now_us
        host = self.host(source_host)
        sender_domain = self._domain_of_subnet[host.interface_for_source(packet.src_ip).subnet]
        if packet.dst_ip in self._broadcasts:
            deliveries = self._route_broadcast(packet, sender_domain, at)
            deliveries += self._route_helper_copies(packet, sender_domain, at)
        else:
            deliveries = self._route_unicast(packet, sender_domain, at, hops=None)
        for d in deliveries:
            self._seq += 1
            heapq.heappush(self._queue, (d.time_us, self._seq, _DELIVERY, d))
        return deliveries

    def _route_broadcast(
        self, packet: Ipv4UdpPacket, domain: BroadcastDomain, at: int
    ) -> list[Delivery]:
        out = []
        at += self.topology.per_hop_delay_us
        dst_ip, dst_port = packet.dst_ip, packet.dst_port
        for host in self._hosts_in_domain[domain.name]:
            due = at + self._jitter()  # drawn for every host, bound on the port or not
            for binding in host.bindings.get(dst_port, ()):
                out.append(Delivery(due, host.name, binding, packet, dst_ip, dst_port))
        return out

    def _route_helper_copies(
        self, packet: Ipv4UdpPacket, domain: BroadcastDomain, at: int
    ) -> list[Delivery]:
        out = []
        for rule in self.topology.helper_rules:
            if rule.domain != domain.name or rule.udp_port != packet.dst_port:
                continue
            for dest_ip in rule.destinations:
                copy = packet._replace(dst_ip=dest_ip)
                # One hop to the helping switch, one onward to the server.
                out.extend(self._route_unicast(copy, domain, at, hops=2))
        return out

    def _route_unicast(
        self,
        packet: Ipv4UdpPacket,
        sender_domain: BroadcastDomain,
        at: int,
        hops: int | None,
    ) -> list[Delivery]:
        host = self._host_of_ip.get(packet.dst_ip)
        if host is None:
            raise NoRoute(f"no interface owns {packet.dst_ip}")
        if hops is None:
            hops = 1 if sender_domain.subnet in self._subnets_of_host[host.name] else 2
        due = at + hops * self.topology.per_hop_delay_us + self._jitter()
        return self._arrive_unicast(host, packet, due, ttl=packet.ttl)

    def _arrive_unicast(
        self, host: VirtualHost, packet: Ipv4UdpPacket, due: int, ttl: int
    ) -> list[Delivery]:
        rule = next((r for r in host.prerouting_rules if r.applies(packet)), None)
        if rule is None:
            on_port = host.bindings.get(packet.dst_port)
            if not on_port:
                return []
            return [Delivery(due, host.name, on_port[-1], packet, packet.dst_ip, packet.dst_port)]

        rewritten = packet._replace(dst_ip=rule.new_dst_ip, dst_port=rule.new_dst_port)
        if rule.new_dst_ip == LIMITED_BROADCAST:
            # The rewrite only makes this machine accept the packet on every
            # local binding; nothing goes back onto the wire.
            return [
                Delivery(due, host.name, b, rewritten, packet.dst_ip, packet.dst_port)
                for b in host.bindings.get(rule.new_dst_port, ())
            ]
        next_host = self._host_of_ip.get(rule.new_dst_ip)
        if next_host is host:
            on_port = host.bindings.get(rule.new_dst_port)
            if not on_port:
                return []
            return [Delivery(due, host.name, on_port[-1], rewritten, packet.dst_ip, packet.dst_port)]

        # Rewrite toward another machine: forward it, spending a hop and TTL.
        if ttl <= 1:
            return []
        if next_host is None:
            raise NoRoute(f"prerouting rewrite to unknown address {rule.new_dst_ip}")
        forwarded = rewritten._replace(ttl=ttl - 1)
        next_due = due + self.topology.per_hop_delay_us + self._jitter()
        return self._arrive_unicast(next_host, forwarded, next_due, ttl - 1)

    # -- reliable channels ----------------------------------------------------

    def register_channel_listener(
        self, ip: str, port: int, acceptor: Callable[[ChannelSide, str], None]
    ) -> None:
        """acceptor(server_side, client_host) runs when a peer connects; one per address."""
        if (ip, port) in self._channel_listeners:
            raise NetsimError(f"a channel listener already has {ip}:{port}")
        self._channel_listeners[(ip, port)] = acceptor

    def open_channel(self, client_host: str, server_ip: str, server_port: int) -> ChannelSide:
        acceptor = self._channel_listeners.get((server_ip, server_port))
        server_host = self._host_of_ip.get(server_ip)
        if acceptor is None or server_host is None:
            raise ChannelRefused(f"nothing listening at {server_ip}:{server_port}")
        client_side = ChannelSide(self, client_host, server_host.name)
        server_side = ChannelSide(self, server_host.name, client_host)
        client_side._peer = server_side
        server_side._peer = client_side
        acceptor(server_side, client_host)
        return client_side

    # -- clock ----------------------------------------------------------------

    def advance_clock(self, duration_us: int) -> list[Delivery]:
        """Advance the clock, firing everything due within the window."""
        end = self.now_us + duration_us
        fired: list[Delivery] = []
        while self._queue and self._queue[0][0] <= end:
            fired.extend(self._step())
        self.now_us = end
        return fired

    def run_until(
        self, done: Callable[[], bool], cap_us: int | None = None
    ) -> None:
        """Fire events until done() holds, the queue drains, or cap_us."""
        queue = self._queue
        while queue and not done():
            if cap_us is not None and queue[0][0] > cap_us:
                break
            self._step()

    def _step(self) -> list[Delivery]:
        time_us, _, kind, item = heapq.heappop(self._queue)
        if time_us > self.now_us:
            self.now_us = time_us
        if kind == _DELIVERY:
            self.delivery_log.append(item)
            if item.binding.callback is not None:
                item.binding.callback(item)
            return [item]
        item()
        return []

    # -- trace export ---------------------------------------------------------

    def trace_lines(self) -> list[str]:
        """Delivery log formatted one line per packet, capture style."""
        return [
            "%s IP %s.%d > %s.%d: UDP, length %d"
            % (
                _fmt_time(d.time_us),
                d.packet.src_ip,
                d.packet.src_port,
                d.wire_dst_ip,
                d.wire_dst_port,
                len(d.packet.payload),
            )
            for d in self.delivery_log
        ]


def _fmt_time(time_us: int) -> str:
    seconds, us = divmod(time_us, 1_000_000)
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{us:06d}"
