"""Deterministic in-process virtual IPv4 network.

Models just enough of a routed campus network to reproduce broadcast-domain
behavior around UDP name resolution: per-host port bindings with bind order,
switch-level broadcast-to-unicast helper rules, and host-level prerouting
destination rewrites. Time is a virtual microsecond clock; every delivery is
scheduled onto a single event queue, so a fixed topology, seed, and injection
sequence always produce the same deliveries. A network built with ``log=True``
(the default) keeps them in ``delivery_log``; one that nobody reads, as in
``bench.run_scenario`` and ``run_benchmark``, keeps none and runs the same.
``trace_lines`` formats that log a line at a time, as each is taken, so a
trace is printed without being built whole. A timer is queued with
``call_later``, which refuses a negative delay. A binding's callback may
return a packet, which the network sends from the receiving host; a binding
that is unbound receives nothing more, though deliveries already queued to it
are still logged. A topology the network cannot describe is refused when it
is built (``index_topology``), with ``InvalidTopology.path`` naming the faulty
field, such as ``hosts[1].name``.

Delivery semantics, applied in order for each injected packet:

1. The destination address picks the domain. The limited broadcast
   255.255.255.255 goes into the domain of its source address (the first
   interface's, for a source the sender does not own). A domain's directed
   broadcast goes into that domain only when the sender has an interface
   there: routers do not forward it (RFC 2644, updating RFC 1812 section
   5.3.5.2). Either reaches all bindings on the destination port of every
   host in its domain. Any other address is unicast.
2. A helper rule whose domain and port match a broadcast additionally emits
   unicast copies toward each configured destination, source preserved.
3. A unicast arrival first passes the receiving host's prerouting rules: the
   first matching rule rewrites the destination. A rewrite to the limited
   broadcast is delivered to all local bindings on the new port but is not
   re-emitted onto the wire; any other rewrite is delivered locally or
   forwarded. Without a rewrite, the packet goes only to the binding made
   last on the port (last-binder delivery).
4. Each hop costs a fixed per-hop delay, and each leg optional seeded
   jitter. One rule prices a unicast: one hop between hosts that share a
   domain, two otherwise. A helper copy takes two (to the switch, then
   onward), and a rewrite forwarded to another host one more.

The data circuit after a resolved search is one request and one reply
(``request``): the client's PV name and the server's value, each handed
over as it is, neither encoded nor logged. Each way is priced as a unicast
between the two hosts (rule 4, ``_hop_delay_us``), drawn as that way is
sent. Its listener must be at an address a host owns.

The network keeps one record per host (``_Node``) with its bindings and its
domains, named by their names, and only reads its topology, so networks built
on one topology share no bindings. One packet's arrival at one host is one
event, however many bindings it is handed to: they share its time and take
their turns in bind order, each turn a constant amount of work. A node keeps
its bindings by port, in bind order, so the last binder is the last entry of
one list; helper rules are indexed once by domain and port, in rule order
(``index_topology``); hops build their packets and deliveries positionally
(``new_record``); a client's search retries are queued one at a time from a
list it builds once (``call_in_turn``), so an answered query leaves none
behind; each way of a data-circuit request is one queued ``partial``; all IOCs
handed one broadcast share one parse of it (``ca_wire.find_search_requests``);
and every event fires through ``_step``, which perfbench wraps to count events.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .packet import Cidr, Ipv4UdpPacket, new_record

LIMITED_BROADCAST = "255.255.255.255"

DEFAULT_PER_HOP_DELAY_US = 200


class NetsimError(Exception):
    """A host, route or channel listener the network does not have; the message names it."""


class InvalidTopology(ValueError):
    """A topology the network cannot describe; ``path`` names the field, as ``hosts[1].interfaces[0].ip``."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(message)
        self.path = path


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


@dataclass(eq=False, slots=True)
class SocketBinding:
    """One socket bound to a port; bindings compare by identity, as sockets do."""

    port: int
    owner: str
    callback: Callable[["Delivery"], Ipv4UdpPacket | None] | None = field(default=None, repr=False)


@dataclass
class VirtualHost:
    name: str
    interfaces: list[Interface]
    prerouting_rules: list[PreroutingRule] = field(default_factory=list)


@dataclass
class VirtualTopology:
    domains: list[BroadcastDomain]
    hosts: list[VirtualHost]
    helper_rules: list[HelperRule] = field(default_factory=list)
    per_hop_delay_us: int = DEFAULT_PER_HOP_DELAY_US
    jitter_us: int = 0


@dataclass(eq=False, slots=True)
class _Node:
    """One host as one network routes it: the bindings are that network's own."""

    host: VirtualHost
    ports: dict[int, list[SocketBinding]] = field(default_factory=dict)  # by port, in bind order
    domains: set[str] = field(default_factory=set)  # its domains' names
    domain_of_ip: dict[str, str] = field(default_factory=dict)  # each interface address's domain
    first_domain: str = ""  # its first interface's, for any other source, such as a spoofed one


class _Nodes(dict):
    """Nodes by host name; a name no host has raises ``NetsimError``."""

    def __missing__(self, name: str) -> _Node:
        raise NetsimError(f"unknown host {name!r}")


def index_topology(topology: VirtualTopology) -> tuple[dict, dict, dict, dict]:
    """One pass that refuses, as ``InvalidTopology``, a topology the network
    cannot describe, and builds one ``_Node`` per host, with domains named by
    their names: nodes by host name, nodes by interface address, each
    domain's nodes in jitter-draw order, and the helper rules' ``(ip, node)``
    destinations by ``(domain, udp_port)``, in rule order."""
    domain_of_subnet: dict[Cidr, str] = {}
    nodes_in_domain: dict[str, list[_Node]] = {}
    for i, domain in enumerate(topology.domains):
        if domain.subnet in domain_of_subnet:
            raise InvalidTopology(f"domains[{i}].subnet", f"duplicate domain subnet {domain.subnet}")
        if domain.name in nodes_in_domain:
            raise InvalidTopology(f"domains[{i}].name", f"duplicate domain name {domain.name!r}")
        domain_of_subnet[domain.subnet] = domain.name
        nodes_in_domain[domain.name] = []
    nodes = _Nodes()
    node_of_ip: dict[str, _Node] = {}
    for i, host in enumerate(topology.hosts):
        if host.name in nodes:
            raise InvalidTopology(f"hosts[{i}].name", f"duplicate host name {host.name!r}")
        if not host.interfaces:
            raise InvalidTopology(f"hosts[{i}].interfaces", f"{host.name} has no interfaces")
        node = nodes[host.name] = _Node(host)
        for j, iface in enumerate(host.interfaces):
            path = f"hosts[{i}].interfaces[{j}]"
            domain = domain_of_subnet.get(iface.subnet)
            if domain is None:
                raise InvalidTopology(f"{path}.subnet", f"{iface.subnet} is no domain's subnet")
            if domain in node.domains:
                raise InvalidTopology(f"{path}.subnet", f"{host.name} has two interfaces in {domain}")
            if not iface.subnet.contains(iface.ip):
                raise InvalidTopology(f"{path}.ip", f"{iface.ip} is outside its subnet {iface.subnet}")
            if iface.subnet.prefix_len <= 30 and iface.ip in (iface.subnet.base_ip, iface.subnet.broadcast_address()):
                raise InvalidTopology(f"{path}.ip", f"{iface.ip} is the network or broadcast address of {iface.subnet}")
            if iface.ip in node_of_ip:
                raise InvalidTopology(f"{path}.ip", f"duplicate interface address {iface.ip}")
            node.domains.add(domain)
            node.domain_of_ip[iface.ip] = domain
            nodes_in_domain[domain].append(node)
            node_of_ip[iface.ip] = node
        node.first_domain = node.domain_of_ip[host.interfaces[0].ip]
    for i, host in enumerate(topology.hosts):
        for j, rule in enumerate(host.prerouting_rules):
            if rule.new_dst_ip != LIMITED_BROADCAST and rule.new_dst_ip not in node_of_ip:
                path = f"hosts[{i}].prerouting_rules[{j}].new_dst_ip"
                raise InvalidTopology(path, f"prerouting rewrite to unknown address {rule.new_dst_ip}")
    helpers: dict[tuple[str, int], list[tuple[str, _Node]]] = {}
    for i, rule in enumerate(topology.helper_rules):
        if rule.domain not in nodes_in_domain:
            raise InvalidTopology(f"helper_rules[{i}].domain", f"unknown domain {rule.domain!r}")
        if not rule.destinations:
            raise InvalidTopology(f"helper_rules[{i}].destinations", "at least one destination required")
        for j, ip in enumerate(rule.destinations):
            if ip not in node_of_ip:
                raise InvalidTopology(f"helper_rules[{i}].destinations[{j}]", f"no interface owns {ip}")
        helpers.setdefault((rule.domain, rule.udp_port), []).extend((ip, node_of_ip[ip]) for ip in rule.destinations)
    return nodes, node_of_ip, nodes_in_domain, helpers


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


class _CallsInTurn:
    """``(offset_us, fn)`` calls, each made as ``fn(arg)`` at ``start_us +
    offset_us`` in the order given, and queued when the one before fires and
    returns true; ``cancel`` removes the one still queued. Sequence numbers
    are reserved up front, so each call breaks ties with other events as if
    all were queued at once. The chain is its own queued timer, so no
    reference cycle outlives its last queued call.
    """

    __slots__ = ("_net", "_start_us", "_calls", "_arg", "_first_seq", "_i", "_entry")

    def __init__(self, net: "VirtualNetwork", start_us: int, calls: Sequence[tuple[int, Callable]], arg: Any) -> None:
        self._net, self._start_us, self._calls, self._arg, self._entry = net, start_us, calls, arg, None
        self._first_seq = net._seq + 1
        net._seq += len(calls)
        self._queue(0)

    def _queue(self, i: int) -> None:
        time_us = self._start_us + self._calls[i][0]
        if time_us < self._net.now_us:
            raise ValueError(f"cannot schedule at {time_us} before now {self._net.now_us}")
        self._i, self._entry = i, (time_us, self._first_seq + i, _TIMER, self)
        heapq.heappush(self._net._queue, self._entry)

    def __call__(self) -> None:
        i, self._entry = self._i, None
        if self._calls[i][1](self._arg) and i + 1 < len(self._calls):
            self._queue(i + 1)

    def cancel(self) -> None:
        if self._entry is not None:
            self._net._queue.remove(self._entry)
            heapq.heapify(self._net._queue)
            self._entry = None


class VirtualNetwork:
    """Sequential event loop over a VirtualTopology, which is not changed once the network is built."""

    def __init__(self, topology: VirtualTopology, seed: int = 0, log: bool = True) -> None:
        self.topology = topology
        self.now_us = 0
        self.delivery_log: list[Delivery] | None = [] if log else None  # None: a network nobody inspects keeps none
        self._rng = random.Random(seed)
        self._queue: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self._channel_listeners: dict[tuple[str, int], tuple[Callable, _Node]] = {}
        self._nodes, self._node_of_ip, self._nodes_in_domain, self._helper_copies = index_topology(topology)
        self._domain_of_broadcast = {d.subnet.broadcast_address(): d.name for d in topology.domains}
        self._jitter_max = topology.jitter_us
        self._jitter_bits = (topology.jitter_us + 1).bit_length()
        self._getrandbits = self._rng.getrandbits

    # -- hosts and addressing -------------------------------------------------

    def host(self, name: str) -> VirtualHost:
        return self._nodes[name].host

    def _hop_delay_us(self, src: _Node, dst: _Node) -> int:
        """The one unicast hop rule (module docstring, rule 4), for datagrams and the data circuit."""
        same_domain = not src.domains.isdisjoint(dst.domains)
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
        callback: Callable[[Delivery], Ipv4UdpPacket | None] | None = None,
    ) -> SocketBinding:
        """Append a binding; several owners may share one port. A packet the callback returns is sent from its host."""
        binding = SocketBinding(port, owner, callback)
        self._nodes[host_name].ports.setdefault(port, []).append(binding)
        return binding

    def unbind(self, host_name: str, binding: SocketBinding) -> None:
        """Close the binding: deliveries already queued to it are logged, but its callback is not called."""
        ports = self._nodes[host_name].ports
        on_port = ports[binding.port]
        on_port.remove(binding)
        if not on_port:
            del ports[binding.port]
        binding.callback = None

    # -- scheduling -----------------------------------------------------------

    def call_later(self, delta_us: int, fn: Callable[[], None]) -> None:
        if delta_us < 0:
            raise ValueError(f"cannot schedule {delta_us} us before now {self.now_us}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now_us + delta_us, self._seq, _TIMER, fn))

    def call_in_turn(self, start_us: int, calls: Sequence[tuple[int, Callable]], arg: Any) -> Callable[[], None]:
        """Queue the calls, a list a caller can build once, as a ``_CallsInTurn`` chain; returns its ``cancel``."""
        return _CallsInTurn(self, start_us, calls, arg).cancel

    # -- packet routing -------------------------------------------------------

    def inject(self, source_host: str, packet: Ipv4UdpPacket) -> None:
        """Submit a packet now, queued as one event per host arrival."""
        sender = self._nodes[source_host]
        at, dst_ip = self.now_us, packet.dst_ip
        if dst_ip == LIMITED_BROADCAST:
            domain = sender.domain_of_ip.get(packet.src_ip, sender.first_domain)
        else:
            domain = self._domain_of_broadcast.get(dst_ip)
        if domain is None:
            node = self._node_of_ip.get(dst_ip)
            if node is None:
                raise NetsimError(f"no interface owns {dst_ip}")
            arrivals = [self._arrive_unicast(node, packet, at + self._hop_delay_us(sender, node))]
        elif domain in sender.domains:
            arrivals = self._route_broadcast(packet, domain, at) + self._route_helper_copies(packet, domain, at)
        else:
            arrivals = []  # a directed broadcast into a domain the sender is not on: no router forwards it
        queue = self._queue
        for arrival in arrivals:
            if arrival:
                self._seq += 1
                heapq.heappush(queue, (arrival[0].time_us, self._seq, _DELIVERY, arrival))

    def _route_broadcast(self, packet: Ipv4UdpPacket, domain: str, at: int) -> list[list[Delivery]]:
        out = []
        at += self.topology.per_hop_delay_us
        dst_ip, dst_port = packet.dst_ip, packet.dst_port
        for node in self._nodes_in_domain[domain]:
            due = at + self._jitter()  # drawn for every host, bound on the port or not
            on_port = node.ports.get(dst_port)
            if on_port:
                host_name = node.host.name
                out.append([new_record(Delivery, (due, host_name, b, packet, dst_ip, dst_port)) for b in on_port])
        return out

    def _route_helper_copies(self, packet: Ipv4UdpPacket, domain: str, at: int) -> list[list[Delivery]]:
        out = []
        at += 2 * self.topology.per_hop_delay_us  # one hop to the helping switch, one onward to the server
        for dest_ip, node in self._helper_copies.get((domain, packet.dst_port), ()):
            copy = new_record(Ipv4UdpPacket, (packet[0], dest_ip, *packet[2:]))
            out.append(self._arrive_unicast(node, copy, at + self._jitter()))
        return out

    def _arrive_unicast(self, node: _Node, packet: Ipv4UdpPacket, due: int) -> list[Delivery]:
        wire_dst_ip, wire_dst_port = packet.dst_ip, packet.dst_port
        host, ports = node.host, node.ports
        for rule in host.prerouting_rules:  # the first that applies
            if not rule.applies(packet):
                continue
            src_ip, _, src_port, _, *rest = packet
            packet = new_record(Ipv4UdpPacket, (src_ip, rule.new_dst_ip, src_port, rule.new_dst_port, *rest))
            if rule.new_dst_ip == LIMITED_BROADCAST:
                # The rewrite only makes this machine accept the packet on every
                # local binding; nothing goes back onto the wire.
                on_port = ports.get(packet.dst_port, ())
                return [new_record(Delivery, (due, host.name, b, packet, wire_dst_ip, wire_dst_port)) for b in on_port]
            next_node = self._node_of_ip[rule.new_dst_ip]
            if next_node is not node:
                # Rewrite toward another machine: forward it, spending a hop and TTL.
                if packet.ttl <= 1:
                    return []
                next_due = due + self.topology.per_hop_delay_us + self._jitter()
                forwarded = new_record(Ipv4UdpPacket, (*packet[:5], packet.ttl - 1, *packet[6:]))
                return self._arrive_unicast(next_node, forwarded, next_due)
            break
        on_port = ports.get(packet.dst_port)
        if not on_port:
            return []
        return [new_record(Delivery, (due, host.name, on_port[-1], packet, wire_dst_ip, wire_dst_port))]

    # -- data circuit ---------------------------------------------------------

    def register_channel_listener(self, ip: str, port: int, serve: Callable[[object], object | None]) -> None:
        """serve(message) returns the reply to send back, or None; one listener per owned address."""
        node = self._node_of_ip.get(ip)
        if node is None:
            raise NetsimError(f"no interface owns {ip}")
        if (ip, port) in self._channel_listeners:
            raise NetsimError(f"a channel listener already has {ip}:{port}")
        self._channel_listeners[(ip, port)] = (serve, node)

    def request(
        self, client_host: str, server_ip: str, server_port: int, message: object,
        on_reply: Callable[[object], None],
    ) -> None:
        """Carry a message of any type (the simulated client's is a PV name) to server_ip:server_port's
        listener, and its reply, if any (the PV's value), to on_reply."""
        try:
            serve, server = self._channel_listeners[(server_ip, server_port)]
        except KeyError:
            raise NetsimError(f"nothing listening at {server_ip}:{server_port}") from None
        client = self._nodes[client_host]
        self._seq += 1
        arrive = partial(self._serve, serve, message, server, client, on_reply)
        heapq.heappush(self._queue, (self.now_us + self._hop_delay_us(client, server), self._seq, _TIMER, arrive))

    def _serve(self, serve: Callable, message: object, server: _Node, client: _Node, on_reply: Callable) -> None:
        """A request's arrival, queued by ``request`` as it is sent; its reply, if any, goes back the same way."""
        reply = serve(message)
        if reply is not None:
            self._seq += 1
            due = self.now_us + self._hop_delay_us(server, client)
            heapq.heappush(self._queue, (due, self._seq, _TIMER, partial(on_reply, reply)))

    # -- clock ----------------------------------------------------------------

    def advance_clock(self, duration_us: int) -> None:
        """Advance the clock, firing everything due within the window."""
        end = self.now_us + duration_us
        while self._queue and self._queue[0][0] <= end:
            self._step()
        self.now_us = end

    def run_until(self, done: Callable[[], bool], cap_us: int) -> None:
        """Fire events until done() holds, the queue drains, or the next is past cap_us; done() is checked per event."""
        queue = self._queue
        while queue and queue[0][0] <= cap_us and not done():
            self._step()

    def _step(self) -> list[Delivery]:
        """Fire the next event; returns the deliveries it made, in the order they were made."""
        time_us, _, kind, item = heapq.heappop(self._queue)
        if time_us > self.now_us:
            self.now_us = time_us
        if kind == _DELIVERY:
            if self.delivery_log is not None:
                self.delivery_log += item
            for delivery in item:
                # Read at its turn, so a binding an earlier turn unbound gets nothing.
                callback = delivery.binding.callback
                if callback is not None:
                    reply = callback(delivery)
                    if reply is not None:
                        self.inject(delivery.host, reply)
            return item
        item()
        return []

    # -- trace export ---------------------------------------------------------

    def trace_lines(self) -> Iterator[str]:
        """Delivery log as capture-style lines, each made when taken; a network built with ``log=False`` has none."""
        return (
            f"{_fmt_time(d.time_us)} IP {d.packet.src_ip}.{d.packet.src_port} > {d.wire_dst_ip}.{d.wire_dst_port}: "
            f"UDP, length {len(d.packet.payload)}"
            for d in self.delivery_log or ()
        )


def _fmt_time(time_us: int) -> str:
    seconds, us = divmod(time_us, 1_000_000)
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{us:06d}"
