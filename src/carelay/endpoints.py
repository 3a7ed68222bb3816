"""Simulated IOC servers, a caget-style client, and a real-socket search probe.

An IocSim owns a table of scalar PVs, answers name searches on the shared UDP
search port of its host (silently ignoring names it does not own), and answers
each request of the simulated data circuit (``VirtualNetwork.request``), a PV
name, with that PV's value: the table's own ``get`` is the listener, so a name
the IOC does not own gets no reply. Both answers are return values that the
network sends on, so an IocSim keeps no reference to its network, and a network
without a relay is freed by reference count once it is dropped. The CaClient
broadcasts searches with a doubling retry schedule and turns the first response
into one read; each query is one ``_Query`` record, whose bound methods are the
network's callbacks, so a finished query is freed by reference count. A client
builds its retry schedule once, a query's records are built positionally
(``packet.new_record``) and its objects have ``__slots__``;
``CaClient.query``, ``IocSim.on_search_datagram`` and the ``ca_wire`` finders,
looked up on their module, stay one call each, as perfbench wraps them.

RealCaClient runs the same search schedule over real UDP sockets and stops
at the first response: the name-resolution phase is all the relay carries.
Both clients search until the waits run out, within ``SEARCH_TIMEOUT_US``.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from itertools import accumulate

from . import ca_wire
from .ca_wire import (
    CA_SERVER_PORT, DEFAULT_MINOR_VERSION, ReplyFlag, SearchRequest, SearchResponse,
)
from .netsim import Delivery, NetsimError, VirtualNetwork
from .packet import Ipv4UdpPacket, new_record, udp_packet

FIRST_EPHEMERAL_PORT = 35687
# The longest search: a retry schedule's waits must fit in it.
SEARCH_TIMEOUT_US = 5_000_000


class ChannelTimeout(TimeoutError):
    """Search retries exhausted without a usable response."""


def timeout_message(pv_name: str) -> str:
    return f"Channel connect timed out: '{pv_name}' not found."


@dataclass(frozen=True)
class ClientQueryConfig:
    initial_retry_s: float = 0.030
    backoff_factor: float = 2.0
    max_tries: int = 5

    def __post_init__(self) -> None:
        if self.initial_retry_s <= 0:
            raise ValueError("initial_retry must be positive")
        if self.backoff_factor <= 1:
            raise ValueError("backoff_factor must exceed 1")
        if self.max_tries < 1:
            raise ValueError("max_tries must be at least 1")
        if sum(self.wait_schedule_us()) > SEARCH_TIMEOUT_US:
            raise ValueError(f"the retry waits must fit in a {SEARCH_TIMEOUT_US / 1e6:g} s search")

    def wait_schedule_us(self) -> list[int]:
        """Wait after each send: initial_retry doubling (by backoff_factor)."""
        return [
            round(self.initial_retry_s * self.backoff_factor**k * 1e6)
            for k in range(self.max_tries)
        ]


def _server_of(payload: bytes, source_ip: str, search_id: int) -> tuple[str, int] | None:
    """The (ip, port) a response to search ``search_id`` names, or None for any other datagram;
    a response that names no address means its datagram's source."""
    try:
        response = ca_wire.find_search_response(payload)
    except ca_wire.CaWireError:
        return None
    if response is None or response.search_id != search_id:
        return None
    return response.server_address or source_ip, response.server_port


class IocSim:
    """One IOC process: PV table, search responder, data circuit server."""

    def __init__(
        self,
        net: VirtualNetwork,
        host_name: str,
        name: str,
        pvs: dict[str, float],
        server_port: int,
        advertise_own_address: bool = True,
    ) -> None:
        self.name = name
        self.pvs = {name: float(value) for name, value in pvs.items()}
        self.server_port = server_port
        self.advertise_own_address = advertise_own_address
        self.host_ip = net.host(host_name).interfaces[0].ip
        net.register_channel_listener(self.host_ip, server_port, self.pvs.get)
        net.bind(host_name, CA_SERVER_PORT, owner=name, callback=self._on_delivery)

    # -- search ---------------------------------------------------------------

    def on_search_datagram(self, data: bytes, source_addr: tuple[str, int]) -> bytes | None:
        """Response datagram for the first owned name, or None (silent miss)."""
        del source_addr  # the response goes back however the caller addresses it
        for request in ca_wire.find_search_requests(data):
            if request.pv_name in self.pvs:
                address = self.host_ip if self.advertise_own_address else None
                fields = (self.server_port, request.search_id, DEFAULT_MINOR_VERSION, address)
                return ca_wire.encode_search_response_datagram(new_record(SearchResponse, fields))
        return None

    def _on_delivery(self, delivery: Delivery) -> Ipv4UdpPacket | None:
        """The response packet, which the network sends from this host, or None."""
        packet = delivery.packet
        try:
            response = self.on_search_datagram(packet.payload, (packet.src_ip, packet.src_port))
        except ca_wire.CaWireError:
            return None  # not CA traffic; a name server stays silent
        if response is None:
            return None
        return udp_packet(self.host_ip, packet.src_ip, CA_SERVER_PORT, packet.src_port, response)


@dataclass(slots=True)
class QueryResult:
    pv_name: str
    value: float | None = None
    timed_out: bool = False
    started_us: int = 0
    finished_us: int = 0

    @property
    def latency_us(self) -> int | None:
        return None if self.timed_out else self.finished_us - self.started_us

    @property
    def outcome(self) -> str:
        return "timeout" if self.timed_out else f"value:{self.value!r}"


class _Query:
    """One query in flight: it owns its QueryResult, and its bound methods are
    the network's callbacks for its searches, give-up, responses and reply."""

    __slots__ = ("client", "search_id", "result", "search", "resolved", "done")

    def __init__(self, client: "CaClient", pv_name: str, search_id: int, port: int) -> None:
        self.client = client
        self.search_id = search_id
        self.result = QueryResult(pv_name, started_us=client.net.now_us)
        request = new_record(SearchRequest, (pv_name, search_id, ReplyFlag.DONT_REPLY, DEFAULT_MINOR_VERSION))
        datagram = ca_wire.encode_search_datagram(request)
        self.search = udp_packet(client.host_ip, client._broadcast_ip, port, CA_SERVER_PORT, datagram)
        self.resolved = False
        self.done = False

    def is_done(self) -> bool:
        return self.done

    def send_search(self) -> bool:
        """Broadcast the search unless the query has an answer; true while retries go on."""
        if self.resolved or self.done:
            return False
        self.client.net.inject(self.client.host_name, self.search)
        return True

    def give_up(self) -> None:
        # The deadline covers the search phase only; a resolved query is
        # already reading its value and the run cap bounds that instead.
        if self.done or self.resolved:
            return
        self.done = True
        self.result.timed_out = True
        self.result.finished_us = self.client.net.now_us

    def on_datagram(self, delivery: Delivery) -> None:
        if self.resolved or self.done:
            return  # first response wins; duplicates are ignored
        packet = delivery.packet
        server = _server_of(packet.payload, packet.src_ip, self.search_id)
        if server is None:
            return
        client = self.client
        try:
            client.net.request(client.host_name, *server, self.result.pv_name, self.on_reply)
        except NetsimError:
            return  # unusable responder; keep waiting for another response
        self.resolved = True

    def on_reply(self, value: float) -> None:
        self.done = True
        self.result.value = value
        self.result.finished_us = self.client.net.now_us


class CaClient:
    """Sequential search-and-fetch client over the virtual network."""

    def __init__(
        self,
        net: VirtualNetwork,
        host_name: str,
        config: ClientQueryConfig | None = None,
    ) -> None:
        self.net = net
        self.host_name = host_name
        self.config = config or ClientQueryConfig()
        interface = net.host(host_name).interfaces[0]
        self.host_ip = interface.ip
        self._broadcast_ip = interface.subnet.broadcast_address()
        self._next_ephemeral = FIRST_EPHEMERAL_PORT
        self._next_search_id = 1
        # A query's timers (``call_in_turn``): each send's offset from its start, then the give-up's, when the waits end.
        *sends, self._deadline_us = accumulate(self.config.wait_schedule_us(), initial=0)
        self._run_cap_us = 3 * self._deadline_us + 1_000_000
        self._timers = (*((offset, _Query.send_search) for offset in sends), (self._deadline_us, _Query.give_up))

    # -- public operations ------------------------------------------------------

    def caget(self, pv_name: str) -> float:
        result = self.query(pv_name)
        if result.timed_out:
            raise ChannelTimeout(timeout_message(pv_name))
        return result.value

    def query(self, pv_name: str) -> QueryResult:
        """Run one full resolution on the virtual clock; never raises on timeout."""
        search_id, eph_port = self._next_search_id, self._next_ephemeral
        self._next_search_id += 1
        # After 65535 it wraps to the first: each query unbinds its port before it returns.
        self._next_ephemeral = eph_port + 1 if eph_port < 65535 else FIRST_EPHEMERAL_PORT
        query = _Query(self, pv_name, search_id, eph_port)
        binding = self.net.bind(self.host_name, eph_port, f"client:{pv_name}", query.on_datagram)
        started = query.result.started_us
        deadline = started + self._deadline_us
        # Each retry is queued when the one before it fires, and the give-up
        # after the last retry; the first answer ends the chain.
        drop_timer = self.net.call_in_turn(started, self._timers, query)

        self.net.run_until(query.is_done, cap_us=started + self._run_cap_us)
        drop_timer()
        self.net.unbind(self.host_name, binding)

        if not query.done:  # queue drained or cap hit without a verdict
            query.result.timed_out = True
            # Without a verdict the search ran its full length: past its deadline.
            self.net.now_us = max(self.net.now_us, deadline)
        return query.result


class RealCaClient:
    """Blocking name resolution over real UDP sockets, for manual checks.

    Searches follow the same retry schedule as the simulated client, and the
    first response ends them. The relay carries only this phase, so a search
    answered through it shows the relay works; the data circuit that follows
    in Channel Access is TCP to the server and never passes the relay.
    """

    def __init__(
        self,
        targets: list[tuple[str, int]],
        config: ClientQueryConfig | None = None,
    ) -> None:
        if not targets:
            raise ValueError("at least one search target required")
        self.targets = targets
        self.config = config or ClientQueryConfig()
        self._next_search_id = 1

    def search(self, pv_name: str) -> tuple[str, int]:
        """The (ip, port) of the first server that answers; ChannelTimeout when none does."""
        search_id = self._next_search_id
        self._next_search_id += 1
        datagram = ca_wire.encode_search_datagram(SearchRequest(pv_name, search_id))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            sock.bind(("0.0.0.0", 0))
            for wait_us in self.config.wait_schedule_us():
                for target in self.targets:
                    sock.sendto(datagram, target)
                until = time.monotonic() + wait_us / 1e6
                # The socket's own timeout: select() cannot watch a descriptor above 1023.
                while (remaining := until - time.monotonic()) > 0:
                    sock.settimeout(remaining)
                    try:
                        data, (source_ip, _) = sock.recvfrom(65535)
                    except TimeoutError:
                        break
                    server = _server_of(data, source_ip, search_id)
                    if server is not None:
                        return server
        raise ChannelTimeout(timeout_message(pv_name))
