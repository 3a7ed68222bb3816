"""Simulated IOC servers and a caget/caput-style client.

An IocSim owns a table of scalar PVs, answers name searches on the shared
UDP search port of its host (silently ignoring names it does not own), and
serves a simplified read/write exchange over the virtual network's reliable
channel, standing in for the data circuit. The CaClient broadcasts searches
with a doubling retry schedule and resolves the first response into a value
read or write.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass, field
from itertools import accumulate

from . import ca_wire
from .ca_wire import (
    CA_SERVER_PORT,
    SearchRequest,
    SearchResponse,
    ValueExchange,
    ValueExchangeKind,
)
from .netsim import ChannelRefused, ChannelSide, Delivery, VirtualNetwork
from .packet import Ipv4UdpPacket

FIRST_EPHEMERAL_PORT = 35687


class ChannelTimeout(TimeoutError):
    """Search retries exhausted without a usable response."""


def timeout_message(pv_name: str) -> str:
    return f"Channel connect timed out: '{pv_name}' not found."


@dataclass(frozen=True)
class ClientQueryConfig:
    initial_retry_s: float = 0.030
    backoff_factor: float = 2.0
    max_tries: int = 5
    total_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.initial_retry_s <= 0:
            raise ValueError("initial_retry must be positive")
        if self.backoff_factor <= 1:
            raise ValueError("backoff_factor must exceed 1")
        if self.max_tries < 1:
            raise ValueError("max_tries must be at least 1")
        if self.total_timeout_s < sum(w / 1e6 for w in self.wait_schedule_us()):
            raise ValueError("total_timeout must cover the scheduled waits")

    def wait_schedule_us(self) -> list[int]:
        """Wait after each send: initial_retry doubling (by backoff_factor)."""
        return [
            round(self.initial_retry_s * self.backoff_factor**k * 1e6)
            for k in range(self.max_tries)
        ]


def _value_request(pv_name: str, sequence: int, write_value: float | None) -> bytes:
    """The encoded READ request, or the WRITE request when a value is to be written."""
    kind = ValueExchangeKind.READ_REQUEST if write_value is None else ValueExchangeKind.WRITE_REQUEST
    return ca_wire.encode_value_exchange(ValueExchange(kind, pv_name, sequence, write_value))


def _reply_value(payload: bytes, pv_name: str, sequence: int, write_value: float | None) -> float | None:
    """The value a reply completes ``_value_request``'s exchange with, or None if it does not.

    A READ_REPLY completes a read with the value it carries, a WRITE_ACK a
    write with the value written; anything else, malformed replies included,
    leaves the exchange open.
    """
    try:
        msg = ca_wire.decode_value_exchange(payload)
    except ca_wire.CaWireError:
        return None
    kind = ValueExchangeKind.READ_REPLY if write_value is None else ValueExchangeKind.WRITE_ACK
    if (msg.kind, msg.pv_name, msg.sequence) != (kind, pv_name, sequence):
        return None
    return msg.value if write_value is None else write_value


class IocSim:
    """One IOC process: PV table, search responder, value exchange server."""

    def __init__(
        self,
        net: VirtualNetwork,
        host_name: str,
        name: str,
        pvs: dict[str, float],
        server_port: int,
        advertise_own_address: bool = True,
    ) -> None:
        if len(set(pvs)) != len(pvs):
            raise ValueError("PV names must be unique within one IOC")
        self.net = net
        self.host_name = host_name
        self.name = name
        self.pvs = dict(pvs)
        self.server_port = server_port
        self.advertise_own_address = advertise_own_address
        self.host_ip = net.host(host_name).interfaces[0].ip
        self.reads_served = 0
        self.writes_served = 0
        net.register_channel_listener(self.host_ip, server_port, self._accept_channel)
        self.binding = net.bind(host_name, CA_SERVER_PORT, owner=name, callback=self._on_delivery)

    # -- search ---------------------------------------------------------------

    def on_search_datagram(self, data: bytes, source_addr: tuple[str, int]) -> bytes | None:
        """Response datagram for the first owned name, or None (silent miss)."""
        del source_addr  # the response goes back however the caller addresses it
        for request in ca_wire.find_search_requests(data):
            if request.pv_name in self.pvs:
                return ca_wire.encode_search_response_datagram(
                    SearchResponse(
                        server_port=self.server_port,
                        search_id=request.search_id,
                        server_address=self.host_ip if self.advertise_own_address else None,
                    )
                )
        return None

    def _on_delivery(self, delivery: Delivery) -> None:
        packet = delivery.packet
        try:
            response = self.on_search_datagram(packet.payload, (packet.src_ip, packet.src_port))
        except ca_wire.CaWireError:
            return  # not CA traffic; a name server stays silent
        if response is None:
            return
        reply = Ipv4UdpPacket(self.host_ip, packet.src_ip, CA_SERVER_PORT, packet.src_port, response)
        self.net.inject(self.host_name, reply)

    # -- value exchange ---------------------------------------------------------

    def _accept_channel(self, side: ChannelSide, peer_host: str) -> None:
        del peer_host
        side.on_message = lambda payload: self._on_channel_message(side, payload)

    def _on_channel_message(self, side: ChannelSide, payload: bytes) -> None:
        msg = ca_wire.decode_value_exchange(payload)
        if msg.pv_name not in self.pvs:
            return
        if msg.kind is ValueExchangeKind.READ_REQUEST:
            self.reads_served += 1
            reply = ValueExchange(
                ValueExchangeKind.READ_REPLY, msg.pv_name, msg.sequence, self.pvs[msg.pv_name]
            )
            side.send(ca_wire.encode_value_exchange(reply))
        elif msg.kind is ValueExchangeKind.WRITE_REQUEST:
            self.writes_served += 1
            self.pvs[msg.pv_name] = msg.value
            ack = ValueExchange(ValueExchangeKind.WRITE_ACK, msg.pv_name, msg.sequence)
            side.send(ca_wire.encode_value_exchange(ack))


@dataclass
class QueryResult:
    pv_name: str
    operation: str
    value: float | None = None
    timed_out: bool = False
    started_us: int = 0
    finished_us: int = 0
    send_times_us: list[int] = field(default_factory=list)
    responses_seen: int = 0

    @property
    def latency_us(self) -> int | None:
        return None if self.timed_out else self.finished_us - self.started_us

    @property
    def outcome(self) -> str:
        return "timeout" if self.timed_out else f"value:{self.value!r}"


class _PendingQuery:
    def __init__(self, pv_name: str, operation: str, write_value: float | None) -> None:
        self.pv_name = pv_name
        self.operation = operation
        self.write_value = write_value
        self.result: QueryResult | None = None
        self.resolved = False
        self.done = False
        self.send_times: list[int] = []
        self.responses = 0


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
        self._next_sequence = 1
        # Each send's offset from the query's start, and the search deadline's.
        offsets = [0, *accumulate(self.config.wait_schedule_us())]
        self._send_offsets_us = offsets[:-1]
        self._deadline_us = min(offsets[-1], round(self.config.total_timeout_s * 1e6))
        self._run_cap_us = self._deadline_us + 2 * offsets[-1] + 1_000_000

    # -- public operations ------------------------------------------------------

    def caget(self, pv_name: str) -> float:
        result = self.query(pv_name)
        if result.timed_out:
            raise ChannelTimeout(timeout_message(pv_name))
        return result.value

    def caput(self, pv_name: str, value: float) -> None:
        result = self.query(pv_name, write_value=value)
        if result.timed_out:
            raise ChannelTimeout(timeout_message(pv_name))

    def query(self, pv_name: str, write_value: float | None = None) -> QueryResult:
        """Run one full resolution on the virtual clock; never raises on timeout."""
        operation = "read" if write_value is None else "write"
        pending = _PendingQuery(pv_name, operation, write_value)
        search_id = self._next_search_id
        self._next_search_id += 1
        eph_port = self._next_ephemeral
        self._next_ephemeral += 1

        datagram = ca_wire.encode_search_datagram(SearchRequest(pv_name, search_id))
        binding = self.net.bind(
            self.host_name,
            eph_port,
            owner=f"client:{pv_name}",
            callback=lambda d: self._on_datagram(pending, search_id, d),
        )

        started = self.net.now_us
        search = Ipv4UdpPacket(self.host_ip, self._broadcast_ip, eph_port, CA_SERVER_PORT, datagram)
        send = lambda: self._send_search(pending, search)  # noqa: E731
        deadline = started + self._deadline_us
        # Each retry is queued when the one before it fires, and the give-up
        # after the last retry; the first answer ends the chain.
        drop_timer = self.net.call_in_turn(
            [*((started + offset, send) for offset in self._send_offsets_us),
             (deadline, lambda: self._give_up(pending))]
        )

        self.net.run_until(lambda: pending.done, cap_us=started + self._run_cap_us)
        drop_timer()
        self.net.unbind(self.host_name, binding)

        if pending.result is None:  # queue drained or cap hit without a verdict
            pending.result = QueryResult(pv_name, operation, timed_out=True)
            # Without a verdict the search ran its full length: past its deadline.
            self.net.now_us = max(self.net.now_us, deadline)
        result = pending.result
        result.started_us = started
        result.send_times_us = pending.send_times
        result.responses_seen = pending.responses
        return result

    # -- internals ---------------------------------------------------------------

    def _send_search(self, pending: _PendingQuery, search: Ipv4UdpPacket) -> bool:
        """Broadcast the search unless the query has an answer; true while retries go on."""
        if pending.resolved or pending.done:
            return False
        pending.send_times.append(self.net.now_us)
        self.net.inject(self.host_name, search)
        return True

    def _give_up(self, pending: _PendingQuery) -> None:
        # The deadline covers the search phase only; a resolved query is
        # already reading its value and the run cap bounds that instead.
        if pending.done or pending.resolved:
            return
        pending.done = True
        pending.result = QueryResult(
            pending.pv_name, pending.operation, timed_out=True, finished_us=self.net.now_us
        )

    def _on_datagram(self, pending: _PendingQuery, search_id: int, delivery: Delivery) -> None:
        if pending.done:
            return
        try:
            response = ca_wire.find_search_response(delivery.packet.payload)
        except ca_wire.CaWireError:
            return
        if response is None or response.search_id != search_id:
            return
        pending.responses += 1
        if pending.resolved:
            return  # first response wins; duplicates are ignored
        server_ip = response.server_address or delivery.packet.src_ip
        try:
            side = self.net.open_channel(self.host_name, server_ip, response.server_port)
        except ChannelRefused:
            return  # unusable responder; keep waiting for another response
        pending.resolved = True
        sequence = self._next_sequence
        self._next_sequence += 1
        side.on_message = lambda payload: self._on_channel_reply(pending, sequence, payload)
        side.send(_value_request(pending.pv_name, sequence, pending.write_value))

    def _on_channel_reply(self, pending: _PendingQuery, sequence: int, payload: bytes) -> None:
        if pending.done:
            return
        value = _reply_value(payload, pending.pv_name, sequence, pending.write_value)
        if value is None:
            return
        pending.result = QueryResult(
            pending.pv_name, pending.operation, value=value, finished_us=self.net.now_us
        )
        pending.done = True


class RealCaClient:
    """Blocking caget/caput over real UDP sockets, for manual checks.

    Searches follow the same retry schedule as the simulated client. The
    value phase sends one framed read/write datagram to the resolved server
    port, so it completes only against this package's own endpoints; against
    a stock IOC the search still resolves, which is the interoperability
    signal this client exists to provide.
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
        self._next_sequence = 1

    def caget(self, pv_name: str) -> float:
        value = self._query(pv_name, None)
        if value is None:
            raise ChannelTimeout(timeout_message(pv_name))
        return value

    def caput(self, pv_name: str, value: float) -> None:
        if self._query(pv_name, value) is None:
            raise ChannelTimeout(timeout_message(pv_name))

    def _query(self, pv_name: str, write_value: float | None) -> float | None:
        search_id = self._next_search_id
        self._next_search_id += 1
        datagram = ca_wire.encode_search_datagram(SearchRequest(pv_name, search_id))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
        sock.bind(("0.0.0.0", 0))
        try:
            resolved = self._search(sock, datagram, search_id)
            if resolved is None:
                return None
            return self._exchange_value(pv_name, write_value, *resolved)
        finally:
            sock.close()

    def _search(self, sock: socket.socket, datagram: bytes, search_id: int):
        deadline = time.monotonic() + self.config.total_timeout_s
        for wait_us in self.config.wait_schedule_us():
            for target in self.targets:
                sock.sendto(datagram, target)
            until = min(time.monotonic() + wait_us / 1e6, deadline)
            while True:
                remaining = until - time.monotonic()
                if remaining <= 0:
                    break
                readable, _, _ = select.select([sock], [], [], remaining)
                if not readable:
                    break
                data, addr = sock.recvfrom(65535)
                try:
                    response = ca_wire.find_search_response(data)
                except ca_wire.CaWireError:
                    continue
                if response is None or response.search_id != search_id:
                    continue
                server_ip = response.server_address or addr[0]
                return server_ip, response.server_port
            if time.monotonic() >= deadline:
                break
        return None

    def _exchange_value(
        self, pv_name: str, write_value: float | None, server_ip: str, server_port: int
    ) -> float | None:
        sequence = self._next_sequence
        self._next_sequence += 1
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.sendto(_value_request(pv_name, sequence, write_value), (server_ip, server_port))
            readable, _, _ = select.select([sock], [], [], self.config.total_timeout_s)
            if not readable:
                return None
            data, _ = sock.recvfrom(65535)
            return _reply_value(data, pv_name, sequence, write_value)
        finally:
            sock.close()
