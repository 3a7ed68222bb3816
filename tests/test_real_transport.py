"""Loopback end-to-end checks of the real-socket paths.

These run the actual transport code (plain UDP for PROXY, raw IPv4 frames
for SPOOF) against stub endpoints on 127.0.0.1. The spoof test that sends
real raw frames is skipped where raw sockets are unavailable; the spoof serve
loop also runs against a recording stand-in for the raw socket. The stub
name server answers searches only, as a stock IOC does over UDP.
"""

import errno
import os
import resource
import signal
import socket
import threading
import time

import pytest

from carelay import cli
from carelay.ca_wire import (
    SearchRequest,
    SearchResponse,
    encode_search_datagram,
    encode_search_response_datagram,
    find_search_requests,
)
from carelay.cli import main
from carelay.endpoints import SEARCH_TIMEOUT_US, ChannelTimeout, ClientQueryConfig, RealCaClient
from carelay.packet import Cidr, decode
from carelay.relay import (
    IDLE_WAKE_S,
    PrivilegeRequired,
    RealUdpTransport,
    Relay,
    RelayConfig,
    RelayMode,
    TransportUnavailable,
)


def _raw_sockets_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_RAW)
    except (PermissionError, OSError):
        return False
    probe.close()
    return True


RAW_AVAILABLE = _raw_sockets_available()


def search(search_id: int) -> bytes:
    return encode_search_datagram(SearchRequest("LOOP:PV", search_id))


def reply(search_id: int) -> bytes:
    return encode_search_response_datagram(SearchResponse(StubIoc.SERVER_PORT, search_id))


FAST_CLIENT = ClientQueryConfig(initial_retry_s=0.1, backoff_factor=2.0, max_tries=3)


def plain_udp_socket(ip: str = "127.0.0.1") -> socket.socket:
    # No SO_REUSEADDR: with it, two sockets bound to port 0 can share a port.
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((ip, 0))
    return sock


class StubIoc:
    """Minimal real-socket name server: answers searches for its PVs with a
    server port where nothing listens, as a stock IOC's data circuit is TCP."""

    SERVER_PORT = 5901

    def __init__(self, pvs, ip: str = "127.0.0.1", advertise_own_address: bool = True):
        self.pvs = set(pvs)
        self.server_address = ip if advertise_own_address else None
        self.search_sock = plain_udp_socket(ip)
        self.search_port = self.search_sock.getsockname()[1]
        self.seen_sources: list[tuple[str, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve_search, daemon=True)
        self._thread.start()

    def _serve_search(self) -> None:
        self.search_sock.settimeout(0.1)
        while not self._stop.is_set():
            try:
                data, addr = self.search_sock.recvfrom(65535)
            except socket.timeout:
                continue
            self.seen_sources.append(addr)
            for request in find_search_requests(data):
                if request.pv_name in self.pvs:
                    self.respond(request.search_id, addr)

    def respond(self, search_id: int, addr) -> None:
        response = SearchResponse(self.SERVER_PORT, search_id, server_address=self.server_address)
        self.search_sock.sendto(encode_search_response_datagram(response), addr)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2)
        self.search_sock.close()


@pytest.fixture
def stub_ioc():
    ioc = StubIoc({"LOOP:PV"})
    yield ioc
    ioc.close()


class TestRealCaClient:
    def test_search_names_the_server_that_answers(self, stub_ioc):
        client = RealCaClient([("127.0.0.1", stub_ioc.search_port)], config=FAST_CLIENT)
        assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
        assert len(stub_ioc.seen_sources) == 1

    def test_searches_every_target_and_names_the_one_that_owns_the_pv(self, stub_ioc):
        other = StubIoc({"OTHER:PV"}, ip="127.0.0.2")
        try:
            targets = [("127.0.0.2", other.search_port), ("127.0.0.1", stub_ioc.search_port)]
            client = RealCaClient(targets, config=FAST_CLIENT)
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
            deadline = time.monotonic() + 1
            while not other.seen_sources and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            other.close()
        assert len(other.seen_sources) == 1
        assert len(stub_ioc.seen_sources) == 1

    def test_a_response_without_an_address_names_its_source(self):
        ioc = StubIoc({"LOOP:PV"}, ip="127.0.0.2", advertise_own_address=False)
        try:
            client = RealCaClient([("127.0.0.2", ioc.search_port)], config=FAST_CLIENT)
            assert client.search("LOOP:PV") == ("127.0.0.2", StubIoc.SERVER_PORT)
        finally:
            ioc.close()

    def test_unknown_pv_times_out_with_message(self, stub_ioc):
        client = RealCaClient([("127.0.0.1", stub_ioc.search_port)], config=FAST_CLIENT)
        with pytest.raises(ChannelTimeout) as excinfo:
            client.search("MISSING:PV")
        assert str(excinfo.value) == "Channel connect timed out: 'MISSING:PV' not found."
        assert len(stub_ioc.seen_sources) == FAST_CLIENT.max_tries

    def test_only_a_response_to_this_search_resolves_it(self):
        # Ahead of the answer come a datagram that does not decode and a
        # response to another search, which names another port.
        class NoisyIoc(StubIoc):
            def respond(self, search_id, addr):
                self.search_sock.sendto(b"\x00\x02", addr)  # shorter than a CA header
                stale = SearchResponse(1, search_id + 1, server_address=self.server_address)
                self.search_sock.sendto(encode_search_response_datagram(stale), addr)
                super().respond(search_id, addr)

        ioc = NoisyIoc({"LOOP:PV"})
        try:
            client = RealCaClient([("127.0.0.1", ioc.search_port)], config=FAST_CLIENT)
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
        finally:
            ioc.close()
        assert len(ioc.seen_sources) == 2

    @pytest.mark.skipif(
        resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100,
        reason="needs about 1030 open descriptors",
    )
    def test_a_search_on_a_descriptor_select_cannot_watch(self, stub_ioc):
        # select() cannot watch a descriptor at or above FD_SETSIZE (1024).
        fillers: list[int] = []
        try:
            while not fillers or fillers[-1] < 1024:  # every lower descriptor is then taken
                fillers.append(os.open(os.devnull, os.O_RDONLY))
            client = RealCaClient([("127.0.0.1", stub_ioc.search_port)], config=FAST_CLIENT)
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
        finally:
            for fd in fillers:
                os.close(fd)

    def test_an_unanswered_search_is_sent_again(self):
        class DeafOnceIoc(StubIoc):
            def respond(self, search_id, addr):
                if len(self.seen_sources) > 1:
                    super().respond(search_id, addr)

        ioc = DeafOnceIoc({"LOOP:PV"})
        try:
            client = RealCaClient([("127.0.0.1", ioc.search_port)], config=FAST_CLIENT)
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
        finally:
            ioc.close()
        assert len(ioc.seen_sources) == 2


class TestRealCaget:
    def test_prints_the_server_found_well_before_the_timeout(self, stub_ioc, capsys):
        # It used to wait out the search timeout for a value reply that a stock IOC never sends.
        started = time.monotonic()
        code = main(["caget", "LOOP:PV", "--transport", "real", "--target", f"127.0.0.1:{stub_ioc.search_port}"])
        elapsed = time.monotonic() - started
        assert code == 0
        assert capsys.readouterr().out == f"LOOP:PV found at 127.0.0.1:{StubIoc.SERVER_PORT}\n"
        assert elapsed < SEARCH_TIMEOUT_US / 1e6 / 5

    def test_a_name_no_server_owns_exits_one(self, stub_ioc, capsys, tmp_path):
        config = tmp_path / "client.yaml"
        config.write_text("client:\n  initial_retry: 0.02\n  max_tries: 2\n")
        code = main([
            "caget", "MISSING:PV", "--transport", "real", "--target", f"127.0.0.1:{stub_ioc.search_port}",
            "--config", str(config),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "Channel connect timed out: 'MISSING:PV' not found.\n"

    def test_a_socket_error_is_one_error_line(self, monkeypatch, capsys):
        # It used to end in a traceback and exit 1, which reads as a timeout.
        def unreachable(sock, *args):
            raise OSError(errno.ENETUNREACH, os.strerror(errno.ENETUNREACH))

        monkeypatch.setattr(socket.socket, "sendto", unreachable)
        assert main(["caget", "LOOP:PV", "--transport", "real", "--target", "10.2.1.255:5064", "--log", "quiet"]) == 2
        message = f"cannot search 10.2.1.255:5064 for LOOP:PV: [Errno {errno.ENETUNREACH}] {os.strerror(errno.ENETUNREACH)}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_client_section_without_a_host_still_resolves(self, stub_ioc, capsys, tmp_path):
        # Of the client section, only client.host is refused with the real transport; the retry keys apply.
        config = tmp_path / "client.yaml"
        config.write_text("client:\n  initial_retry: 0.02\n  max_tries: 2\n")
        code = main([
            "caget", "LOOP:PV", "--transport", "real", "--target", f"127.0.0.1:{stub_ioc.search_port}",
            "--config", str(config),
        ])
        assert code == 0
        assert capsys.readouterr().out == f"LOOP:PV found at 127.0.0.1:{StubIoc.SERVER_PORT}\n"


def test_bind_conflict_reports_transport_unavailable():
    config = RelayConfig(
        target_broadcast="127.0.0.1", listen_port=16464, local_subnet=Cidr("192.0.2.0", 24), mode=RelayMode.PROXY
    )
    first = RealUdpTransport(config, bind_ip="127.0.0.1")
    try:
        with pytest.raises(TransportUnavailable):
            RealUdpTransport(config, bind_ip="127.0.0.1")
    finally:
        first.close()


def serve_in_thread(relay: Relay):
    stop = threading.Event()
    thread = threading.Thread(target=relay.serve, args=(stop,), daemon=True)
    thread.start()
    return stop, thread


class TestRealProxyRelay:
    def test_query_and_reply_flow_through_relay(self, stub_ioc):
        config = RelayConfig(
            target_broadcast="127.0.0.1",
            listen_port=0 or 16264,
            target_port=stub_ioc.search_port,
            mode=RelayMode.PROXY,
            local_subnet=Cidr("192.0.2.0", 24),  # nothing local on loopback
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1")
        relay = Relay(config, transport)
        stop, thread = serve_in_thread(relay)
        try:
            client = RealCaClient([("127.0.0.1", config.listen_port)], config=FAST_CLIENT)
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
            # The stub saw the relay's listen port, not the client.
            assert set(stub_ioc.seen_sources) == {("127.0.0.1", config.listen_port)}
            assert relay.counters.relayed >= 1
            assert relay.counters.replies_forwarded >= 1
            assert relay.counters.conserved()
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()


def proxy_relay(listen_port: int, target_port: int, **overrides):
    overrides.setdefault("local_subnet", Cidr("192.0.2.0", 24))
    overrides.setdefault("target_broadcast", "127.0.0.1")
    config = RelayConfig(
        listen_port=listen_port,
        target_port=target_port,
        mode=RelayMode.PROXY,
        **overrides,
    )
    transport = RealUdpTransport(config, bind_ip="127.0.0.1")
    return Relay(config, transport), transport


def wait_until(condition, timeout_s: float = 2.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)


class TestRealProxyFlows:
    def test_idle_flow_expires_while_serving(self, monkeypatch):
        monkeypatch.setattr("carelay.relay.FLOW_IDLE_TIMEOUT_US", 50_000)
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport = proxy_relay(16664, sink.getsockname()[1])
        stop, thread = serve_in_thread(relay)
        client = plain_udp_socket()
        try:
            client.sendto(search(1), ("127.0.0.1", 16664))
            assert sink.recvfrom(65535)[0] == search(1)
            wait_until(lambda: not relay.flows)
            assert relay.flows == {}
            assert relay.counters.relayed == 1
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            client.close()
            sink.close()

    def test_serving_many_clients_opens_no_descriptor(self):
        # One socket serves every client: no descriptor is opened per client port.
        clients = [plain_udp_socket() for _ in range(200)]
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport = proxy_relay(16564, sink.getsockname()[1])
        stop, thread = serve_in_thread(relay)
        try:
            before = len(os.listdir("/proc/self/fd"))
            for batch in range(0, len(clients), 50):  # well inside the sink's receive buffer
                for search_id, client in enumerate(clients[batch : batch + 50], start=batch):
                    client.sendto(search(search_id), ("127.0.0.1", 16564))
                for _ in range(50):
                    data, relay_addr = sink.recvfrom(65535)
                    sink.sendto(reply(int.from_bytes(data[24:28], "big")), relay_addr)
            for client in clients:
                client.settimeout(2)
            answers = [client.recvfrom(65535) for client in clients]
            assert len(os.listdir("/proc/self/fd")) == before
            assert answers == [(reply(search_id), ("127.0.0.1", 16564)) for search_id in range(len(clients))]
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, *clients):
                sock.close()
        assert not thread.is_alive()
        assert (relay.counters.relayed, relay.counters.replies_forwarded) == (200, 200)
        assert len(relay.flows) == 200

    def test_only_a_reply_from_the_ioc_side_reaches_the_client(self):
        # The IOC side may send the relay anything; only a response to a live
        # search goes to a client. The rest is classified: a local drop here.
        sink = plain_udp_socket("127.0.0.9")
        sink.settimeout(2)
        relay, transport = proxy_relay(
            18764, sink.getsockname()[1], target_broadcast="127.0.0.9",
            allow_sources=(Cidr("127.0.0.0", 28),), local_subnet=Cidr("127.0.0.8", 29),
        )
        stop, thread = serve_in_thread(relay)
        client = plain_udp_socket("127.0.0.2")
        client.settimeout(2)
        try:
            client.sendto(search(5), ("127.0.0.1", 18764))
            relay_addr = sink.recvfrom(65535)[1]
            for probe in (b"probe", search(5), reply(6), reply(5)):
                sink.sendto(probe, relay_addr)
            assert client.recvfrom(65535)[0] == reply(5)
            wait_until(lambda: relay.counters.dropped_local == 3)
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            client.close()
            sink.close()
        assert not thread.is_alive()
        counters = relay.counters
        assert (counters.received, counters.relayed, counters.dropped_local) == (4, 1, 3)
        assert counters.replies_forwarded == 1


def raise_fault(faults: dict, call: str) -> None:
    code = faults.pop(call, None)
    if code is not None:
        raise OSError(code, os.strerror(code))


class RecordingRawSocket:
    """Stands in for the SOCK_RAW socket: keeps each frame and its address, unless an errno is put in ``faults``."""

    def __init__(self) -> None:
        self.sent: list[tuple[bytes, tuple]] = []
        self.faults: dict[str, int] = {}

    def setsockopt(self, *args) -> None:
        pass

    def sendto(self, frame: bytes, addr: tuple) -> int:
        raise_fault(self.faults, "sendto")
        self.sent.append((bytes(frame), addr))
        return len(frame)

    def close(self) -> None:
        pass

    def factory(self, family, type_, proto=0):
        """Socket factory for the transport: this stand-in for SOCK_RAW."""
        if type_ == socket.SOCK_RAW:
            return self
        return socket.socket(family, type_, proto)


class TestRealSpoofServeLoop:
    def test_spoofed_frames_and_counters_without_raw_capability(self):
        raw = RecordingRawSocket()
        config = RelayConfig(
            target_broadcast="127.255.255.255",
            listen_port=16764,
            target_port=15064,
            mode=RelayMode.SPOOF,
            allow_sources=(Cidr("127.0.0.0", 28),),
            # Inside the allowlist too: the local drop must come first.
            local_subnet=Cidr("127.0.0.8", 29),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=raw.factory)
        relay = Relay(config, transport)
        stop, thread = serve_in_thread(relay)
        search = encode_search_datagram(SearchRequest("LOOP:PV", 7))
        accepted, local, foreign = (plain_udp_socket(ip) for ip in ("127.0.0.2", "127.0.0.9", "127.0.0.17"))
        accepted_addr = accepted.getsockname()
        try:
            for sock in (accepted, local, foreign):
                sock.sendto(search, ("127.0.0.1", config.listen_port))
            wait_until(lambda: relay.counters.received >= 3)
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (accepted, local, foreign):
                sock.close()
        assert not thread.is_alive()

        assert len(raw.sent) == 1
        frame, addr = raw.sent[0]
        assert addr == ("127.255.255.255", 0)
        out = decode(frame)
        assert (out.src_ip, out.src_port) == accepted_addr
        assert (out.dst_ip, out.dst_port) == ("127.255.255.255", 15064)
        assert out.ttl == 64
        assert out.payload == search
        counters = relay.counters
        assert (counters.received, counters.relayed) == (3, 1)
        assert (counters.dropped_local, counters.dropped_not_allowed) == (1, 1)
        assert counters.conserved()


class TimedReceiveSocket(socket.socket):
    """A UDP socket that records each recvfrom: whether it returned a datagram, and how long it took."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.receives: list[tuple[bool, float]] = []

    def recvfrom(self, *args):
        start = time.monotonic()
        try:
            result = super().recvfrom(*args)
        except OSError:
            self.receives.append((False, time.monotonic() - start))
            raise
        self.receives.append((True, time.monotonic() - start))
        return result


class TestListenBacklog:
    """Datagrams queued before serve() starts: each mode reads one per blocking receive."""

    # Sources 127.0.0.2, .9 and .17 are accepted, local and not allowed.
    SOURCES = ("127.0.0.2", "127.0.0.9", "127.0.0.17")
    FILTER = dict(allow_sources=(Cidr("127.0.0.0", 28),), local_subnet=Cidr("127.0.0.8", 29))

    def queue_backlog(self, listen_port: int, backlog: int) -> list[socket.socket]:
        senders = [plain_udp_socket(ip) for ip in self.SOURCES]
        for i in range(backlog):
            senders[i % 3].sendto(search(i), ("127.0.0.1", listen_port))
        return senders

    def test_queued_backlog_is_counted_by_verdict(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport = proxy_relay(16864, sink.getsockname()[1], **self.FILTER)
        backlog = 200  # below the 256 small datagrams a default buffer holds
        senders = self.queue_backlog(16864, backlog)
        stop, thread = serve_in_thread(relay)
        try:
            wait_until(lambda: relay.counters.received >= backlog)
            relayed = [sink.recvfrom(65535)[0] for _ in range(67)]
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, *senders):
                sock.close()
        assert not thread.is_alive()
        counters = relay.counters
        assert counters.received == backlog
        assert (counters.relayed, counters.dropped_local, counters.dropped_not_allowed) == (67, 67, 66)
        assert counters.conserved()
        assert relayed == [search(i) for i in range(0, backlog, 3)]

    def test_zero_length_datagram_is_relayed(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport = proxy_relay(16964, sink.getsockname()[1], **self.FILTER)
        client = plain_udp_socket("127.0.0.2")
        for payload in (search(1), b"", search(2)):
            client.sendto(payload, ("127.0.0.1", 16964))
        stop, thread = serve_in_thread(relay)
        try:
            relayed = [sink.recvfrom(65535)[0] for _ in range(3)]
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, client):
                sock.close()
        assert not thread.is_alive()
        assert relayed == [search(1), b"", search(2)]
        assert (relay.counters.received, relay.counters.relayed) == (3, 3)

    @pytest.mark.parametrize("mode", [RelayMode.SPOOF, RelayMode.PROXY], ids=["spoof", "proxy"])
    def test_each_receive_reads_one_datagram_or_waits_out_the_timeout(self, mode):
        raw = RecordingRawSocket()
        listen: list[TimedReceiveSocket] = []

        def factory(family, kind, proto=0):
            if kind == socket.SOCK_RAW:
                return raw
            listen.append(TimedReceiveSocket(family, kind, proto))
            return listen[-1]

        sink = plain_udp_socket()
        config = RelayConfig(
            target_broadcast="127.255.255.255" if mode is RelayMode.SPOOF else "127.0.0.1",
            listen_port=17864, target_port=sink.getsockname()[1], mode=mode, **self.FILTER,
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        relay = Relay(config, transport)
        backlog = 200
        senders = self.queue_backlog(17864, backlog)
        stop, thread = serve_in_thread(relay)
        try:
            wait_until(lambda: relay.counters.received >= backlog)
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, *senders):
                sock.close()
        assert not thread.is_alive()
        (receives,) = [sock.receives for sock in listen]
        assert sum(got for got, _ in receives) == backlog
        # A receive without a datagram waited out the kernel timeout: no empty read ends a burst.
        assert all(took > 0.9 * IDLE_WAKE_S for got, took in receives if not got)
        counters = relay.counters
        assert counters.received == backlog
        assert (counters.relayed, counters.dropped_local, counters.dropped_not_allowed) == (67, 67, 66)
        assert counters.conserved()
        assert len(raw.sent) == (67 if mode is RelayMode.SPOOF else 0)


class TestSpoofServeStops:
    """A spoof relay blocks in its receive, yet ends soon after it is told to stop."""

    def spoof_relay(self, listen_port: int):
        config = RelayConfig(
            target_broadcast="127.255.255.255",
            listen_port=listen_port,
            target_port=15064,
            mode=RelayMode.SPOOF,
            local_subnet=Cidr("127.0.0.8", 29),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=RecordingRawSocket().factory)
        return Relay(config, transport), transport

    def test_an_idle_relay_ends_within_a_second_of_stop(self):
        relay, transport = self.spoof_relay(18064)
        stop, thread = serve_in_thread(relay)
        try:
            time.sleep(0.05)  # into the blocking receive
            stopped_at = time.monotonic()
            stop.set()
            thread.join(timeout=3)
            took = time.monotonic() - stopped_at
        finally:
            transport.close()
        assert not thread.is_alive()
        assert took < 1

    def test_a_flooded_relay_ends_within_a_second_of_stop(self):
        relay, transport = self.spoof_relay(18464)
        flood = plain_udp_socket("127.0.0.9")  # inside local_subnet: every datagram is a counted drop
        flooding = threading.Event()
        flooding.set()

        def send() -> None:
            while flooding.is_set():
                flood.sendto(b"storm", ("127.0.0.1", 18464))

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        stop, thread = serve_in_thread(relay)
        try:
            wait_until(lambda: relay.counters.received >= 1000)
            stopped_at = time.monotonic()
            stop.set()
            thread.join(timeout=3)
            took = time.monotonic() - stopped_at
        finally:
            flooding.clear()
            sender.join(timeout=3)
            stop.set()
            thread.join(timeout=3)
            transport.close()
            flood.close()
        assert not sender.is_alive() and not thread.is_alive()
        assert took < 1
        counters = relay.counters
        assert counters.received >= 1000
        assert counters.received == counters.dropped_local and counters.conserved()

    def test_closing_the_transport_under_the_loop_ends_it(self):
        # A closed socket fails every receive at once: counting each would spin until stop.
        relay, transport = self.spoof_relay(18564)
        errors: list[OSError] = []

        def serve() -> None:
            try:
                relay.serve(threading.Event())
            except OSError as exc:
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        time.sleep(0.05)  # into the blocking receive
        transport.close()
        thread.join(timeout=3)
        assert not thread.is_alive()
        assert [exc.errno for exc in errors] == [errno.EBADF]
        assert relay.counters.recv_errors == 0

    def test_sigterm_ends_the_relay_command(self, monkeypatch):
        # PEP 475: the handler runs and the receive is retried, which then times out and sees stop.
        monkeypatch.setattr(cli, "RealUdpTransport", lambda config, bind_ip: RealUdpTransport(
            config, bind_ip=bind_ip, socket_factory=RecordingRawSocket().factory
        ))
        originals = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}

        def ignore(signum, frame) -> None:
            del signum, frame

        # Until the command installs its own handler, a SIGTERM must not end the test run.
        signal.signal(signal.SIGTERM, ignore)
        sent_at: list[float] = []

        def send_sigterm() -> None:
            wait_until(lambda: signal.getsignal(signal.SIGTERM) is not ignore)
            time.sleep(0.05)  # into the blocking receive
            sent_at.append(time.monotonic())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGTERM)

        killer = threading.Thread(target=send_sigterm, daemon=True)
        killer.start()
        try:
            code = main([
                "relay", "--mode", "spoof", "--listen-port", "18364", "--target", "127.255.255.255:15064",
                "--local-subnet", "127.0.0.0/8", "--allow", "10.2.105.0/24", "--bind-ip", "127.0.0.1",
                "--log", "quiet",
            ])
            returned_at = time.monotonic()
        finally:
            killer.join(timeout=3)
            for sig, handler in originals.items():
                signal.signal(sig, handler)
        assert code == 0
        assert not killer.is_alive()
        assert returned_at - sent_at[0] < 1

    @pytest.mark.parametrize("mode", [RelayMode.SPOOF, RelayMode.PROXY], ids=["spoof", "proxy"])
    def test_descriptors_a_transport_opens(self, mode):
        # The listen socket alone (in spoof mode the raw socket is a stand-in).
        config = RelayConfig(
            target_broadcast="127.255.255.255", listen_port=18264, mode=mode, local_subnet=Cidr("192.0.2.0", 24)
        )
        before = len(os.listdir("/proc/self/fd"))
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=RecordingRawSocket().factory)
        try:
            assert len(os.listdir("/proc/self/fd")) - before == 1
        finally:
            transport.close()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("mode, step, code, raised", [
        (RelayMode.PROXY, "bind", errno.EACCES, TransportUnavailable),  # a port below 1024, unprivileged
        (RelayMode.SPOOF, "raw socket", errno.EPERM, PrivilegeRequired),
        (RelayMode.SPOOF, "raw socket", errno.EMFILE, TransportUnavailable),  # no privilege would help
        (RelayMode.SPOOF, "SO_RCVTIMEO", errno.EINVAL, TransportUnavailable),
        (RelayMode.PROXY, "SO_BROADCAST", errno.EINVAL, TransportUnavailable),
        (RelayMode.PROXY, "SO_RCVTIMEO", errno.EINVAL, TransportUnavailable),
    ], ids=["bind-eacces", "raw-eperm", "raw-emfile", "rcvtimeo-einval", "proxy-broadcast-einval",
            "proxy-rcvtimeo-einval"])
    def test_a_failed_build_leaves_no_descriptor_open(self, mode, step, code, raised):
        error = OSError(code, os.strerror(code))  # EACCES and EPERM make a PermissionError

        class Refusing(socket.socket):
            def bind(self, address):
                if step == "bind":
                    raise error
                super().bind(address)

            def setsockopt(self, level, option, value):
                if option == getattr(socket, step, None):
                    raise error
                super().setsockopt(level, option, value)

        def factory(family, kind, proto=0):
            if kind != socket.SOCK_RAW:
                return Refusing(family, kind, proto)
            if step == "raw socket":
                raise error
            return RecordingRawSocket()

        config = RelayConfig(
            target_broadcast="127.255.255.255", listen_port=18264, mode=mode, local_subnet=Cidr("192.0.2.0", 24)
        )
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(raised) as excinfo:
            RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        assert len(os.listdir("/proc/self/fd")) == before
        assert excinfo.value.__cause__ is error
        if raised is TransportUnavailable:
            assert os.strerror(code) in str(excinfo.value)

    def test_a_relay_that_cannot_open_its_sockets_exits_two(self, capsys):
        taken = plain_udp_socket()  # holds the listen port
        port = taken.getsockname()[1]
        try:
            before = len(os.listdir("/proc/self/fd"))
            code = main([
                "relay", "--mode", "proxy", "--listen-port", str(port),
                "--target", "127.255.255.255:15064", "--local-subnet", "127.0.0.0/8", "--allow", "10.2.105.0/24",
                "--bind-ip", "127.0.0.1", "--log", "quiet",
            ])
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            taken.close()
        assert code == 2
        assert f"cannot bind 127.0.0.1:{port}: " in capsys.readouterr().err


class FaultySocket(socket.socket):
    """A UDP socket whose next recvfrom or sendto raises the errno put in ``faults`` under its name."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.faults: dict[str, int] = {}

    def recvfrom(self, *args):
        raise_fault(self.faults, "recvfrom")
        return super().recvfrom(*args)

    def sendto(self, *args):
        raise_fault(self.faults, "sendto")
        return super().sendto(*args)


class TestSocketErrors:
    """An OSError from a receive or a send is counted, and the serve loop goes on."""

    def test_proxy_relay_counts_each_socket_error_and_serves_on(self):
        created: list[FaultySocket] = []

        def factory(family, kind, proto=0):
            created.append(FaultySocket(family, kind, proto))
            return created[-1]

        sink, client = plain_udp_socket(), plain_udp_socket()
        for sock in (sink, client):
            sock.settimeout(2)
        config = RelayConfig(
            target_broadcast="127.0.0.1",
            listen_port=17564,
            target_port=sink.getsockname()[1],
            mode=RelayMode.PROXY,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        relay = Relay(config, transport)
        listen = created[0]
        counters = relay.counters
        stop, thread = serve_in_thread(relay)
        try:
            # A failed receive leaves the datagram queued for the next receive.
            listen.faults["recvfrom"] = errno.ECONNREFUSED
            client.sendto(search(1), ("127.0.0.1", config.listen_port))
            data, relay_addr = sink.recvfrom(65535)
            assert data == search(1)
            listen.faults["sendto"] = errno.ENOBUFS
            client.sendto(search(2), ("127.0.0.1", config.listen_port))
            wait_until(lambda: counters.send_errors == 1)
            client.sendto(search(3), ("127.0.0.1", config.listen_port))
            assert sink.recvfrom(65535)[0] == search(3)

            listen.faults["recvfrom"] = errno.ECONNREFUSED
            sink.sendto(reply(1), relay_addr)
            assert client.recvfrom(65535)[0] == reply(1)
            listen.faults["sendto"] = errno.EPERM
            sink.sendto(reply(3), relay_addr)
            wait_until(lambda: counters.reply_send_errors == 1)
            sink.sendto(reply(3), relay_addr)
            assert client.recvfrom(65535)[0] == reply(3)
            assert thread.is_alive()
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            sink.close()
            client.close()
        assert not thread.is_alive()
        assert (counters.received, counters.relayed, counters.send_errors) == (3, 2, 1)
        assert (counters.replies_forwarded, counters.reply_send_errors) == (2, 1)
        assert counters.recv_errors == 2
        assert counters.conserved()

    def test_spoof_relay_counts_a_failed_raw_send_and_serves_on(self):
        raw = RecordingRawSocket()
        config = RelayConfig(
            target_broadcast="127.255.255.255",
            listen_port=17664,
            target_port=15064,
            mode=RelayMode.SPOOF,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=raw.factory)
        relay = Relay(config, transport)
        client = plain_udp_socket()
        counters = relay.counters
        stop, thread = serve_in_thread(relay)
        try:
            # raw(7): a raw write over the path MTU fails with EMSGSIZE.
            raw.faults["sendto"] = errno.EMSGSIZE
            client.sendto(b"too big", ("127.0.0.1", config.listen_port))
            wait_until(lambda: counters.send_errors == 1)
            client.sendto(b"search", ("127.0.0.1", config.listen_port))
            wait_until(lambda: counters.relayed == 1)
            assert thread.is_alive()
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            client.close()
        assert not thread.is_alive()
        assert [decode(frame).payload for frame, _ in raw.sent] == [b"search"]
        assert (counters.received, counters.relayed, counters.send_errors) == (2, 1, 1)
        assert counters.conserved()


    def test_spoof_relay_counts_a_failed_receive_and_serves_on(self):
        raw = RecordingRawSocket()
        listen: list[FaultySocket] = []

        def factory(family, kind, proto=0):
            if kind == socket.SOCK_RAW:
                return raw
            listen.append(FaultySocket(family, kind, proto))
            return listen[-1]

        config = RelayConfig(
            target_broadcast="127.255.255.255",
            listen_port=17764,
            target_port=15064,
            mode=RelayMode.SPOOF,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        relay = Relay(config, transport)
        listen[0].faults["recvfrom"] = errno.ECONNREFUSED
        client = plain_udp_socket()
        counters = relay.counters
        stop, thread = serve_in_thread(relay)
        try:
            client.sendto(b"search", ("127.0.0.1", config.listen_port))
            wait_until(lambda: counters.relayed == 1)
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            client.close()
        assert not thread.is_alive()
        assert [decode(frame).payload for frame, _ in raw.sent] == [b"search"]
        assert (counters.received, counters.relayed, counters.recv_errors) == (1, 1, 1)
        assert counters.conserved()


@pytest.mark.skipif(not RAW_AVAILABLE, reason="raw sockets unavailable")
class TestRealSpoofRelay:
    def test_source_preserved_through_raw_rewrite(self, stub_ioc):
        config = RelayConfig(
            target_broadcast="127.0.0.1",
            listen_port=16364,
            target_port=stub_ioc.search_port,
            mode=RelayMode.SPOOF,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1")
        relay = Relay(config, transport)
        stop, thread = serve_in_thread(relay)
        try:
            client = RealCaClient([("127.0.0.1", config.listen_port)], config=FAST_CLIENT)
            # The search goes to the relay, which re-emits it with the
            # client's source; the stub answers the client directly.
            assert client.search("LOOP:PV") == ("127.0.0.1", StubIoc.SERVER_PORT)
            deadline = time.monotonic() + 1
            while not stub_ioc.seen_sources and time.monotonic() < deadline:
                time.sleep(0.01)
            assert stub_ioc.seen_sources, "stub never saw the relayed search"
            assert relay.counters.relayed >= 1
            assert relay.counters.replies_forwarded == 0  # the answer bypasses the relay
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
