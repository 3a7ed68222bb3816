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
import select
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
from carelay.endpoints import ChannelTimeout, ClientQueryConfig, RealCaClient
from carelay.packet import Cidr, decode
from carelay.relay import (
    IDLE_WAKE_S,
    LISTEN_DRAIN_CAP,
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

FAST_CLIENT = ClientQueryConfig(
    initial_retry_s=0.1, backoff_factor=2.0, max_tries=3, total_timeout_s=2.0
)


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
        # It used to wait out total_timeout for a value reply that a stock IOC never sends.
        started = time.monotonic()
        code = main(["caget", "LOOP:PV", "--transport", "real", "--target", f"127.0.0.1:{stub_ioc.search_port}"])
        elapsed = time.monotonic() - started
        assert code == 0
        assert capsys.readouterr().out == f"LOOP:PV found at 127.0.0.1:{StubIoc.SERVER_PORT}\n"
        assert elapsed < ClientQueryConfig().total_timeout_s / 5

    def test_a_name_no_server_owns_exits_one(self, stub_ioc, capsys, tmp_path):
        config = tmp_path / "client.yaml"
        config.write_text("client:\n  initial_retry: 0.02\n  max_tries: 2\n  total_timeout: 0.1\n")
        code = main([
            "caget", "MISSING:PV", "--transport", "real", "--target", f"127.0.0.1:{stub_ioc.search_port}",
            "--config", str(config),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "Channel connect timed out: 'MISSING:PV' not found.\n"

    def test_a_client_section_without_a_host_still_resolves(self, stub_ioc, capsys, tmp_path):
        # Of the client section, only client.host is refused with the real transport; the retry keys apply.
        config = tmp_path / "client.yaml"
        config.write_text("client:\n  initial_retry: 0.02\n  max_tries: 2\n  total_timeout: 0.1\n")
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
            # The stub saw the relay's flow port, not the client.
            assert all(addr[0] == "127.0.0.1" for addr in stub_ioc.seen_sources)
            assert relay.counters.relayed >= 1
            assert relay.counters.replies_forwarded >= 1
            assert relay.counters.conserved()
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()


def proxy_relay(listen_port: int, target_port: int, **overrides):
    overrides.setdefault("local_subnet", Cidr("192.0.2.0", 24))
    config = RelayConfig(
        target_broadcast="127.0.0.1",
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
    # select() cannot watch a descriptor at or above FD_SETSIZE (1024).
    FLOWS = 1100

    @pytest.mark.skipif(
        resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 2500,
        reason="needs about 2200 open descriptors",
    )
    def test_serves_more_flows_than_select_can_watch(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport = proxy_relay(16564, sink.getsockname()[1])
        errors: list[BaseException] = []

        def serve() -> None:
            try:
                relay.serve(stop)
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        stop = threading.Event()
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        clients: list[socket.socket] = []
        try:
            # Batches small enough for the listen socket's receive buffer.
            while len(clients) < self.FLOWS and not errors:
                for _ in range(100):
                    clients.append(plain_udp_socket())
                    clients[-1].sendto(b"search", ("127.0.0.1", 16564))
                wait_until(lambda: relay.counters.received >= len(clients) or errors)
                # The sink's receive buffer holds about 256 small datagrams,
                # so it is emptied after each batch: then none is lost.
                for _ in range(100):
                    sink.recvfrom(65535)
            assert not errors
            assert len(relay.flows) == self.FLOWS

            last = plain_udp_socket()
            clients.append(last)
            last.settimeout(2)
            last.sendto(b"last search", ("127.0.0.1", 16564))
            while True:
                data, flow_addr = sink.recvfrom(65535)
                if data == b"last search":
                    break
            sink.sendto(b"reply", flow_addr)
            assert last.recvfrom(65535)[0] == b"reply"
            assert not errors
            assert relay.counters.conserved()
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for client in clients:
                client.close()
            sink.close()
        assert not thread.is_alive()

    def test_idle_flow_expires_while_serving(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport = proxy_relay(16664, sink.getsockname()[1], flow_idle_timeout_s=0.05)
        stop, thread = serve_in_thread(relay)
        client = plain_udp_socket()
        try:
            client.sendto(b"search", ("127.0.0.1", 16664))
            assert sink.recvfrom(65535)[0] == b"search"
            wait_until(lambda: not relay.flows)
            assert relay.flows == {}
            assert relay.counters.relayed == 1
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            client.close()
            sink.close()


class BindFails(socket.socket):
    def bind(self, address):
        raise OSError(errno.EADDRINUSE, os.strerror(errno.EADDRINUSE))


class TestFlowOpenFailure:
    """An OSError while opening a flow drops that search; serving goes on."""

    FLOWS = 2

    @pytest.mark.parametrize("failing_call", ["socket", "bind"])
    def test_search_without_a_flow_is_a_counted_drop(self, failing_call):
        created: list[socket.socket] = []

        def factory(family, kind, proto=0):
            # The first socket is the listen socket, the next FLOWS are flows.
            if len(created) <= self.FLOWS:
                sock = socket.socket(family, kind, proto)
            elif failing_call == "socket":
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            else:
                sock = BindFails(family, kind, proto)
            created.append(sock)
            return sock

        sink = plain_udp_socket()
        sink.settimeout(2)
        config = RelayConfig(
            target_broadcast="127.0.0.1",
            listen_port=17464,
            target_port=sink.getsockname()[1],
            mode=RelayMode.PROXY,
            local_subnet=Cidr("192.0.2.0", 24),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        relay = Relay(config, transport)
        stop, thread = serve_in_thread(relay)
        clients = [plain_udp_socket() for _ in range(self.FLOWS + 1)]
        try:
            for i, client in enumerate(clients):
                client.settimeout(2)
                client.sendto(b"search %d" % i, ("127.0.0.1", config.listen_port))
            relayed = dict(sink.recvfrom(65535) for _ in range(self.FLOWS))
            wait_until(lambda: relay.counters.received >= len(clients))
            # The loop still serves: a reply on an existing flow goes back.
            sink.sendto(b"reply", relayed[b"search 0"])
            assert clients[0].recvfrom(65535)[0] == b"reply"
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, *clients):
                sock.close()
        assert not thread.is_alive()
        assert sorted(relayed) == [b"search 0", b"search 1"]
        counters = relay.counters
        assert (counters.received, counters.relayed, counters.dropped_flow_limit) == (3, 2, 1)
        assert counters.replies_forwarded == 1
        assert counters.conserved()
        assert len(relay.flows) == self.FLOWS
        if failing_call == "bind":
            assert created[-1].fileno() == -1  # closed by open_flow


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


class TestListenDrain:
    """Datagrams queued before serve() starts: PROXY reads one, then capped bursts while a backlog lasts;
    SPOOF reads one per receive."""

    # Sources 127.0.0.2, .9 and .17 are accepted, local and not allowed.
    SOURCES = ("127.0.0.2", "127.0.0.9", "127.0.0.17")
    FILTER = dict(allow_sources=(Cidr("127.0.0.0", 28),), local_subnet=Cidr("127.0.0.8", 29))

    def proxy_relay(self, listen_port: int, sink: socket.socket):
        relay, transport = proxy_relay(listen_port, sink.getsockname()[1], **self.FILTER)
        # One serve() wakeup reads every datagram of a drain at one time.
        wakeup_times: list[int] = []
        handle_packet = relay.handle_packet

        def recording(packet, now_us):
            wakeup_times.append(now_us)
            handle_packet(packet, now_us)

        relay.handle_packet = recording
        return relay, transport, wakeup_times

    def queue_backlog(self, listen_port: int, backlog: int) -> list[socket.socket]:
        senders = [plain_udp_socket(ip) for ip in self.SOURCES]
        for i in range(backlog):
            senders[i % 3].sendto(b"search %d" % i, ("127.0.0.1", listen_port))
        return senders

    def test_queued_backlog_is_counted_by_verdict(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport, wakeup_times = self.proxy_relay(16864, sink)
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
        assert relayed == [b"search %d" % i for i in range(0, backlog, 3)]
        # The first wakeup reads one datagram; the listen socket is readable
        # again at the next, so the rest are drained: 1 + 64 + 64 + 64 + 7.
        bursts = [wakeup_times.count(t) for t in sorted(set(wakeup_times))]
        assert bursts == [1, LISTEN_DRAIN_CAP, LISTEN_DRAIN_CAP, LISTEN_DRAIN_CAP, 7]

    def test_zero_length_datagram_is_relayed_inside_a_drain(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        relay, transport, wakeup_times = self.proxy_relay(16964, sink)
        client = plain_udp_socket("127.0.0.2")
        for payload in (b"first", b"", b"last"):
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
        assert relayed == [b"first", b"", b"last"]
        assert (relay.counters.received, relay.counters.relayed) == (3, 3)
        # b"first" is read alone; b"" and b"last" in the drain of the next wakeup.
        assert wakeup_times[0] < wakeup_times[1] == wakeup_times[2]

    def test_a_lone_search_costs_one_listen_read(self):
        sockets: list[TimedReceiveSocket] = []

        def factory(family, kind, proto=0):
            sockets.append(TimedReceiveSocket(family, kind, proto))
            return sockets[-1]

        sink = plain_udp_socket()
        sink.settimeout(2)
        config = RelayConfig(
            target_broadcast="127.0.0.1", listen_port=17964, target_port=sink.getsockname()[1], mode=RelayMode.PROXY,
            **self.FILTER,
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
        relay = Relay(config, transport)
        client = plain_udp_socket("127.0.0.2")
        client.settimeout(2)
        stop, thread = serve_in_thread(relay)
        try:
            # Each search is sent after the reply to the one before it has arrived.
            for i in range(20):
                client.sendto(b"search %d" % i, ("127.0.0.1", 17964))
                data, flow_addr = sink.recvfrom(65535)
                assert data == b"search %d" % i
                sink.sendto(b"reply %d" % i, flow_addr)
                assert client.recvfrom(65535)[0] == b"reply %d" % i
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, client):
                sock.close()
        assert not thread.is_alive()
        assert (relay.counters.relayed, relay.counters.replies_forwarded) == (20, 20)
        # One recvfrom per search, none of them an empty read that raised BlockingIOError.
        assert [got for got, _ in sockets[0].receives] == [True] * 20

    def test_spoof_relay_reads_one_datagram_per_blocking_receive(self):
        raw = RecordingRawSocket()
        listen: list[TimedReceiveSocket] = []

        def factory(family, kind, proto=0):
            if kind == socket.SOCK_RAW:
                return raw
            listen.append(TimedReceiveSocket(family, kind, proto))
            return listen[-1]

        config = RelayConfig(
            target_broadcast="127.255.255.255", listen_port=17864, target_port=15064, mode=RelayMode.SPOOF,
            **self.FILTER,
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
            for sock in senders:
                sock.close()
        assert not thread.is_alive()
        receives = listen[0].receives
        assert sum(got for got, _ in receives) == backlog
        # A receive without a datagram waited out the kernel timeout: no empty read ends a burst.
        assert all(took > 0.9 * IDLE_WAKE_S for got, took in receives if not got)
        counters = relay.counters
        assert counters.received == backlog
        assert (counters.relayed, counters.dropped_local, counters.dropped_not_allowed) == (67, 67, 66)
        assert counters.conserved()
        assert len(raw.sent) == 67

    def test_flow_reply_is_not_held_behind_the_listen_backlog(self):
        sink = plain_udp_socket()
        sink.settimeout(2)
        # The backlog comes from a source outside the allowlist, so only the
        # first search reaches the sink.
        relay, transport = proxy_relay(17064, sink.getsockname()[1], allow_sources=(Cidr("127.0.0.0", 28),))
        client = plain_udp_socket()
        client.settimeout(2)
        flood = plain_udp_socket("127.0.0.17")
        try:
            stop, thread = serve_in_thread(relay)
            client.sendto(b"search", ("127.0.0.1", 17064))
            flow_addr = sink.recvfrom(65535)[1]
            stop.set()
            thread.join(timeout=3)
            received_before = relay.counters.received

            # Queued while nothing serves: a listen backlog past the cap,
            # then a reply on the flow socket.
            backlog = 2 * LISTEN_DRAIN_CAP
            for _ in range(backlog):
                flood.sendto(b"storm", ("127.0.0.1", 17064))
            sink.sendto(b"reply", flow_addr)
            time.sleep(0.05)  # lets loopback deliver both

            received_at_reply: list[int] = []
            on_flow_packet = relay.on_flow_packet

            def recording(port, packet, now_us):
                received_at_reply.append(relay.counters.received)
                on_flow_packet(port, packet, now_us)

            relay.on_flow_packet = recording
            stop, thread = serve_in_thread(relay)
            assert client.recvfrom(65535)[0] == b"reply"
            wait_until(lambda: relay.counters.received >= received_before + backlog)
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            for sock in (sink, client, flood):
                sock.close()
        assert not thread.is_alive()
        assert len(received_at_reply) == 1
        assert received_at_reply[0] - received_before <= LISTEN_DRAIN_CAP
        assert relay.counters.received == received_before + backlog
        assert relay.counters.dropped_not_allowed == backlog
        assert relay.counters.conserved()


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

    @pytest.mark.parametrize("mode, opened", [(RelayMode.SPOOF, 1), (RelayMode.PROXY, 2)], ids=["spoof", "proxy"])
    def test_descriptors_a_transport_opens(self, mode, opened):
        # Spoof: the listen socket alone (the raw socket is a stand-in). Proxy: the listen socket and its epoll.
        config = RelayConfig(
            target_broadcast="127.255.255.255", listen_port=18264, mode=mode, local_subnet=Cidr("192.0.2.0", 24)
        )
        before = len(os.listdir("/proc/self/fd"))
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=RecordingRawSocket().factory)
        try:
            assert len(os.listdir("/proc/self/fd")) - before == opened
        finally:
            transport.close()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("mode, step, code, raised", [
        (RelayMode.PROXY, "bind", errno.EACCES, TransportUnavailable),  # a port below 1024, unprivileged
        (RelayMode.SPOOF, "raw socket", errno.EPERM, PrivilegeRequired),
        (RelayMode.SPOOF, "raw socket", errno.EMFILE, TransportUnavailable),  # no privilege would help
        (RelayMode.SPOOF, "SO_RCVTIMEO", errno.EINVAL, TransportUnavailable),
        (RelayMode.PROXY, "epoll", errno.EMFILE, TransportUnavailable),
    ], ids=["bind-eacces", "raw-eperm", "raw-emfile", "rcvtimeo-einval", "epoll-emfile"])
    def test_a_failed_build_leaves_no_descriptor_open(self, mode, step, code, raised, monkeypatch):
        error = OSError(code, os.strerror(code))  # EACCES and EPERM make a PermissionError

        class Refusing(socket.socket):
            def bind(self, address):
                if step == "bind":
                    raise error
                super().bind(address)

            def setsockopt(self, level, option, value):
                if step == "SO_RCVTIMEO" and option == socket.SO_RCVTIMEO:
                    raise error
                super().setsockopt(level, option, value)

        def factory(family, kind, proto=0):
            if kind != socket.SOCK_RAW:
                return Refusing(family, kind, proto)
            if step == "raw socket":
                raise error
            return RecordingRawSocket()

        def refuse():
            raise error

        if step == "epoll":
            monkeypatch.setattr(select, "epoll", refuse)
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

    def test_a_relay_that_cannot_open_its_sockets_exits_two(self, monkeypatch, capsys):
        def refuse():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(select, "epoll", refuse)
        before = len(os.listdir("/proc/self/fd"))
        code = main([
            "relay", "--mode", "proxy", "--listen-port", "18664", "--target", "127.255.255.255:15064",
            "--local-subnet", "127.0.0.0/8", "--allow", "10.2.105.0/24", "--bind-ip", "127.0.0.1",
            "--log", "quiet",
        ])
        assert code == 2
        assert len(os.listdir("/proc/self/fd")) == before
        assert "cannot create an epoll instance" in capsys.readouterr().err


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
            # A failed receive leaves the search queued for the next wakeup.
            listen.faults["recvfrom"] = errno.ECONNREFUSED
            client.sendto(b"search 1", ("127.0.0.1", config.listen_port))
            data, flow_addr = sink.recvfrom(65535)
            assert data == b"search 1"
            flow = created[1]
            flow.faults["sendto"] = errno.ENOBUFS
            client.sendto(b"search 2", ("127.0.0.1", config.listen_port))
            wait_until(lambda: counters.send_errors == 1)
            client.sendto(b"search 3", ("127.0.0.1", config.listen_port))
            assert sink.recvfrom(65535)[0] == b"search 3"

            flow.faults["recvfrom"] = errno.ECONNREFUSED
            sink.sendto(b"reply 1", flow_addr)
            assert client.recvfrom(65535)[0] == b"reply 1"
            flow.faults["sendto"] = errno.EPERM
            sink.sendto(b"reply 2", flow_addr)
            wait_until(lambda: counters.reply_send_errors == 1)
            sink.sendto(b"reply 3", flow_addr)
            assert client.recvfrom(65535)[0] == b"reply 3"
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
