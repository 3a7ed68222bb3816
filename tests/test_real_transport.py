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
import socket
import threading
import time

import pytest

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
        # Only client.host is refused with the real transport; the retry keys apply.
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


@pytest.mark.parametrize("error, raised", [
    (PermissionError(errno.EPERM, os.strerror(errno.EPERM)), PrivilegeRequired),
    (OSError(errno.EMFILE, os.strerror(errno.EMFILE)), TransportUnavailable),
], ids=["refused", "out-of-descriptors"])
def test_only_a_refused_raw_socket_asks_for_privilege(error, raised):
    # Any raw-socket failure used to be reported as a missing CAP_NET_RAW.
    opened = []

    def factory(family, type_, proto=0):
        if type_ == socket.SOCK_RAW:
            raise error
        opened.append(socket.socket(family, type_, proto))
        return opened[-1]

    config = RelayConfig(
        target_broadcast="127.255.255.255", listen_port=18164, mode=RelayMode.SPOOF,
        local_subnet=Cidr("127.0.0.0", 8),
    )
    with pytest.raises(raised) as excinfo:
        RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=factory)
    assert excinfo.value.__cause__ is error
    if raised is TransportUnavailable:
        assert os.strerror(errno.EMFILE) in str(excinfo.value)
    assert [sock.fileno() for sock in opened] == [-1]  # the listen socket is closed


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
    config = RelayConfig(
        target_broadcast="127.0.0.1",
        listen_port=listen_port,
        target_port=target_port,
        mode=RelayMode.PROXY,
        local_subnet=Cidr("192.0.2.0", 24),
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


class RecordingRawSocket:
    """Stands in for the SOCK_RAW socket: keeps each frame and its address."""

    def __init__(self) -> None:
        self.sent: list[tuple[bytes, tuple]] = []

    def setsockopt(self, *args) -> None:
        pass

    def sendto(self, frame: bytes, addr: tuple) -> int:
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


class TestListenDrain:
    """Datagrams queued before serve() starts are read in capped bursts."""

    def spoof_relay(self, listen_port: int):
        raw = RecordingRawSocket()
        config = RelayConfig(
            target_broadcast="127.255.255.255",
            listen_port=listen_port,
            target_port=15064,
            mode=RelayMode.SPOOF,
            allow_sources=(Cidr("127.0.0.0", 28),),
            local_subnet=Cidr("127.0.0.8", 29),
        )
        transport = RealUdpTransport(config, bind_ip="127.0.0.1", socket_factory=raw.factory)
        relay = Relay(config, transport)
        # One serve() wakeup reads every datagram of a drain at one time.
        wakeup_times: list[int] = []
        handle_packet = relay.handle_packet

        def recording(packet, now_us):
            wakeup_times.append(now_us)
            handle_packet(packet, now_us)

        relay.handle_packet = recording
        return relay, transport, raw, wakeup_times

    def test_queued_backlog_is_counted_by_verdict(self):
        relay, transport, raw, wakeup_times = self.spoof_relay(16864)
        senders = [plain_udp_socket(ip) for ip in ("127.0.0.2", "127.0.0.9", "127.0.0.17")]
        backlog = 200  # below the 256 small datagrams a default buffer holds
        for i in range(backlog):
            senders[i % 3].sendto(b"search %d" % i, ("127.0.0.1", 16864))
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
        counters = relay.counters
        assert counters.received == backlog
        assert (counters.relayed, counters.dropped_local, counters.dropped_not_allowed) == (67, 67, 66)
        assert counters.conserved()
        assert len(raw.sent) == 67
        # 64 + 64 + 64 + 8 datagrams: four wakeups.
        assert len(set(wakeup_times)) == -(-backlog // LISTEN_DRAIN_CAP)

    def test_zero_length_datagram_is_relayed_inside_a_drain(self):
        relay, transport, raw, wakeup_times = self.spoof_relay(16964)
        client = plain_udp_socket("127.0.0.2")
        for payload in (b"first", b"", b"last"):
            client.sendto(payload, ("127.0.0.1", 16964))
        stop, thread = serve_in_thread(relay)
        try:
            wait_until(lambda: relay.counters.received >= 3)
        finally:
            stop.set()
            thread.join(timeout=3)
            transport.close()
            client.close()
        assert not thread.is_alive()
        assert [decode(frame).payload for frame, _ in raw.sent] == [b"first", b"", b"last"]
        assert (relay.counters.received, relay.counters.relayed) == (3, 3)
        assert len(set(wakeup_times)) == 1

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
