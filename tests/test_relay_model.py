"""The relay core against a plain model of it, driven by a Hypothesis state machine.

``RelayModel`` says what ``Relay`` should do, written plainly: verdicts from
``ipaddress``, flows in a list, identifications and fresh search IDs counted
by hand. The machine feeds both the same datagrams (searches on a few shared
IDs, so that clients collide), replies of one or two responses, clock ticks
and failed sends, and after every step checks that counters, flow tables and
the calls made on the transport are equal. The flow table is cut to
``TABLE_SIZE`` entries, so eviction comes within a run.
"""

import errno
import ipaddress
import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import carelay.relay
from carelay.ca_wire import SearchRequest, SearchResponse, encode_search_datagram, encode_search_response_datagram
from carelay.packet import Cidr, Ipv4UdpPacket
from carelay.relay import Relay, RelayConfig, RelayCounters, RelayMode

LISTEN_PORT = 6064
TARGET_PORT = 5064
TIMEOUT_US = 1000
TABLE_SIZE = 3
# Each sender is (source address, source port, destination port). The local
# subnet lies inside the allowlist, so only the order of the checks drops a
# local source.
SENDERS = [
    ("10.2.105.1", 1000, LISTEN_PORT),  # allowed, as the next two
    ("10.2.105.1", 1001, LISTEN_PORT),
    ("10.2.105.2", 1000, LISTEN_PORT),
    ("10.2.1.1", 1000, LISTEN_PORT),  # local
    ("172.16.0.1", 1000, LISTEN_PORT),  # denied
    ("10.2.105.1", 1000, LISTEN_PORT + 1),  # port mismatch
]


def relay_config(mode: RelayMode) -> RelayConfig:
    return RelayConfig(
        target_broadcast="10.2.1.255", listen_port=LISTEN_PORT, target_port=TARGET_PORT,
        allow_sources=(Cidr("10.2.0.0", 16),), local_subnet=Cidr("10.2.1.0", 24),
        mode=mode, flow_idle_timeout_s=TIMEOUT_US / 1e6,
    )


def search(search_id: int) -> bytes:
    return encode_search_datagram(SearchRequest("MODEL:PV", search_id))


def response(*search_ids: int) -> bytes:
    """A version message and one search response per ID, as a server answers every name it owns at once."""
    first, *more = (encode_search_response_datagram(SearchResponse(5901, search_id)) for search_id in search_ids)
    return first + b"".join(datagram[16:] for datagram in more)


class RecordingTransport:
    """Keeps every call the relay makes on it."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.fail_next_send = False

    def attach(self, relay) -> None:
        del relay

    def _send(self, call: tuple) -> None:
        if self.fail_next_send:
            self.fail_next_send = False
            raise OSError(errno.ENOBUFS, os.strerror(errno.ENOBUFS))
        self.calls.append(call)

    def emit_spoofed(self, packet) -> None:
        self._send(("emit", packet))

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self._send(("send", local_port, payload, dst_ip, dst_port))


class RelayModel:
    def __init__(self, config: RelayConfig, next_id: int) -> None:
        self.config = config
        self.local = ipaddress.ip_network(str(config.local_subnet))
        self.allow = [ipaddress.ip_network(str(net)) for net in config.allow_sources]
        self.counters = dict.fromkeys(vars(RelayCounters()), 0)
        # [relay ID, client ip, client port, client ID, last use], least recently used first
        self.flows: list[list] = []
        self.calls: list[tuple] = []
        self.next_id = next_id
        self.next_search_id = 1
        self.fail_next_send = False

    def send(self, call: tuple, counter: str, error_counter: str) -> None:
        """Records the call and counts it, or only counts the error if this is the send set to fail."""
        if self.fail_next_send:
            self.fail_next_send = False
            self.counters[error_counter] += 1
            return
        self.calls.append(call)
        self.counters[counter] += 1

    def verdict(self, packet: Ipv4UdpPacket) -> str:
        if packet.dst_port != self.config.listen_port:
            return "dropped_port"
        src = ipaddress.ip_address(packet.src_ip)
        if src in self.local:
            return "dropped_local"
        if self.allow and not any(src in net for net in self.allow):
            return "dropped_not_allowed"
        return "relayed"

    def flow(self, relay_id: int) -> list | None:
        return next((flow for flow in self.flows if flow[0] == relay_id), None)

    def use(self, flow: list, now: int) -> None:
        """Moves a new or refreshed flow to the young end; a table over its size loses its oldest."""
        if flow in self.flows:
            self.flows.remove(flow)
        flow[4] = now
        self.flows.append(flow)
        if len(self.flows) > TABLE_SIZE:
            del self.flows[0]
            self.counters["flows_evicted"] += 1

    def datagram(self, packet: Ipv4UdpPacket, search_id: int | None, now: int) -> None:
        self.counters["received"] += 1
        verdict = self.verdict(packet)
        if verdict != "relayed":
            self.counters[verdict] += 1
            return
        config = self.config
        if config.mode is RelayMode.SPOOF:
            emitted = packet._replace(
                dst_ip=config.target_broadcast, dst_port=config.target_port, ttl=64, identification=self.next_id
            )
            self.next_id = 1 if self.next_id == 0xFFFF else self.next_id + 1
            self.send(("emit", emitted), "relayed", "send_errors")
            return
        payload, opened = packet.payload, None
        if search_id is not None:  # a CA search: it gets a flow
            client = [packet.src_ip, packet.src_port, search_id]
            flow = next((flow for flow in self.flows if flow[1:4] == client), None)  # the same search again
            if flow is not None:
                payload = search(flow[0])
            elif self.flow(search_id) is None:
                flow = opened = [search_id, *client, now]
            else:  # another client holds the ID: a fresh one goes out
                relay_id = self.next_search_id
                while self.flow(relay_id) is not None:
                    relay_id += 1
                self.next_search_id = relay_id + 1
                flow = opened = [relay_id, *client, now]
                payload = search(relay_id)
            self.use(flow, now)
        fails = self.fail_next_send
        call = ("send", LISTEN_PORT, payload, config.target_broadcast, config.target_port)
        self.send(call, "relayed", "send_errors")
        if fails and opened is not None:  # a search that was not sent leaves no new flow; an eviction stands
            self.flows.remove(opened)

    def reply(self, relay_ids: list[int], now: int) -> bool:
        """Whether the datagram is a reply: its first ID is live. That ID names the client; each
        live ID of that client's goes back as the client's ID."""
        if self.flow(relay_ids[0]) is None:
            return False
        client, ids = None, []
        for relay_id in relay_ids:
            flow = self.flow(relay_id)
            if flow is not None and client in (None, flow[1:3]):
                client = flow[1:3]
                self.use(flow, now)
                relay_id = flow[3]
            ids.append(relay_id)
        self.send(("send", LISTEN_PORT, response(*ids), *client), "replies_forwarded", "reply_send_errors")
        return True

    def expire(self, now: int) -> int:
        live = [flow for flow in self.flows if now - flow[4] < TIMEOUT_US]
        expired = len(self.flows) - len(live)
        self.flows = live
        return expired


class RelayAgainstModel(RuleBasedStateMachine):
    """One relay per mode, each beside its model, all fed the same steps."""

    # A bounded run cannot send 65535 datagrams to reach the identification
    # wrap, so a run may start two identifications short of it.
    @initialize(first_id=st.sampled_from([1, 0xFFFE]))
    def start(self, first_id):
        self.table_size = carelay.relay.FLOW_TABLE_SIZE
        carelay.relay.FLOW_TABLE_SIZE = TABLE_SIZE
        self.now = 0
        self.sides = []
        for mode in RelayMode:
            config = relay_config(mode)
            transport = RecordingTransport()
            relay = Relay(config, transport)
            relay._next_id = first_id
            self.sides.append((relay, transport, RelayModel(config, first_id)))

    def teardown(self):
        if hasattr(self, "table_size"):
            carelay.relay.FLOW_TABLE_SIZE = self.table_size

    # None sends a datagram that holds no CA message: it is relayed as it is, with no flow.
    @rule(sender=st.sampled_from(SENDERS), search_id=st.none() | st.integers(1, 4))
    def datagram(self, sender, search_id):
        src_ip, src_port, dst_port = sender
        payload = b"search" if search_id is None else search(search_id)
        packet = Ipv4UdpPacket(src_ip, "10.2.1.31", src_port, dst_port, payload)
        for relay, _, model in self.sides:
            relay.handle_packet(packet, self.now)
            model.datagram(packet, search_id, self.now)

    @rule(
        relay_ids=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        src_port=st.sampled_from([TARGET_PORT, TARGET_PORT + 1]),
    )
    def reply(self, relay_ids, src_port):
        packet = Ipv4UdpPacket("10.2.1.40", "10.2.1.31", src_port, LISTEN_PORT, response(*relay_ids))
        for relay, _, model in self.sides:
            # as both transports do: only a datagram from target_port can be a reply, anything else is a search
            from_target = src_port == TARGET_PORT
            forwarded = from_target and model.reply(relay_ids, self.now)
            assert (from_target and relay.on_flow_packet(LISTEN_PORT, packet, self.now)) == forwarded
            if not forwarded:
                relay.handle_packet(packet, self.now)
                model.datagram(packet, None, self.now)

    @rule(delta=st.sampled_from([1, TIMEOUT_US // 2, TIMEOUT_US - 1, TIMEOUT_US, 2 * TIMEOUT_US]))
    def tick(self, delta):
        self.now += delta
        for relay, _, model in self.sides:
            assert relay.expire_flows(self.now) == model.expire(self.now)

    @rule()
    def fail_next_send(self):
        for _, transport, model in self.sides:
            transport.fail_next_send = model.fail_next_send = True

    @invariant()
    def agrees_with_the_model(self):
        for relay, transport, model in self.sides:
            counters = relay.counters
            assert vars(counters) == model.counters
            assert [[relay_id, *flow] for relay_id, flow in relay.flows.items()] == model.flows
            # one flow per client and client ID, and the relay's reverse map holds exactly the rewritten ones
            assert len({tuple(flow[1:4]) for flow in model.flows}) == len(model.flows)
            assert relay._renamed == {tuple(flow[1:4]): flow[0] for flow in model.flows if flow[0] != flow[3]}
            assert transport.calls == model.calls
            assert counters.conserved()


RelayAgainstModel.TestCase.settings = settings(max_examples=300, stateful_step_count=30, deadline=None)
TestRelayAgainstModel = RelayAgainstModel.TestCase
