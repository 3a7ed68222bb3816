"""The relay core against a plain model of it, driven by a Hypothesis state machine.

``RelayModel`` says what ``Relay`` should do, written plainly: verdicts from
``ipaddress``, flows in a dict, identifications counted by hand. The machine
feeds both the same datagrams, flow replies, clock ticks, refused flow
sockets and failed sends, and after every step checks that counters, flow
tables and the calls made on the transport are equal.
"""

import errno
import ipaddress
import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from carelay.packet import Cidr, Ipv4UdpPacket
from carelay.relay import FLOW_PORT_BASE, Relay, RelayConfig, RelayCounters, RelayMode

LISTEN_PORT = 6064
TIMEOUT_US = 1000
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
        target_broadcast="10.2.1.255", listen_port=LISTEN_PORT, target_port=5064,
        allow_sources=(Cidr("10.2.0.0", 16),), local_subnet=Cidr("10.2.1.0", 24),
        mode=mode, flow_idle_timeout_s=TIMEOUT_US / 1e6,
    )


class RecordingTransport:
    """Keeps every call the relay makes on it; flow ports are numbered in opening order."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.opened = 0
        self.refuse_next_open = False
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

    def open_flow(self) -> int:
        if self.refuse_next_open:
            self.refuse_next_open = False
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        self.opened += 1
        return FLOW_PORT_BASE + self.opened

    def close_flow(self, port: int) -> None:
        self.calls.append(("close", port))

    def flow_send(self, local_port: int, payload: bytes, dst_ip: str, dst_port: int) -> None:
        self._send(("send", local_port, payload, dst_ip, dst_port))


class RelayModel:
    def __init__(self, config: RelayConfig, next_id: int) -> None:
        self.config = config
        self.local = ipaddress.ip_network(str(config.local_subnet))
        self.allow = [ipaddress.ip_network(str(net)) for net in config.allow_sources]
        self.counters = dict.fromkeys(vars(RelayCounters()), 0)
        self.flows: dict[tuple[str, int], list[int]] = {}  # client -> [flow port, last activity]
        self.calls: list[tuple] = []
        self.next_id = next_id
        self.opened = 0
        self.refuse_next_open = False
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

    def datagram(self, packet: Ipv4UdpPacket, now: int) -> None:
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
        else:
            client = (packet.src_ip, packet.src_port)
            if client not in self.flows:
                if self.refuse_next_open:
                    self.refuse_next_open = False
                    self.counters["dropped_flow_limit"] += 1
                    return
                self.opened += 1
                self.flows[client] = [FLOW_PORT_BASE + self.opened, now]
            flow = self.flows[client]
            flow[1] = now
            call = ("send", flow[0], packet.payload, config.target_broadcast, config.target_port)
            self.send(call, "relayed", "send_errors")

    def flow_reply(self, port: int, packet: Ipv4UdpPacket, now: int) -> None:
        for (client_ip, client_port), flow in self.flows.items():
            if flow[0] == port:
                flow[1] = now
                call = ("send", port, packet.payload, client_ip, client_port)
                self.send(call, "replies_forwarded", "reply_send_errors")

    def expire(self, now: int) -> int:
        idle = [client for client, (_, last) in self.flows.items() if now - last >= TIMEOUT_US]
        for client in idle:
            self.calls.append(("close", self.flows.pop(client)[0]))
        return len(idle)


class RelayAgainstModel(RuleBasedStateMachine):
    """One relay per mode, each beside its model, all fed the same steps."""

    # A bounded run cannot send 65535 datagrams to reach the identification
    # wrap, so a run may start two identifications short of it.
    @initialize(first_id=st.sampled_from([1, 0xFFFE]))
    def start(self, first_id):
        self.now = 0
        self.sides = []
        for mode in RelayMode:
            config = relay_config(mode)
            transport = RecordingTransport()
            relay = Relay(config, transport)
            relay._next_id = first_id
            self.sides.append((relay, transport, RelayModel(config, first_id)))

    @rule(sender=st.sampled_from(SENDERS))
    def datagram(self, sender):
        src_ip, src_port, dst_port = sender
        packet = Ipv4UdpPacket(src_ip, "10.2.1.31", src_port, dst_port, b"search")
        for relay, _, model in self.sides:
            relay.handle_packet(packet, self.now)
            model.datagram(packet, self.now)

    @rule(pick=st.integers(0, 3))
    def flow_reply(self, pick):
        for relay, _, model in self.sides:
            ports = [flow[0] for flow in model.flows.values()] + [FLOW_PORT_BASE]  # never opened
            port = ports[pick % len(ports)]
            packet = Ipv4UdpPacket("10.2.1.31", "10.2.1.40", 5064, port, b"reply")
            relay.on_flow_packet(port, packet, self.now)
            model.flow_reply(port, packet, self.now)

    @rule(delta=st.sampled_from([1, TIMEOUT_US // 2, TIMEOUT_US - 1, TIMEOUT_US, 2 * TIMEOUT_US]))
    def tick(self, delta):
        self.now += delta
        for relay, _, model in self.sides:
            assert relay.expire_flows(self.now) == model.expire(self.now)

    @rule()
    def refuse_next_flow(self):
        for _, transport, model in self.sides:
            transport.refuse_next_open = model.refuse_next_open = True

    @rule()
    def fail_next_send(self):
        for _, transport, model in self.sides:
            transport.fail_next_send = model.fail_next_send = True

    @invariant()
    def agrees_with_the_model(self):
        for relay, transport, model in self.sides:
            counters = relay.counters
            assert vars(counters) == model.counters
            flows = {client: [f.relay_local_port, f.last_activity_us] for client, f in relay.flows.items()}
            assert flows == model.flows
            assert transport.calls == model.calls
            assert counters.conserved()


RelayAgainstModel.TestCase.settings = settings(max_examples=300, stateful_step_count=30, deadline=None)
TestRelayAgainstModel = RelayAgainstModel.TestCase
