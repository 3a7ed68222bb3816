"""The relay under test, in a process of its own.

Started by ``perfbench.loopback`` as ``python -m perfbench.relay_proc SPEC``
where SPEC is a JSON object. It builds the unmodified
``carelay.relay.RealUdpTransport`` and ``Relay`` on 127.0.0.1, prints one
JSON line when bound, and serves until told to stop. A control thread reads
commands from stdin, one per line, and answers each with one JSON line:

* ``snap``: relay counters, the serving thread's and the whole
  process's CPU time so far, and the CPU time of one ``perfbench.calib``
  run on this process's CPU.
* ``mark``: in a traced run, marks the span log, so that the measured phase
  can be summarised on its own; answers ``{}``.
* ``stop``: ends the serve loop. The main thread then prints the final
  snapshot, with the span summary from the first to the last mark in a
  traced run.

Raw sockets need CAP_NET_RAW, which a benchmark host need not grant, so
spoof mode always gets a socket factory whose ``IPPROTO_RAW`` socket sends each encoded frame, byte for byte, as
the payload of a UDP datagram to the generator's sink. Only the kernel's
raw-send path is left out; every line of relay code runs as shipped.
"""

from __future__ import annotations

import json
import resource
import socket
import sys
import threading
import time

import carelay.relay
from carelay.packet import Cidr
from carelay.relay import RealUdpTransport, Relay, RelayConfig, RelayMode, TransportUnavailable

from .calib import Calibrator
from .spans import Tracer
from .wire import request_key

EXIT_UNAVAILABLE = 3


class RawSendToSink:
    """Stand-in for the ``IPPROTO_RAW`` socket: frames go to the sink over UDP."""

    def __init__(self, sink: tuple[str, int]) -> None:
        self._udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sink = sink

    def setsockopt(self, *args) -> None:
        del args  # SO_BROADCAST has no meaning for a unicast stand-in

    def sendto(self, frame: bytes, address) -> int:
        del address  # the frame's own header names the broadcast target
        return self._udp.sendto(frame, self._sink)

    def close(self) -> None:
        self._udp.close()


class TracedSocket:
    """Socket whose ``recvfrom`` and ``sendto`` record transport spans."""

    def __init__(self, sock, tracer: Tracer) -> None:
        self._sock = sock
        # Bound directly: select() calls fileno() on every watched socket,
        # and a __getattr__ round trip there would inflate the serve loop.
        self.fileno = getattr(sock, "fileno", None)
        self.getsockname = getattr(sock, "getsockname", None)
        for method, span in (("recvfrom", "transport.recv"), ("sendto", "transport.send")):
            if hasattr(sock, method):  # the raw stand-in only sends
                setattr(self, method, tracer.wrap(span, getattr(sock, method)))

    def __getattr__(self, name):
        return getattr(self._sock, name)


def socket_factory(sink, tracer: Tracer | None):
    def make(family, kind, proto=0):
        sock = RawSendToSink(sink) if kind == socket.SOCK_RAW else socket.socket(family, kind, proto)
        return sock if tracer is None else TracedSocket(sock, tracer)

    return make


def instrument(relay: Relay, transport: RealUdpTransport, tracer: Tracer) -> None:
    """Span wrappers at the relay's layer boundaries; no relay code changes."""
    relay.handle_packet = tracer.wrap(
        "relay.handle_packet", relay.handle_packet, lambda packet, now: request_key(packet.payload)
    )
    relay.on_flow_packet = tracer.wrap(
        "relay.on_flow_packet", relay.on_flow_packet, lambda port, packet, now: request_key(packet.payload)
    )
    relay.expire_flows = tracer.wrap("relay.expire_flows", relay.expire_flows)
    transport.emit_spoofed = tracer.wrap("transport.emit_spoofed", transport.emit_spoofed)
    transport.flow_send = tracer.wrap("transport.flow_send", transport.flow_send)
    carelay.relay.classify = tracer.wrap("relay.classify", carelay.relay.classify)
    carelay.relay.encode = tracer.wrap("packet.encode", carelay.relay.encode)


def snapshot(relay: Relay, serve_clock: int) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "counters": dict(vars(relay.counters)),
        "cpu_s": time.clock_gettime(serve_clock),
        "process_cpu_s": usage.ru_utime + usage.ru_stime,
    }


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def control(relay: Relay, serve_clock: int, tracer: Tracer | None, marks: list[int], stop: threading.Event) -> None:
    calibrator = Calibrator()
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            if tracer is not None:
                marks.append(len(tracer.spans))
            emit({})
        elif command == "snap":
            # Traffic is drained when the generator asks, so the serving
            # thread sits in select() while this one calibrates.
            emit({**snapshot(relay, serve_clock), "calib_s": calibrator.run()})
        elif command == "stop":
            break
    calibrator.close()
    stop.set()  # also on EOF, so an orphaned relay exits


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    tracer = Tracer() if spec["trace"] else None
    config = RelayConfig(
        target_broadcast=spec["target"][0],
        target_port=spec["target"][1],
        listen_port=spec["listen_port"],
        allow_sources=tuple(Cidr.parse(c) for c in spec["allow"]),
        local_subnet=Cidr.parse(spec["local_subnet"]),
        mode=RelayMode(spec["mode"]),
    )
    sink = tuple(spec["sink"]) if spec["sink"] else None
    try:
        transport = RealUdpTransport(
            config, bind_ip="127.0.0.1", socket_factory=socket_factory(sink, tracer)
        )
    except TransportUnavailable as exc:
        emit({"error": str(exc)})
        return EXIT_UNAVAILABLE
    relay = Relay(config, transport)
    if tracer is not None:
        instrument(relay, transport, tracer)
    stop = threading.Event()
    marks: list[int] = []
    serve_clock = time.pthread_getcpuclockid(threading.get_ident())
    emit({"ready": True})
    threading.Thread(
        target=control, args=(relay, serve_clock, tracer, marks, stop), daemon=True
    ).start()
    try:
        relay.serve(stop)
    finally:
        transport.close()
    final = snapshot(relay, serve_clock)
    if tracer is not None and len(marks) >= 2:
        final["spans"] = tracer.summary(marks[0], marks[-1])
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"], marks[0], marks[-1])
    emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
