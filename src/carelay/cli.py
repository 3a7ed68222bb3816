"""Command-line entry point.

Subcommands: relay (serve the relay on real sockets), sim (run a scenario
file), bench (latency comparison), caget and caput (test clients against the
simulation; caget --transport real resolves a name on real UDP port 5064).

Exit codes: 0 success, 1 query timeout or scenario mismatch, 2 configuration
error, 3 missing privilege for raw sending.
"""

from __future__ import annotations

import argparse
import fcntl
import logging
import signal
import socket
import struct
import sys
import threading

from .bench import (
    build_network,
    emit_report,
    execute_scenario,
    run_benchmark,
)
from .ca_wire import CA_SERVER_PORT
from .config import (
    ConfigError, ValidationError, address_and_port, config_from_mapping, load_yaml,
    parse_address, parse_endpoint, parse_pv_name,
)
from .endpoints import CaClient, ChannelTimeout, RealCaClient
from .netsim import NetsimError
from .relay import (
    PrivilegeRequired,
    RealUdpTransport,
    Relay,
    RelayConfig,
    RelayMode,
    TransportUnavailable,
)

log = logging.getLogger("carelay")

EXIT_OK = 0
EXIT_TIMEOUT = 1
EXIT_CONFIG = 2
EXIT_PRIVILEGE = 3

_LOG_LEVELS = {"quiet": logging.WARNING, "normal": logging.INFO, "trace": logging.DEBUG}

# relay flags whose dest is the relay config key they set; --target sets two.
_RELAY_FLAG_KEYS = ("listen_port", "allow", "local_subnet", "mode")
# The one section a command on real sockets reads, and that section's keys
# that place it on the simulated network; it ignores every other section.
_REAL_SECTION = {"relay": ("relay", ("host", "install_prerouting")), "caget": ("client", ("host",))}
SIOCGIFADDR = 0x8915  # linux/sockios.h: read an interface's address, netdevice(7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carelay")
    logged = argparse.ArgumentParser(add_help=False)
    logged.add_argument("--log", choices=sorted(_LOG_LEVELS), default="normal")
    common = argparse.ArgumentParser(add_help=False, parents=[logged])
    common.add_argument("--config", metavar="PATH", help="configuration file")

    sub = parser.add_subparsers(dest="command", required=True)

    relay_p = sub.add_parser("relay", parents=[common], help="run the relay")
    relay_p.add_argument("--listen-port", type=int, default=None)
    relay_p.add_argument("--target", metavar="IP:PORT", default=None)
    relay_p.add_argument("--allow", metavar="CIDR", action="append", default=None)
    relay_p.add_argument("--local-subnet", metavar="CIDR", default=None)
    relay_p.add_argument("--mode", choices=[m.value for m in RelayMode], default=None)
    relay_p.add_argument("--bind-ip", default="0.0.0.0", help="real transport bind address")
    relay_p.set_defaults(func=cmd_relay)

    sim_p = sub.add_parser("sim", parents=[common], help="run a scenario file")
    sim_p.add_argument("--format", choices=("text", "records"), default="text")
    sim_p.add_argument("--reps", type=int, default=1, help="repetitions per query")
    sim_p.add_argument("--seed", type=int, default=0, help="virtual network seed")
    sim_p.set_defaults(func=cmd_sim)

    bench_p = sub.add_parser("bench", parents=[logged], help="run the latency comparison")
    bench_p.add_argument("--reps", type=int, default=100)
    bench_p.add_argument("--seed", type=int, default=0, help="virtual network seed")
    bench_p.add_argument("--format", choices=("text", "records"), default="text")
    bench_p.set_defaults(func=cmd_bench)

    for name in ("caget", "caput"):
        client_p = sub.add_parser(name, parents=[common], help=f"{name} test client")
        client_p.add_argument("pv", help="process variable name")
        if name == "caput":  # writing needs the simulated data circuit
            client_p.add_argument("value", type=float, help="value to write")
            client_p.set_defaults(transport="sim")
        else:
            client_p.add_argument("--transport", choices=("sim", "real"), default="sim",
                                  help="real: only resolve the name, and print the server that answers")
            client_p.add_argument("--target", metavar="IP:PORT", action="append", default=None,
                                  help="real transport search target (repeatable)")
        client_p.add_argument("--seed", type=int, default=None, help="sim transport network seed (default 0)")
        client_p.set_defaults(func=cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(_LOG_LEVELS[args.log])
    try:
        return args.func(args)
    except PrivilegeRequired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRIVILEGE
    except (ConfigError, TransportUnavailable, NetsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _load_mapping(args, required: bool = False):
    """The loaded YAML of --config, or None without one."""
    if args.config is None:
        if required:
            raise ConfigError("this command needs --config PATH")
        return None
    with open(args.config, encoding="utf-8") as fh:
        return load_yaml(fh.read())


def _refuse_ignored_keys(data, command: str) -> None:
    """Refuse, naming it, a key of the loaded file that ``command`` on real sockets would ignore."""
    if not isinstance(data, dict):
        return  # config_from_mapping names what is wrong
    name, sim_only = _REAL_SECTION[command]
    section = data.get(name)
    ignored = [f"{name}.{key}" for key in sim_only if isinstance(section, dict) and key in section]
    ignored += [key for key in data if key != name]
    if ignored:
        raise ValidationError(ignored[0], f"carelay {command} on real sockets does not read this key")


def _relay_flag_keys(args) -> dict:
    """The relay config keys that the given relay flags set."""
    keys = {key: getattr(args, key) for key in _RELAY_FLAG_KEYS if getattr(args, key) is not None}
    if args.target is not None:
        keys["target_broadcast"], keys["target_port"] = parse_endpoint(args.target, "--target")
    return keys


def _relay_config(args) -> RelayConfig:
    """The file's relay section with the flags laid over its keys, validated as one."""
    data = _load_mapping(args)
    if data is None:
        data = {}
    _refuse_ignored_keys(data, "relay")
    section = data.get("relay", {}) if isinstance(data, dict) else None
    if isinstance(section, dict):  # otherwise config_from_mapping names what is wrong
        data = {**data, "relay": {**section, **_relay_flag_keys(args)}}
    return config_from_mapping(data).relay


def _check_bind_ip(bind_ip: str, config: RelayConfig) -> None:
    """--bind-ip is a dotted quad inside local_subnet, the loop guard (0.0.0.0 is ``_check_wildcard_bind``'s)."""
    parse_address(bind_ip, "--bind-ip")
    subnet = config.local_subnet
    if bind_ip != "0.0.0.0" and not subnet.contains(bind_ip):
        raise ValidationError(
            "relay.local_subnet",
            f"{subnet} does not contain --bind-ip {bind_ip}, so the relay's own broadcasts would pass the loop guard",
        )


def _interface_addresses(sock: socket.socket) -> list[str]:
    """Each interface's IPv4 address, read by SIOCGIFADDR on sock; one without an address is skipped."""
    addresses = []
    for _, name in socket.if_nameindex():
        try:
            ifreq = fcntl.ioctl(sock, SIOCGIFADDR, struct.pack("40s", name.encode()))
        except OSError:  # EADDRNOTAVAIL: no IPv4 address on this interface
            continue
        addresses.append(socket.inet_ntoa(ifreq[20:24]))  # after the 16-byte name, ifr_addr's sin_addr at 4
    return addresses


def _check_wildcard_bind(config: RelayConfig, sock: socket.socket) -> None:
    """Warn when none of the interfaces a relay bound to 0.0.0.0 receives on lies in local_subnet, the loop guard."""
    try:
        addresses = _interface_addresses(sock)
    except OSError as exc:  # if_nameindex() failed: nothing to compare, and the check only ever warns
        log.warning("cannot read this host's interface addresses to compare with relay.local_subnet: %s", exc)
        return
    if not any(config.local_subnet.contains(ip) for ip in addresses):
        log.warning("relay.local_subnet %s contains none of this host's interface addresses (%s), so the relay's "
                    "own broadcasts would pass the loop guard", config.local_subnet, ", ".join(addresses) or "none")


def cmd_sim(args) -> int:
    config = config_from_mapping(_load_mapping(args, required=True))
    if not config.queries:
        raise ConfigError("this command needs a queries section in the config")
    run = execute_scenario(config.scenario("sim", args.seed, args.reps), log=args.log == "trace")
    if args.log == "trace":
        for line in run.net.trace_lines():
            print(line, file=sys.stderr)
    sys.stdout.write(emit_report(run.report, args.format))
    if not run.report.all_expected:
        for mismatch in run.report.mismatches:
            print(f"mismatch: {mismatch}", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_relay(args) -> int:
    relay_config = _relay_config(args)
    _check_bind_ip(args.bind_ip, relay_config)
    transport = RealUdpTransport(relay_config, bind_ip=args.bind_ip)
    relay = Relay(relay_config, transport)
    stop = threading.Event()

    def request_stop(signum, frame):
        del signum, frame
        stop.set()

    signal.signal(signal.SIGINT, request_stop)
    signal.signal(signal.SIGTERM, request_stop)
    log.info(
        "relaying %s -> %s:%d (mode %s)",
        relay_config.listen_port,
        relay_config.target_broadcast,
        relay_config.target_port,
        relay_config.mode.value,
    )
    try:
        if args.bind_ip == "0.0.0.0":
            _check_wildcard_bind(relay_config, transport._listen)
        relay.serve(stop)
    finally:
        transport.close()
        counters = vars(relay.counters)
        log.info("relay counters: %s", " ".join(f"{k}={v}" for k, v in counters.items()))
    return EXIT_OK


def cmd_bench(args) -> int:
    report = run_benchmark(repetitions=args.reps, seed=args.seed)
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_OK


def cmd_client(args) -> int:
    """caget or caput over the simulated network, or caget's name search alone over real UDP."""
    parse_pv_name(args.pv, "pv")
    write_value = getattr(args, "value", None)
    data = _load_mapping(args, required=args.transport == "sim")
    config = config_from_mapping(data)
    try:
        if args.transport == "real":  # a name search on real sockets: nothing of the simulated network applies
            if args.seed is not None:
                raise ConfigError("--seed seeds the simulated network, which caget --transport real does not use")
            _refuse_ignored_keys(data, "caget")
            targets = [("255.255.255.255", CA_SERVER_PORT)]
            if args.target:
                targets = [address_and_port(t, "--target") for t in args.target]
            server_ip, server_port = RealCaClient(targets, config=config.client).search(args.pv)
            print(f"{args.pv} found at {server_ip}:{server_port}")
            return EXIT_OK
        scenario = config.scenario("config", args.seed or 0, repetitions=1)
        if config.client_host is None:
            raise ConfigError("sim transport needs client.host in the config")
        net, _ = build_network(scenario)
        client = CaClient(net, config.client_host, config=config.client)
        if write_value is None:
            value = client.caget(args.pv)
        else:
            client.caput(args.pv, write_value)
            value = write_value
    except ChannelTimeout as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TIMEOUT
    print(f"{args.pv} {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
