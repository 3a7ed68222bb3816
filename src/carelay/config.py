"""Scenario/relay configuration files.

One YAML grammar serves both the simulated and the real transports: the
relay section configures the relay itself, the topology section describes
the virtual network (domains, hosts with interfaces and prerouting rules,
helper rules, IOC definitions, bare bindings), the client section sets the
retry schedule, queries script caget/caput runs, and bench parameterizes the
latency comparison. Validation errors name the offending key, parse errors
the line.

Each mapping is read through a ``_Section``, whose getters check a value and
name it by its key's path. A key no getter read is rejected as unknown once
the known keys of its mapping are read, so a mapping with both a bad value
and an unknown key reports the bad value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import yaml

from .bench import (
    FORK_COST_S, MIN_BENCH_REPETITIONS, TIMEOUT, VALUE, ConfigInvalid, IocSpec, Query, Scenario
)
from .endpoints import ClientQueryConfig
from .netsim import (
    DEFAULT_PER_HOP_DELAY_US,
    BroadcastDomain,
    HelperRule,
    Interface,
    PreroutingRule,
    VirtualHost,
    VirtualTopology,
)
from .packet import Cidr, int_to_ip, ip_to_int
from .relay import InvalidRelayConfig, RelayConfig, RelayMode


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    def __init__(self, line: int | None, message: str) -> None:
        self.line = line
        where = f"line {line}" if line is not None else "input"
        super().__init__(f"config parse error at {where}: {message}")


class ValidationError(ConfigError):
    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"config key '{key}': {message}")


@dataclass
class BenchSettings:
    repetitions: int = 100
    seed: int = 0
    fork_cost_s: float = FORK_COST_S


@dataclass
class ConfigFile:
    topology: VirtualTopology | None = None
    iocs: list[IocSpec] = field(default_factory=list)
    extra_bindings: list[tuple[str, int, str]] = field(default_factory=list)
    relay: RelayConfig | None = None
    relay_host: str | None = None
    relay_install_prerouting: bool = False
    client_host: str | None = None
    client: ClientQueryConfig = field(default_factory=ClientQueryConfig)
    queries: list[Query] = field(default_factory=list)
    bench: BenchSettings = field(default_factory=BenchSettings)

    def scenario(self, name: str, seed: int, repetitions: int) -> Scenario:
        """The scenario this config describes; installs the relay redirect, so call it once."""
        if self.topology is None:
            raise ConfigInvalid("this command needs a topology section in the config")
        if self.relay_install_prerouting:
            install_relay_prerouting(self)
        return Scenario(
            name=name,
            topology=self.topology,
            iocs=self.iocs,
            queries=self.queries,
            relay_config=self.relay if self.relay_host is not None else None,
            relay_host=self.relay_host,
            client_config=self.client,
            repetitions=repetitions,
            seed=seed,
            pre_bindings=self.extra_bindings,
        )


# The default of a key that must be given.
_REQUIRED = object()


class _Section:
    """One mapping of the grammar, read key by key.

    A getter takes a key and, unless the key is required, the value to return
    when it is absent (None makes it optional); it checks the value and names
    it ``<path>.<key>`` in any error. ``done`` then rejects the first key, in
    document order, that no getter read, so each accepted key is written once,
    where it is read. The getters are named after the types they return.
    """

    def __init__(self, value, path: str) -> None:
        if not isinstance(value, dict):
            raise ValidationError(path or "<root>", f"expected a mapping, got {type(value).__name__}")
        self._mapping = value
        self._read: set = set()
        self.path = path

    def name(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def get(self, key, check, default=_REQUIRED):
        """``check(value, name)`` of the key's value, or ``default`` when the key is absent."""
        self._read.add(key)
        if key in self._mapping:
            return check(self._mapping[key], self.name(key))
        if default is _REQUIRED:
            raise ValidationError(self.name(key), "required key missing")
        return default

    def int(self, key, default=_REQUIRED, minimum=None, maximum=None):
        """An integer; a ``maximum`` comes with a ``minimum``."""

        def check(value, name: str):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(name, f"expected an integer, got {value!r}")
            if maximum is not None and not minimum <= value <= maximum:
                raise ValidationError(name, f"{value} outside [{minimum}, {maximum}]")
            if minimum is not None and value < minimum:
                raise ValidationError(name, f"{value} is below {minimum}")
            return value

        return self.get(key, check, default)

    def port(self, key, default=_REQUIRED):
        return self.int(key, default, minimum=1, maximum=65535)

    def float(self, key, default=_REQUIRED, minimum=None):
        return self.get(key, lambda value, name: _number(value, name, minimum), default)

    def str(self, key, default=_REQUIRED):
        return self.get(key, lambda value, name: _instance(value, name, str, "a string"), default)

    def bool(self, key, default):
        return self.get(key, lambda value, name: _instance(value, name, bool, "true or false"), default)

    def cidr(self, key, default=_REQUIRED):
        return self.get(key, _cidr, default)

    def address(self, key):
        return self.get(key, _address)

    def choice(self, key, choices, default):
        def one_of(value, name: str):
            if value not in choices:
                raise ValidationError(name, f"expected one of {list(choices)}, got {value!r}")
            return value

        return self.get(key, one_of, default)

    def list(self, key, check):
        """The key's list, absent meaning empty, with each item checked as ``<path>.<key>[i]``."""

        def items(value, name: str) -> list:
            if not isinstance(value, list):
                raise ValidationError(name, f"expected a list, got {type(value).__name__}")
            return [check(item, f"{name}[{i}]") for i, item in enumerate(value)]

        return self.get(key, items, [])

    def section(self, key, parse, default=None):
        """``read(parse)`` of the key's mapping, or ``default`` when the key is absent."""
        return self.get(key, lambda value, name: _Section(value, name).read(parse), default)

    def sections(self, key, parse):
        """``read(parse)`` of each mapping in the key's list."""
        return self.list(key, lambda value, name: _Section(value, name).read(parse))

    def read(self, parse):
        """``parse(self)``, which reads every key the mapping accepts; then ``done``."""
        result = parse(self)
        self.done()
        return result

    def __iter__(self):
        """The keys, for a mapping whose keys are names rather than grammar."""
        return iter(self._mapping)

    def done(self) -> None:
        for key in self._mapping:
            if key not in self._read:
                raise ValidationError(self.name(key), "unknown key")


def _number(value, key: str, minimum=None) -> float:
    """A finite number as a float: NaN, infinities and ints beyond float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValidationError(key, f"expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(key, f"{value} is below {minimum}")
    return float(value)


def _instance(value, key: str, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValidationError(key, f"expected {what}, got {value!r}")
    return value


def _cidr(value, key: str) -> Cidr:
    try:
        return Cidr.parse(str(value))
    except (ValueError, OSError) as exc:
        raise ValidationError(key, f"not a CIDR prefix: {exc}") from None


def _address(value, key: str) -> str:
    """A dotted quad as ``int_to_ip`` writes it, for the network matches addresses as strings."""
    try:
        dotted = int_to_ip(ip_to_int(value))
    except (TypeError, ValueError, OSError):
        dotted = None
    if value != dotted:
        raise ValidationError(key, f"not an IPv4 address: {value!r}")
    return value


def parse_config(text: str) -> ConfigFile:
    return config_from_mapping(load_yaml(text))


# libyaml's parser where PyYAML has it: the same documents, about ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str):
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(None if mark is None else mark.line + 1, str(exc)) from None


def config_from_mapping(data) -> ConfigFile:
    """Validate a loaded YAML document; ``data`` is only read, never changed."""
    root = _Section({} if data is None else data, "")
    config = ConfigFile()
    root.section("topology", lambda topology: _parse_topology(topology, config))
    root.section("relay", lambda relay: _parse_relay(relay, config))
    root.section("client", lambda client: _parse_client(client, config))
    config.queries = root.sections("queries", lambda query: _parse_query(query, config.client_host))
    root.section("bench", lambda bench: _parse_bench(bench, config))
    root.done()
    _cross_validate(config)
    return config


def _parse_topology(topology: _Section, config: ConfigFile) -> None:
    config.topology = VirtualTopology(
        domains=topology.sections("domains", lambda d: BroadcastDomain(d.str("name"), d.cidr("subnet"))),
        hosts=topology.sections("hosts", _parse_host),
        helper_rules=topology.sections("helpers", _parse_helper),
        per_hop_delay_us=topology.int("per_hop_delay_us", DEFAULT_PER_HOP_DELAY_US, minimum=1),
        jitter_us=topology.int("jitter_us", 0, minimum=0),
    )
    next_port = 5901
    taken: set[tuple[str, int]] = set()  # (host, server_port) of the IOCs so far

    def parse_ioc(ioc: _Section) -> IocSpec:
        nonlocal next_port
        pvs = ioc.section("pvs", lambda table: {str(pv): table.float(pv) for pv in table}, {})
        host = ioc.str("host")
        server_port = ioc.port("server_port", next_port)
        if (host, server_port) in taken:  # the channel listener would keep only one
            raise ValidationError(ioc.name("server_port"), f"another IOC on {host} has port {server_port}")
        taken.add((host, server_port))
        next_port = max(next_port, server_port) + 1
        return IocSpec(
            host=host,
            name=ioc.str("name"),
            pvs=pvs,
            server_port=server_port,
            advertise_own_address=ioc.bool("advertise_own_address", True),
        )

    config.iocs = topology.sections("iocs", parse_ioc)
    config.extra_bindings = topology.sections(
        "bindings",
        lambda binding: (
            binding.str("host"),
            binding.port("port"),
            binding.str("owner", "binding"),
        ),
    )


def _parse_host(host: _Section) -> VirtualHost:
    interfaces = host.sections("interfaces", _parse_interface)
    rules = host.sections("prerouting", _parse_prerouting)
    return VirtualHost(host.str("name"), interfaces, prerouting_rules=rules)


def _parse_interface(interface: _Section) -> Interface:
    ip = interface.address("ip")
    subnet = interface.cidr("subnet")
    if not subnet.contains(ip):
        raise ValidationError(interface.name("ip"), f"{ip} is outside its subnet {subnet}")
    return Interface(ip, subnet)


def _parse_prerouting(rule: _Section) -> PreroutingRule:
    new_ip, new_port = rule.get("new_dst", _address_and_port)
    return PreroutingRule(
        match_dst_port=rule.port("match_dst_port"),
        new_dst_ip=new_ip,
        new_dst_port=new_port,
        negate_src=rule.cidr("negate_src", None),
    )


def _address_and_port(value, key: str) -> tuple[str, int]:
    ip, port = parse_endpoint(str(value), key)
    return _address(ip, key), port


def _parse_helper(helper: _Section) -> HelperRule:
    destinations = helper.list("destinations", _address)
    if not destinations:
        raise ValidationError(helper.name("destinations"), "at least one destination required")
    return HelperRule(
        domain=helper.str("domain"),
        udp_port=helper.port("udp_port"),
        destinations=tuple(destinations),
    )


def parse_endpoint(text: str, key: str) -> tuple[str, int]:
    ip, sep, port = text.rpartition(":")
    if not sep:
        raise ValidationError(key, f"expected IP:PORT, got {text!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValidationError(key, f"bad port in {text!r}") from None
    if not 1 <= port_num <= 65535:
        raise ValidationError(key, f"port {port_num} outside [1, 65535]")
    return ip, port_num


# The relay key of each RelayConfig field checked there whose name differs.
_RELAY_KEY_OF_FIELD = {"flow_idle_timeout_s": "flow_idle_timeout"}


def _parse_relay(relay: _Section, config: ConfigFile) -> None:
    defaults = RelayConfig
    try:
        config.relay = RelayConfig(
            target_broadcast=relay.str("target_broadcast"),
            listen_port=relay.port("listen_port", defaults.listen_port),
            target_port=relay.port("target_port", defaults.target_port),
            allow_sources=tuple(relay.list("allow", _cidr)),
            local_subnet=relay.cidr("local_subnet", None),
            mode=RelayMode(relay.choice("mode", [m.value for m in RelayMode], defaults.mode.value)),
            flow_idle_timeout_s=relay.float("flow_idle_timeout", defaults.flow_idle_timeout_s),
            max_packets_per_second=relay.int("max_packets_per_second", None, minimum=1),
        )
    except InvalidRelayConfig as exc:
        key = _RELAY_KEY_OF_FIELD.get(exc.field, exc.field)
        raise ValidationError(relay.name(key), str(exc)) from None
    config.relay_host = relay.str("host", None)
    config.relay_install_prerouting = relay.bool("install_prerouting", False)


def _parse_client(client: _Section, config: ConfigFile) -> None:
    config.client_host = client.str("host", None)
    defaults = ClientQueryConfig
    initial_retry = client.float("initial_retry", defaults.initial_retry_s)
    backoff_factor = client.float("backoff_factor", defaults.backoff_factor)
    max_tries = client.int("max_tries", defaults.max_tries, minimum=1)
    total_timeout = client.float("total_timeout", defaults.total_timeout_s)
    try:
        backoff_factor ** (max_tries - 1)  # the growth of the last wait
    except OverflowError:
        raise ValidationError(
            client.name("backoff_factor"), "the retry waits it gives overflow a float"
        ) from None
    try:
        config.client = ClientQueryConfig(initial_retry, backoff_factor, max_tries, total_timeout)
    except (ValueError, OverflowError) as exc:  # initial_retry times that growth can still overflow
        raise ValidationError(client.path, str(exc)) from None


def _parse_query(query: _Section, default_client: str | None) -> Query:
    timeout = query.choice("expect", ("value", "timeout"), "value") == "timeout"
    value = query.float("value", None if timeout else _REQUIRED)
    if timeout and value is not None:
        raise ValidationError(query.name("value"), "timeout queries carry no value")
    return Query(
        client_host=query.str("client", default_client),
        pv_name=query.str("pv"),
        expected=TIMEOUT if timeout else VALUE(value),
    )


def _parse_bench(bench: _Section, config: ConfigFile) -> None:
    config.bench = BenchSettings(
        repetitions=bench.int("repetitions", BenchSettings.repetitions, minimum=MIN_BENCH_REPETITIONS),
        seed=bench.int("seed", BenchSettings.seed, minimum=0),
        fork_cost_s=bench.float("fork_cost", BenchSettings.fork_cost_s, minimum=0),
    )


def _cross_validate(config: ConfigFile) -> None:
    """Checks across sections and items, each naming the item's own key."""
    topology = config.topology
    if topology is None:
        return
    domains = {d.subnet: d.name for d in topology.domains}
    owned = {iface.ip for host in topology.hosts for iface in host.interfaces}
    for i, host in enumerate(topology.hosts):
        for j, iface in enumerate(host.interfaces):
            if iface.subnet not in domains:
                key = f"topology.hosts[{i}].interfaces[{j}].subnet"
                raise ValidationError(key, f"{iface.subnet} is no domain's subnet")
    for i, helper in enumerate(topology.helper_rules):
        if helper.domain not in domains.values():
            raise ValidationError(f"topology.helpers[{i}].domain", f"unknown domain {helper.domain!r}")
        for j, destination in enumerate(helper.destinations):
            if destination not in owned:
                key = f"topology.helpers[{i}].destinations[{j}]"
                raise ValidationError(key, f"no interface owns {destination}")
    host_names = {h.name for h in topology.hosts}
    for key, host in [
        *((f"topology.iocs[{i}].host", spec.host) for i, spec in enumerate(config.iocs)),
        *((f"topology.bindings[{i}].host", b[0]) for i, b in enumerate(config.extra_bindings)),
        ("relay.host", config.relay_host),
        ("client.host", config.client_host),
    ]:
        if host is not None and host not in host_names:
            raise ValidationError(key, f"unknown host {host!r}")
    for i, query in enumerate(config.queries):
        if not query.client_host:
            raise ValidationError(f"queries[{i}].client", "no client host given or defaulted")
        if query.client_host not in host_names:
            raise ValidationError(f"queries[{i}].client", f"unknown host {query.client_host!r}")


def install_relay_prerouting(config: ConfigFile) -> None:
    """Add the redirect rule {target_port, outside local, relay:listen} to the relay host."""
    if config.relay is None or config.relay_host is None or config.topology is None:
        return
    for host in config.topology.hosts:
        if host.name == config.relay_host:
            host.prerouting_rules.append(
                PreroutingRule(
                    match_dst_port=config.relay.target_port,
                    new_dst_ip=host.interfaces[0].ip,
                    new_dst_port=config.relay.listen_port,
                    negate_src=config.relay.local_subnet,
                )
            )
            return
