"""Scenario/relay configuration files.

One YAML grammar serves both the simulated and the real transports: the
relay section configures the relay itself, the topology section describes
the virtual network (domains, hosts with interfaces and prerouting rules,
helper rules, IOC definitions, bare bindings), the client section sets the
retry schedule, queries script caget/caput runs, and bench parameterizes the
latency comparison. Unknown keys are rejected; validation errors name the
offending key, parse errors the line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import yaml

from .bench import (
    ARM_ORDER, FORK_COST_S, MIN_BENCH_REPETITIONS, TIMEOUT, VALUE, ConfigInvalid, IocSpec, Query, Scenario
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
from .packet import Cidr
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
    arms: tuple[str, ...] = ARM_ORDER
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


def _require_mapping(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(key, f"expected a mapping, got {type(value).__name__}")
    return value


def _require_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(key, f"expected a list, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            full = f"{path}.{key}" if path else str(key)
            raise ValidationError(full, "unknown key")


# The default of a key that must be given.
_REQUIRED = object()


def _given(mapping: dict, key: str, path: str, default) -> bool:
    """Whether the key is set; if not, its getter returns ``default``.

    A ``default`` of None makes the key optional; ``_REQUIRED`` makes its
    absence an error.
    """
    if key in mapping:
        return True
    if default is _REQUIRED:
        raise ValidationError(f"{path}.{key}", "required key missing")
    return False


def _get_int(mapping: dict, key: str, path: str, default=_REQUIRED, minimum=None, maximum=None):
    if not _given(mapping, key, path, default):
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum or maximum is not None and value > maximum:
        raise ValidationError(f"{path}.{key}", f"{value} outside [{minimum}, {maximum}]")
    return value


def _get_port(mapping: dict, key: str, path: str, default=_REQUIRED) -> int:
    return _get_int(mapping, key, path, default=default, minimum=1, maximum=65535)


def _number(value, key: str, minimum=None) -> float:
    """A finite number as a float: NaN, infinities and ints beyond float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValidationError(key, f"expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(key, f"{value} is below {minimum}")
    return float(value)


def _get_float(mapping: dict, key: str, path: str, default=_REQUIRED, minimum=None) -> float:
    if not _given(mapping, key, path, default):
        return default
    return _number(mapping[key], f"{path}.{key}", minimum)


def _get_str(mapping: dict, key: str, path: str, default=_REQUIRED) -> str | None:
    if not _given(mapping, key, path, default):
        return default
    value = mapping[key]
    if not isinstance(value, str):
        raise ValidationError(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


def _get_bool(mapping: dict, key: str, path: str, default: bool) -> bool:
    if not _given(mapping, key, path, default):
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise ValidationError(f"{path}.{key}", f"expected true or false, got {value!r}")
    return value


def _cidr(value, key: str) -> Cidr:
    try:
        return Cidr.parse(str(value))
    except (ValueError, OSError) as exc:
        raise ValidationError(key, f"not a CIDR prefix: {exc}") from None


def _get_cidr(mapping: dict, key: str, path: str, default=_REQUIRED) -> Cidr | None:
    if not _given(mapping, key, path, default):
        return default
    return _cidr(mapping[key], f"{path}.{key}")


def parse_config(text: str) -> ConfigFile:
    return config_from_mapping(load_yaml(text))


def load_yaml(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(None if mark is None else mark.line + 1, str(exc)) from None


def config_from_mapping(data) -> ConfigFile:
    """Validate a loaded YAML document; ``data`` is only read, never changed."""
    if data is None:
        data = {}
    data = _require_mapping(data, "<root>")
    _reject_unknown(data, {"topology", "relay", "client", "queries", "bench"}, "")

    config = ConfigFile()
    if "topology" in data:
        _parse_topology(_require_mapping(data["topology"], "topology"), config)
    if "relay" in data:
        _parse_relay(_require_mapping(data["relay"], "relay"), config)
    if "client" in data:
        _parse_client(_require_mapping(data["client"], "client"), config)
    if "queries" in data:
        _parse_queries(_require_list(data["queries"], "queries"), config)
    if "bench" in data:
        _parse_bench(_require_mapping(data["bench"], "bench"), config)
    _cross_validate(config)
    return config


def _parse_topology(section: dict, config: ConfigFile) -> None:
    path = "topology"
    _reject_unknown(
        section,
        {"per_hop_delay_us", "jitter_us", "domains", "hosts", "helpers", "iocs", "bindings"},
        path,
    )
    domains = []
    for i, item in enumerate(_require_list(section.get("domains", []), f"{path}.domains")):
        dpath = f"{path}.domains[{i}]"
        item = _require_mapping(item, dpath)
        _reject_unknown(item, {"name", "subnet"}, dpath)
        domains.append(BroadcastDomain(_get_str(item, "name", dpath), _get_cidr(item, "subnet", dpath)))

    hosts = []
    for i, item in enumerate(_require_list(section.get("hosts", []), f"{path}.hosts")):
        hpath = f"{path}.hosts[{i}]"
        item = _require_mapping(item, hpath)
        _reject_unknown(item, {"name", "interfaces", "prerouting"}, hpath)
        interfaces = []
        for j, iface in enumerate(_require_list(item.get("interfaces", []), f"{hpath}.interfaces")):
            ipath = f"{hpath}.interfaces[{j}]"
            iface = _require_mapping(iface, ipath)
            _reject_unknown(iface, {"ip", "subnet"}, ipath)
            interfaces.append(Interface(_get_str(iface, "ip", ipath), _get_cidr(iface, "subnet", ipath)))
        rules = []
        for j, rule in enumerate(_require_list(item.get("prerouting", []), f"{hpath}.prerouting")):
            rpath = f"{hpath}.prerouting[{j}]"
            rule = _require_mapping(rule, rpath)
            _reject_unknown(rule, {"match_dst_port", "negate_src", "new_dst"}, rpath)
            new_ip, new_port = parse_endpoint(_get_str(rule, "new_dst", rpath), f"{rpath}.new_dst")
            rules.append(
                PreroutingRule(
                    match_dst_port=_get_port(rule, "match_dst_port", rpath),
                    new_dst_ip=new_ip,
                    new_dst_port=new_port,
                    negate_src=_get_cidr(rule, "negate_src", rpath, default=None),
                )
            )
        hosts.append(VirtualHost(_get_str(item, "name", hpath), interfaces, prerouting_rules=rules))

    helpers = []
    for i, item in enumerate(_require_list(section.get("helpers", []), f"{path}.helpers")):
        hpath = f"{path}.helpers[{i}]"
        item = _require_mapping(item, hpath)
        _reject_unknown(item, {"domain", "udp_port", "destinations"}, hpath)
        destinations = _require_list(item.get("destinations", []), f"{hpath}.destinations")
        if not destinations:
            raise ValidationError(f"{hpath}.destinations", "at least one destination required")
        helpers.append(
            HelperRule(
                domain=_get_str(item, "domain", hpath),
                udp_port=_get_port(item, "udp_port", hpath),
                destinations=tuple(str(d) for d in destinations),
            )
        )

    config.topology = VirtualTopology(
        domains=domains,
        hosts=hosts,
        helper_rules=helpers,
        per_hop_delay_us=_get_int(
            section, "per_hop_delay_us", path, default=DEFAULT_PER_HOP_DELAY_US, minimum=1
        ),
        jitter_us=_get_int(section, "jitter_us", path, default=0, minimum=0),
    )

    port_counter = 5901
    for i, item in enumerate(_require_list(section.get("iocs", []), f"{path}.iocs")):
        ipath = f"{path}.iocs[{i}]"
        item = _require_mapping(item, ipath)
        _reject_unknown(item, {"host", "name", "server_port", "pvs", "advertise_own_address"}, ipath)
        pvs = _require_mapping(item.get("pvs", {}), f"{ipath}.pvs")
        parsed_pvs = {str(pv): _number(value, f"{ipath}.pvs.{pv}") for pv, value in pvs.items()}
        server_port = _get_port(item, "server_port", ipath, default=port_counter)
        port_counter = max(port_counter, server_port) + 1
        config.iocs.append(
            IocSpec(
                host=_get_str(item, "host", ipath),
                name=_get_str(item, "name", ipath),
                pvs=parsed_pvs,
                server_port=server_port,
                advertise_own_address=_get_bool(item, "advertise_own_address", ipath, default=True),
            )
        )

    for i, item in enumerate(_require_list(section.get("bindings", []), f"{path}.bindings")):
        bpath = f"{path}.bindings[{i}]"
        item = _require_mapping(item, bpath)
        _reject_unknown(item, {"host", "port", "owner"}, bpath)
        config.extra_bindings.append(
            (
                _get_str(item, "host", bpath),
                _get_port(item, "port", bpath),
                _get_str(item, "owner", bpath, default="binding"),
            )
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


def _parse_relay(section: dict, config: ConfigFile) -> None:
    path = "relay"
    _reject_unknown(
        section,
        {
            "host",
            "listen_port",
            "target_broadcast",
            "target_port",
            "allow",
            "local_subnet",
            "mode",
            "flow_idle_timeout",
            "max_packets_per_second",
            "install_prerouting",
        },
        path,
    )
    defaults = RelayConfig
    mode_name = _get_str(section, "mode", path, default=defaults.mode.value)
    try:
        mode = RelayMode(mode_name)
    except ValueError:
        modes = [m.value for m in RelayMode]
        raise ValidationError(f"{path}.mode", f"expected one of {modes}, got {mode_name!r}") from None
    allow = _require_list(section.get("allow", []), f"{path}.allow")
    try:
        config.relay = RelayConfig(
            target_broadcast=_get_str(section, "target_broadcast", path),
            listen_port=_get_port(section, "listen_port", path, default=defaults.listen_port),
            target_port=_get_port(section, "target_port", path, default=defaults.target_port),
            allow_sources=tuple(_cidr(item, f"{path}.allow[{i}]") for i, item in enumerate(allow)),
            local_subnet=_get_cidr(section, "local_subnet", path, default=None),
            mode=mode,
            flow_idle_timeout_s=_get_float(
                section, "flow_idle_timeout", path, default=defaults.flow_idle_timeout_s
            ),
            max_packets_per_second=_get_int(section, "max_packets_per_second", path, default=None, minimum=1),
        )
    except InvalidRelayConfig as exc:
        key = _RELAY_KEY_OF_FIELD.get(exc.field, exc.field)
        raise ValidationError(f"{path}.{key}", str(exc)) from None
    config.relay_host = _get_str(section, "host", path, default=None)
    config.relay_install_prerouting = _get_bool(section, "install_prerouting", path, default=False)


def _parse_client(section: dict, config: ConfigFile) -> None:
    path = "client"
    _reject_unknown(
        section,
        {"host", "initial_retry", "backoff_factor", "max_tries", "total_timeout"},
        path,
    )
    config.client_host = _get_str(section, "host", path, default=None)
    defaults = ClientQueryConfig
    initial_retry = _get_float(section, "initial_retry", path, default=defaults.initial_retry_s)
    backoff_factor = _get_float(section, "backoff_factor", path, default=defaults.backoff_factor)
    max_tries = _get_int(section, "max_tries", path, default=defaults.max_tries, minimum=1)
    total_timeout = _get_float(section, "total_timeout", path, default=defaults.total_timeout_s)
    try:
        backoff_factor ** (max_tries - 1)  # the growth of the last wait
    except OverflowError:
        raise ValidationError(f"{path}.backoff_factor", "the retry waits it gives overflow a float") from None
    try:
        config.client = ClientQueryConfig(initial_retry, backoff_factor, max_tries, total_timeout)
    except (ValueError, OverflowError) as exc:  # initial_retry times that growth can still overflow
        raise ValidationError(path, str(exc)) from None


def _parse_queries(items: list, config: ConfigFile) -> None:
    for i, item in enumerate(items):
        qpath = f"queries[{i}]"
        item = _require_mapping(item, qpath)
        _reject_unknown(item, {"client", "pv", "expect", "value"}, qpath)
        expect = _get_str(item, "expect", qpath, default="value")
        if expect == "timeout":
            expected = TIMEOUT
            if "value" in item:
                raise ValidationError(f"{qpath}.value", "timeout queries carry no value")
        elif expect == "value":
            expected = VALUE(_get_float(item, "value", qpath))
        else:
            raise ValidationError(f"{qpath}.expect", f"expected 'value' or 'timeout', got {expect!r}")
        config.queries.append(
            Query(
                client_host=_get_str(item, "client", qpath, default=config.client_host),
                pv_name=_get_str(item, "pv", qpath),
                expected=expected,
            )
        )


def _parse_bench(section: dict, config: ConfigFile) -> None:
    path = "bench"
    _reject_unknown(section, {"arms", "repetitions", "seed", "fork_cost"}, path)
    arms = tuple(
        str(a) for a in _require_list(section.get("arms", list(ARM_ORDER)), f"{path}.arms")
    )
    for arm in arms:
        if arm not in ARM_ORDER:
            raise ValidationError(f"{path}.arms", f"unknown arm {arm!r}")
    config.bench = BenchSettings(
        arms=arms,
        repetitions=_get_int(
            section, "repetitions", path, default=BenchSettings.repetitions, minimum=MIN_BENCH_REPETITIONS
        ),
        seed=_get_int(section, "seed", path, default=BenchSettings.seed, minimum=0),
        fork_cost_s=_get_float(section, "fork_cost", path, default=BenchSettings.fork_cost_s, minimum=0),
    )


def _cross_validate(config: ConfigFile) -> None:
    if config.topology is None:
        return
    host_names = {h.name for h in config.topology.hosts}
    for spec in config.iocs:
        if spec.host not in host_names:
            raise ValidationError("topology.iocs", f"unknown host {spec.host!r}")
    for host, _, _ in config.extra_bindings:
        if host not in host_names:
            raise ValidationError("topology.bindings", f"unknown host {host!r}")
    if config.relay_host is not None and config.relay_host not in host_names:
        raise ValidationError("relay.host", f"unknown host {config.relay_host!r}")
    if config.client_host is not None and config.client_host not in host_names:
        raise ValidationError("client.host", f"unknown host {config.client_host!r}")
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
