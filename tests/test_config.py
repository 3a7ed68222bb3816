import copy
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import carelay.config
from carelay.config import (
    ParseError,
    ValidationError,
    config_from_mapping,
    install_relay_prerouting,
    load_yaml,
    parse_config,
)
from carelay.netsim import LIMITED_BROADCAST
from carelay.packet import Cidr
from carelay.relay import RelayMode

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_TOPOLOGY = """
topology:
  domains:
    - name: lab
      subnet: 192.168.7.0/24
  hosts:
    - name: alpha
      interfaces:
        - ip: 192.168.7.1
          subnet: 192.168.7.0/24
"""


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["scenario_a.yaml", "scenario_b.yaml", "scenario_c.yaml"])
    def test_every_shipped_config_parses(self, name):
        config = parse_config((CONFIG_DIR / name).read_text())
        assert config.topology is not None
        assert config.queries

    def test_scenario_c_matches_relay_setup(self):
        config = parse_config((CONFIG_DIR / "scenario_c.yaml").read_text())
        assert config.relay is not None
        assert config.relay.listen_port == 6064
        assert config.relay.mode is RelayMode.SPOOF
        assert config.relay_host == "IMX1-HOST1"
        assert config.relay_install_prerouting
        assert len(config.iocs) == 9

    def test_scenario_b_has_limited_broadcast_rewrite(self):
        config = parse_config((CONFIG_DIR / "scenario_b.yaml").read_text())
        host1 = next(h for h in config.topology.hosts if h.name == "IMX1-HOST1")
        (rule,) = host1.prerouting_rules
        assert rule.new_dst_ip == LIMITED_BROADCAST
        assert rule.negate_src == Cidr("10.2.1.0", 24)


class TestParseErrors:
    def test_yaml_syntax_error_names_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_config("topology:\n  domains: [\n")
        assert excinfo.value.line is not None

    def test_non_mapping_root(self):
        with pytest.raises(ValidationError):
            parse_config("- just\n- a\n- list\n")

    def test_empty_input_is_empty_config(self):
        config = parse_config("")
        assert config.topology is None
        assert config.queries == []


# A relay section with its two required keys.
RELAY = "relay:\n  target_broadcast: 1.2.3.4\n  local_subnet: 10.2.1.0/24\n"

LOADERS = [yaml.SafeLoader, *([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])]


class TestYamlLoader:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")
    @pytest.mark.parametrize("name", ["scenario_a.yaml", "scenario_b.yaml", "scenario_c.yaml"])
    def test_fixtures_load_equal_under_both_loaders(self, name):
        text = (CONFIG_DIR / name).read_text()
        assert issubclass(carelay.config._YAML_LOADER, yaml.CSafeLoader)
        assert load_yaml(text) == yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", [
        "topology:\n  domains: [\n",
        "a: 1\nb: 2\n  c: 3\n",
        'a: 1\nb: "x\n',
    ], ids=["open-flow", "bad-indent", "open-quote"])
    def test_malformed_yaml_is_a_parse_error_with_its_line(self, loader, text, monkeypatch):
        monkeypatch.setattr(carelay.config, "_YAML_LOADER", loader)
        with pytest.raises(ParseError) as excinfo:
            parse_config(text)
        assert excinfo.value.line == 3
        assert "line 3" in str(excinfo.value)


class TestDuplicateKeys:
    # PyYAML keeps the last value of a key given twice; the file is refused instead.
    def test_relay_key_given_twice(self):
        text = (CONFIG_DIR / "scenario_c.yaml").read_text()
        once = "  listen_port: 6064\n"
        with pytest.raises(ParseError) as excinfo:
            parse_config(text.replace(once, once + "  listen_port: 7001\n"))
        assert excinfo.value.line == text[: text.index(once)].count("\n") + 2
        assert "found duplicate key 'listen_port'" in str(excinfo.value)

    def test_pv_given_twice_in_one_iocs_table(self):
        ioc = "  iocs:\n    - host: alpha\n      name: a\n      pvs:\n        A: 1.0\n        A: 2.0\n"
        text = MINIMAL_TOPOLOGY + ioc
        with pytest.raises(ParseError) as excinfo:
            parse_config(text)
        assert excinfo.value.line == text.count("\n")
        assert "found duplicate key 'A'" in str(excinfo.value)

    def test_a_merged_key_may_be_given_again(self):
        assert load_yaml("base: &b {x: 1, y: 2}\nm:\n  <<: *b\n  x: 5\n")["m"] == {"x": 5, "y": 2}


SECOND_HOST = "    - name: beta\n      interfaces:\n        - {ip: 192.168.7.2, subnet: 192.168.7.0/24}\n"
# A search carries a PV name of 1 to 60 ASCII characters; "p" * 60 is the longest.
QUERIES = (
    "queries:\n  - {{client: alpha, pv: " + "p" * 60 + ", value: 1.0}}\n"
    "  - {{client: alpha, pv: {pv}, value: 1.0}}\n"
)

# An IOC publishing one valid name and one name {pv}.
IOC_PVS = "  iocs:\n    - {{host: alpha, name: a, pvs: {{A: 1.0, {pv}: 2.0}}}}\n"


class TestCrossReferencesNameTheItem:
    @pytest.mark.parametrize("text, key", [
        (
            MINIMAL_TOPOLOGY
            + "  helpers:\n    - {domain: lab, udp_port: 5064, destinations: [192.168.7.1, 192.168.7.50]}\n",
            "topology.helpers[0].destinations[1]",
        ),
        (
            MINIMAL_TOPOLOGY + "    - name: beta\n      interfaces:\n        - {ip: 192.168.8.1, subnet: 192.168.8.0/24}\n",
            "topology.hosts[1].interfaces[0].subnet",
        ),
        (
            MINIMAL_TOPOLOGY + "  helpers:\n    - {domain: lab, udp_port: 5064, destinations: [192.168.7.1]}\n"
            "    - {domain: nowhere, udp_port: 5064, destinations: [192.168.7.1]}\n",
            "topology.helpers[1].domain",
        ),
        (
            MINIMAL_TOPOLOGY
            + "  iocs:\n    - {host: alpha, name: a, pvs: {A: 1.0}}\n    - {host: ghost, name: b, pvs: {B: 1.0}}\n",
            "topology.iocs[1].host",
        ),
        (MINIMAL_TOPOLOGY + "  bindings:\n    - {host: ghost, port: 5064}\n", "topology.bindings[0].host"),
        (
            MINIMAL_TOPOLOGY + "  iocs:\n    - {host: alpha, name: a, pvs: {A: 1.0}}\n"
            "    - {host: alpha, name: b, pvs: {B: 1.0}, server_port: 5901}\n",
            "topology.iocs[1].server_port",
        ),
        (MINIMAL_TOPOLOGY + SECOND_HOST.replace("192.168.7.2", "192.168.7.1"), "topology.hosts[1].interfaces[0].ip"),
        (
            MINIMAL_TOPOLOGY.replace("  hosts:\n", "    - {name: lab2, subnet: 192.168.7.0/24}\n  hosts:\n")
            + "  helpers:\n    - {domain: lab, udp_port: 5064, destinations: [192.168.7.1]}\n",
            "topology.domains[1].subnet",
        ),
        (
            MINIMAL_TOPOLOGY.replace("  hosts:\n", "    - {name: lab, subnet: 192.168.8.0/24}\n  hosts:\n"),
            "topology.domains[1].name",
        ),
        (MINIMAL_TOPOLOGY + "    - name: beta\n      interfaces: []\n", "topology.hosts[1].interfaces"),
        (
            MINIMAL_TOPOLOGY + "      prerouting:\n        - {match_dst_port: 5064, new_dst: '192.168.7.99:5064'}\n",
            "topology.hosts[0].prerouting[0].new_dst",
        ),
        (
            MINIMAL_TOPOLOGY + SECOND_HOST + "        - {ip: 192.168.7.3, subnet: 192.168.7.0/24}\n",
            "topology.hosts[1].interfaces[1].subnet",
        ),
        (MINIMAL_TOPOLOGY + SECOND_HOST.replace("beta", "alpha"), "topology.hosts[1].name"),
        (MINIMAL_TOPOLOGY + QUERIES.format(pv="p" * 61), "queries[1].pv"),
        (MINIMAL_TOPOLOGY + QUERIES.format(pv="''"), "queries[1].pv"),
        (MINIMAL_TOPOLOGY + IOC_PVS.format(pv="p" * 61), "topology.iocs[0].pvs." + "p" * 61),
        (MINIMAL_TOPOLOGY + IOC_PVS.format(pv="\u00e9"), "topology.iocs[0].pvs.\u00e9"),
        (MINIMAL_TOPOLOGY + IOC_PVS.format(pv="''"), "topology.iocs[0].pvs."),
    ], ids=[
        "helper-destination", "interface-subnet", "helper-domain", "ioc-host", "binding-host", "ioc-port",
        "duplicate-address", "duplicate-subnet", "duplicate-domain-name", "host-without-interfaces",
        "prerouting-to-unowned-address", "two-interfaces-in-one-domain", "duplicate-host-name",
        "query-pv-too-long", "query-pv-empty", "ioc-pv-too-long", "ioc-pv-not-ascii", "ioc-pv-empty",
    ])
    def test_fault_names_its_key(self, text, key):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.key == key


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config("wat: 1\n")
        assert excinfo.value.key == "wat"

    def test_listen_port_zero_names_key(self):
        text = "relay:\n  target_broadcast: 255.255.255.255\n  listen_port: 0\n"
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "listen_port" in excinfo.value.key

    def test_spoof_without_target_broadcast(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config("relay:\n  mode: spoof\n  listen_port: 6064\n")
        assert "target_broadcast" in excinfo.value.key

    def test_relay_without_local_subnet(self):
        # The local subnet is the relay's loop guard; without it one search
        # could come back to the listen port and be relayed again.
        with pytest.raises(ValidationError) as excinfo:
            parse_config("relay:\n  target_broadcast: 1.2.3.4\n  mode: proxy\n")
        assert excinfo.value.key == "relay.local_subnet"
        assert str(excinfo.value) == "config key 'relay.local_subnet': required key missing"

    def test_bad_mode(self):
        for mode in ("teleport", "fork"):
            with pytest.raises(ValidationError) as excinfo:
                parse_config(f"{RELAY}  mode: {mode}\n")
            assert "mode" in excinfo.value.key

    def test_fork_cost_is_not_a_relay_key(self):
        # The fork cost belongs to the benchmark's simulated relay host.
        with pytest.raises(ValidationError) as excinfo:
            parse_config(RELAY + "  fork_cost: 0.005\n")
        assert excinfo.value.key == "relay.fork_cost"

    @pytest.mark.parametrize("value", ['"false"', "1"], ids=["string", "integer"])
    @pytest.mark.parametrize(
        "text, key",
        [
            (RELAY + "  install_prerouting: {}\n", "relay.install_prerouting"),
            (
                MINIMAL_TOPOLOGY + "  iocs:\n    - host: alpha\n      name: x\n      advertise_own_address: {}\n",
                "topology.iocs[0].advertise_own_address",
            ),
        ],
        ids=["install_prerouting", "advertise_own_address"],
    )
    def test_boolean_keys_take_only_yaml_booleans(self, text, key, value):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text.format(value))
        assert excinfo.value.key == key

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "text, key",
        [
            ("client:\n  backoff_factor: {}\n", "client.backoff_factor"),
            (MINIMAL_TOPOLOGY + "queries:\n  - client: alpha\n    pv: X\n    value: {}\n", "queries[0].value"),
            (MINIMAL_TOPOLOGY + "  iocs:\n    - host: alpha\n      name: x\n      pvs: {{A: {}}}\n", "topology.iocs[0].pvs.A"),
        ],
        ids=["backoff_factor", "query_value", "pv"],
    )
    def test_float_keys_must_be_finite(self, text, key, value):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text.format(value))
        assert excinfo.value.key == key

    def test_retry_schedule_beyond_float_range_names_section(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config("client:\n  initial_retry: 1.0e+308\n")
        assert excinfo.value.key == "client"

    def test_retry_schedule_longer_than_a_search_names_section(self):
        # initial_retry 30 for 0.030 gives a 930 s search.
        with pytest.raises(ValidationError) as excinfo:
            parse_config("client:\n  initial_retry: 30\n")
        assert str(excinfo.value) == "config key 'client': the retry waits must fit in a 5 s search"

    @pytest.mark.parametrize("text", [
        "client:\n  backoff_factor: 1.0e+200\n",
        "client:\n  backoff_factor: 2.0\n  max_tries: 2000\n",
    ], ids=["factor", "tries"])
    def test_retry_growth_beyond_float_range_names_backoff_factor(self, text):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.key == "client.backoff_factor"

    def test_max_packets_per_second_is_optional(self):
        assert parse_config(RELAY).relay.max_packets_per_second is None
        text = RELAY + "  max_packets_per_second: {}\n"
        assert parse_config(text.format(10)).relay.max_packets_per_second == 10
        for bad in ("0", "null"):
            with pytest.raises(ValidationError) as excinfo:
                parse_config(text.format(bad))
            assert excinfo.value.key == "relay.max_packets_per_second"

    # RelayConfig makes these checks itself; its error used to name only the section.
    @pytest.mark.parametrize("section, key", [
        ("{target_broadcast: nope, local_subnet: 10.2.1.0/24}", "relay.target_broadcast"),
        ("{target_broadcast: 10.2.511, local_subnet: 10.2.1.0/24}", "relay.target_broadcast"),
        ("{target_broadcast: 1.2.3.4, local_subnet: 10.2.1.0/24, listen_port: 5064}", "relay.listen_port"),
    ])
    def test_relay_config_checks_name_their_key(self, section, key):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(f"relay: {section}\n")
        assert excinfo.value.key == key

    @pytest.mark.parametrize("text, key, message", [
        ("client:\n  max_tries: 0\n", "client.max_tries", "0 is below 1"),
        ("topology:\n  per_hop_delay_us: 0\n", "topology.per_hop_delay_us", "0 is below 1"),
        ("topology:\n  jitter_us: -5\n", "topology.jitter_us", "-5 is below 0"),
        (
            "relay: {target_broadcast: 1.2.3.4, local_subnet: 10.2.1.0/24, max_packets_per_second: 0}\n",
            "relay.max_packets_per_second",
            "0 is below 1",
        ),
        (
            "relay: {target_broadcast: 1.2.3.4, local_subnet: 10.2.1.0/24, listen_port: 70000}\n",
            "relay.listen_port",
            "70000 outside [1, 65535]",
        ),
    ], ids=["max_tries", "per_hop_delay_us", "jitter_us", "max_packets_per_second", "port"])
    def test_integer_bounds_message_names_only_the_bounds_set(self, text, key, message):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.key == key
        assert str(excinfo.value) == f"config key '{key}': {message}"

    @pytest.mark.parametrize("text, key", [
        (MINIMAL_TOPOLOGY.replace("ip: 192.168.7.1", "ip: nope"), "topology.hosts[0].interfaces[0].ip"),
        (MINIMAL_TOPOLOGY.replace("ip: 192.168.7.1", "ip: 10.9.9.9"), "topology.hosts[0].interfaces[0].ip"),
        (MINIMAL_TOPOLOGY.replace("ip: 192.168.7.1", "ip: 192.168.7.255"), "topology.hosts[0].interfaces[0].ip"),
        (
            MINIMAL_TOPOLOGY
            + "  helpers:\n    - {domain: lab, udp_port: 5064, destinations: [192.168.7.1, 192.168.7.999]}\n",
            "topology.helpers[0].destinations[1]",
        ),
        (
            MINIMAL_TOPOLOGY + "  helpers:\n    - {domain: lab, udp_port: 5064, destinations: [192.168.7.01]}\n",
            "topology.helpers[0].destinations[0]",
        ),
        (
            MINIMAL_TOPOLOGY + "      prerouting:\n        - {match_dst_port: 5064, new_dst: 'nope:6064'}\n",
            "topology.hosts[0].prerouting[0].new_dst",
        ),
    ], ids=[
        "interface_ip", "ip_outside_subnet", "broadcast_address", "helper_destination", "not_dotted_quad",
        "prerouting_new_dst",
    ])
    def test_address_keys_must_be_ipv4_addresses(self, text, key):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.key == key

    def test_bad_cidr_names_key(self):
        text = MINIMAL_TOPOLOGY.replace("192.168.7.0/24", "192.168.7.5/24", 1)
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "subnet" in excinfo.value.key

    def test_unknown_key_inside_host(self):
        text = MINIMAL_TOPOLOGY + "      color: blue\n"
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_query_for_unknown_host(self):
        text = MINIMAL_TOPOLOGY + "queries:\n  - client: ghost\n    pv: X\n    value: 1.0\n"
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "client" in excinfo.value.key

    def test_timeout_query_with_value_rejected(self):
        text = MINIMAL_TOPOLOGY + (
            "queries:\n  - client: alpha\n    pv: X\n    expect: timeout\n    value: 1.0\n"
        )
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "value" in excinfo.value.key

    def test_one_server_port_on_two_hosts(self):
        text = MINIMAL_TOPOLOGY + (
            "    - name: beta\n      interfaces:\n        - {ip: 192.168.7.2, subnet: 192.168.7.0/24}\n"
            "  iocs:\n    - {host: alpha, name: a, pvs: {A: 1.0}, server_port: 5901}\n"
            "    - {host: beta, name: b, pvs: {B: 1.0}, server_port: 5901}\n"
        )
        assert [(ioc.host, ioc.server_port) for ioc in parse_config(text).iocs] == [("alpha", 5901), ("beta", 5901)]

    def test_ioc_on_unknown_host(self):
        text = MINIMAL_TOPOLOGY + "  iocs:\n    - host: ghost\n      name: x\n      pvs: {A: 1.0}\n"
        # iocs is nested under topology in the source text
        text = text.replace("\n  iocs:", "\n  iocs:")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_prerouting_new_dst_needs_port(self):
        text = MINIMAL_TOPOLOGY.replace(
            "          subnet: 192.168.7.0/24\n",
            "          subnet: 192.168.7.0/24\n"
            "      prerouting:\n"
            "        - match_dst_port: 5064\n"
            "          new_dst: 255.255.255.255\n",
            1,
        )
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "new_dst" in excinfo.value.key


class TestDefaults:
    def test_client_defaults(self):
        config = parse_config("")
        assert config.client.initial_retry_s == 0.030
        assert config.client.backoff_factor == 2.0
        assert config.client.max_tries == 5

    def test_relay_defaults(self):
        config = parse_config("relay:\n  target_broadcast: 255.255.255.255\n  local_subnet: 10.2.1.0/24\n")
        assert config.relay.listen_port == 6064
        assert config.relay.target_port == 5064


# Every key the grammar accepts, each set once.
EVERY_KEY = """
topology:
  per_hop_delay_us: 200
  jitter_us: 5
  domains:
    - {name: beamline, subnet: 10.2.1.0/24}
    - {name: sol, subnet: 10.2.105.0/24}
  hosts:
    - name: IMX1-HOST1
      interfaces:
        - {ip: 10.2.1.31, subnet: 10.2.1.0/24}
      prerouting:
        - {match_dst_port: 5064, negate_src: 10.2.1.0/24, new_dst: "10.2.1.31:6064"}
    - name: TesterHEpics
      interfaces:
        - {ip: 10.2.105.171, subnet: 10.2.105.0/24}
  helpers:
    - {domain: sol, udp_port: 5064, destinations: [10.2.1.31]}
  iocs:
    - host: IMX1-HOST1
      name: dmc4-m1
      server_port: 5901
      pvs: {IMX:DMC4:m1: -2.06e-05}
      advertise_own_address: false
  bindings:
    - {host: IMX1-HOST1, port: 5064, owner: probe}
relay:
  host: IMX1-HOST1
  listen_port: 6064
  target_broadcast: 255.255.255.255
  target_port: 5064
  allow: [10.2.105.0/24]
  local_subnet: 10.2.1.0/24
  mode: proxy
  max_packets_per_second: 1000
  install_prerouting: true
client:
  host: TesterHEpics
  initial_retry: 0.020
  backoff_factor: 3.0
  max_tries: 4
queries:
  - {client: TesterHEpics, pv: IMX:DMC4:m1, expect: value, value: -2.06e-05}
"""


class TestKeyInventory:
    def test_every_accepted_key_parses_into_its_field(self):
        data = yaml.safe_load(EVERY_KEY)
        pristine = copy.deepcopy(data)
        config = config_from_mapping(data)
        assert data == pristine
        assert config.topology.jitter_us == 5
        assert config.topology.hosts[0].prerouting_rules[0].new_dst_port == 6064
        assert config.topology.helper_rules[0].destinations == ("10.2.1.31",)
        assert config.iocs[0].advertise_own_address is False
        assert config.extra_bindings == [("IMX1-HOST1", 5064, "probe")]
        assert config.relay.mode is RelayMode.PROXY
        assert config.relay.max_packets_per_second == 1000
        assert config.relay_install_prerouting
        assert config.client.max_tries == 4
        assert config.queries[0].client_host == "TesterHEpics"

    # One misspelt sibling in each of the grammar's twelve mappings; bench,
    # whose parameters are constants of carelay.bench, not keys; and the two
    # settings that are now constants, relay.FLOW_IDLE_TIMEOUT_US and
    # endpoints.SEARCH_TIMEOUT_US.
    @pytest.mark.parametrize("where, typo", [
        ((), "topolgy"),
        (("topology",), "jiter_us"),
        (("topology", "domains", 0), "subnett"),
        (("topology", "hosts", 0), "interface"),
        (("topology", "hosts", 0, "interfaces", 0), "ips"),
        (("topology", "hosts", 0, "prerouting", 0), "new_dest"),
        (("topology", "helpers", 0), "destination"),
        (("topology", "iocs", 0), "server-port"),
        (("topology", "bindings", 0), "ownr"),
        (("relay",), "listen-port"),
        (("client",), "max_try"),
        (("relay",), "flow_idle_timeout"),
        (("client",), "total_timeout"),
        (("queries", 0), "expected"),
        ((), "bench"),
    ], ids=lambda v: ".".join(map(str, v)) or "root" if isinstance(v, tuple) else v)
    def test_misspelt_key_is_an_unknown_key_named_by_its_path(self, where, typo):
        data = yaml.safe_load(EVERY_KEY)
        mapping, path = data, ""
        for step in where:
            mapping = mapping[step]
            path += f"[{step}]" if isinstance(step, int) else f".{step}"
        mapping[typo] = 1
        key = f"{path}.{typo}".lstrip(".")
        with pytest.raises(ValidationError) as excinfo:
            config_from_mapping(data)
        assert excinfo.value.key == key
        assert str(excinfo.value) == f"config key '{key}': unknown key"


def test_install_relay_prerouting_adds_redirect():
    config = parse_config((CONFIG_DIR / "scenario_c.yaml").read_text())
    host1 = next(h for h in config.topology.hosts if h.name == "IMX1-HOST1")
    assert host1.prerouting_rules == []
    install_relay_prerouting(config)
    (rule,) = host1.prerouting_rules
    assert rule.match_dst_port == 5064
    assert rule.new_dst_ip == "10.2.1.31"
    assert rule.new_dst_port == 6064
    assert rule.negate_src == Cidr("10.2.1.0", 24)


def test_importing_config_does_not_import_the_benchmark():
    # The scenario records live here, so bench imports config and never the reverse.
    src = Path(carelay.config.__file__).resolve().parents[1]
    script = "import sys, carelay.config\nprint(sorted(m for m in sys.modules if m.startswith('carelay')))\n"
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=60, check=True
    )
    assert "carelay.bench" not in out.stdout
    assert "carelay.config" in out.stdout
