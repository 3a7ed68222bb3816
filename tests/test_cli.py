import argparse
import dataclasses
import hashlib
import os
import socket
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

from carelay import cli
from carelay.bench import emit_report, execute_scenario, run_scenario, scenario_a, scenario_b, scenario_c
from carelay.cli import main
from carelay.config import config_from_mapping, parse_config
from carelay.packet import Cidr
from carelay.relay import RelayConfig, RelayMode
from records import parse_records

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENARIO_C = str(CONFIG_DIR / "scenario_c.yaml")
SCENARIO_A = str(CONFIG_DIR / "scenario_a.yaml")


def scenario_c_sections(*names):
    """Those sections of scenario C, as YAML text, without the client section's host."""
    data = yaml.safe_load((CONFIG_DIR / "scenario_c.yaml").read_text())
    data["client"].pop("host")
    return yaml.safe_dump({name: data[name] for name in names}, sort_keys=False)


class TestSim:
    def test_scenario_c_runs_green(self, capsys):
        assert main(["sim", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        out = capsys.readouterr().out
        assert "all queries matched" in out

    def test_scenario_a_reports_expected_timeouts(self, capsys):
        assert main(["sim", "--config", SCENARIO_A, "--log", "quiet"]) == 0
        out = capsys.readouterr().out
        assert "all queries matched" in out

    def test_records_format_parses(self, capsys):
        assert main(["sim", "--config", SCENARIO_C, "--format", "records", "--log", "quiet"]) == 0
        samples = parse_records(capsys.readouterr().out)
        assert {s.query for s in samples} == {"IMX:DMC4:m1", "IMX1-HOST1", "IMX:DMC4:m3"}

    def test_trace_log_prints_capture_lines(self, capsys):
        assert main(["sim", "--config", SCENARIO_C, "--log", "trace"]) == 0
        err = capsys.readouterr().err
        assert "> 255.255.255.255.5064: UDP, length 48" in err

    @pytest.mark.parametrize("level, keeps_log", [("quiet", False), ("normal", False), ("trace", True)])
    def test_only_a_trace_run_keeps_the_delivery_log(self, level, keeps_log, monkeypatch, capsys):
        # Only `--log trace` prints the log, so only it may hold every delivery.
        runs = []

        def recorded(*args, **kwargs):
            runs.append(execute_scenario(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "execute_scenario", recorded)
        assert main(["sim", "--config", SCENARIO_C, "--log", level]) == 0
        assert (runs[0].net.delivery_log is not None) == keeps_log

    def test_a_trace_is_printed_a_line_at_a_time(self, monkeypatch):
        # Printing the delivery log holds no second copy of it as text: the
        # traced peak while the trace is printed stays near the run's own.
        peaks = {}

        def run_measured(*args, **kwargs):
            run = execute_scenario(*args, **kwargs)
            peaks["run"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return run

        def report_measured(*args):
            peaks["trace"] = tracemalloc.get_traced_memory()[1]  # the trace is printed, the report not yet made
            return emit_report(*args)

        monkeypatch.setattr(cli, "execute_scenario", run_measured)
        monkeypatch.setattr(cli, "emit_report", report_measured)
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            monkeypatch.setattr(sys, "stderr", devnull)
            tracemalloc.start()
            try:
                assert main(["sim", "--config", SCENARIO_C, "--reps", "300", "--log", "trace"]) == 0
            finally:
                tracemalloc.stop()
        assert peaks["trace"] <= 1.05 * peaks["run"]

    def test_missing_config_is_config_error(self, capsys):
        assert main(["sim", "--log", "quiet"]) == 2

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("relay:\n  listen_port: 0\n  target_broadcast: 1.2.3.4\n")
        assert main(["sim", "--config", str(bad), "--log", "quiet"]) == 2
        assert "listen_port" in capsys.readouterr().err

    def test_mismatch_exits_one(self, tmp_path, capsys):
        text = (CONFIG_DIR / "scenario_a.yaml").read_text().replace(
            "    pv: IMX:DMC4:m1\n    expect: timeout\n",
            "    pv: IMX:DMC4:m1\n    expect: value\n    value: 1.0\n",
        )
        cfg = tmp_path / "broken.yaml"
        cfg.write_text(text)
        assert main(["sim", "--config", str(cfg), "--log", "quiet"]) == 1


@pytest.mark.parametrize("argv, make", [
    (["sim"], lambda path: None),
    (["relay"], lambda path: path.mkdir()),
    (["caget", "PV:1"], lambda path: path.write_bytes(b"client:\n  host: \xff\n")),
], ids=["missing", "directory", "not-utf-8"])
def test_a_config_file_that_cannot_be_read_is_config_error(argv, make, tmp_path, capsys):
    path = tmp_path / "config.yaml"
    make(path)
    assert main([*argv, "--config", str(path), "--log", "quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read --config {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fixture, builder", [
    ("scenario_a.yaml", scenario_a),
    ("scenario_b.yaml", scenario_b),
    ("scenario_c.yaml", scenario_c),
])
def test_config_fixture_matches_python_scenario(fixture, builder, capsys):
    # `carelay sim --config` and the carelay.bench builders read the same
    # fixture along two paths; both must give the same records.
    assert main(["sim", "--config", str(CONFIG_DIR / fixture), "--format", "records", "--log", "quiet"]) == 0
    from_config = [(s.query, s.outcome, s.latency_us) for s in parse_records(capsys.readouterr().out)]
    from_builder = [(s.query, s.outcome, s.latency_us) for s in run_scenario(builder()).samples]
    assert from_config == from_builder


# sha256 of `carelay sim` output for the shipped fixtures. Any change in a
# delivery, its time or order, or a jitter draw changes them.
SIM_RECORDS_SHA256 = {
    "scenario_a.yaml": "182552c10af9a19ee8cbc0b1f07470afc1757c74b719a241247c39cddc336136",
    "scenario_b.yaml": "3eb3c47e45a278170e66ae7d94170cd18a3c2bb183b286b2dcce3210879a0e84",
    "scenario_c.yaml": "16e3675cc601959f8886627ed226b1df4aa6a3e29f6fd1a35ff3483a37e50637",
}
# sha256 and line count of the `--log trace --reps 3` delivery log. A shows
# last-binder delivery, B the local-only prerouting rewrite, C the relay.
TRACE_LOG_SHA256 = {
    "scenario_a.yaml": ("f2a590f0150991cb0d8dcdc288e4f1b55246aa0a784b3441bbcbe265e2f8d86b", 36),
    "scenario_b.yaml": ("c26635b47c74196d6b6b984855dcbd0c15802cb49d70c585b56a61cac55cb840", 273),
    "scenario_c.yaml": ("cb46c3a947bb2e73d2b7798f0e728ff8f34cd3c26aee5ac77697efaa8121835c", 99),
}


class TestDeterminismPins:
    @pytest.mark.parametrize("fixture", sorted(SIM_RECORDS_SHA256))
    def test_sim_records_digest(self, fixture, capsys):
        argv = ["sim", "--config", str(CONFIG_DIR / fixture), "--format", "records"]
        assert main([*argv, "--log", "quiet", "--reps", "20", "--seed", "3"]) == 0
        records = capsys.readouterr().out
        assert hashlib.sha256(records.encode()).hexdigest() == SIM_RECORDS_SHA256[fixture]

    @pytest.mark.parametrize("fixture", sorted(TRACE_LOG_SHA256))
    def test_trace_log_digest(self, fixture, capsys):
        argv = ["sim", "--config", str(CONFIG_DIR / fixture), "--format", "records"]
        assert main([*argv, "--log", "trace", "--reps", "3"]) == 0
        trace = capsys.readouterr().err
        digest, lines = TRACE_LOG_SHA256[fixture]
        assert len(trace.splitlines()) == lines
        assert hashlib.sha256(trace.encode()).hexdigest() == digest


class TestCagetSim:
    def test_caget_prints_name_and_value(self, capsys):
        assert main(["caget", "IMX1-HOST1", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        assert capsys.readouterr().out == "IMX1-HOST1 155.836\n"

    def test_caget_scientific_value_matches_golden_line(self, capsys):
        assert main(["caget", "IMX:DMC4:m1", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        assert capsys.readouterr().out == "IMX:DMC4:m1 -2.06e-05\n"

    def test_caget_across_servers(self, capsys):
        assert main(["caget", "IMX:DMC4:m3", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        assert capsys.readouterr().out == "IMX:DMC4:m3 0.002496\n"

    def test_caget_unknown_pv_times_out(self, capsys):
        assert main(["caget", "NOPE", "--config", SCENARIO_C, "--log", "quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "Channel connect timed out: 'NOPE' not found."

    @pytest.mark.parametrize("seed", ["3", "11"])
    def test_sim_client_takes_a_seed(self, seed, capsys):
        # The network seed moves timings only; the value read is the table's.
        assert main(["caget", "IMX1-HOST1", "--config", SCENARIO_C, "--seed", seed, "--log", "quiet"]) == 0
        assert capsys.readouterr().out == "IMX1-HOST1 155.836\n"

    def test_caget_prints_a_zero_value(self, capsys):
        assert main(["caget", "IMX:DIO:bit0", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        assert capsys.readouterr().out == "IMX:DIO:bit0 0.0\n"

    def test_caget_takes_no_value(self, capsys):
        # caget's parser is its own: the value argument of a write is not among its arguments.
        with pytest.raises(SystemExit) as excinfo:
            main(["caget", "IMX:DMC4:m2", "0.5", "--config", SCENARIO_C])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: 0.5" in capsys.readouterr().err

    def test_caget_without_relay_hits_last_binder_limit(self, capsys):
        assert main(["caget", "IMX:DMC4:m1", "--config", SCENARIO_A, "--log", "quiet"]) == 1
        assert "IMX:DMC4:m1" in capsys.readouterr().err


class TestCagetRealRefusesSimulationSettings:
    # A real name search has no simulated network: a seed or a client host
    # given to it used to be dropped without a word.
    REAL = ["caget", "X", "--transport", "real", "--target", "127.0.0.1:9", "--log", "quiet"]

    @pytest.mark.parametrize("extra", [[], ["--config", SCENARIO_C]], ids=["flag", "flag-and-config"])
    def test_seed(self, extra, capsys):
        assert main([*self.REAL, "--seed", "5", *extra]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_client_host(self, capsys):
        assert main([*self.REAL, "--config", SCENARIO_C]) == 2
        assert "config key 'client.host'" in capsys.readouterr().err

    # It reads only the client section's retry keys; it used to ignore these sections without a word.
    @pytest.mark.parametrize("section", ["topology", "relay", "queries"])
    def test_a_section_only_the_simulation_reads(self, section, config_error):
        assert f"config key '{section}'" in config_error(self.REAL, scenario_c_sections("client", section))

    def test_the_sim_transport_still_defaults_to_seed_zero(self, monkeypatch):
        seeds = []
        build = cli.build_network
        monkeypatch.setattr(cli, "build_network", lambda scenario: seeds.append(scenario.seed) or build(scenario))
        assert main(["caget", "IMX1-HOST1", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        assert seeds == [0]


def test_caput_is_not_a_command(capsys):
    # The relay carries only name searches, and the simulated data circuit only reads.
    with pytest.raises(SystemExit) as excinfo:
        main(["caput", "IMX:DMC4:m2", "0.5", "--config", SCENARIO_C])
    assert excinfo.value.code == 2
    assert "invalid choice: 'caput'" in capsys.readouterr().err


class TestBench:
    def test_bench_records(self, capsys):
        assert main(["bench", "--reps", "30", "--seed", "1", "--format", "records", "--log", "quiet"]) == 0
        samples = parse_records(capsys.readouterr().out)
        assert len(samples) == 30 * 3 * 3

    def test_bench_text_mentions_ordering(self, capsys):
        assert main(["bench", "--reps", "30", "--log", "quiet"]) == 0
        assert "median ordering" in capsys.readouterr().out

    def test_bench_below_the_repetitions_floor_is_config_error(self, capsys):
        assert main(["bench", "--reps", "29", "--log", "quiet"]) == 2
        assert "at least 30 repetitions" in capsys.readouterr().err

    def test_bench_takes_no_config(self, tmp_path, capsys):
        # The benchmark always runs the paper's fixtures; a file would be read for nothing.
        config = tmp_path / "x.yaml"
        config.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--config", str(config)])
        assert excinfo.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestRelayCommand:
    def test_real_spoof_without_privilege_exits_three(self, capsys, monkeypatch):
        real_socket = socket.socket

        def factory(family, type_=socket.SOCK_STREAM, proto=0, *a, **kw):
            if type_ == socket.SOCK_RAW:
                raise PermissionError(1, "Operation not permitted")
            return real_socket(family, type_, proto, *a, **kw)

        monkeypatch.setattr(socket, "socket", factory)
        code = main([
            "relay", "--mode", "spoof",
            "--listen-port", "16164", "--target", "255.255.255.255:5064",
            "--local-subnet", "127.0.0.0/8", "--allow", "10.2.105.0/24", "--bind-ip", "127.0.0.1", "--log", "quiet",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "CAP_NET_RAW" in err

    # Without the loop guard a proxy relay relays its own re-entering broadcast too.
    @pytest.mark.parametrize("mode", ["spoof", "proxy"])
    def test_real_relay_without_local_subnet_is_config_error(self, mode, capsys, monkeypatch):
        def factory(*args, **kwargs):
            raise PermissionError(1, "no socket may be created")

        monkeypatch.setattr(socket, "socket", factory)
        code = main([
            "relay", "--mode", mode,
            "--listen-port", "16164", "--target", "255.255.255.255:5064",
            "--allow", "10.2.105.0/24", "--bind-ip", "127.0.0.1", "--log", "quiet",
        ])
        assert code == 2
        assert "local_subnet" in capsys.readouterr().err

    def test_seed_is_rejected(self, capsys):
        # The relay serves real sockets only; there is no network to seed.
        with pytest.raises(SystemExit) as excinfo:
            main(["relay", "--seed", "3", "--target", "255.255.255.255:5064", "--log", "quiet"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_real_relay_without_target_is_config_error(self, capsys):
        assert main(["relay", "--allow", "10.2.105.0/24", "--log", "quiet"]) == 2


@pytest.fixture
def config_error(tmp_path, capsys, monkeypatch):
    """Runs main with the argv and YAML text given; checks that it exits 2
    with no traceback and before creating any socket; returns stderr."""
    attempts = []

    def refuse(*args, **kwargs):
        attempts.append(args)
        raise PermissionError(1, "no socket may be created")

    monkeypatch.setattr(socket, "socket", refuse)

    def run(argv, text=None):
        if text is not None:
            config = tmp_path / "bad.yaml"
            config.write_text(text)
            argv = [*argv, "--config", str(config)]
        assert main([*argv, "--log", "quiet"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert attempts == []
        return err

    return run


def test_sim_names_an_unowned_helper_destination_before_running(config_error):
    # It used to surface as a routing error once the first search was sent.
    text = (CONFIG_DIR / "scenario_a.yaml").read_text()
    owned = "destinations: [10.2.1.31]"
    assert owned in text
    err = config_error(["sim"], text.replace(owned, "destinations: [10.2.1.31, 10.2.1.250]"))
    assert "'topology.helpers[0].destinations[1]'" in err


def test_sim_names_a_relay_host_without_interfaces(config_error):
    # It used to end in an IndexError traceback and exit 1, the query-timeout code.
    data = yaml.safe_load((CONFIG_DIR / "scenario_c.yaml").read_text())
    host2 = data["topology"]["hosts"][1]
    assert host2["name"] == "IMX1-HOST2"
    host2["interfaces"] = []
    for ioc in data["topology"]["iocs"]:
        ioc["host"] = "IMX1-HOST1"
    data["relay"]["host"] = "IMX1-HOST2"
    err = config_error(["sim"], yaml.safe_dump(data))
    assert "'topology.hosts[1].interfaces'" in err


@pytest.mark.parametrize("argv", [
    ["caget", "p" * 61, "--config", SCENARIO_C],
    ["caget", "p" * 61, "--transport", "real"],
    ["caget", "", "--config", SCENARIO_C],
], ids=["caget-too-long", "caget-real-too-long", "caget-empty"])
def test_client_names_a_pv_argument_a_search_cannot_carry(argv, config_error):
    # Each used to end in a traceback and exit 1, the timeout code, or in an error naming no key.
    assert "config key 'pv'" in config_error(argv)


@pytest.mark.parametrize("argv", [
    ["caget", "PV:1", "--transport", "real", "--target", "nohost:5064"],
    ["caget", "PV:1", "--transport", "real", "--target", "255.255.255.255:5064", "--target", "10.2.1:5064"],
], ids=["caget-host-name", "caget-second-target-short"])
def test_client_names_a_target_that_is_no_address(argv, config_error):
    # It used to end in a socket.gaierror traceback and exit 1, the timeout code.
    assert "config key '--target': not an IPv4 address" in config_error(argv)


def test_sim_names_a_query_pv_a_search_cannot_carry(config_error):
    data = yaml.safe_load((CONFIG_DIR / "scenario_c.yaml").read_text())
    data["queries"][1]["pv"] = "p" * 61
    assert "'queries[1].pv'" in config_error(["sim"], yaml.safe_dump(data))


RELAY = ["relay", "--mode", "proxy", "--bind-ip", "127.0.0.1"]
TARGET = ["--target", "255.255.255.255:5064"]
ALLOW = ["--allow", "10.2.105.0/24"]
RELAY_SECTION = "relay:\n  target_broadcast: 255.255.255.255\n"
LOOPBACK = "127.0.0.0/8"  # a local subnet that contains RELAY's --bind-ip


class TestBadValuesAreConfigErrors:
    # Each value used to end in a traceback, or in a relay that died at its
    # first search or expiry tick; a flag is checked as the key it sets.
    @pytest.mark.parametrize(
        "argv, text",
        [
            pytest.param([*RELAY, *TARGET, "--allow", "999.1.1.1/8"], None, id="flag"),
            pytest.param(RELAY, RELAY_SECTION + "  allow: [999.1.1.1/8]\n", id="yaml"),
        ],
    )
    def test_allow(self, argv, text, config_error):
        assert "'relay.allow[0]'" in config_error(argv, text)

    # With no allow prefix classify accepts every source outside local_subnet,
    # so a spoof relay used to rebroadcast any sender's search with its source kept.
    @pytest.mark.parametrize(
        "argv, text",
        [
            pytest.param([*RELAY, *TARGET, "--local-subnet", LOOPBACK], None, id="flag"),
            pytest.param(RELAY, RELAY_SECTION + f"  local_subnet: {LOOPBACK}\n  allow: []\n", id="yaml"),
            pytest.param(["relay", "--mode", "spoof", "--bind-ip", "127.0.0.1", *TARGET, "--local-subnet", LOOPBACK],
                         None, id="spoof"),
        ],
    )
    def test_a_relay_without_an_allow_prefix(self, argv, text, config_error):
        assert "'relay.allow'" in config_error(argv, text)

    @pytest.mark.parametrize(
        "argv, text",
        [
            pytest.param([*RELAY, *TARGET, "--local-subnet", "10.0.0.300/24"], None, id="flag"),
            pytest.param(RELAY, RELAY_SECTION + "  local_subnet: 10.0.0.300/24\n", id="yaml"),
        ],
    )
    def test_local_subnet(self, argv, text, config_error):
        assert "'relay.local_subnet'" in config_error(argv, text)

    @pytest.mark.parametrize(
        "argv, text",
        [
            pytest.param([*RELAY, "--local-subnet", LOOPBACK, "--target", "999.1.1.1:5064"], None, id="flag"),
            pytest.param(RELAY, f"relay:\n  target_broadcast: 999.1.1.1\n  local_subnet: {LOOPBACK}\n", id="yaml"),
            # A short form converts, but names no interface: the simulator
            # used to stop mid-run, and the real relay to open its sockets.
            pytest.param([*RELAY, "--local-subnet", LOOPBACK, "--target", "10.2.511:5064"], None, id="short-flag"),
            pytest.param(RELAY, f"relay:\n  target_broadcast: 10.2.511\n  local_subnet: {LOOPBACK}\n", id="short-yaml"),
        ],
    )
    def test_target_broadcast(self, argv, text, config_error):
        err = config_error(argv, text)
        assert "'relay.target_broadcast'" in err
        assert "target_broadcast must be an IPv4 address" in err

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_flow_idle_timeout(self, value, config_error):
        text = RELAY_SECTION + f"  local_subnet: {LOOPBACK}\n  flow_idle_timeout: {value}\n"
        assert "'relay.flow_idle_timeout'" in config_error(RELAY, text)

    def test_initial_retry(self, config_error):
        text = "client:\n  initial_retry: .inf\n"
        assert "'client.initial_retry'" in config_error(["sim"], text)

    def test_backoff_factor_whose_waits_overflow(self, config_error):
        text = "client:\n  backoff_factor: 1.0e+200\n"
        assert "'client.backoff_factor'" in config_error(["sim"], text)

    # In either mode local_subnet is the loop guard: a relay bound outside it
    # would relay its own broadcasts. These used to open the listen socket.
    @pytest.mark.parametrize("argv, text, key", [
        (["relay", "--mode", "spoof", "--local-subnet", "192.0.2.0/24", "--bind-ip", "127.0.0.1", *TARGET, *ALLOW],
         None, "relay.local_subnet"),
        ([*RELAY, *TARGET, *ALLOW, "--local-subnet", "192.0.2.0/24"], None, "relay.local_subnet"),
        (["relay", "--bind-ip", "127.0.0.1", *ALLOW], RELAY_SECTION + "  mode: spoof\n  local_subnet: 192.0.2.0/24\n",
         "relay.local_subnet"),
        ([*RELAY, *TARGET, *ALLOW, "--local-subnet", LOOPBACK, "--bind-ip", "localhost"], None, "--bind-ip"),
        (["relay", "--mode", "spoof", "--local-subnet", "127.0.0.0/8", "--bind-ip", "127.1", *TARGET, *ALLOW],
         None, "--bind-ip"),
    ], ids=["spoof-flag", "proxy-flag", "spoof-yaml", "host-name", "short-quad"])
    def test_bind_ip(self, argv, text, key, config_error):
        assert f"'{key}'" in config_error(argv, text)

    def test_the_wildcard_bind_address_is_not_refused(self):
        # Which interfaces 0.0.0.0 stands for is looked up once its socket is bound, and warned about.
        config = RelayConfig("255.255.255.255", mode=RelayMode.SPOOF, local_subnet=Cidr("192.0.2.0", 24))
        cli._check_bind_ip("0.0.0.0", config)

    # The relay on real sockets has no topology to place itself in or to
    # install a redirect on; it used to serve and ignore these keys.
    @pytest.mark.parametrize("line, key", [
        ("host: NOPE", "relay.host"),
        ("install_prerouting: true", "relay.install_prerouting"),
        ("install_prerouting: false", "relay.install_prerouting"),
    ])
    def test_simulation_only_relay_keys(self, line, key, config_error):
        assert f"'{key}'" in config_error(RELAY, RELAY_SECTION + f"  {line}\n")

    # It reads only the relay section; it used to check these sections and then ignore them.
    @pytest.mark.parametrize("section", ["topology", "client", "queries"])
    def test_a_section_only_the_simulation_reads(self, section, config_error):
        text = RELAY_SECTION + f"  local_subnet: {LOOPBACK}\n" + scenario_c_sections(section)
        assert f"config key '{section}'" in config_error(RELAY, text)

    # Every relay has the loop guard: without it the simulated relay of
    # scenario C relays its own re-entering broadcasts.
    @pytest.mark.parametrize("argv, text", [
        (RELAY, RELAY_SECTION),
        (["sim"], (CONFIG_DIR / "scenario_c.yaml").read_text().replace("  local_subnet: 10.2.1.0/24\n", "")),
    ], ids=["relay", "sim"])
    def test_a_relay_section_without_local_subnet(self, argv, text, config_error):
        assert "'relay.local_subnet': required key missing" in config_error(argv, text)


def relay_args(*argv):
    return cli.build_parser().parse_args(["relay", *argv])


def test_flags_and_equivalent_yaml_give_equal_relay_configs(tmp_path):
    flags = [
        "--listen-port", "7064", "--target", "10.2.1.255:5065", "--allow", "10.2.105.0/24",
        "--allow", "10.3.0.0/16", "--local-subnet", "10.2.1.0/24", "--mode", "proxy",
    ]
    text = (
        "relay:\n  listen_port: 7064\n  target_broadcast: 10.2.1.255\n  target_port: 5065\n"
        "  allow: [10.2.105.0/24, 10.3.0.0/16]\n  local_subnet: 10.2.1.0/24\n  mode: proxy\n"
    )
    config = tmp_path / "relay.yaml"
    config.write_text(text)
    from_flags = cli._relay_config(relay_args(*flags))
    from_yaml = cli._relay_config(relay_args("--config", str(config)))
    assert from_flags == from_yaml == parse_config(text).relay
    # A flag replaces only the key it sets.
    overridden = cli._relay_config(relay_args("--config", str(config), "--listen-port", "8064"))
    assert overridden == dataclasses.replace(from_yaml, listen_port=8064)


# A value for each relay flag that sets a relay config key, none of them the default.
RELAY_FLAG_SAMPLES = {
    "--listen-port": "7064",
    "--target": "10.2.1.255:5065",
    "--allow": "10.2.105.0/24",
    "--local-subnet": "10.2.1.0/24",
    "--mode": "proxy",
}


def test_every_relay_flag_sets_a_key_the_validator_accepts():
    # A new relay flag fails here until it sets a relay key, so no flag can
    # bypass config_from_mapping.
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [
        action.option_strings[0]
        for action in subparsers.choices["relay"]._actions
        if action.option_strings and action.dest not in {"help", "config", "log", "bind_ip"}
    ]
    assert sorted(options) == sorted(RELAY_FLAG_SAMPLES)
    base = {"target_broadcast": "255.255.255.255", "local_subnet": LOOPBACK}
    default = config_from_mapping({"relay": base}).relay
    for option in options:
        keys = cli._relay_flag_keys(relay_args(option, RELAY_FLAG_SAMPLES[option]))
        assert keys, option
        assert config_from_mapping({"relay": {**base, **keys}}).relay != default, option


class TestWildcardBind:
    # A relay bound to 0.0.0.0 receives on every interface; local_subnet is its
    # loop guard only if one of them lies inside it.
    @pytest.mark.parametrize("addresses, warned", [
        (["127.0.0.1", "192.0.2.7"], False),
        (["127.0.0.1", "10.2.1.31"], True),
        ([], True),
    ], ids=["inside", "outside", "no-addresses"])
    def test_warns_when_no_interface_lies_in_local_subnet(self, addresses, warned, monkeypatch, caplog):
        monkeypatch.setattr(cli, "_interface_addresses", lambda sock: addresses)
        cli._check_wildcard_bind(RelayConfig("255.255.255.255", local_subnet=Cidr("192.0.2.0", 24)), None)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert bool(warnings) == warned
        if warned:
            assert "relay.local_subnet 192.0.2.0/24 contains none of" in warnings[0]

    def test_the_lookup_reads_the_loopback_address(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            assert "127.0.0.1" in cli._interface_addresses(sock)

    def test_relay_looks_up_on_its_own_listen_socket(self, monkeypatch, caplog):
        sockets = []

        def lookup(sock):
            sockets.append(sock.getsockname())
            return ["127.0.0.1"]

        monkeypatch.setattr(cli, "_interface_addresses", lookup)
        monkeypatch.setattr(cli.Relay, "serve", lambda relay, stop: None)
        monkeypatch.setattr(cli.signal, "signal", lambda signum, handler: None)
        code = main([
            "relay", "--mode", "proxy", "--listen-port", "17364", "--target", "127.0.0.1:5064",
            "--allow", "10.2.105.0/24",
            "--local-subnet", "192.0.2.0/24", "--log", "quiet",
        ])
        assert code == 0
        assert sockets == [("0.0.0.0", 17364)]
        assert any("contains none of this host's interface addresses (127.0.0.1)" in r.getMessage()
                   for r in caplog.records)

    def test_a_failed_lookup_is_logged_and_the_relay_serves(self, monkeypatch, caplog):
        def lookup(sock):
            raise OSError("if_nameindex failed")

        served = []
        monkeypatch.setattr(cli, "_interface_addresses", lookup)
        monkeypatch.setattr(cli.Relay, "serve", lambda relay, stop: served.append(True))
        monkeypatch.setattr(cli.signal, "signal", lambda signum, handler: None)
        assert main([
            "relay", "--mode", "proxy", "--listen-port", "17366", "--target", "127.0.0.1:5064",
            "--allow", "10.2.105.0/24",
            "--local-subnet", "192.0.2.0/24", "--log", "quiet",
        ]) == 0
        assert served == [True]
        assert any("cannot read this host's interface addresses" in r.getMessage() for r in caplog.records)

    def test_a_bound_address_is_not_looked_up(self, monkeypatch):
        monkeypatch.setattr(cli, "_interface_addresses", lambda sock: pytest.fail("looked up"))
        monkeypatch.setattr(cli.Relay, "serve", lambda relay, stop: None)
        monkeypatch.setattr(cli.signal, "signal", lambda signum, handler: None)
        assert main([
            "relay", "--mode", "proxy", "--listen-port", "17365", "--target", "127.0.0.1:5064",
            "--allow", "10.2.105.0/24",
            "--local-subnet", "127.0.0.0/8", "--bind-ip", "127.0.0.1", "--log", "quiet",
        ]) == 0


def test_a_key_given_twice_in_the_relay_config_is_a_parse_error(config_error):
    text = (CONFIG_DIR / "scenario_c.yaml").read_text()
    once = "  listen_port: 6064\n"
    assert text.count(once) == 1
    err = config_error(["relay"], text.replace(once, once + "  listen_port: 7001\n"))
    line = text[: text.index(once)].count("\n") + 2
    assert f"config parse error at line {line}: " in err
    assert "found duplicate key 'listen_port'" in err
