import socket
from pathlib import Path

import pytest

from carelay.bench import parse_records, run_scenario, scenario_a, scenario_b, scenario_c
from carelay.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENARIO_C = str(CONFIG_DIR / "scenario_c.yaml")
SCENARIO_A = str(CONFIG_DIR / "scenario_a.yaml")


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

    @pytest.mark.parametrize("argv", [["caget", "IMX1-HOST1"], ["caput", "IMX1-HOST1", "1.5"]])
    def test_sim_client_takes_a_seed(self, argv, capsys):
        assert main([*argv, "--config", SCENARIO_C, "--seed", "3", "--log", "quiet"]) == 0

    def test_caget_without_relay_hits_last_binder_limit(self, capsys):
        assert main(["caget", "IMX:DMC4:m1", "--config", SCENARIO_A, "--log", "quiet"]) == 1
        assert "IMX:DMC4:m1" in capsys.readouterr().err


class TestCaputSim:
    def test_caput_acks_and_prints(self, capsys):
        assert main(["caput", "IMX:DMC4:m2", "0.5", "--config", SCENARIO_C, "--log", "quiet"]) == 0
        assert capsys.readouterr().out == "IMX:DMC4:m2 0.5\n"

    def test_caput_unknown_pv_times_out(self, capsys):
        assert main(["caput", "NOPE", "1.0", "--config", SCENARIO_C, "--log", "quiet"]) == 1


class TestBench:
    def test_bench_records(self, capsys):
        assert main(["bench", "--reps", "30", "--seed", "1", "--format", "records", "--log", "quiet"]) == 0
        samples = parse_records(capsys.readouterr().out)
        assert len(samples) == 30 * 3 * 3

    def test_bench_text_mentions_ordering(self, capsys):
        assert main(["bench", "--reps", "30", "--log", "quiet"]) == 0
        assert "median ordering" in capsys.readouterr().out


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
            "--local-subnet", "192.0.2.0/24", "--bind-ip", "127.0.0.1", "--log", "quiet",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "CAP_NET_RAW" in err

    def test_real_spoof_without_local_subnet_is_config_error(self, capsys, monkeypatch):
        def factory(*args, **kwargs):
            raise PermissionError(1, "no socket may be created")

        monkeypatch.setattr(socket, "socket", factory)
        code = main([
            "relay", "--mode", "spoof",
            "--listen-port", "16164", "--target", "255.255.255.255:5064",
            "--bind-ip", "127.0.0.1", "--log", "quiet",
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
        assert main(["relay", "--log", "quiet"]) == 2
