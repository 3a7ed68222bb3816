"""The benchmark pairs command and recorder (tools/), fed canned perfbench output: no benchmark runs here."""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import bench_record  # noqa: E402

METRICS = {"searches_per_cpu_s": "1/s", "rtt_p50_us": "us", "setup_s": "s"}


def canned_output(values: dict, failed: int = 0, attempted: int = 1000) -> str:
    """Stdout as ``perfbench/run.py`` prints it: metric lines, the env line, then one JSON result line."""
    lines = [f"{name:<42} {values[name]:>16.6g} {unit}" for name, unit in METRICS.items()]
    lines += [f"{'attempted':<42} {attempted:>16d}", f"{'failed':<42} {failed:>16d}  (failed_frac 0)"]
    lines.append("env " + json.dumps({"generator_saturated": True, "python": "3.11.7"}, sort_keys=True))
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()},
    }
    return "\n".join(lines + [json.dumps(result)]) + "\n"


VALUES = {"searches_per_cpu_s": 42000.0, "rtt_p50_us": 66.5, "setup_s": 0.125}
CRASHED = "searches_per_cpu_s 1 1/s\nTraceback (most recent call last):\nRuntimeError: boom\n"


class TestParse:
    def test_env_and_result_lines(self):
        run = ab.parse_output(canned_output(VALUES), 0)
        assert run["env"] == {"generator_saturated": True, "python": "3.11.7"}
        assert run["result"]["failed"] == 0
        assert ab.metric_values(run) == VALUES
        assert ab.problem(run) is None

    @pytest.mark.parametrize("stdout, code, why", [
        (canned_output(VALUES, failed=1), 1, "exited 1"),
        (canned_output(VALUES, failed=1), 0, "failed 1 of 1000"),
        (CRASHED, 1, "exited 1"),
        (CRASHED, 0, "printed no result line"),
    ], ids=["failed-and-exit-1", "failed-alone", "crashed", "no-result"])
    def test_a_run_that_does_not_count(self, stdout, code, why):
        assert ab.problem(ab.parse_output(stdout, code)) == why

    def test_a_crashed_run_has_no_env_or_result(self):
        run = ab.parse_output(CRASHED, 1)
        assert (run["env"], run["result"]) == (None, None)


def test_summary_counts_pairs_won_in_each_metrics_direction():
    parent = [{"rtt_p50_us": v, "searches_per_cpu_s": s} for v, s in ((66.0, 100), (67.0, 104), (65.0, 98), (68, 102))]
    change = [{"rtt_p50_us": v, "searches_per_cpu_s": s} for v, s in ((61.0, 101), (62.0, 99), (66.0, 100), (60, 102))]
    rows = {r["metric"]: r for r in ab.summarize(
        list(zip(parent, change)), {"rtt_p50_us": "lower", "searches_per_cpu_s": "higher"}
    )}
    rtt = rows["rtt_p50_us"]
    assert (rtt["won"], rtt["pairs"]) == (3, 4)
    assert rtt["parent_iqr"] == (65.25, 67.75)
    assert rtt["beyond_iqr"]  # medians 66.5 and 61.5 differ by 5.0, the IQR is 2.5 wide
    assert rtt["parent"] == [66.0, 67.0, 65.0, 68.0]
    cpu = rows["searches_per_cpu_s"]
    assert cpu["won"] == 2  # a tie is not a win
    assert not cpu["beyond_iqr"]  # medians 101 and 100.5, IQR 98.5-103.5
    assert "3/4  65.25-67.75" in ab.format_rows([rtt])


def fake_tree(path: Path) -> Path:
    """A tree with the repository's BENCHMARK.json and compare.py, and nothing to benchmark."""
    (path / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    shutil.copy(ROOT / "perfbench" / "compare.py", path / "perfbench" / "compare.py")
    return path


def test_pairs_alternate_and_feed_compare(tmp_path, monkeypatch, capfd):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        assert (seconds, trace) == (25, 0)  # BENCHMARK.json's run_seconds, untraced
        calls.append((tree.name, seed))
        rtt = 66.0 if tree.name == "parent" else 61.0
        return 0, canned_output({**VALUES, "rtt_p50_us": rtt + len(calls) / 100}), ""

    monkeypatch.setattr(ab, "run_perfbench", fake_run)
    code = ab.main([str(parent), str(change), "--workload", "proxy_flows", "--pairs", "3", "--seeds", "7,3",
                    "--out", str(tmp_path / "out")])
    assert code == 0
    assert [name for name, _ in calls[:6]] == ["parent", "change", "change", "parent", "parent", "change"]
    assert [seed for _, seed in calls] == [7] * 6 + [3] * 6
    lines = (tmp_path / "out" / "proxy_flows-seed3-change.jsonl").read_text().splitlines()
    assert len(lines) == 3 and json.loads(lines[0])["metrics"]["rtt_p50_us"]["value"] > 61
    out = capfd.readouterr().out
    assert "3/3" in out  # the change won every rtt pair
    assert "verdict" in out  # compare.py's header


def test_trees_whose_run_seconds_differ_are_refused(tmp_path, monkeypatch, capsys):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    spec = json.loads((change / "BENCHMARK.json").read_text())
    (change / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 8}))
    monkeypatch.setattr(ab, "run_perfbench", lambda *args: pytest.fail("no run may start"))
    with pytest.raises(SystemExit) as exited:
        ab.main([str(parent), str(change), "--workload", "proxy_flows", "--pairs", "1"])
    assert exited.value.code == 2
    assert "run_seconds differs: 25 in the parent, 8 in the change" in capsys.readouterr().err


def test_a_pooled_table_follows_the_seeds(tmp_path, monkeypatch, capfd):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    rtts = {("parent", 7): iter([60.0, 61.0, 62.0]), ("change", 7): iter([59.0, 60.0, 63.0]),
            ("parent", 3): iter([70.0, 71.0, 72.0]), ("change", 3): iter([69.0, 70.0, 71.0])}
    monkeypatch.setattr(ab, "run_perfbench", lambda tree, workload, seed, seconds, trace: (
        0, canned_output({**VALUES, "rtt_p50_us": next(rtts[tree.name, seed])}), ""))
    code = ab.main([str(parent), str(change), "--workload", "proxy_flows", "--pairs", "3", "--seeds", "7,3",
                    "--out", str(tmp_path / "out")])
    assert code == 0
    out = capfd.readouterr().out
    pooled = out[out.index("== proxy_flows, all seeds pooled, 6 pairs of 25 s"):]
    rtt = next(line for line in pooled.splitlines() if line.startswith("rtt_p50_us"))
    # 2 of 3 pairs won at seed 7 and 3 of 3 at seed 3; the IQR spans all six parent runs.
    assert rtt.split()[1:3] == ["5/6", "60.75-71.25"]
    assert "    parent 60 61 62 70 71 72" in pooled
    assert "2/3" in out[:out.index("== proxy_flows, seed 3")]


def test_one_seed_pools_to_its_own_table(tmp_path, monkeypatch, capfd):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    rtts = iter([60.0, 59.0, 61.0, 62.0])
    monkeypatch.setattr(ab, "run_perfbench", lambda *args: (0, canned_output({**VALUES, "rtt_p50_us": next(rtts)}), ""))
    code = ab.main([str(parent), str(change), "--workload", "sim_paper", "--pairs", "2", "--seeds", "7",
                    "--out", str(tmp_path / "out")])
    assert code == 0
    out = capfd.readouterr().out
    head = "== sim_paper, all seeds pooled, 2 pairs of 25 s\n"
    assert out.count(head) == 1
    table = out[out.index(head) + len(head):].rstrip("\n")
    assert table in out[:out.index(head)]  # the seed's own table, row for row


def test_a_failed_run_leaves_its_pair_out(tmp_path, monkeypatch):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    runs = iter([canned_output(VALUES), canned_output(VALUES, failed=1), canned_output(VALUES), canned_output(VALUES)])
    monkeypatch.setattr(ab, "run_perfbench", lambda *args: (0, next(runs), ""))
    code = ab.main([str(parent), str(change), "--workload", "sim_paper", "--pairs", "2", "--seeds", "7",
                    "--out", str(tmp_path / "out")])
    assert code == 1
    assert len((tmp_path / "out" / "sim_paper-seed7-parent.jsonl").read_text().splitlines()) == 1


def test_a_failed_pair_is_left_out_of_the_pool(tmp_path, monkeypatch, capfd):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    runs = iter([canned_output({**VALUES, "rtt_p50_us": 50.0}), canned_output(VALUES, failed=1),
                 canned_output({**VALUES, "rtt_p50_us": 60.0}), canned_output({**VALUES, "rtt_p50_us": 59.0})])
    monkeypatch.setattr(ab, "run_perfbench", lambda *args: (0, next(runs), ""))
    code = ab.main([str(parent), str(change), "--workload", "sim_paper", "--pairs", "2", "--seeds", "7",
                    "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capfd.readouterr()
    pooled = captured.out[captured.out.index("== sim_paper, all seeds pooled, 1 pairs of 25 s"):]
    # Pair 2 runs the change first; the failed pair's parent run, 50, is not pooled.
    assert "    parent 59\n    change 60\n" in pooled
    assert "error: " in captured.err


class TestRecorder:
    def run(self, tmp_path, monkeypatch, bad: tuple[str, int] | None):
        tree = fake_tree(tmp_path / "tree")  # not a git checkout: its commit is given
        monkeypatch.setattr(bench_record, "git_state", lambda tree: {"git_sha": "c0ffee", "git_dirty": False})

        def fake_run(tree, workload, seed, seconds, trace):
            assert seconds == 25  # BENCHMARK.json's run_seconds
            if (workload, trace) == bad:
                return 1, canned_output(VALUES, failed=1), ""
            return 0, canned_output(VALUES), ""

        monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
        out = tmp_path / "BENCH.json"
        code = bench_record.main(["--out", str(out), "--tree", str(tree)])
        return code, json.loads(out.read_text())

    def test_every_workload_untraced_and_traced_at_each_seed(self, tmp_path, monkeypatch):
        code, recorded = self.run(tmp_path, monkeypatch, bad=None)
        assert code == 0
        assert recorded["nproc"] >= 1 and recorded["python"].count(".") == 2
        assert (recorded["git_sha"], recorded["git_dirty"]) == ("c0ffee", False)
        assert recorded["code_sha256"] == bench_record.code_sha256(tmp_path / "tree")
        keys = [(r["workload"], r["trace"], r["seed"]) for r in recorded["runs"]]
        assert keys == [(w, t, s) for w in ("proxy_flows", "spoof_batched", "sim_paper") for t in (0, 1) for s in (7, 3)]
        run = recorded["runs"][0]
        assert run["returncode"] == 0 and run["env"]["python"] == "3.11.7" and run["result"]["failed"] == 0

    def test_a_failed_run_makes_it_exit_non_zero(self, tmp_path, monkeypatch):
        code, recorded = self.run(tmp_path, monkeypatch, bad=("spoof_batched", 1))
        assert code == 1
        failed = [r for r in recorded["runs"] if r["result"]["failed"]]
        assert [(r["workload"], r["trace"], r["returncode"]) for r in failed] == [("spoof_batched", 1, 1)] * 2

    def test_a_tree_git_cannot_name_is_refused(self, tmp_path, monkeypatch, capsys):
        tree = fake_tree(tmp_path / "tree")
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no checkout above the tree either
        monkeypatch.setattr(bench_record, "run_perfbench", lambda *args: pytest.fail("no run may start"))
        out = tmp_path / "BENCH.json"
        assert bench_record.main(["--out", str(out), "--tree", str(tree)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: git rev-parse HEAD failed in {tree}: " in err
        assert "a recording must name its commit, so none is written" in err

    def test_the_code_hash_names_the_code_that_ran(self, tmp_path):
        tree = fake_tree(tmp_path / "tree")
        (tree / "src").mkdir()
        (tree / "src" / "relay.py").write_text("LISTEN_DRAIN_CAP = 64\n")
        before = bench_record.code_sha256(tree)
        (tree / "CHANGES.md").write_text("not code\n")
        assert bench_record.code_sha256(tree) == before
        (tree / "src" / "relay.py").write_text("LISTEN_DRAIN_CAP = 32\n")
        assert bench_record.code_sha256(tree) != before

    def test_a_fresh_copy_has_no_bytecode(self, tmp_path):
        tree = fake_tree(tmp_path / "tree")
        (tree / "perfbench" / "__pycache__").mkdir()
        (tree / "perfbench" / "__pycache__" / "compare.cpython-311.pyc").write_bytes(b"")
        copy = ab.fresh_copy(tree, tmp_path / "copy")
        assert (copy / "perfbench" / "compare.py").is_file()
        assert not (copy / "perfbench" / "__pycache__").exists()


RECORDED_RUNS = [(w, t, s) for w in ("proxy_flows", "spoof_batched", "sim_paper") for t in (0, 1) for s in bench_record.SEEDS]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_every_recorded_benchmark_holds_the_recorders_passing_runs(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert [(r["workload"], r["trace"], r["seed"]) for r in runs] == RECORDED_RUNS
    for run in runs:
        assert (run["returncode"], run["result"]["correct"], run["result"]["failed"]) == (0, True, 0), run["workload"]
