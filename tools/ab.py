"""Alternating pairs of benchmark runs: a parent tree against a changed tree.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seeds 7,3 [--out DIR]

Every run executes ``perfbench/run.py --trace 0`` as a subprocess in a fresh
copy of its tree, without ``__pycache__`` and with
``PYTHONDONTWRITEBYTECODE=1``, so no run reuses bytecode that another
compiled. Each run lasts the ``run_seconds`` of BENCHMARK.json, which must be
the same in both trees. Odd pairs run the parent first, even pairs the
change. For each seed the script writes the last JSON line of each run to
``OUT/<workload>-seed<S>-parent.jsonl`` and ``...-change.jsonl`` and runs the
change tree's ``perfbench/compare.py`` on the two, which prints the medians
and the bound verdicts. Before that it prints what compare.py does not: per
metric, the pairs the change won, the parent's interquartile range, whether
the medians differ by more than that range, and the raw figures. After the
last seed it prints the same table once more over the pairs of every seed
pooled: the pairs won out of all pairs run, and the IQR of all parent runs,
which are the figures a claim over all seeds is judged by. It exits 1 if any
run exited non-zero or reported ``failed`` > 0.

The helpers here are shared with ``tools/bench_record.py``; neither script
imports anything from ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SKIPPED = shutil.ignore_patterns("__pycache__", ".git", ".pytest_cache", ".hypothesis")


def fresh_copy(tree: Path, dest: Path) -> Path:
    """A copy of tree at dest without bytecode caches or git metadata."""
    shutil.copytree(tree, dest, ignore=SKIPPED)
    return dest


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``perfbench/run.py`` run in a fresh copy of tree."""
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        copy = fresh_copy(tree, Path(scratch) / "tree")
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def parse_output(stdout: str, returncode: int) -> dict:
    """The exit code, the ``env`` record and the last JSON line of one run's stdout (None where missing)."""
    env = result = None
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return {"returncode": returncode, "env": env, "result": result}


def problem(run: dict) -> str | None:
    """Why a parsed run does not count, or None when it does."""
    if run["returncode"] != 0:
        return f"exited {run['returncode']}"
    if run["result"] is None:
        return "printed no result line"
    if run["result"]["failed"] > 0:
        return f"failed {run['result']['failed']} of {run['result']['attempted']}"
    return None


def metric_values(run: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in run["result"]["metrics"].items()}


def benchmark_spec(tree: Path) -> dict:
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))


def directions(spec: dict) -> dict[str, str]:
    """``better`` ("lower" or "higher") of every metric that a BENCHMARK.json declares."""
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """Per metric of (parent, change) metric dicts: pairs won, the parent's IQR, whether the medians
    differ by more than it, and the raw figures.

    A pair is won when the change is strictly better in the metric's declared
    direction; a metric without one counts no wins.
    """
    rows = []
    for name in sorted(set.intersection(*(set(p) & set(c) for p, c in pairs))):
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = {"lower": -1, "higher": 1}.get(better.get(name), 0)
        q1, q3 = quartiles(parent)
        rows.append({
            "metric": name,
            "parent_iqr": (q1, q3),
            "beyond_iqr": abs(statistics.median(change) - statistics.median(parent)) > q3 - q1,
            "won": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
            "pairs": len(pairs),
            "parent": parent,
            "change": change,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<42} {'won':>7}  {'parent IQR':<23} {'width':>9}  median gap > IQR"]
    for r in rows:
        q1, q3 = r["parent_iqr"]
        won = f"{r['won']}/{r['pairs']}"
        iqr = f"{q1:.5g}-{q3:.5g}"
        out.append(f"{r['metric']:<42} {won:>7}  {iqr:<23} {q3 - q1:>9.4g}  {'yes' if r['beyond_iqr'] else 'no'}")
        out.append("    parent " + " ".join(f"{v:.5g}" for v in r["parent"]))
        out.append("    change " + " ".join(f"{v:.5g}" for v in r["change"]))
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", default="7,3", help="comma-separated seeds, each run for --pairs pairs")
    parser.add_argument("--out", type=Path, default=Path("ab-out"), help="directory for the JSONL files")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {side: benchmark_spec(tree) for side, tree in trees.items()}
    seconds = specs["change"]["run_seconds"]
    if specs["parent"]["run_seconds"] != seconds:
        parser.error(f"run_seconds differs: {specs['parent']['run_seconds']} in the parent, {seconds} in the change")
    better = directions(specs["change"])
    args.out.mkdir(parents=True, exist_ok=True)
    failures, pooled = [], []
    for seed in (int(s) for s in args.seeds.split(",")):
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                code, stdout, stderr = run_perfbench(trees[side], args.workload, seed, seconds, 0)
                runs[side] = parse_output(stdout, code)
                why = problem(runs[side])
                print(f"seed {seed} pair {i + 1}/{args.pairs} {side}: {why or 'ok'}", file=sys.stderr)
                if why:
                    failures.append(f"seed {seed} pair {i + 1} {side}: {why}\n{stderr[-2000:]}")
            if all(problem(r) is None for r in runs.values()):
                pairs.append((runs["parent"], runs["change"]))
        if not pairs:
            continue
        files = {}
        for side, index in (("parent", 0), ("change", 1)):
            files[side] = args.out / f"{args.workload}-seed{seed}-{side}.jsonl"
            files[side].write_text("".join(json.dumps(p[index]["result"]) + "\n" for p in pairs), encoding="utf-8")
        values = [(metric_values(p), metric_values(c)) for p, c in pairs]
        pooled += values
        print(f"== {args.workload}, seed {seed}, {len(pairs)} pairs of {seconds:g} s")
        print(format_rows(summarize(values, better)))
        sys.stdout.flush()
        compare = trees["change"] / "perfbench" / "compare.py"
        subprocess.run([sys.executable, str(compare), str(files["parent"]), str(files["change"])], check=False)
    if pooled:
        print(f"== {args.workload}, all seeds pooled, {len(pooled)} pairs of {seconds:g} s")
        print(format_rows(summarize(pooled, better)))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
