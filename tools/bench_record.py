"""Record the benchmark of one tree into a JSON file.

    python3 tools/bench_record.py --out BENCH_31.json [--tree .]

Runs ``perfbench/run.py`` on every workload that the tree's BENCHMARK.json
declares, untraced and traced, at seeds 7 and 3, each run as long as its
``run_seconds`` and in a fresh copy of the tree as ``tools/ab.py`` makes it.
The file holds the tree's git commit, whether it had uncommitted changes, the
``code_sha256`` of the code that ran, ``nproc``, the Python version, and for
each run its arguments, exit code, ``env`` line and last JSON line. The
copies carry no git metadata, so each ``env`` line reads ``git_sha``
"unknown"; the top-level fields name the code. It warns when the tree has
uncommitted changes, and refuses a tree that git cannot name: it exits 2,
says why and writes no file. Otherwise the file is written in every case;
the script exits 1 if any run exited non-zero or reported ``failed`` > 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from ab import benchmark_spec, parse_output, problem, run_perfbench

SEEDS = (7, 3)


class UnnamedTree(Exception):
    """git cannot name the tree's commit; the message says why."""


def git_state(tree: Path) -> dict:
    """The tree's HEAD commit and whether it has uncommitted changes; ``UnnamedTree`` where git cannot tell."""
    def git(*argv: str) -> str:
        done = subprocess.run(["git", *argv], cwd=tree, capture_output=True, text=True, check=False)
        if done.returncode:
            raise UnnamedTree(f"git {' '.join(argv)} failed in {tree}: {done.stderr.strip()}")
        return done.stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def code_sha256(tree: Path) -> str:
    """sha256 over the path and bytes of every ``.py`` file under ``src/`` and ``perfbench/``."""
    digest = hashlib.sha256()
    for path in sorted(p for top in ("src", "perfbench") for p in (tree / top).rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def record(tree: Path) -> dict:
    state = {**git_state(tree), "code_sha256": code_sha256(tree)}
    if state["git_dirty"]:
        print(f"warning: uncommitted changes over {state['git_sha']}; "
              f"code_sha256 {state['code_sha256']} names the code measured", file=sys.stderr)
    spec = benchmark_spec(tree)
    seconds = spec["run_seconds"]
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            for seed in SEEDS:
                code, stdout, _ = run_perfbench(tree, workload, seed, seconds, trace)
                run = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                       **parse_output(stdout, code)}
                print(f"{workload} trace {trace} seed {seed}: {problem(run) or 'ok'}", file=sys.stderr)
                runs.append(run)
    return {
        **state,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    try:
        recorded = record(args.tree.resolve())
    except UnnamedTree as exc:
        print(f"error: {exc}; a recording must name its commit, so none is written", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failures = [(r, problem(r)) for r in recorded["runs"] if problem(r)]
    for run, why in failures:
        print(f"error: {run['workload']} trace {run['trace']} seed {run['seed']}: {why}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
