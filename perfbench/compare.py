"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result lines of ``perfbench/run.py`` (its last stdout line),
one run per line, all of one workload and one ``--trace`` setting. For every
metric the script prints each side's median and quartile spread, and the
change of the median as a share of the base median, signed so that positive
is better. For end-to-end metrics it also gives the bound from
BENCHMARK.json and a verdict: ``worse`` when the change is worse by more
than the bound, ``unresolved`` when the base's own spread exceeds the
bound, ``ok`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            for name, metric in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    print(f"{'metric':<42} {'base':>12} {'spread':>7} {'change':>12} {'spread':>7} {'better':>8}  verdict")
    for name in sorted(set(base) & set(change)):
        meta = declared.get(name, {})
        b, c = statistics.median(base[name]), statistics.median(change[name])
        sign = -1 if meta.get("better") == "lower" else 1
        gain = sign * (c - b) / abs(b) if b else 0.0
        verdict = ""
        if "bound" in meta:
            if spread(base[name]) > meta["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if gain < -meta["bound"] else "ok"
        print(
            f"{name:<42} {b:>12.5g} {spread(base[name]):>7.3f} {c:>12.5g} "
            f"{spread(change[name]):>7.3f} {gain:>+8.3f}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
