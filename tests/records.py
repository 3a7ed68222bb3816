"""Reads back the records report that ``carelay.bench.emit_report`` writes."""

from carelay.bench import RECORD_HEADER, Sample


def parse_records(text: str) -> list[Sample]:
    lines = text.splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError("missing record header")
    samples = []
    for line in lines[1:]:
        scenario, arm, query, outcome, latency = line.split("\t")
        samples.append(Sample(scenario, arm, query, outcome, None if latency == "-" else int(latency)))
    return samples
