"""The committed benchmark records under bench/: README's performance table
against the records it cites, each row's "`wall_s` now" recomputed from its
file, and bench/INDEX.md against the files there."""

import json
import re
import statistics
from decimal import Decimal
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def performance_rows():
    """(workload, printed `wall_s` now, cited file) per row of README's
    performance table."""
    text = (REPO / "README.md").read_text()
    lines = text.split("\n| workload | `wall_s` now |", 1)[1].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        workload = re.match(r"`(\w+)`", cells[0]).group(1)
        source = re.fullmatch(r"`(bench/BENCH_\w+\.json)`", cells[-1]).group(1)
        rows.append((workload, cells[1], source))
    return rows


def test_readme_performance_table_matches_its_records():
    # the median of the cited file's untraced seed-42 runs, rounded to the
    # digits the table prints
    rows = performance_rows()
    assert [workload for workload, _, _ in rows] == ["audit", "ladder", "oscillator", "waves"]
    for workload, printed, source in rows:
        record = json.loads((REPO / source).read_text())
        runs = record["runs"][f"{workload}/trace0/seed42"]["metrics"]["wall_s"]["runs"]
        assert len(runs) >= 10, (workload, source)
        median = Decimal(statistics.median(runs))
        assert median.quantize(Decimal(printed)) == Decimal(printed), (workload, source, median)


def test_bench_index_lists_every_record_with_its_label():
    rows = {}
    for line in (REPO / "bench" / "INDEX.md").read_text().splitlines():
        match = re.match(r"\| `(BENCH_\w+\.json)` \| (\w+) \|", line)
        if match:
            rows[match.group(1)] = match.group(2)
    records = sorted(path.name for path in (REPO / "bench").glob("BENCH_*.json"))
    assert sorted(rows) == records
    for name, label in rows.items():
        assert json.loads((REPO / "bench" / name).read_text())["label"] == label, name
