"""README's performance table against the committed benchmark records it
cites: each row's "`wall_s` now" is recomputed from its file."""

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
        source = re.fullmatch(r"`(BENCH_\w+\.json)`", cells[-1]).group(1)
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
