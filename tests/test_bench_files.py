"""The committed benchmark lines BENCH_<n>.json: one correct result per change."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", path.name))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_bench_file_is_a_correct_run_of_every_metric(path):
    """`python3 bench/run.py --workload all` prints one key per workload and end-to-end metric."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {f"{workload['name']}.{metric['name']}"
                for workload in declared["workloads"] for metric in declared["end_to_end"]}
    result = json.loads(path.read_text())
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == expected
