"""Self-test of the benchmark's oracle checks: correct outputs pass, corrupted ones fail.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import csv
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import weakquasi  # noqa: E402
import weakquasi.cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _operation(tmp_path: Path, name: str):
    workload = WORKLOADS[name](ROOT, tmp_path / "work", seed=7)
    workload.prepare(weakquasi.cli.main, weakquasi)
    out_dir = tmp_path / "out"
    codes = workload.run(weakquasi.cli.main, 0, out_dir)
    return workload, out_dir, codes


def _edit_cell(path: Path, row_index: int, column: int, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row_index][column] = edit(rows[row_index])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_output_passes(tmp_path, name):
    workload, out_dir, codes = _operation(tmp_path, name)
    assert workload.check(0, out_dir, codes) is None


@pytest.mark.parametrize(
    "name, edit",
    [
        ("shipped_cli", lambda row: repr(float(row[4]) + 1e-9)),
        ("qudit_circuit", lambda row: repr(float(row[4]) + 1e-9)),
        # a correct cell lies within 6 stderr + 10/shots, so this one lies beyond
        ("qudit_sampled", lambda row: repr(float(row[4]) + 13 * float(row[5]) + 2e-5)),
        ("qudit_sampled", lambda row: "nan"),
    ],
)
def test_corrupted_p_weak_value_fails(tmp_path, name, edit):
    workload, out_dir, codes = _operation(tmp_path, name)
    _edit_cell(out_dir / "p_weak.csv", 5, 4, edit)
    error = workload.check(0, out_dir, codes)
    assert error is not None and "p_weak" in error


def test_dropped_row_fails(tmp_path):
    workload, out_dir, codes = _operation(tmp_path, "qudit_circuit")
    path = out_dir / "p_weak.csv"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
    assert "rows" in workload.check(0, out_dir, codes)


def test_corrupted_threshold_fails(tmp_path):
    workload, out_dir, codes = _operation(tmp_path, "shipped_cli")
    path = out_dir / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["thresholds"]["global"] += 1e-5
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert "threshold" in workload.check(0, out_dir, codes)


def test_failed_compare_fails(tmp_path):
    workload, out_dir, codes = _operation(tmp_path, "shipped_cli")
    _edit_cell(workload.ref_dir / "weak_cq.csv", 3, 4, lambda row: repr(float(row[4]) + 1e-9))
    codes = workload.run(weakquasi.cli.main, 1, out_dir)
    assert codes.count(1) == 1
    assert "exit codes" in workload.check(1, out_dir, codes)


def test_operation_that_writes_nothing_fails(tmp_path):
    from run import Runner

    workload = WORKLOADS["shipped_cli"](ROOT, tmp_path / "work", seed=7)
    workload.prepare(weakquasi.cli.main, weakquasi)
    runner = Runner(workload, weakquasi.cli.main, tmp_path / "out")
    assert runner.op()[1]
    # exit code 0 with no files: the previous operation's outputs must not pass for it
    runner.main = lambda argv: 0
    assert not runner.op()[1]
    assert runner.failed == 1
