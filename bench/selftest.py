"""Checker self-test: every check must reject a corrupted copy of a real output.

Usage, from the root of a checkout:
    python3 bench/selftest.py

Runs one round of each workload through bench/run.py, copies each work
directory, corrupts one thing in the copy, and requires the matching check
to reject it with the expected message; the untouched copy must pass.
Exits 0 only if every corruption is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
import workloads as wl  # noqa: E402
from checks import run_check  # noqa: E402

SEED = 1


def edit_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def edit_csv_cell(path: Path, row: int, column: str, change) -> None:
    """Rewrite one cell of a comment-headed CSV; `row` counts data rows from 0."""
    lines = path.read_text().splitlines()
    data = [k for k, line in enumerate(lines) if line and not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    cells[header.index(column)] = repr(change(float(cells[header.index(column)])))
    lines[data[1 + row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def drop_planted_pair(rows: int, cols: int):
    """Remove both directed edges between the first planted pair of the grid."""

    def change(net: dict) -> None:
        sensor = {n["index"]: n["name"] for n in net["nodes"]}
        a, b = wl.neighbour_pairs(rows, cols)[0]
        names = {f"s{a}_lat", f"s{b}_lat"}
        net["edges"] = [e for e in net["edges"]
                        if {sensor[e["source"]], sensor[e["target"]]} != names]

    return change


def weight_below_threshold(net: dict) -> None:
    net["edges"][0]["weight"] = net["edges"][0]["threshold"] - 1e-6


def swap_fit_errors(report: dict) -> None:
    ch = report["channels"][0]
    ch["l1_error_normal"], ch["l1_error_laplace"] = ch["l1_error_laplace"], ch["l1_error_normal"]


def drop_retained(diff: dict) -> None:
    diff["retained"] = diff["retained"][1:]


def laplace_shift(path: Path) -> None:
    edit_csv_cell(path, 0, "mi_raw", lambda v: v + 0.05)


# (name, workload, file under outputs/ or inputs/, corruption, op whose check must fail,
#  expected error text)
BUNDLE = "outputs/bundle"
CASES = [
    ("planted edge dropped", "gaussian-paper", f"{BUNDLE}/healthy/omii_network.json",
     lambda p: edit_json(p, drop_planted_pair(wl.GRID_ROWS, wl.GRID_COLS)), "pipeline", "missing from the skeleton"),
    ("weight set below its threshold", "gaussian-paper", f"{BUNDLE}/damaged/omii_network.json",
     lambda p: edit_json(p, weight_below_threshold), "pipeline", "not above its threshold"),
    ("one MI value shifted by 1e-3", "gaussian-paper", f"{BUNDLE}/healthy/pairwise_mi.csv",
     lambda p: edit_csv_cell(p, 3, "mi_raw", lambda v: v + 1e-3), "pipeline", "expected"),
    ("one MI diff shifted by 1e-9", "gaussian-paper",
     f"{BUNDLE}/diff_healthy_vs_damaged/mi_map_diff.csv",
     lambda p: edit_csv_cell(p, 0, "delta_mi", lambda v: v + 1e-9), "pipeline",
     "comparison - baseline"),
    ("one retained edge dropped from the network diff", "gaussian-paper",
     f"{BUNDLE}/diff_healthy_vs_damaged/network_diff.json",
     lambda p: edit_json(p, drop_retained), "pipeline", "retained edges"),
    ("one degree probability changed", "gaussian-paper",
     f"{BUNDLE}/healthy/degree_distribution.csv",
     lambda p: edit_csv_cell(p, 1, "in_probability", lambda v: v + 1.0 / 30), "pipeline",
     "in-degree"),
    ("one input CSV cell altered", "gaussian-paper", "inputs/healthy.csv",
     lambda p: edit_csv_cell(p, 10, "s1_lat", lambda v: v + 0.5), "pipeline", "expected"),
    ("Laplace MI shifted by 0.05", "laplace-mc", "outputs/mi_healthy.csv",
     laplace_shift, "pairwise-mi-healthy", "expected"),
    ("Laplace row planted edge dropped", "laplace-mc",
     "outputs/row_bundle/damaged/omii_network.json",
     lambda p: edit_json(p, drop_planted_pair(wl.ROW_ROWS, wl.ROW_COLS)), "pipeline-row",
     "missing from the skeleton"),
    ("one generated CSV cell altered", "io-scenarios", "outputs/var-laplace.csv",
     lambda p: edit_csv_cell(p, 100, "s7_lat", lambda v: v + 1e-3), "generate-var-laplace",
     "not standardized"),
    ("fit errors swapped on one channel", "io-scenarios",
     "outputs/contemporaneous-gaussian_fit.json",
     lambda p: edit_json(p, swap_fit_errors), "fit-report-contemporaneous-gaussian",
     "do not fit normal better"),
]


def copied_check(workload: str, op_name: str, seed: int, copy: str) -> dict:
    op = next(op for op in wl.plan(workload, seed) if op["name"] == op_name)
    return json.loads(json.dumps(op["check"]).replace(wl.work_dir(workload), copy))


def main() -> int:
    os.chdir(ROOT)
    for workload in sorted({case[1] for case in CASES}):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0 or not json.loads(done.stdout.splitlines()[-1])["correct"]:
            print(f"FAIL {workload}: the real outputs do not pass\n{done.stderr}")
            return 1

    caught = 0
    for name, workload, rel, corrupt, op_name, expected in CASES:
        copy = f"{wl.WORK_ROOT}/selftest-{workload}"
        shutil.rmtree(ROOT / copy, ignore_errors=True)
        shutil.copytree(ROOT / wl.work_dir(workload), ROOT / copy)
        check = copied_check(workload, op_name, SEED, copy)
        clean = run_check(check)
        corrupt(ROOT / copy / rel)
        errors = run_check(check)
        ok = not clean and any(expected in e for e in errors)
        caught += ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: "
              f"{errors[0] if errors else 'not rejected'}"[:300])
        shutil.rmtree(ROOT / copy)
    print(f"{caught}/{len(CASES)} corruptions rejected")
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
