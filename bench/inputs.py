"""Write one workload's inputs, deterministically from the benchmark seed.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 bench/inputs.py --workload gaussian-paper --seed 7

Records come from miinet's own generators and CSV writer, so the set-up time
includes interpreter start-up and the package import as a user pays them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

from miinet.core import Axis, TimeSeriesMatrix  # noqa: E402
from miinet.estimators import Family  # noqa: E402
from miinet.io import write_timeseries_csv  # noqa: E402
from miinet.synthetic import (  # noqa: E402
    GeneratorSpec,
    coupling_from_edges,
    generate_contemporaneous,
)


def sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def write_grid(path: Path, rows: int, cols: int) -> None:
    lines = ["sensor_index,row,col"]
    lines += [f"{s},{r},{c}" for s, (r, c) in sorted(wl.grid_positions(rows, cols).items())]
    path.write_text("\n".join(lines) + "\n")


def scenario_record(
    rows: int, cols: int, weight: float, n_samples: int, innovation: str,
    axes: tuple[Axis, ...], seed: int, record: int,
) -> TimeSeriesMatrix:
    """Contemporaneous grid-neighbour coupling, one independent draw per axis."""
    n = rows * cols
    coupling = coupling_from_edges(
        n, [(a - 1, b - 1, weight) for a, b in wl.neighbour_pairs(rows, cols)]
    )
    parts = [
        generate_contemporaneous(
            GeneratorSpec(n, n_samples, coupling, Family(innovation),
                          seed=sub_seed(seed, record, k), axis=axis)
        )
        for k, axis in enumerate(axes)
    ]
    return TimeSeriesMatrix(
        np.hstack([p.data for p in parts]), sum((p.channels for p in parts), ())
    )


def write_inputs(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("gaussian-paper", "laplace-mc"):
        for record, (label, weight) in enumerate(
            (("healthy", wl.HEALTHY_COUPLING), ("damaged", wl.DAMAGED_COUPLING))
        ):
            x = scenario_record(
                wl.GRID_ROWS, wl.GRID_COLS, weight, wl.GRID_SAMPLES, "gaussian",
                (Axis.LATERAL, Axis.VERTICAL), seed, record,
            )
            write_timeseries_csv(x, out / f"{label}.csv")
    if workload == "laplace-mc":
        write_grid(out / "row_grid.csv", wl.ROW_ROWS, wl.ROW_COLS)
        for record, (label, weight) in enumerate(
            (("healthy", wl.HEALTHY_COUPLING), ("damaged", wl.DAMAGED_COUPLING)), start=2
        ):
            x = scenario_record(
                wl.ROW_ROWS, wl.ROW_COLS, weight, wl.PAPER_SAMPLES, "laplace",
                (Axis.LATERAL,), seed, record,
            )
            write_timeseries_csv(x, out / f"row_{label}.csv")
    if workload == "io-scenarios":
        for record, (kind, innovation) in enumerate(wl.IO_SPECS, start=4):
            spec = {
                "kind": kind,
                "n_channels": wl.GRID_ROWS * wl.GRID_COLS,
                "n_samples": wl.PAPER_SAMPLES,
                "innovation": innovation,
                "noise_scale": 1.0,
                "seed": sub_seed(seed, record),
                "grid_layout": wl.DECK_GRID,
                "edge_weight": wl.VAR_COUPLING if kind == "var" else wl.HEALTHY_COUPLING,
                "axis": "lateral",
            }
            (out / f"{kind}-{innovation}.json").write_text(json.dumps(spec, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, Path(wl.input_dir(args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
