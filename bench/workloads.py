"""Workload definitions shared by run.py, the input writer and the checker.

Nothing here imports miinet, so run.py can fail cleanly when the package
sources are missing. Paths are relative to the checkout root, which keeps
every `config_hash` in a bundle independent of where the checkout lives.
"""

from __future__ import annotations

WORKLOADS = ("gaussian-paper", "laplace-mc", "io-scenarios")

WORK_ROOT = ".bench_work"

# The bundled 30-sensor deck, 6 rows x 5 columns, sensors numbered row-major
# from 1; its layout file ships with the package.
GRID_ROWS, GRID_COLS = 6, 5
DECK_GRID = "src/miinet/data/grid_6x5.csv"
# A short row of sensors for the Laplace oMII: a full-grid Laplace oMII takes
# hours, a 1x3 row ~25 s. On a 1x2 row no false admission is possible, so the
# Monte Carlo work of a round is the same on every seed.
ROW_ROWS, ROW_COLS = 1, 2

PAPER_SAMPLES = 11536  # 90 s at 128 Hz
# The 60-channel grid records are cut to 1/8 of the paper's length: a
# paper-scale Gaussian pipeline takes about a minute on two cores, which does
# not fit the benchmark's per-run budget. The oMII work count (shuffle tests,
# CMI evaluations) barely depends on the sample count.
GRID_SAMPLES = PAPER_SAMPLES // 8

HEALTHY_COUPLING = 0.8
DAMAGED_COUPLING = 0.55
# VAR(1) coupling of the io-scenarios records. The grid coupling runs from
# low to high sensor, so the VAR matrix is nilpotent and stable at any weight.
# Each channel sums the Laplace innovations of its ancestors, which thins its
# tails: at 0.2 every channel keeps an excess kurtosis of at least 2.5 (Laplace
# has 3), and Laplace fits it better by an l1 margin of about 0.1. At 0.3 the
# interior channels fall to 1.96 and the margin to about 0.01, so the
# fits-Laplace-better check would fail on some seeds with no fault anywhere.
VAR_COUPLING = 0.2
IO_SPECS = (
    ("contemporaneous", "gaussian"),
    ("contemporaneous", "laplace"),
    ("var", "gaussian"),
    ("var", "laplace"),
)

GAUSSIAN_THETA, GAUSSIAN_SHUFFLES = "0.1", "100"
# Ns = 10 is the smallest count at which a level-0.1 permutation test can
# reject ((Ns + 1) * theta >= 1); it halves the Monte Carlo work of Ns = 20.
LAPLACE_THETA, LAPLACE_SHUFFLES = "0.1", "10"


def grid_positions(rows: int, cols: int) -> dict[int, tuple[int, int]]:
    return {r * cols + c + 1: (r, c) for r in range(rows) for c in range(cols)}


def neighbour_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Sensor pairs one grid step apart, low sensor first (49 on the 6x5 deck)."""
    pairs = []
    for s, (r, c) in grid_positions(rows, cols).items():
        if c + 1 < cols:
            pairs.append((s, s + 1))
        if r + 1 < rows:
            pairs.append((s, s + cols))
    return sorted(pairs)


def work_dir(workload: str) -> str:
    return f"{WORK_ROOT}/{workload}"


def input_dir(workload: str) -> str:
    return f"{work_dir(workload)}/inputs"


def output_dir(workload: str) -> str:
    return f"{work_dir(workload)}/outputs"


def _op(name: str, argv: list[str], outputs: list[str], check: dict) -> dict:
    return {"name": name, "argv": argv, "outputs": outputs, "check": check}


def plan(workload: str, seed: int) -> list[dict]:
    """The CLI calls of one round, in order, each with its outputs and its check."""
    inp, out, s = input_dir(workload), output_dir(workload), str(seed)
    if workload == "gaussian-paper":
        bundle = f"{out}/bundle"
        return [
            _op(
                "pipeline",
                ["pipeline", "--baseline", f"healthy={inp}/healthy.csv",
                 "--scenario", f"damaged={inp}/damaged.csv",
                 "--grid", DECK_GRID, "--axis", "lateral",
                 "--family", "gaussian", "--theta", GAUSSIAN_THETA,
                 "--n-shuffles", GAUSSIAN_SHUFFLES, "--seed", s, "--out", bundle],
                [bundle],
                {"kind": "bundle", "family": "gaussian", "rows": GRID_ROWS,
                 "cols": GRID_COLS, "bundle": bundle,
                 "records": {"healthy": f"{inp}/healthy.csv",
                             "damaged": f"{inp}/damaged.csv"}},
            )
        ]
    if workload == "laplace-mc":
        ops = []
        for label in ("healthy", "damaged"):
            path = f"{out}/mi_{label}.csv"
            ops.append(_op(
                f"pairwise-mi-{label}",
                ["pairwise-mi", "--input", f"{inp}/{label}.csv", "--grid", DECK_GRID,
                 "--axis", "lateral", "--family", "laplace", "--scenario", label,
                 "--seed", s, "--out", path],
                [path],
                {"kind": "laplace_map", "rows": GRID_ROWS, "cols": GRID_COLS,
                 "map": path, "record": f"{inp}/{label}.csv"},
            ))
        bundle = f"{out}/row_bundle"
        ops.append(_op(
            "pipeline-row",
            ["pipeline", "--baseline", f"healthy={inp}/row_healthy.csv",
             "--scenario", f"damaged={inp}/row_damaged.csv",
             "--grid", f"{inp}/row_grid.csv", "--axis", "lateral",
             "--family", "laplace", "--theta", LAPLACE_THETA,
             "--n-shuffles", LAPLACE_SHUFFLES, "--seed", s, "--out", bundle],
            [bundle],
            {"kind": "bundle", "family": "laplace", "rows": ROW_ROWS, "cols": ROW_COLS,
             "bundle": bundle,
             "records": {"healthy": f"{inp}/row_healthy.csv",
                         "damaged": f"{inp}/row_damaged.csv"}},
        ))
        return ops
    if workload == "io-scenarios":
        ops = []
        for kind, innovation in IO_SPECS:
            tag = f"{kind}-{innovation}"
            record, report = f"{out}/{tag}.csv", f"{out}/{tag}_fit.json"
            ops.append(_op(
                f"generate-{tag}",
                ["generate", "--spec", f"{inp}/{tag}.json", "--out", record],
                [record],
                {"kind": "record", "record": record},
            ))
            ops.append(_op(
                f"fit-report-{tag}",
                ["fit-report", "--input", record, "--out", report, "--seed", s],
                [report],
                {"kind": "fit_report", "report": report, "kind_of_record": kind,
                 "innovation": innovation, "n_channels": GRID_ROWS * GRID_COLS},
            ))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
