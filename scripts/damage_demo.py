#!/usr/bin/env python3
"""End-to-end synthetic damage study on the bundled 30-sensor layout.

Generates a "healthy" scenario (grid-neighbor coupling 0.8) and two
"damaged" ones (couplings 0.55 and 0.4), runs the full pipeline and prints
where the MI maps and oMII networks changed. Outputs land in --out.
"""

import argparse
import json
from pathlib import Path

from miinet import Axis, OmiiConfig
from miinet.cli import RunConfig, run_pipeline
from miinet.io import bundled_grid_path, load_grid_csv, write_timeseries_csv
from miinet.spatial import neighbor_pairs
from miinet.synthetic import GeneratorSpec, coupling_from_edges, generate_contemporaneous


def build_scenario(weight: float, seed: int, n_samples: int):
    grid = load_grid_csv(bundled_grid_path())
    pairs = neighbor_pairs(grid)
    coupling = coupling_from_edges(30, [(a - 1, b - 1, weight) for a, b in pairs])
    spec = GeneratorSpec(30, n_samples, coupling, noise_scale=1.0, seed=seed)
    return generate_contemporaneous(spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="damage_demo_out")
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--family", choices=["gaussian", "laplace"], default="gaussian")
    parser.add_argument("--theta", type=float, default=0.01)
    parser.add_argument("--n-shuffles", type=int, default=200)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenarios = {"baseline": 0.8, "damage1": 0.55, "damage2": 0.4}
    for i, (label, weight) in enumerate(scenarios.items()):
        x = build_scenario(weight, seed=args.seed + i, n_samples=args.samples)
        write_timeseries_csv(x, out / f"{label}.csv")

    cfg = RunConfig(
        baseline_label="baseline",
        baseline_path=str(out / "baseline.csv"),
        scenarios=(
            ("damage1", str(out / "damage1.csv")),
            ("damage2", str(out / "damage2.csv")),
        ),
        grid_path=str(bundled_grid_path()),
        axis=Axis.LATERAL,
        omii=OmiiConfig(args.family, args.theta, args.n_shuffles, args.seed),
        out_dir=str(out / "bundle"),
    )
    written = run_pipeline(cfg)
    print(f"wrote {len(written)} files under {cfg.out_dir}")

    for label in ("damage1", "damage2"):
        diff_dir = Path(cfg.out_dir) / f"diff_baseline_vs_{label}"
        deltas = []
        for line in (diff_dir / "mi_map_diff.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("sensor_a"):
                continue
            deltas.append(float(line.split(",")[2]))
        negative = sum(d < 0 for d in deltas)
        net_diff = json.loads((diff_dir / "network_diff.json").read_text())
        print(
            f"{label}: MI dropped on {negative}/{len(deltas)} neighbor edges; "
            f"oMII edges lost={len(net_diff['lost'])} gained={len(net_diff['gained'])} "
            f"retained={len(net_diff['retained'])}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
