#!/usr/bin/env python3
"""Planted-graph recovery benchmark for the discovery/removal procedure.

Sweeps the shuffle-test level theta on ER DAG data and reports skeleton
precision/recall, illustrating the tradeoff between the per-test level and
the argmax selection effect at the discovery stopping step.
"""

import argparse
import time

import numpy as np

from miinet.estimators import Family
from miinet.omii import OmiiConfig, infer_network
from miinet.synthetic import GeneratorSpec, generate_contemporaneous, random_dag_coupling


def score(n, density, weight, t, noise, theta, n_shuffles, n_seeds):
    precisions, recalls = [], []
    for s in range(n_seeds):
        coupling = random_dag_coupling(n, density, weight, seed=900 + s)
        spec = GeneratorSpec(n, t, coupling, noise_scale=noise, seed=500 + s)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(
            family=Family.GAUSSIAN,
            theta=theta,
            n_shuffles=n_shuffles,
            seed=200 + s,
        )
        predicted = infer_network(x, cfg).skeleton()
        truth = spec.skeleton()
        tp = len(predicted & truth)
        precisions.append(tp / len(predicted) if predicted else 1.0)
        recalls.append(tp / len(truth) if truth else 1.0)
    return float(np.mean(precisions)), float(np.mean(recalls))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--channels", type=int, default=12)
    parser.add_argument("--density", type=float, default=0.15)
    parser.add_argument("--weight", type=float, default=0.6)
    parser.add_argument("--samples", type=int, default=10000)
    parser.add_argument("--noise-scale", type=float, default=6.0)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument(
        "--theta-grid",
        type=float,
        nargs="+",
        default=[0.1, 0.02, 0.005, 0.002],
    )
    args = parser.parse_args()

    print(
        f"N={args.channels} density={args.density} weight={args.weight} "
        f"T={args.samples} noise_scale={args.noise_scale} seeds={args.seeds}"
    )
    for theta in args.theta_grid:
        n_shuffles = max(100, int(round(2.0 / theta)))
        start = time.perf_counter()
        precision, recall = score(
            args.channels,
            args.density,
            args.weight,
            args.samples,
            args.noise_scale,
            theta,
            n_shuffles,
            args.seeds,
        )
        print(
            f"theta={theta:<7g} Ns={n_shuffles:<5d} precision={precision:.3f} "
            f"recall={recall:.3f}  ({time.perf_counter() - start:.0f}s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
