"""Output checks computed apart from the program.

Expected values come from numpy and scipy on the input CSVs, or from
properties the method must have. Nothing here is a stored copy of an earlier
output. The checks read only MI values, edges, weights, thresholds, diffs and
degree tables: a missing `mi_stderr` column counts as zero and extra files in
a bundle are ignored, so later versions of the package can still be checked.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

MI_TOL = 1e-9
DIFF_TOL = 1e-12
MOMENT_TOL = 1e-9
LAPLACE_SIGMAS, LAPLACE_ABS_TOL = 5.0, 1e-4


@functools.cache
def laplace_offset() -> float:
    """2 c1 - c2: Laplace-family MI minus Gaussian MI for the fitted model.

    The fitted multivariate Laplace is an affine image of one standard law
    per dimension, so h = c_d + 1/2 log det Sigma and the MI of a pair differs
    from the Gaussian MI by 2 c1 - c2 whatever the correlation. c1 = 1 + ln
    sqrt(2) in closed form; c2 by radial quadrature of the d = 2 density.
    """
    from scipy.integrate import quad
    from scipy.special import k0

    def integrand(r):
        f = k0(math.sqrt(2.0) * r) / math.pi
        return -2.0 * math.pi * r * f * math.log(f)

    c2, _ = quad(integrand, 0.0, 40.0, limit=500, epsabs=1e-12, epsrel=1e-12)
    c1 = 1.0 + math.log(math.sqrt(2.0))
    return 2.0 * c1 - c2


def read_table(path) -> list[dict[str, str]]:
    """Rows of a CSV with '#' comment lines, keyed by the header names."""
    lines = [
        line.strip() for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def load_record(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def gaussian_pair_mi(record, pairs, axis_token="lat") -> dict[tuple[int, int], float]:
    """-1/2 ln(1 - r^2), r from numpy.corrcoef of the standardized columns."""
    header, data = load_record(record)
    z = (data - data.mean(axis=0)) / data.std(axis=0, ddof=1)
    col = {name: k for k, name in enumerate(header)}
    out = {}
    for a, b in pairs:
        r = np.corrcoef(z[:, col[f"s{a}_{axis_token}"]], z[:, col[f"s{b}_{axis_token}"]])[0, 1]
        out[(a, b)] = -0.5 * math.log(1.0 - r * r)
    return out


def read_mi_map(path) -> dict[tuple[int, int], tuple[float, float]]:
    """(sensor_a, sensor_b) -> (raw MI, standard error or 0)."""
    out = {}
    for row in read_table(path):
        value = float(row.get("mi_raw", row.get("mi")))
        out[(int(row["sensor_a"]), int(row["sensor_b"]))] = (value, float(row.get("mi_stderr", 0.0)))
    return out


def check_mi_map(path, record, rows, cols, family) -> list[str]:
    pairs = wl.neighbour_pairs(rows, cols)
    mi_map = read_mi_map(path)
    if sorted(mi_map) != pairs:
        return [f"{path}: pairs {sorted(mi_map)} are not the grid's neighbour pairs"]
    expected = gaussian_pair_mi(record, pairs)
    errors = []
    for pair in pairs:
        value, stderr = mi_map[pair]
        if family == "gaussian":
            want, tol = expected[pair], MI_TOL
        else:
            want = expected[pair] + laplace_offset()
            tol = LAPLACE_SIGMAS * stderr + LAPLACE_ABS_TOL
        if not abs(value - want) <= tol:
            errors.append(f"{path}: MI{pair} = {value!r}, expected {want!r} within {tol:.3g}")
    return errors


def read_network(path) -> tuple[dict[int, int], list[dict]]:
    """(node index -> sensor, edges) of an oMII network JSON."""
    payload = json.loads(Path(path).read_text())
    sensors = {n["index"]: int(n["name"][1:].split("_")[0]) for n in payload["nodes"]}
    return sensors, payload["edges"]


def check_network(path, rows, cols) -> list[str]:
    sensors, edges = read_network(path)
    skeleton = {frozenset((sensors[e["source"]], sensors[e["target"]])) for e in edges}
    errors = [
        f"{path}: planted pair {pair} missing from the skeleton"
        for pair in wl.neighbour_pairs(rows, cols)
        if frozenset(pair) not in skeleton
    ]
    errors += [
        f"{path}: edge {e['source']}->{e['target']} weight {e['weight']!r} "
        f"not above its threshold {e['threshold']!r}"
        for e in edges
        if not e["weight"] > e["threshold"]
    ]
    return errors


def check_degrees(path, network) -> list[str]:
    sensors, edges = read_network(network)
    n = len(sensors)
    table = read_table(path)
    errors = []
    for direction, end in (("in", "target"), ("out", "source")):
        probs = [float(row[f"{direction}_probability"]) for row in table]
        if abs(sum(probs) - 1.0) > 1e-12:
            errors.append(f"{path}: {direction}-degree probabilities sum to {sum(probs)!r}")
        degree = {node: 0 for node in sensors}
        for e in edges:
            degree[e[end]] += 1
        counts = np.bincount(list(degree.values()), minlength=len(probs))
        if len(counts) > len(probs) or not np.allclose(probs, counts / n, rtol=0, atol=1e-12):
            errors.append(f"{path}: {direction}-degree histogram does not match the edges")
    return errors


def check_fit_values(path) -> list[str]:
    report = json.loads(Path(path).read_text())
    return [
        f"{path}: {ch['channel']} l1 error {ch[key]!r} outside [0, 2]"
        for ch in report["channels"]
        for key in ("l1_error_normal", "l1_error_laplace")
        if not 0.0 <= ch[key] <= 2.0
    ]


def check_bundle(check: dict) -> list[str]:
    bundle, rows, cols, family = Path(check["bundle"]), check["rows"], check["cols"], check["family"]
    (base, base_record), (comp, comp_record) = check["records"].items()
    errors = []
    for label, record in ((base, base_record), (comp, comp_record)):
        scen = bundle / label
        errors += check_mi_map(scen / "pairwise_mi.csv", record, rows, cols, family)
        errors += check_network(scen / "omii_network.json", rows, cols)
        errors += check_degrees(scen / "degree_distribution.csv", scen / "omii_network.json")
        errors += check_fit_values(scen / "fit_report.json")

    diff_dir = bundle / f"diff_{base}_vs_{comp}"
    base_map = read_mi_map(bundle / base / "pairwise_mi.csv")
    comp_map = read_mi_map(bundle / comp / "pairwise_mi.csv")
    deltas = {(int(r["sensor_a"]), int(r["sensor_b"])): float(r["delta_mi"])
              for r in read_table(diff_dir / "mi_map_diff.csv")}
    if sorted(deltas) != wl.neighbour_pairs(rows, cols):
        errors.append(f"{diff_dir}: MI diff does not cover the neighbour pairs")
    for pair, delta in deltas.items():
        want = comp_map[pair][0] - base_map[pair][0]
        if abs(delta - want) > DIFF_TOL:
            errors.append(f"{diff_dir}: delta{pair} = {delta!r}, comparison - baseline = {want!r}")
        if not delta < 0.0:
            errors.append(f"{diff_dir}: delta{pair} = {delta!r} is not negative after damage")

    base_edges = {(e["source"], e["target"]) for e in read_network(bundle / base / "omii_network.json")[1]}
    comp_edges = {(e["source"], e["target"]) for e in read_network(bundle / comp / "omii_network.json")[1]}
    net_diff = json.loads((diff_dir / "network_diff.json").read_text())
    for key, want in (("lost", base_edges - comp_edges), ("gained", comp_edges - base_edges),
                      ("retained", base_edges & comp_edges)):
        got = {(e["source"], e["target"]) for e in net_diff[key]}
        if got != want:
            errors.append(f"{diff_dir}: {key} edges {sorted(got)} differ from {sorted(want)}")
    return errors


def check_laplace_map(check: dict) -> list[str]:
    return check_mi_map(check["map"], check["record"], check["rows"], check["cols"], "laplace")


def check_record(check: dict) -> list[str]:
    from miinet.io import read_timeseries_csv

    path = check["record"]
    header, data = load_record(path)
    parsed = read_timeseries_csv(path)
    errors = []
    if [ch.name for ch in parsed.channels] != header:
        errors.append(f"{path}: channel names differ from the header")
    if parsed.data.shape != data.shape or parsed.data.tobytes() != data.tobytes():
        errors.append(f"{path}: read_timeseries_csv and numpy.loadtxt disagree")
    mean = data.mean(axis=0)
    sd = data.std(axis=0, ddof=1)
    if np.max(np.abs(mean)) > MOMENT_TOL or np.max(np.abs(sd - 1.0)) > MOMENT_TOL:
        errors.append(f"{path}: columns are not standardized to 1e-9")
    return errors


def check_fit_report(check: dict) -> list[str]:
    path = check["report"]
    channels = json.loads(Path(path).read_text())["channels"]
    errors = check_fit_values(path)
    if len(channels) != check["n_channels"]:
        errors.append(f"{path}: {len(channels)} channels, expected {check['n_channels']}")
    if check["innovation"] == "gaussian":
        worse = [ch["channel"] for ch in channels if not ch["l1_error_normal"] < ch["l1_error_laplace"]]
        if worse:
            errors.append(f"{path}: Gaussian-innovation channels {worse} do not fit normal better")
    elif check["kind_of_record"] == "var":
        worse = [ch["channel"] for ch in channels if not ch["l1_error_laplace"] < ch["l1_error_normal"]]
        if worse:
            errors.append(f"{path}: Laplace-innovation channels {worse} do not fit Laplace better")
    return errors


CHECKS = {
    "bundle": check_bundle,
    "laplace_map": check_laplace_map,
    "record": check_record,
    "fit_report": check_fit_report,
}


def run_check(check: dict) -> list[str]:
    """Run one check; a missing or malformed output is an error, not a crash."""
    try:
        return CHECKS[check["kind"]](check)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{check['kind']} check could not read the outputs: {type(exc).__name__}: {exc}"]
