"""miinet benchmark: one workload, timed from outside the package, outputs checked.

Usage, from the root of a checkout:
    python3 bench/run.py --workload gaussian-paper --seed 1 --seconds 20 --trace 0

1. Set-up writes the workload's inputs from the seed, in a fresh process,
   SETUP_REPS times; `setup_s` is the median.
2. One worker process runs the workload's CLI calls through
   `miinet.cli.main`, round after round, for `--seconds` (at least one
   round), with BLAS threads capped at the number of usable cores.
3. Every output is checked against a computation made apart from the
   program; every round must have written the same bytes as the checked one.
4. The last line of stdout is one JSON object: `correct`, `attempted`,
   `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
   metrics of a traced run (`--trace 1`), each with its unit.

An operation is one CLI call. It fails if it returns non-zero or if its
outputs fail a check. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402

SETUP_REPS = 5


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def set_up(workload: str, seed: int, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", workload, "--seed", str(seed)],
            env=env, check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def run_worker(plan_path: Path, log_path: Path, env: dict) -> int:
    with log_path.open("w") as log:
        return subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        ).returncode


def score(ops: list[dict], records: list[dict]) -> tuple[int, list[str]]:
    """Number of failed calls, and why. The outputs on disk are the last round's."""
    from checks import run_check

    failed, errors = 0, []
    for op in ops:
        mine = [r for r in records if r["op"] == op["name"]]
        op_errors = run_check(op["check"]) if mine[-1]["rc"] == 0 else []
        errors += [f"{op['name']}: {e}" for e in op_errors]
        for r in mine:
            if r["rc"] != 0:
                errors.append(f"{op['name']} round {r['round']}: exit code {r['rc']}")
            elif r["digest"] != mine[-1]["digest"]:
                errors.append(f"{op['name']} round {r['round']}: outputs differ from the checked round")
            elif not op_errors:
                continue
            failed += 1
    return failed, errors


def round_seconds(records: list[dict]) -> dict[int, float]:
    rounds: dict[int, float] = {}
    for r in records:
        rounds[r["round"]] = rounds.get(r["round"], 0.0) + r["seconds"]
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (ROOT / "src" / "miinet" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src' / 'miinet'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = machine_info()
    print(json.dumps({"machine": info, "workload": args.workload, "seed": args.seed}))
    env = child_env(info["nproc"])

    work = Path(wl.work_dir(args.workload))
    shutil.rmtree(work, ignore_errors=True)
    setup_times = set_up(args.workload, args.seed, env)
    Path(wl.output_dir(args.workload)).mkdir(parents=True)
    ops = wl.plan(args.workload, args.seed)
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps({
        "ops": ops, "seconds": args.seconds, "trace": bool(args.trace), "result": str(result_path),
    }))
    rc = run_worker(plan_path, work / "worker.log", env)
    if rc != 0:
        print(f"worker exited with {rc}; see {work / 'worker.log'}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    records = result["records"]

    failed, errors = score(ops, records)
    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_times,
        "import_s": result["import_s"],
        "calls": [[r["round"], r["op"], r["rc"], round(r["seconds"], 4), r["traced"]] for r in records],
    }))

    if args.trace:
        trace = result["trace"]
        rounds = round_seconds(records)
        # round 0 is a cold warm-up; round 1, warm and untraced, is the reference
        untraced = rounds[1]
        traced = statistics.median(t for k, t in rounds.items() if k >= 2)
        values = dict(trace["metrics"])
        values["trace.untraced_round_s"] = untraced
        values["trace.traced_round_s"] = traced
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        values["process.peak_rss_growth_mb"] = result["peak_rss_mb"][1] - result["peak_rss_mb"][0]
        wanted = spec["per_layer"]
        absent = trace["absent"] + [m["name"] for m in wanted if m["name"] not in values]
        print(json.dumps({"trace_rounds": trace["rounds"], "absent": absent,
                          "table": trace["table"]}))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "bundle_s": statistics.median(round_seconds(records).values()),
            "peak_rss_mb": result["peak_rss_mb"][0],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
