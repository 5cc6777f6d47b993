"""Run one workload's CLI calls through `miinet.cli.main`, in this one process.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 bench/worker.py <plan.json>

The plan lists the calls of one round. Rounds repeat while the next one,
at the median round time so far, would end within `seconds`; at least one
always runs (three when tracing). Each call's outputs are deleted before it
and hashed after it, outside the timed region, so run.py can check one
round and prove every other round wrote the same bytes. With `trace`, the
first two rounds run untraced (a cold warm-up, then the reference for the
tracing overhead) and every later one traced.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

TRACE_FROM = 2  # first traced round of a traced run


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for raw in paths:
        path = Path(raw)
        files = sorted(f for f in path.rglob("*") if f.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f).encode() + b"\0")
            h.update(f.read_bytes() if f.is_file() else b"<missing>")
    return h.hexdigest()


def clear(paths: list[str]) -> None:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def call(main, argv: list[str]) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing call is one failed operation, not a dead run
        traceback.print_exc()
        return -1


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import miinet.cli

    import_s = time.perf_counter() - start
    tracer = None
    records = []
    round_no = 0
    round_times = []
    peak_rss_mb = []
    t0 = time.perf_counter()
    while True:
        if plan["trace"] and round_no == TRACE_FROM:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        round_start = time.perf_counter()
        for op in plan["ops"]:
            clear(op["outputs"])
            begin = time.perf_counter()
            rc = call(miinet.cli.main, op["argv"])
            seconds = time.perf_counter() - begin
            records.append({
                "round": round_no, "op": op["name"], "rc": rc, "seconds": seconds,
                "traced": tracer is not None, "digest": digest(op["outputs"]),
            })
        round_times.append(time.perf_counter() - round_start)
        # peak after each round; run.py reports the first, whatever the
        # number of rounds, and the growth over the second
        peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        round_no += 1
        predicted_end = time.perf_counter() - t0 + statistics.median(round_times)
        if predicted_end > plan["seconds"] and (not plan["trace"] or round_no > TRACE_FROM):
            break
    result = {"import_s": import_s, "peak_rss_mb": peak_rss_mb, "records": records}
    if tracer is not None:
        traced_rounds = round_no - TRACE_FROM
        result["trace"] = {
            "rounds": traced_rounds,
            "metrics": tracer.layer_metrics(traced_rounds),
            "table": tracer.table(),
            "absent": tracer.absent,
        }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
