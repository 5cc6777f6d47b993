"""Smoke runs of the example scripts, as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_damage_demo_runs(tmp_path):
    out = run_script(
        "damage_demo.py", "--out", str(tmp_path / "demo"), "--samples", "300",
        "--n-shuffles", "20", "--theta", "0.1", "--family", "laplace", cwd=tmp_path,
    )
    assert "wrote 20 files" in out
    assert "damage1: MI dropped on" in out and "damage2: MI dropped on" in out
    assert (tmp_path / "demo" / "bundle" / "run_config.json").is_file()


def test_recovery_benchmark_runs(tmp_path):
    out = run_script(
        "recovery_benchmark.py", "--channels", "5", "--samples", "500", "--seeds", "1",
        "--theta-grid", "0.1", cwd=tmp_path,
    )
    assert "theta=0.1" in out and "precision=" in out and "recall=" in out
