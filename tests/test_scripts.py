"""Smoke runs of the example scripts and the package import, as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_script(name: str, *args: str, cwd: Path) -> str:
    return run_python(str(ROOT / "scripts" / name), *args, cwd=cwd)


def test_runtime_imports_need_only_numpy(tmp_path):
    # pyproject.toml declares numpy as the only runtime dependency
    out = run_python(
        "-c",
        "import sys, miinet, miinet.cli, miinet.io; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))",
        cwd=tmp_path,
    )
    assert out.strip() == "[]"


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


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # under the repo's warning filters, a failing @given test must fail alone
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


def test_package_lines_fit_in_100_columns():
    # a denser line is not a shorter program; this keeps line counts comparable
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "miinet").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > 100
    ]
    assert long_lines == []
