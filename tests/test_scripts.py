"""Smoke test: the calibration script starts and runs."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_calibrate_regime_windows_runs():
    proc = run_script("calibrate_regime_windows.py", "--trials", "8")
    assert proc.returncode == 0, proc.stderr
    assert "suggest C" in proc.stdout

