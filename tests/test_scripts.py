"""Smoke tests of the standalone scripts, run as subprocesses."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_omega_sweep_script(tmp_path):
    out = tmp_path / "sweep.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "omega_sweep.py"),
         "--omegas", "0.5", "1", "--csv", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["criterion_met"] for r in rows] == ["false", "true"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
