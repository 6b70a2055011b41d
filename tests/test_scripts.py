"""Smoke tests of the standalone scripts, run as subprocesses."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/<name> with the package on PYTHONPATH; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_omega_sweep_script(tmp_path):
    out = tmp_path / "sweep.csv"
    # an inadmissible omega is a row of the table, as in ``dpnls classify``
    run_script("omega_sweep.py", "--omegas", -1, 0.5, 1, "--csv", out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["criterion_met"] for r in rows] == ["false", "false", "true"]
    assert [r["status"] for r in rows] == [
        "error: omega must be positive", "ok", "ok"]


def test_lemma_report_script():
    stdout = run_script("lemma_report.py", "--pairs", 20, "--samples", 20)
    assert "key estimate over 20 filtered states" in stdout
    assert "signs hold: True" in stdout and "estimate holds: True" in stdout


def test_blowup_demo_script():
    # too coarse a grid for lambda = 1.5: the run stops for resolution and
    # must say so, not report that nothing happened
    stdout = run_script("blowup_demo.py", "--m", 8192, "--t-max", 2,
                        "--lam", 1.5)
    lines = [line.split() for line in stdout.splitlines()]
    assert ["status:", "inconclusive"] in lines
    assert ["reason:", "resolution"] in lines
    assert "no blowup" not in stdout
