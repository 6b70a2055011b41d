"""The benchmark's workloads: the CLI config each one runs and the check of its outputs.

Every workload solves the line problem N=1, a=b=1, p=3, q=7.  An item is the
unit a workload is scored on: one omega row, one lambda run, or one lemma
command.  ``check`` returns how many items a run attempted and how many
failed, so that a wrong answer counts against the run like an error does.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

PARAMS = {"N": 1, "a": 1.0, "b": 1.0, "p": 3.0, "q": 7.0, "omega": 1.0}


def config(workload: str, seed: int) -> tuple[str, dict]:
    """(CLI command, JSON config) of a workload; only verify-lemma draws from the seed."""
    cfg = {"params": PARAMS, "seed": seed}
    ref = REFERENCE[workload]
    if workload == "omega-sweep":
        cfg["sweeps"] = {"omegas": ref["omegas"]}
        return "classify", cfg
    if workload == "blowup-sweep":
        cfg["evolution"] = {"length": 32.0, "m": 65536, "dt": 5e-4, "t_max": 60.0}
        cfg["sweeps"] = {"lambdas": ref["lambdas"]}
        return "blowup", cfg
    if workload == "lemma-audit":
        cfg["lemma"] = {"pairs": 400, "lambda_points": 10000,
                        "samples": ref["samples"]}
        return "verify-lemma", cfg
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(REFERENCE)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_omega(out: Path, exit_code: int) -> tuple[int, int, dict]:
    ref = REFERENCE["omega-sweep"]
    try:
        with open(out / "classify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    by_omega = {float(r["omega"]): r for r in rows}
    failed = 0
    detail = {}
    for omega, met in zip(ref["omegas"], ref["criterion_met"]):
        row = by_omega.get(omega)
        ok = (exit_code == 0 and row is not None and row["status"] == "ok"
              and row["criterion_met"] == ("true" if met else "false"))
        failed += not ok
        detail[f"omega-{omega:g}"] = row
    return len(ref["omegas"]), failed, detail


def _check_blowup(out: Path, exit_code: int) -> tuple[int, int, dict]:
    ref = REFERENCE["blowup-sweep"]
    summary = _read_json(out / "blowup_summary.json") or {"runs": []}
    runs = {r.get("lambda"): r for r in summary["runs"]}
    oks, times = [], []
    for lam, t_ref in zip(ref["lambdas"], ref["t_detect"]):
        run = runs.get(lam) or {}
        t = run.get("t_detect")
        times.append(t)
        oks.append(exit_code == 0 and run.get("status") == "ok"
                   and run.get("blew_up") is True
                   and run.get("reason") == "gradient"
                   and run.get("invariance_audit") is True
                   and run.get("concavity_audit") is True
                   and t is not None
                   and abs(t - t_ref) <= ref["t_detect_rtol"] * t_ref)
    # detection comes earlier the stronger the compression
    ordered = None not in times and all(
        a > b for a, b in zip(times, times[1:]))
    failed = len(oks) if not ordered else oks.count(False)
    detail = {f"t_detect.lambda-{lam:g}": t
              for lam, t in zip(ref["lambdas"], times)}
    return len(oks), failed, detail


def _check_lemma(out: Path, exit_code: int) -> tuple[int, int, dict]:
    summary = _read_json(out / "lemma_summary.json") or {}
    ok = (exit_code == 0 and summary.get("sign_suite_ok") is True
          and summary.get("key_estimate_ok") is True
          and summary.get("key_estimate_samples") == REFERENCE["lemma-audit"]["samples"])
    return 1, int(not ok), summary


def check(workload: str, out: Path, exit_code: int) -> tuple[int, int, dict]:
    """(items attempted, items failed, values read) for one run's outputs."""
    return {"omega-sweep": _check_omega,
            "blowup-sweep": _check_blowup,
            "lemma-audit": _check_lemma}[workload](out, exit_code)
