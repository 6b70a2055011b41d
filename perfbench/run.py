"""Benchmark of the dpnls command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload (``workloads.py``) is one dpnls subcommand on a JSON config that
this script writes to a temporary directory; the CLI receives only that
config, the output directory and the seed.  Every repetition runs in a fresh
worker process (``worker.py``) with BLAS/OpenMP threads capped at the number
of usable cores, and every repetition's outputs are checked against
``reference.json``.

``--trace 0`` repeats the workload until ``--seconds`` of wall time are
measured (at least once), times ``import dpnls.cli`` in at least
``SETUP_SAMPLES`` fresh processes, and reports medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  No hook is installed.

``--trace 1`` makes one untraced and one traced repetition and reports the
traced run's per-layer metrics, with the tracing overhead as the difference
of the two wall times.

The last line of standard output is the JSON result.  The line before it
describes the machine and environment; the full record (every sample and
check) goes to ``.perfbench/results/`` and the spans to the same place.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 3
#: Every run must end within 180 s; stop repeating well before that.
RUN_BUDGET_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "bytes" in name:
        return "bytes"
    if ".t_detect." in name:
        return "t"
    if name.endswith(("_ratio", "_drift", "_err")):
        return "ratio"
    if name.endswith("residual"):
        return "1"
    return "count"


def machine(nproc: int, caps: dict, versions: dict) -> dict:
    """Hardware and software the numbers were measured on."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[level] = int(subprocess.run(
                ["getconf", level], capture_output=True, text=True,
                timeout=10).stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            caches[level] = None
    return {
        "nproc": nproc, "cpu_model": cpu,
        "l2_bytes": caches["LEVEL2_CACHE_SIZE"],
        "l3_bytes": caches["LEVEL3_CACHE_SIZE"],
        **versions, "thread_caps": caps,
        "fft_bytes": "computed from array sizes (input + output of each "
                     "transform), not measured; one m=65536 complex array is "
                     "1 MiB and fits in L3, so no bandwidth ratio is reported",
    }


class Runner:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.start = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self.caps = {v: str(self.nproc) for v in THREAD_VARS}
        self.env = {**os.environ, **self.caps, "PYTHONPATH": str(ROOT / "src")}
        self.command, cfg = workloads.config(args.workload, args.seed)
        self.config = tmp / "config.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.count = 0

    def worker(self, *extra: str) -> dict:
        self.count += 1
        result = self.tmp / f"result-{self.count}.json"
        left = 175.0 - (time.monotonic() - self.start)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(result), *extra],
            env=self.env, cwd=self.tmp, timeout=max(left, 1.0))
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(result.read_text())

    def repetition(self, trace: int, spans: Path | None = None) -> dict:
        """One CLI run in a fresh process, with its outputs checked."""
        out = self.tmp / f"out-{self.count + 1}"
        run_id = f"{self.args.workload}-seed{self.args.seed}-{self.count + 1}"
        rep = self.worker("--trace", str(trace), "--run-id", run_id,
                          "--spans", str(spans), "--",
                          self.command, "--config", str(self.config),
                          "--out", str(out), "--seed", str(self.args.seed),
                          "--no-timestamp")
        attempted, failed, values = workloads.check(
            self.args.workload, out, rep["exit_code"])
        rep.update(run_id=run_id, attempted=attempted, failed=failed,
                   values=values, bytes_written=sum(
                       f.stat().st_size for f in out.rglob("*") if f.is_file()))
        return rep

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def measure(runner: Runner, seconds: int) -> tuple[list[dict], dict]:
    reps, measured = [], 0.0
    while not reps or measured < seconds:
        reps.append(runner.repetition(trace=0))
        measured += reps[-1]["wall_s"]
        if runner.elapsed() + 1.5 * reps[-1]["wall_s"] > RUN_BUDGET_S:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("--import-only")["setup_s"])
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return reps, {"metrics": metrics, "setup_samples": setups}


def trace(runner: Runner, spans: Path) -> tuple[list[dict], dict]:
    plain = runner.repetition(trace=0)
    traced = runner.repetition(trace=1, spans=spans)
    metrics = dict(traced["layers"])
    metrics.update({
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "cli.bytes_written": traced["bytes_written"],
    })
    # the checked t_detect values, reported as 0 by workloads without blowup
    for lam in workloads.REFERENCE["blowup-sweep"]["lambdas"]:
        key = f"t_detect.lambda-{lam:g}"
        metrics[f"evolution.{key}"] = traced["values"].get(key) or 0.0
    return [plain, traced], {"metrics": metrics, "missing_hooks": traced["missing"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dpnls" / "cli.py").is_file():
        print(f"no dpnls package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        runner = Runner(args, tmp)
        if args.trace:
            reps, record = trace(runner, WORK / "results" / f"{tag}.spans.jsonl")
            units = {name: layer_unit(name) for name in record["metrics"]}
        else:
            reps, record = measure(runner, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    first = reps[0]
    env = machine(runner.nproc, runner.caps,
                  {k: first[k] for k in ("python", "numpy", "scipy")})
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  command=runner.command, env=env, repetitions=reps)
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=2, default=repr))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
