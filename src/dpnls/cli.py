"""Command-line front end: solve, classify, blowup and lemma-verification runs.

Commands read a JSON config of nested sections and write CSV/JSON results
into the output directory.  The whole config is validated when it is read:
a key ``SCHEMA`` does not name, or a value its reader or its section
rejects, is a config error.  Runs with a fixed seed are deterministic; a
timestamp line in the summary can be suppressed with --no-timestamp for
byte-identical reruns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .params import Params, PeriodicGrid, is_count, is_real
from .groundstate import solve_ground_state
from .stability import blowup_sweep, omega_sweep
from .evolution import EvolutionConfig
from . import lemma_lab


def _whole(least: int = 0):
    """The reader of an integer config value of at least ``least``: a whole
    number such as 2 or 2.0."""
    def read(value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if is_count(value, least):
            return value
        raise ValueError(f"expected a whole number of at least {least}, "
                         f"got {value!r}")
    return read


def _real(value) -> float:
    """A finite int or float config value; not a bool, a string, NaN or inf."""
    if is_real(value):
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def _floats(values) -> list[float]:
    return [_real(v) for v in values]


#: The config's one schema: each section's keys, and each key's reader and
#: default, where ``None`` marks a required key.  A key's reader holds its
#: minimum, except where the object built from it checks its own (N, m,
#: record_every).
SCHEMA = {
    "params": {"N": (_whole(), None), "a": (_real, None), "b": (_real, None),
               "p": (_real, None), "q": (_real, None), "omega": (_real, None)},
    "evolution": {"length": (_real, 32.0), "m": (_whole(), 65536),
                  "dt": (_real, 5e-4), "t_max": (_real, 60.0),
                  "record_every": (_whole(), EvolutionConfig.record_every)},
    "sweeps": {"omegas": (_floats, []), "lambdas": (_floats, [])},
    "lemma": {"pairs": (_whole(1), 100), "lambda_points": (_whole(2), 10000),
              "samples": (_whole(1), 200)},
    "seed": (_whole(), 0),
}


def _read(raw, schema: dict = SCHEMA, prefix: str = "") -> dict:
    """The values of ``raw`` by ``schema``, in its shape: each key's value,
    or its default if absent, read by its reader.  An unknown key, a missing
    required one or a value its reader rejects raises a ValueError naming
    the key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'config'} must be a JSON object")
    for key in raw:
        if key not in schema:
            raise ValueError(f"unknown config key {prefix}{key!r}")
    values = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            values[key] = _read(raw.get(key, {}), spec, f"{prefix}{key}.")
            continue
        kind, default = spec
        if key not in raw and default is None:
            raise ValueError(f"{prefix}{key} is missing")
        try:
            values[key] = kind(raw.get(key, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{prefix}{key}: {exc}") from None
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's whole configuration, validated when ``from_file`` reads it."""

    params: Params
    line_grid: PeriodicGrid
    evolution: EvolutionConfig
    omegas: list[float]
    lambdas: list[float]
    lemma_pairs: int
    lemma_lambda_points: int
    lemma_samples: int
    seed: int

    @classmethod
    def from_file(cls, path: str | Path,
                  seed: int | None = None) -> "ExperimentConfig":
        """Read a config and build every field; a bad key or value raises.
        A ``seed`` other than None replaces the config's and is read like it."""
        raw = json.loads(Path(path).read_text())
        if seed is not None and isinstance(raw, dict):
            raw = {**raw, "seed": seed}
        values = _read(raw)
        evolution, lemma = values["evolution"], values["lemma"]
        return cls(
            params=Params(**values["params"]),
            line_grid=PeriodicGrid(evolution["length"], evolution["m"]),
            evolution=EvolutionConfig(evolution["dt"], evolution["t_max"],
                                      evolution["record_every"]),
            omegas=values["sweeps"]["omegas"],
            lambdas=values["sweeps"]["lambdas"],
            lemma_pairs=lemma["pairs"],
            lemma_lambda_points=lemma["lambda_points"],
            lemma_samples=lemma["samples"],
            seed=values["seed"],
        )


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[dict]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])


def write_summary(path: Path, record: dict, timestamp: bool):
    record = dict(record)
    if timestamp:
        record["generated"] = datetime.now(timezone.utc).isoformat()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_groundstate(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    gs = solve_ground_state(cfg.params)
    rows = [{"r": float(r), "phi": float(v)}
            for r, v in zip(gs.profile.grid.r, gs.profile.values)]
    write_csv(out / "profile.csv", ["r", "phi"], rows)
    record = {
        "omega": gs.params.omega,
        "amplitude": gs.amplitude,
        "residual": gs.residual,
        "unit_residual": gs.unit_residual,
        "bracket_lo": gs.bracket[0],
        "bracket_hi": gs.bracket[1],
        "diagnostics": asdict(gs.diagnostics),
        **asdict(gs.report),
    }
    write_summary(out / "groundstate.json", record, timestamp)
    return 0


def cmd_classify(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    if not cfg.omegas:
        print("classify: empty omega sweep", file=sys.stderr)
        return 2
    rows = omega_sweep(cfg.params, cfg.omegas)
    write_csv(out / "classify.csv", list(rows[0]), rows)
    n_bad = sum(r["status"] != "ok" for r in rows)
    write_summary(out / "classify_summary.json",
                  {"rows": len(rows), "failures": n_bad}, timestamp)
    return 0


def cmd_blowup(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    if not cfg.lambdas:
        print("blowup: empty lambda sweep", file=sys.stderr)
        return 2
    gs = solve_ground_state(cfg.params)
    runs = blowup_sweep(gs, cfg.lambdas, cfg.line_grid, cfg.evolution)
    for lam, (_, verdict) in zip(cfg.lambdas, runs):
        if verdict is not None:
            rows = [asdict(rec) for rec in verdict.trace]
            write_csv(out / f"trace_lambda_{lam!r}.csv", list(rows[0]), rows)
    write_summary(out / "blowup_summary.json",
                  {"runs": [row for row, _ in runs]}, timestamp)
    return 0


def cmd_verify_lemma(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    rng = np.random.default_rng(cfg.seed)
    pairs = lemma_lab.sample_exponent_pairs(rng, cfg.lemma_pairs)
    rows = lemma_lab.sign_suite(pairs, cfg.lemma_lambda_points)
    write_csv(out / "sign_suite.csv", list(rows[0]), rows)
    sign_ok = lemma_lab.signs_hold(rows)

    gs = solve_ground_state(cfg.params)
    checks, ke_ok = lemma_lab.key_estimate_audit(gs, rng, cfg.lemma_samples)
    write_csv(out / "key_estimate.csv",
              [f.name for f in fields(lemma_lab.KeyEstimateCheck)],
              [asdict(c) for c in checks])
    write_summary(out / "lemma_summary.json",
                  {"pairs": len(rows), "sign_suite_ok": sign_ok,
                   "key_estimate_samples": len(checks),
                   "key_estimate_ok": ke_ok},
                  timestamp)
    return 0 if (sign_ok and ke_ok) else 1


COMMANDS = {
    "groundstate": cmd_groundstate,
    "classify": cmd_classify,
    "blowup": cmd_blowup,
    "verify-lemma": cmd_verify_lemma,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnls",
        description="Ground states, instability classification and blowup "
                    "runs for the double-power NLS.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", type=Path, default=Path("results"))
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, args.seed)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, args.out,
                                      timestamp=not args.no_timestamp)
    except Exception as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
