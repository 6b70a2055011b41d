"""Command-line front end: solve, classify, blowup and lemma-verification runs.

Commands read a JSON config of nested sections and write CSV/JSON results
into the output directory.  The whole config is validated when it is read:
a key the schema does not name, or a value its section rejects, is a
config error.  Runs with a fixed seed are deterministic; a
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

from .params import Params, PeriodicGrid
from .groundstate import solve_ground_state
from .stability import blowup_sweep, omega_sweep
from .evolution import EvolutionConfig
from . import lemma_lab


#: The keys each config section may hold; ``None`` marks a plain value.
CONFIG_KEYS = {
    "params": ("N", "a", "b", "p", "q", "omega"),
    "evolution": ("length", "m", "dt", "t_max", "record_every"),
    "sweeps": ("omegas", "lambdas"),
    "lemma": ("pairs", "lambda_points", "samples"),
    "seed": None,
}


def _check_keys(raw):
    """Raise ValueError naming the first key CONFIG_KEYS does not list."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    for section, value in raw.items():
        if section not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {section!r}")
        allowed = CONFIG_KEYS[section]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key in value:
            if key not in allowed:
                raise ValueError(f"unknown config key {section}.{key!r}")


def _value(raw: dict, name: str, kind, default=None):
    """The config value at "section.key" or a top-level key, converted by
    ``kind``; ``default`` if absent.  Every ValueError names the key."""
    section, _, key = name.rpartition(".")
    where = raw.get(section, {}) if section else raw
    if key not in where:
        if default is None:
            raise ValueError(f"{name} is missing")
        return default
    try:
        return kind(where[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _whole(value) -> int:
    """An integer config value, a count or a seed: a non-negative whole
    number such as 2 or 2.0."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ValueError(f"expected a non-negative whole number, got {value!r}")


def _real(value) -> float:
    """A finite int or float config value; not a bool, a string, NaN or inf."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and np.isfinite(float(value))):
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def _floats(values) -> list[float]:
    return [_real(v) for v in values]


@dataclass
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
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Read a config and build every field; a bad key or value raises."""
        raw = json.loads(Path(path).read_text())
        _check_keys(raw)
        params = Params(_value(raw, "params.N", _whole),
                        *(_value(raw, f"params.{key}", _real)
                          for key in ("a", "b", "p", "q", "omega")))
        line_grid = PeriodicGrid(_value(raw, "evolution.length", _real, 32.0),
                                 _value(raw, "evolution.m", _whole, 65536))
        evolution = EvolutionConfig(
            dt=_value(raw, "evolution.dt", _real, 5e-4),
            t_max=_value(raw, "evolution.t_max", _real, 60.0),
            record_every=_value(raw, "evolution.record_every", _whole,
                                EvolutionConfig.record_every))
        pairs = _value(raw, "lemma.pairs", _whole, 100)
        lambda_points = _value(raw, "lemma.lambda_points", _whole, 10000)
        samples = _value(raw, "lemma.samples", _whole, 200)
        if min(pairs, samples, lambda_points - 1) < 1:
            raise ValueError("lemma needs pairs, samples >= 1, lambda_points >= 2")
        return cls(
            params=params,
            line_grid=line_grid,
            evolution=evolution,
            omegas=_value(raw, "sweeps.omegas", _floats, []),
            lambdas=_value(raw, "sweeps.lambdas", _floats, []),
            lemma_pairs=pairs,
            lemma_lambda_points=lambda_points,
            lemma_samples=samples,
            seed=_value(raw, "seed", _whole, 0),
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
        "decay_rate": gs.decay_rate,
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
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = _value(vars(args), "seed", _whole)
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
