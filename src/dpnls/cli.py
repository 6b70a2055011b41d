"""Command-line front end: solve, classify, blowup and lemma-verification runs.

Commands read a JSON config of nested sections and write CSV/JSON results
into the output directory.  A key the config schema does not name is a
config error.  Runs with a fixed seed are deterministic; a
timestamp line in the summary can be suppressed with --no-timestamp for
byte-identical reruns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .params import ERRORS, Params, PeriodicGrid, PreconditionError, RadialGrid
from .functionals import functionals
from .groundstate import default_grid, solve_ground_state
from .stability import make_scaled_data, omega_sweep
from .evolution import (
    EvolutionConfig,
    TraceRecord,
    b_omega_invariance_audit,
    concavity_audit,
    evolve,
    uniform_prefix,
    virial_check,
)
from . import lemma_lab


#: The keys each config section may hold; ``None`` marks a plain value.
CONFIG_KEYS = {
    "params": ("N", "a", "b", "p", "q", "omega"),
    "grid": ("rmax", "n"),
    "solver": ("tol",),
    "evolution": ("length", "m", "dt", "t_max", "blowup_grad_factor",
                  "blowup_amp_factor", "cfl_shrink", "record_every"),
    "sweeps": ("omegas", "lambdas"),
    "lemma": ("pairs", "lambda_points", "samples"),
    "seed": None,
    "out": None,
}


def _check_keys(raw: dict):
    """Raise ValueError naming the first key CONFIG_KEYS does not list."""
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


@dataclass
class ExperimentConfig:
    params: Params
    grid_rmax: float | None = None
    grid_n: int | None = None
    solver_tol: float = 1e-8
    evolution: dict = field(default_factory=dict)
    omegas: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    lemma_pairs: int = 100
    lemma_lambda_points: int = 10000
    lemma_samples: int = 200
    seed: int = 0
    out: str = "results"

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text())
        _check_keys(raw)
        p = raw["params"]
        params = Params(int(p["N"]), float(p["a"]), float(p["b"]),
                        float(p["p"]), float(p["q"]), float(p["omega"]))
        grid = raw.get("grid", {})
        lemma = raw.get("lemma", {})
        sweeps = raw.get("sweeps", {})
        return cls(
            params=params,
            grid_rmax=grid.get("rmax"),
            grid_n=grid.get("n"),
            solver_tol=float(raw.get("solver", {}).get("tol", 1e-8)),
            evolution=raw.get("evolution", {}),
            omegas=[float(w) for w in sweeps.get("omegas", [])],
            lambdas=[float(l) for l in sweeps.get("lambdas", [])],
            lemma_pairs=int(lemma.get("pairs", 100)),
            lemma_lambda_points=int(lemma.get("lambda_points", 10000)),
            lemma_samples=int(lemma.get("samples", 200)),
            seed=int(raw.get("seed", 0)),
            out=raw.get("out", "results"),
        )

    def radial_grid(self) -> RadialGrid | None:
        if self.grid_rmax is None and self.grid_n is None:
            return None
        base = default_grid(self.params)
        return RadialGrid(self.grid_rmax or base.rmax, self.grid_n or base.n)

    def evolution_grid(self) -> PeriodicGrid:
        ev = self.evolution
        return PeriodicGrid(float(ev.get("length", 32.0)), int(ev.get("m", 65536)))

    def evolution_config(self) -> EvolutionConfig:
        ev = self.evolution
        return EvolutionConfig(
            dt=float(ev.get("dt", 5e-4)),
            t_max=float(ev.get("t_max", 60.0)),
            blowup_grad_factor=float(ev.get("blowup_grad_factor", 50.0)),
            blowup_amp_factor=float(ev.get("blowup_amp_factor", 20.0)),
            cfl_shrink=float(ev.get("cfl_shrink", 0.5)),
            record_every=int(ev.get("record_every", 100)),
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


def _solve(cfg: ExperimentConfig):
    return solve_ground_state(cfg.params, cfg.radial_grid(), cfg.solver_tol)


def cmd_groundstate(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    gs = _solve(cfg)
    rows = [{"r": float(r), "phi": float(v)}
            for r, v in zip(gs.profile.grid.r, gs.profile.values)]
    write_csv(out / "profile.csv", ["r", "phi"], rows)
    record = {
        "omega": gs.params.omega,
        "amplitude": gs.amplitude,
        "residual": gs.residual,
        "decay_rate": gs.decay_rate,
        "bracket_lo": gs.bracket[0],
        "bracket_hi": gs.bracket[1],
        **gs.report.as_record(),
    }
    write_summary(out / "groundstate.json", record, timestamp)
    return 0


def cmd_classify(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    if not cfg.omegas:
        print("classify: empty omega sweep", file=sys.stderr)
        return 2
    rows = omega_sweep(cfg.params, cfg.omegas, cfg.radial_grid(),
                       cfg.solver_tol)
    write_csv(out / "classify.csv",
              ["omega", "d2s", "energy", "criterion_met", "status"], rows)
    n_bad = sum(r["status"] != "ok" for r in rows)
    write_summary(out / "classify_summary.json",
                  {"rows": len(rows), "failures": n_bad}, timestamp)
    return 0


TRACE_HEADER = [f.name for f in fields(TraceRecord)]


def cmd_blowup(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    if not cfg.lambdas:
        print("blowup: empty lambda sweep", file=sys.stderr)
        return 2
    gs = _solve(cfg)
    grid = cfg.evolution_grid()
    evcfg = cfg.evolution_config()
    verdicts = []
    for lam in cfg.lambdas:
        entry = {"lambda": lam, "status": "ok"}
        try:
            u0 = make_scaled_data(gs, lam, grid)
            verdict = evolve(u0, cfg.params, evcfg)
            uni = uniform_prefix(verdict.trace)
            entry.update(
                blew_up=verdict.blew_up,
                t_detect=verdict.t_detect,
                reason=verdict.reason or "",
                invariance_audit=b_omega_invariance_audit(verdict, gs),
                concavity_audit=(concavity_audit(uni, gs)
                                 if len(uni) >= 5 else None),
                virial_mismatch=(virial_check(uni) if len(uni) >= 5 else None),
            )
            write_csv(out / f"trace_lambda_{lam:g}.csv", TRACE_HEADER,
                      [rec.as_record() for rec in verdict.trace])
            if verdict.inconclusive:
                entry["status"] = "inconclusive"
        except ERRORS as exc:
            entry["status"] = f"error: {exc}"
        verdicts.append(entry)
    write_summary(out / "blowup_summary.json", {"runs": verdicts}, timestamp)
    return 0


def cmd_verify_lemma(cfg: ExperimentConfig, out: Path, timestamp: bool) -> int:
    rng = np.random.default_rng(cfg.seed)
    pairs = lemma_lab.sample_exponent_pairs(rng, cfg.lemma_pairs)
    lam_grid = np.linspace(1e-6, 1.0 - 1e-6, cfg.lemma_lambda_points)
    rows = lemma_lab.sign_suite(pairs, lam_grid)
    write_csv(out / "sign_suite.csv",
              ["alpha", "beta", "h_min", "g1_min", "g2_max", "g3_min",
               "g1_max_increase", "g3_max_increase"], rows)
    slack = 1e-9
    sign_ok = all(r["h_min"] >= -slack and r["g1_min"] >= -slack
                  and r["g2_max"] <= slack and r["g3_min"] >= -slack
                  for r in rows)

    gs = _solve(cfg)
    ke_rows = []
    ke_ok = True
    candidates = lemma_lab.perturbed_profiles(gs, rng, cfg.lemma_samples * 3)
    kept = 0
    for prof in candidates:
        if kept >= cfg.lemma_samples:
            break
        rep = functionals(prof, cfg.params)
        try:
            lemma_lab.check_hypotheses(rep, gs)
        except PreconditionError:
            continue
        chk = lemma_lab.key_estimate_check(rep, gs)
        kept += 1
        ke_rows.append({"lambda0": chk.lambda0, "lhs": chk.lhs,
                        "rhs": chk.rhs, "margin": chk.margin})
        if chk.margin < -1e-8 * max(1.0, abs(chk.rhs)):
            ke_ok = False
    write_csv(out / "key_estimate.csv", ["lambda0", "lhs", "rhs", "margin"],
              ke_rows)
    write_summary(out / "lemma_summary.json",
                  {"pairs": len(rows), "sign_suite_ok": sign_ok,
                   "key_estimate_samples": kept, "key_estimate_ok": ke_ok},
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
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.out if args.out is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, timestamp=not args.no_timestamp)
    except Exception as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
