#!/usr/bin/env python3
"""Evolve compressed ground-state data and watch the gradient norm run away.

Solves the omega = 1 ground state, compresses it by lambda, and runs the
split-step integrator and its audits until the blowup detector fires (the
same run as one lambda of ``dpnls blowup``), printing the trace and the
run's summary row.

Usage: python scripts/blowup_demo.py [--lam 1.2] [--m 65536] [--dt 5e-4]
"""

import argparse

from dpnls.params import Params, PeriodicGrid
from dpnls.groundstate import solve_ground_state
from dpnls.stability import blowup_run
from dpnls.evolution import EvolutionConfig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lam", type=float, default=1.2)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--length", type=float, default=32.0)
    ap.add_argument("--m", type=int, default=65536)
    ap.add_argument("--dt", type=float, default=5e-4)
    ap.add_argument("--t-max", type=float, default=60.0)
    args = ap.parse_args()

    params = Params(1, 1.0, 1.0, 3.0, 7.0, args.omega)
    print(f"solving ground state at omega = {args.omega} ...")
    gs = solve_ground_state(params)
    print(f"  amplitude {gs.amplitude:.6f}, S = {gs.report.action:.6f}, "
          f"residual {gs.residual:.2e}")

    grid = PeriodicGrid(args.length, args.m)
    cfg = EvolutionConfig(dt=args.dt, t_max=args.t_max)
    print(f"evolving lambda = {args.lam} data "
          f"(grid {args.m} points, dt = {args.dt:g}) ...")
    row, verdict = blowup_run(gs, args.lam, grid, cfg)

    print(f"{'t':>8} {'sup|u|':>10} {'grad^2':>12} {'Q':>12} {'var':>10}")
    for rec in verdict.trace[:: max(1, len(verdict.trace) // 20)]:
        print(f"{rec.t:8.3f} {rec.sup_amp:10.4f} {rec.grad_norm_sq:12.4f} "
              f"{rec.virial_q:12.4f} {rec.variance:10.4f}")
    print()
    for key, value in row.items():
        print(f"{key + ':':17} {value}")


if __name__ == "__main__":
    main()
