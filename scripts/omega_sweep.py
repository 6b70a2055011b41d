#!/usr/bin/env python3
"""Sweep omega, solve the ground state at each value, and print the
instability classification table.

Usage: python scripts/omega_sweep.py [--omegas 0.5 1 2 10] [--csv out.csv]
"""

import argparse
from pathlib import Path

from dpnls.params import Params
from dpnls.stability import omega_sweep
from dpnls.cli import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--omegas", type=float, nargs="+",
                    default=[0.25, 0.5, 0.75, 1.0, 2.0, 5.0, 10.0])
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--p", type=float, default=3.0)
    ap.add_argument("--q", type=float, default=7.0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    # omega_sweep sets each omega of the sweep, so an inadmissible one is a
    # row of the table, as in ``dpnls classify``; 1.0 only fills the slot
    params = Params(args.N, args.a, args.b, args.p, args.q, 1.0)
    rows = omega_sweep(params, args.omegas)
    print(f"{'omega':>8} {'amplitude':>12} {'S':>12} {'E':>12} "
          f"{'d2s':>12}  criterion")
    for row in rows:
        tag = row["status"]
        if tag == "ok":
            tag = "met" if row["criterion_met"] else "not met"
        print(f"{row['omega']:8.3f} {row['amplitude']:12.6f} "
              f"{row['action']:12.6f} {row['energy']:12.6f} "
              f"{row['d2s']:12.6f}  {tag}")

    if args.csv:
        write_csv(Path(args.csv), list(rows[0]), rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
