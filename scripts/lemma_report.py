#!/usr/bin/env python3
"""Spot-check the variational inequality machinery and print worst cases.

Samples random exponent pairs for the scalar sign suite, then random
perturbed states for the key estimate Q/2 <= S(v) - S(phi) (the same
audit as ``dpnls verify-lemma``), reporting the verdicts and the tightest
margins seen.  A state that meets the Lemma hypotheses but violates a step
of the proof's chain raises PreconditionError.

Usage: python scripts/lemma_report.py [--pairs 200] [--samples 100] [--seed 0]
"""

import argparse

import numpy as np

from dpnls.params import Params
from dpnls.groundstate import solve_ground_state
from dpnls import lemma_lab


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    rows = lemma_lab.sign_suite(
        lemma_lab.sample_exponent_pairs(rng, args.pairs))
    print(f"sign suite over {len(rows)} exponent pairs:")
    print(f"  worst h_min  {min(r['h_min'] for r in rows):+.3e}")
    print(f"  worst g1_min {min(r['g1_min'] for r in rows):+.3e}")
    print(f"  worst g2_max {max(r['g2_max'] for r in rows):+.3e}")
    print(f"  worst g3_min {min(r['g3_min'] for r in rows):+.3e}")
    print(f"  signs hold: {lemma_lab.signs_hold(rows)}")

    gs = solve_ground_state(Params(1, 1.0, 1.0, 3.0, 7.0, 1.0))
    checks, ok = lemma_lab.key_estimate_audit(gs, rng, args.samples)
    worst = min((c.margin for c in checks), default=np.inf)
    print(f"\nkey estimate over {len(checks)} filtered states:")
    print(f"  worst margin {worst:+.3e} (nonnegative means the "
          f"inequality held)")
    print(f"  estimate holds: {ok}")


if __name__ == "__main__":
    main()
