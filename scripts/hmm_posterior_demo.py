#!/usr/bin/env python3
"""Smoothing posteriors for the two-state precipitation chain, three ways.

Simulates a trajectory, then computes P(state | all counts) per day by
(a) the log-space forward/backward recursions, (b) two-pass propagation on
the chain cluster tree, and (c) empirical frequencies of exact posterior
path draws.  Prints a per-day table and the worst disagreement between
the three, which should be at rounding level for (a) vs (b) and at
Monte Carlo level for (c).
"""

import argparse

import numpy as np

from beliefprop import hmm
from beliefprop.propagation import CompiledQuery
from beliefprop.sampling import sample_hmm_path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--days", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=20000,
                    help="posterior path draws for the empirical column")
    ap.add_argument("--direction", choices=["forward", "backward"],
                    default="forward", help="path sampling sweep order")
    args = ap.parse_args()

    spec = hmm.precipitation_spec(args.days)
    states, y = hmm.simulate(spec, seed=args.seed)

    # one sweep serves the smoothing column, the path sampler and log P(y)
    fb = hmm.forward_backward(spec, y)
    smooth = hmm.smoothing_posteriors(fb)

    net, ev = hmm.to_bayes_net(spec, [int(k) for k in y])
    cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=0)
    cq.propagate()
    tree = np.stack([cq.variable_posterior(2 * i) for i in range(args.days)])

    paths = sample_hmm_path(spec, y, args.direction, seed=args.seed, count=args.samples)
    empirical = np.stack([(paths == s).mean(axis=0) for s in range(spec.n_states)],
                         axis=1)

    print(f"days={args.days} seed={args.seed} samples={args.samples} "
          f"log P(y) = {hmm.log_likelihood(fb):.6f}")
    print()
    print("day   y  true   P(L|y) fwd/bwd   cluster tree   sampled")
    for i in range(args.days):
        print(f"{i + 1:>3} {y[i]:>3}  {spec.states[states[i]]:>4}"
              f"{smooth[i, 0]:>16.6f}{tree[i, 0]:>15.6f}{empirical[i, 0]:>10.4f}")
    print()
    print(f"max |fwd/bwd - tree|    = {np.abs(smooth - tree).max():.3e}")
    print(f"max |fwd/bwd - sampled| = {np.abs(smooth - empirical).max():.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
