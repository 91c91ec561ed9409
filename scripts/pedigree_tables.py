#!/usr/bin/env python3
"""Print the full message and posterior tables for the pedigree model.

Runs both passes on the hand-built seven-cluster tree and dumps every
separator table (inward and outward), the evidence probability, each
variable's posterior, and the joint posterior of the central couple.
Useful as a worked end-to-end trace when checking the engine against
tables computed by hand.
"""

import argparse
import math
import pathlib

import numpy as np

from beliefprop.cli import load_evidence, load_network
from beliefprop.jtree import JunctionTree, assign_clusters
from beliefprop.propagation import CompiledQuery

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the reference tree for the ten-variable pedigree; cluster 0 holds the
# founder couple and their children
CLUSTER_NAMES = (
    ("X1", "X2", "X3", "X4"),
    ("X3", "X4", "X9"),
    ("X4", "X6", "X9"),
    ("X3", "X7", "X9"),
    ("X7", "X9", "X10"),
    ("X3", "X5", "X7"),
    ("X3", "X5", "X8"),
)
EDGES = ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6))


def reference_tree(net) -> JunctionTree:
    ids = {v.name: v.id for v in net.variables}
    clusters = tuple(frozenset(ids[n] for n in names) for names in CLUSTER_NAMES)
    jt = JunctionTree(clusters, EDGES)
    return JunctionTree(clusters, EDGES, assign_clusters(net, jt))


def print_message(cq, i: int, j: int, scale: float) -> None:
    msg = cq.message(i, j)
    names = [cq.net.variable(u).name for u in msg.scope]
    states = [cq.net.variable(u).states for u in msg.scope]
    table = msg.linear() * scale
    suffix = " (x1000)" if scale != 1.0 else ""
    print(f"message {i} -> {j} over ({', '.join(names)}){suffix}")
    if table.ndim == 2:
        header = "".join(f"{s:>10}" for s in states[1])
        print(f"  {'':>6}{header}")
        for r, row in enumerate(table):
            cells = "".join(f"{v:>10.6g}" for v in row)
            print(f"  {states[0][r]:>6}{cells}")
    else:
        for idx in np.ndindex(*table.shape):
            label = " ".join(f"{n}={st[k]}" for n, st, k in zip(names, states, idx))
            print(f"  {label}  {table[idx]:.6g}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=int, default=0, help="root cluster index")
    ap.add_argument(
        "--scale-outward",
        action="store_true",
        help="print outward tables multiplied by 1000, matching the "
        "convention of the published hand computation",
    )
    args = ap.parse_args()

    net = load_network(str(FIXTURES / "pedigree.json"))
    ev = load_evidence(str(FIXTURES / "ped_ev.json"), net)
    jt = reference_tree(net)
    cq = CompiledQuery(net, ev, jtree=jt, root=args.root).propagate()

    log_p = cq.evidence_log_probability()
    print(f"P(evidence) = {math.exp(log_p):.9e}   log = {log_p:.9f}\n")

    children, order = cq.jtree.rooted(args.root)
    inward = [(k, j) for j in order for k in children[j]]
    print("== inward pass ==\n")
    for i, j in reversed(inward):
        print_message(cq, i, j, 1.0)
    print("== outward pass ==\n")
    for parent, child in [(j, i) for i, j in inward]:
        print_message(cq, parent, child, 1000.0 if args.scale_outward else 1.0)

    print("== posteriors ==\n")
    for u in sorted(net.ids):
        v = net.variable(u)
        row = cq.variable_posterior(u)
        cells = "  ".join(f"{s}={p:.6g}" for s, p in zip(v.states, row))
        print(f"  {v.name:>4}  {cells}")

    couple = cq.edge_marginal(5, 6)
    table = couple.linear()
    table = table / table.sum()
    print("\n== joint posterior of the couple (X3 rows, X5 columns) ==\n")
    for r, row in enumerate(table):
        cells = "".join(f"{v:>10.6g}" for v in row)
        print(f"  {net.variable(2).states[r]:>6}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
