"""Brute-force reference answers by full enumeration.

Everything here is computed straight from the definitions: multiply all
evidence-restricted CPDs into one table over every variable, then sum,
maximize, or slice it.  The only shared machinery is the factor algebra
and the model itself; none of the message-passing code is used, so the
two paths can check each other.

Enumeration is exponential, so every table is planned before it is
built: the joint table, or the table over a message's upstream and
separator variables, must pass the factor module's one entry cap
(``MAX_TABLE_ENTRIES``), or FactorSizeError is raised before anything
is allocated.
"""

from __future__ import annotations

import numpy as np

from .factor import Factor, check_table_size, product
from .jtree import JunctionTree, edge_context
from .model import DiscreteNetwork, EvidenceSet, build_potentials


def joint_table(net: DiscreteNetwork, evidence: EvidenceSet) -> Factor:
    """Unnormalized P(all variables, evidence) as one dense factor."""
    ids = sorted(net.ids)
    check_table_size(
        (net.card(u) for u in ids), f"joint table over {len(ids)} variables"
    )
    pots = build_potentials(net, evidence)
    return product(pots[u] for u in ids).expand(ids, net.cards)


def oracle_message(
    net: DiscreteNetwork, evidence: EvidenceSet, jt: JunctionTree, i: int, j: int
) -> Factor:
    """Message along i -> j computed literally from its definition:
    multiply the potentials of every variable assigned on the i side of
    the edge, then sum out those not in the separator."""
    ctx = edge_context(jt, i, j)
    scope_bound = ctx.upstream | ctx.separator
    check_table_size(
        (net.card(u) for u in scope_bound),
        f"table over {len(scope_bound)} variables for message {i} -> {j}",
    )
    pots = build_potentials(net, evidence)
    prod = product(pots[u] for u in sorted(ctx.upstream))
    msg = prod.marginalize_sum(set(prod.scope) - ctx.separator)
    return msg.expand(sorted(ctx.separator), net.cards)


def oracle_marginal(net: DiscreteNetwork, evidence: EvidenceSet, keep) -> Factor:
    """Unnormalized P(kept variables, evidence) from the joint table."""
    keep = set(int(u) for u in keep)
    unknown = keep - set(net.ids)
    if unknown:
        raise KeyError(f"unknown variable ids {sorted(unknown)}")
    joint = joint_table(net, evidence)
    return joint.marginalize_sum(set(joint.scope) - keep)


def oracle_log_probability(net: DiscreteNetwork, evidence: EvidenceSet) -> float:
    """log P(evidence) by summing the whole joint table."""
    return joint_table(net, evidence).total_log_mass()


def oracle_posterior(net: DiscreteNetwork, evidence: EvidenceSet, u: int) -> np.ndarray:
    """P(u | evidence) by enumeration; evidence must be possible."""
    return oracle_posteriors(net, evidence, [u])[0]


def oracle_posteriors(net: DiscreteNetwork, evidence: EvidenceSet, ids: list) -> list[np.ndarray]:
    """``oracle_posterior`` of each variable in ``ids``, all read from one joint table."""
    # every id kept: the whole joint, after the KeyError check on ``ids``
    joint, out = oracle_marginal(net, evidence, [*net.ids, *ids]), []
    for u in map(int, ids):
        values = joint.marginalize_sum(set(joint.scope) - {u}).values
        total = float(values.sum())
        if total <= 0.0:
            raise ValueError("posterior undefined: evidence has probability zero")
        out.append(values / total)
    return out


def oracle_map(
    net: DiscreteNetwork, evidence: EvidenceSet
) -> tuple[dict[int, int], float]:
    """Most probable assignment by scanning the joint table.

    Returns the assignment and its unnormalized probability (linear
    scale).  Ties resolve to the first maximum in canonical table order,
    i.e. the lowest state indices.
    """
    joint = joint_table(net, evidence)
    flat = int(np.argmax(joint.values))
    states = np.unravel_index(flat, joint.values.shape)
    assignment = {u: int(s) for u, s in zip(joint.scope, states)}
    return assignment, float(joint.values[states]) * float(np.exp(joint.log_scale))
