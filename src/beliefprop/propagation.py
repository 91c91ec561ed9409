"""Message passing on a junction tree.

Evidence is folded into per-variable potentials (CPD times indicator),
each cluster multiplies the potentials of the variables assigned to it,
and messages flow along tree edges: the message from j to k is the
cluster potential of j times all incoming messages except k's, with the
non-separator variables summed out.  After an inward pass to the query's
one root cluster and an outward pass back, every cluster and edge holds
an unnormalized marginal whose total mass is the evidence probability.

Messages are renormalized to unit maximum, with the removed
mass tracked in each factor's log scale, so long chains cannot
underflow.  Both passes are iterative (explicit stacks), so tree depth
is not limited by the interpreter's recursion limit.

The same inward pass run in the max-sum semiring yields most-probable
assignments: maximize instead of marginalize, then extend the root's
argmax downward edge by edge.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .factor import Factor, product
from .jtree import (
    InvalidJunctionTreeError,
    JunctionTree,
    assign_clusters,
    build_junction_tree,
    validate_junction_tree,
)
from .model import (
    DiscreteNetwork,
    EvidenceSet,
    InvalidNetworkError,
    validate_network,
)


# children of each cluster, and a parent-before-child cluster order
Schedule = tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]


class SchedulingError(RuntimeError):
    """A message was requested before its prerequisites were computed."""


class ImpossibleEvidenceError(ValueError):
    """A conditional quantity was requested under zero-probability evidence."""


def build_potentials(net: DiscreteNetwork, evidence: EvidenceSet) -> dict[int, Factor]:
    """One factor per variable: its CPD with the child's disallowed states
    zeroed.

    Each variable's indicator is applied exactly once, in its own
    potential, never where the variable appears as a parent.  Products
    over sets of potentials therefore carry each restriction once, and
    a single potential restricted this way still matches the message
    definitions entry for entry.
    """
    out: dict[int, Factor] = {}
    for u in net.ids:
        factor = net.cpd_factor(u)
        if evidence.restricts(u):
            factor = factor.restrict({u: evidence.allowed[u]})
        out[u] = factor
    return out


def joint_score(net: DiscreteNetwork, evidence: EvidenceSet, assignment: Mapping[int, int]) -> float:
    """Probability of one full assignment times the evidence indicator.

    Multiplies CPD entries in ascending variable order; used to score
    candidate most-probable assignments on a common footing.
    """
    score = 1.0
    for u in sorted(net.ids):
        state = assignment[u]
        if not evidence.permits(u, state):
            return 0.0
        cpd = net.cpd(u)
        row = 0
        for p in cpd.parents:
            row = row * net.card(p) + assignment[p]
        score *= float(cpd.table[row, state])
    return score


class CompiledQuery:
    """A network, evidence, and junction tree wired up for propagation.

    ``root`` fixes the one rooted schedule that inward(), outward(),
    map_assignment() and the samplers all follow; ``parent`` maps every
    other cluster to its neighbour toward the root.  The two message
    stores (sum and max semiring) start empty; inward() and outward()
    fill them.  Marginal accessors require the messages they read to
    exist and raise SchedulingError otherwise.
    """

    def __init__(
        self,
        net: DiscreteNetwork,
        evidence: EvidenceSet | None = None,
        jtree: JunctionTree | None = None,
        root: int = 0,
        validate: bool = True,
    ):
        self.net = net
        self.evidence = evidence if evidence is not None else EvidenceSet.none()
        if validate:
            report = validate_network(net)
            if not report.ok:
                raise InvalidNetworkError(report)
        if jtree is None:
            jtree = build_junction_tree(net)
        if validate:
            report = validate_junction_tree(net, jtree)
            if not report.ok:
                raise InvalidJunctionTreeError(report)
        if jtree.assignment is None:
            jtree = JunctionTree(jtree.clusters, jtree.edges, assign_clusters(net, jtree))
        self.jtree = jtree
        if not (0 <= root < jtree.q):
            raise ValueError(f"root cluster {root} out of range")
        self.root = root
        self._schedules: dict[int, Schedule] = {}
        children, order = self.rooted_children(root)
        self.parent = MappingProxyType({k: j for j in order for k in children[j]})
        self.potentials = build_potentials(net, self.evidence)
        # variables of each cluster in ascending id order; a home out of
        # range (possible with validate=False) owns nothing
        members: list[list[int]] = [[] for _ in range(jtree.q)]
        for u, j in sorted(jtree.assignment.items()):
            if 0 <= j < jtree.q:
                members[j].append(u)
        self.cluster_potentials: list[Factor] = [
            product(self.potentials[u] for u in us) for us in members
        ]
        self._messages: dict[tuple[str, int, int], Factor] = {}

    # -- schedule ----------------------------------------------------------

    def rooted_children(self, root: int) -> Schedule:
        """Children map and a parent-before-child cluster order.

        Computed once per root and returned read-only on later calls.
        """
        if root in self._schedules:
            return self._schedules[root]
        children: dict[int, tuple[int, ...]] = {}
        order: list[int] = []
        seen = {root}
        stack = [root]
        while stack:
            j = stack.pop()
            order.append(j)
            kids = tuple(k for k in self.jtree.neighbors(j) if k not in seen)
            children[j] = kids
            seen.update(kids)
            # reversed so the lowest-index child is processed first
            stack.extend(reversed(kids))
        schedule = (MappingProxyType(children), tuple(order))
        self._schedules[root] = schedule
        return schedule

    def inward(self, semiring: str = "sum") -> None:
        """Send messages from the leaves toward the root."""
        _, order = self.rooted_children(self.root)
        for j in reversed(order[1:]):
            self.compute_message(j, self.parent[j], semiring=semiring)

    def outward(self) -> None:
        """Send sum messages from the root back toward the leaves."""
        _, order = self.rooted_children(self.root)
        for j in order[1:]:
            self.compute_message(self.parent[j], j)

    def propagate(self) -> "CompiledQuery":
        self.inward()
        self.outward()
        return self

    # -- messages ----------------------------------------------------------

    def has_message(self, i: int, j: int, semiring: str = "sum") -> bool:
        return (semiring, i, j) in self._messages

    def message(self, i: int, j: int, semiring: str = "sum") -> Factor:
        try:
            return self._messages[(semiring, i, j)]
        except KeyError:
            raise SchedulingError(
                f"message {i} -> {j} ({semiring}) has not been computed; "
                "run the inward pass (then the outward pass) first"
            ) from None

    def cluster_product(
        self, j: int, skip: int | None = None, semiring: str = "sum"
    ) -> Factor:
        """Cluster potential of j times every stored message into j except
        the one from ``skip``, all from the ``semiring`` store.

        The one product behind every other quantity: messages (``skip``
        is the receiver), cluster marginals (no ``skip``), the MAP
        extension and the sampling conditionals (``skip`` is the parent
        toward the root).
        """
        pieces = [self.cluster_potentials[j]]
        for i in self.jtree.neighbors(j):
            if i != skip:
                pieces.append(self.message(i, j, semiring))
        return product(pieces)

    def cluster_table(
        self, j: int, skip: int | None = None, semiring: str = "sum"
    ) -> Factor:
        """``cluster_product`` laid out over every variable of cluster j."""
        return self.cluster_product(j, skip, semiring).expand(
            sorted(self.jtree.clusters[j]), self.net.cards
        )

    def compute_message(self, j: int, k: int, semiring: str = "sum") -> Factor:
        """Message along the directed edge j -> k.

        ``cluster_product(j, k)`` with everything outside the separator
        summed (or maximized) out.  The result's scope is exactly the
        separator, broadcasting over separator variables that no factor
        mentions.
        """
        if semiring not in ("sum", "max"):
            raise ValueError(f"unknown semiring {semiring!r}")
        sep = sorted(self.jtree.separator(j, k))
        prod = self.cluster_product(j, k, semiring)
        drop = set(prod.scope) - set(sep)
        if semiring == "sum":
            msg = prod.marginalize_sum(drop)
        else:
            msg = prod.marginalize_max(drop)
        msg = msg.expand(sep, self.net.cards).rescaled_unit_max()
        self._messages[(semiring, j, k)] = msg
        return msg

    # -- marginals ---------------------------------------------------------

    def edge_marginal(self, i: int, j: int) -> Factor:
        """Unnormalized P(separator, evidence) from the two edge messages."""
        return self.message(i, j) * self.message(j, i)

    def cluster_marginal(self, j: int) -> Factor:
        """Unnormalized P(cluster, evidence): potential times all inputs."""
        return self.cluster_table(j)

    def evidence_log_probability(self) -> float:
        """log P(evidence); -inf when the evidence is impossible.

        Reads the root cluster marginal, so only the inward pass is
        required.
        """
        return self.cluster_marginal(self.root).total_log_mass()

    def variable_posterior(self, u: int) -> np.ndarray:
        """P(variable | evidence) read from the variable's home cluster."""
        j = self.jtree.assignment[u]
        marginal = self.cluster_marginal(j)
        single = marginal.marginalize_sum(set(marginal.scope) - {u})
        total = float(single.values.sum())
        if total <= 0.0:
            raise ImpossibleEvidenceError(
                "posterior undefined: evidence has probability zero"
            )
        return single.values / total

    def posterior_table(self) -> dict[int, np.ndarray]:
        return {u: self.variable_posterior(u) for u in sorted(self.net.ids)}

    # -- most probable assignment ------------------------------------------

    def map_assignment(self) -> tuple[dict[int, int], float]:
        """Most probable full assignment under the evidence.

        Returns the assignment and log P(assignment, evidence).  Ties are
        broken toward lower state indices (first maximum in the canonical
        table order at the root and at every downward extension).
        """
        if not all(self.has_message(j, k, "max") for j, k in self.parent.items()):
            self.inward(semiring="max")
        marginal = self.cluster_table(self.root, semiring="max")
        peak = float(marginal.values.max())
        if peak <= 0.0:
            raise ImpossibleEvidenceError(
                "no assignment is consistent with the evidence"
            )
        log_value = math.log(peak) + marginal.log_scale
        assignment: dict[int, int] = {}
        _extend_argmax(marginal, assignment)
        children, order = self.rooted_children(self.root)
        for j in order:
            for k in children[j]:
                _extend_argmax(self.cluster_table(k, j, "max"), assignment)
        return assignment, log_value


def _extend_argmax(table: Factor, assignment: dict[int, int]) -> None:
    """Fix the table's unassigned variables at their first maximum given
    the assigned ones."""
    free = [u for u in table.scope if u not in assignment]
    if not free:
        return
    index = tuple(
        assignment[u] if u in assignment else slice(None) for u in table.scope
    )
    sub = table.values[index]
    flat = int(np.argmax(sub))
    for u, s in zip(free, np.unravel_index(flat, sub.shape)):
        assignment[u] = int(s)


def compile_query(
    net: DiscreteNetwork,
    evidence: EvidenceSet | None = None,
    jtree: JunctionTree | None = None,
    root: int = 0,
    validate: bool = True,
) -> CompiledQuery:
    """Build a CompiledQuery and run both sum-product passes."""
    return CompiledQuery(net, evidence, jtree=jtree, root=root, validate=validate).propagate()
