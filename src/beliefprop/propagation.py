"""Message passing on a junction tree.

Each variable's potential is the paper's K_u, its CPD with its own
allowed set masked (``build_potentials``).  Each cluster multiplies the
potentials of the variables assigned to it, and messages flow along tree
edges: the message from j to k is the cluster potential of j times all
incoming messages except k's, with the non-separator variables summed
out.  After an inward pass to the query's one root cluster and an
outward pass back, every cluster and edge holds an unnormalized marginal
whose total mass is the evidence probability.

The tree fixes the scope of every such table, so a query lays each
cluster out once and builds one product per distinct cluster (see
``CompiledQuery``); the message kernel then reads per-edge records and
runs on bare arrays.  Only the layouts slice: each potential is read at
the state of every variable the evidence pins to one state (factor
reduction), so the arrays leave those variables out until a caller
asks for a table that has them (``CompiledQuery._with_observed``).
A query refuses a tree it cannot lay out or schedule (``CompiledQuery``);
running intersection is checked only by ``validate_junction_tree``.

Messages are renormalized to unit maximum, with the removed
mass tracked in each message's log scale, so long chains cannot
underflow.  Both passes are iterative (explicit stacks), so tree depth
is not limited by the interpreter's recursion limit.

The same inward pass run in the max semiring yields most-probable
assignments: maximize instead of marginalize, then walk the query's one
root-first order, index each cluster's sliced max table at the
separator states the walk has fixed and take the first maximum of that
one row.  Posterior sampling walks the same order over the sum tables
laid out by ``cluster_rows`` (one row per separator assignment).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import chain, filterfalse, groupby, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .factor import Factor, _integer, _require_finite, _trusted, check_table_size
from .jtree import (
    InvalidJunctionTreeError,
    JunctionTree,
    JunctionTreeError,
    assign_clusters,
    assignment_violations,
    build_junction_tree,
    tree_violations,
    validate_junction_tree,
)
from .model import (
    DiscreteNetwork,
    EvidenceSet,
    InvalidNetworkError,
    ValidationReport,
    build_potentials,
    validate_network,
)


class SchedulingError(RuntimeError):
    """A message was requested before its prerequisites were computed."""


class ImpossibleEvidenceError(ValueError):
    """A conditional quantity was requested under zero-probability evidence."""


class _Layout(NamedTuple):
    """A cluster's whole scope, then what the kernel reads, observed variables
    left out; ``seps`` maps each neighbour, ascending, to its edge record: whole
    and sliced separator, view in ``scope``, shape and the axes outside it."""

    full: tuple[int, ...]
    scope: tuple[int, ...]
    shape: tuple[int, ...]
    potential: np.ndarray
    log_scale: float
    seps: dict[int, tuple]


@dataclass(frozen=True)
class ClusterRows:
    """One cluster's table laid out for root-first decoding.

    ``table``, the sum table up to a positive scale, has one row per
    assignment of ``sep``, the separator toward the query's root (empty
    at the root), and one column per assignment of ``free``, the
    cluster's other variables, both flattened in canonical order
    (ascending ids, last fastest).  ``sep`` leaves out variables pinned
    to one state by the evidence (``row`` ignores states given for
    them); ``free`` keeps them, with exact zeros off the observed state,
    so the sampler draws them like any other variable.
    """

    cluster: int
    sep: tuple[int, ...]
    sep_shape: tuple[int, ...]
    free: tuple[int, ...]
    free_shape: tuple[int, ...]
    table: np.ndarray

    def row(self, states: Mapping[int, int | np.ndarray]):
        """Row index of the separator assignment ``states`` (variable ->
        state); elementwise when the states are integer arrays."""
        flat = 0
        for u, d in zip(self.sep, self.sep_shape):
            flat = flat * d + states[u]
        return flat


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
    map_assignment() and the samplers all follow: ``order`` lists the
    clusters parent before child (children by ascending index), and
    ``parent`` maps every other cluster to its neighbour toward the root.
    ``potentials`` maps each variable to its potential K_u, unsliced
    (``build_potentials``).  Construction lays out each cluster
    (``_Layout``) and builds one read-only product per distinct cluster:
    clusters whose potentials are the same arrays, read at the same
    states into the same axes with the same log scales, share it.  The
    kernel reads per-edge records, never the tree.  The message stores
    (sum and max semiring) hold (table, log scale) pairs over the sliced
    separators; inward() and outward() fill them.  ``_with_observed``
    alone puts the observed axes back, for ``cluster_table``,
    ``compute_message``'s factor, the columns of ``cluster_rows`` and the
    MAP rows; posteriors slice each home marginal once.  ``message`` and
    ``cluster_conditional`` read a copy laid out from the same potentials
    with nothing sliced.  Marginal accessors require the messages they
    read to exist and raise SchedulingError otherwise.

    ``validate`` runs ``validate_network`` and ``validate_junction_tree``
    first.  Either way, before any table is built, a cluster of more than
    ``MAX_TABLE_ENTRIES`` entries (observed variables included) raises
    FactorSizeError, and a tree the layouts or the schedule cannot use
    raises InvalidJunctionTreeError with its first ``tree`` or
    ``assignment`` violation.  Under ``validate=False`` a valid network,
    cluster ids in it and running intersection are the caller's promise.
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
        # the readouts lay out whole cluster tables, so no query on a
        # cluster over the cap can finish
        cards = net.cards
        for j, cluster in enumerate(jtree.clusters):
            check_table_size(map(cards.__getitem__, cluster), f"cluster {j}")
        self.jtree = jtree
        root = _integer(root, "root cluster")
        if not (0 <= root < jtree.q):
            raise ValueError(f"root cluster {root} out of range")
        self.root = root
        children, self.order = self.rooted_children(root)
        # what the layouts and the schedule rely on, validate or not
        broken = next(chain(tree_violations(jtree, self.order),
                            assignment_violations(net, jtree)), None)
        if broken is not None:
            raise InvalidJunctionTreeError(ValidationReport((broken,)))
        self.parent = MappingProxyType({k: j for j in self.order for k in children[j]})
        allowed = self.evidence.allowed
        self._observed = {u: s for u, states in allowed.items() if len(states) == 1 for s in states}
        self.potentials = build_potentials(net, self.evidence)
        self._unsliced_copy: CompiledQuery | None = None
        self._compile()

    def _compile(self) -> None:
        """Cluster layouts, one product per distinct cluster, and an empty message store."""
        jtree = self.jtree
        # potentials of each cluster in ascending id order
        members: list[list[Factor]] = [[] for _ in range(jtree.q)]
        for u, j in sorted(jtree.assignment.items()):
            members[j].append(self.potentials[u])
        products: dict[tuple, tuple[np.ndarray, float]] = {}
        self._layouts = [self._layout(j, pots, products) for j, pots in enumerate(members)]
        self._messages: dict[tuple[str, int, int], tuple[np.ndarray, float]] = {}

    def _unsliced(self) -> "CompiledQuery":
        """This query laid out again from the same potentials with no
        observation sliced, holding the messages this query has sent: the
        messages as defined, over every state, which ``message`` reports."""
        if not self._observed:
            return self
        twin = self._unsliced_copy
        if twin is None:
            twin = self._unsliced_copy = copy.copy(self)
            twin._observed = {}
            twin._compile()
        if len(twin._messages) != len(self._messages):
            # the store keeps sending order, so replaying it is a valid schedule
            for semiring, i, j in self._messages:
                if not twin.has_message(i, j, semiring):
                    twin.compute_message(i, j, semiring)
        return twin

    def _layout(self, j: int, pots: list[Factor], products: dict) -> _Layout:
        cards, observed, clusters = self.net.cards, self._observed, self.jtree.clusters
        full = tuple(sorted(clusters[j]))
        scope = tuple(filterfalse(observed.__contains__, full))
        shape = tuple(map(cards.__getitem__, scope))
        axis = dict(zip(scope, range(len(scope))))
        # the same arrays read at the same states into the same axes: one product
        key = (len(scope), *[(id(f.values), tuple(map(observed.get, f.scope)),
                              tuple(map(axis.get, f.scope)), f.log_scale) for f in pots])
        if key not in products:
            # 1.0 * x == x: starting from one, or at a mask's kept state, changes no bit
            potential, log_scale = np.ones((1,) * len(scope)), 0.0
            for f in pots:
                view = tuple(d if u in f.scope else 1 for u, d in zip(scope, shape))
                potential = potential * f.values[self._observed_index(f.scope)].reshape(view)
                log_scale += f.log_scale
            potential.setflags(write=False)  # shared, and tables and messages may be views of it
            products[key] = potential, log_scale
        seps = {}
        for k in self.jtree.neighbors(j):
            whole = tuple(filter(clusters[k].__contains__, full))
            sep = tuple(filter(axis.__contains__, whole))  # less its observed variables
            view = tuple(d if u in sep else 1 for u, d in zip(scope, shape))
            outside = tuple(a for a, u in enumerate(scope) if u not in sep)
            seps[k] = (whole, sep, view, tuple(map(cards.__getitem__, sep)), outside)
        return _Layout(full, scope, shape, *products[key], seps)

    def _observed_index(self, scope: tuple[int, ...]) -> tuple:
        """Where a table over ``scope`` holds what a layout computes: each
        observed variable at its state, every other axis whole."""
        return tuple(map(self._observed.get, scope, repeat(slice(None))))

    def _with_observed(self, scope: tuple[int, ...], values: np.ndarray) -> np.ndarray:
        """``values``, over ``scope`` less its observed variables, over all of
        ``scope``: the observed axes come back, 0 off the observed states.
        The one place a table the engine computed regains them."""
        if values.ndim == len(scope):  # nothing in scope is observed
            return values
        out = np.zeros(tuple(map(self.net.cards.__getitem__, scope)))
        out[self._observed_index(scope)] = values
        return out

    # -- schedule ----------------------------------------------------------

    def rooted_children(self, root: int) -> tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]:
        """Read-only children map and parent-before-child order from ``root``."""
        return self.jtree.rooted(root)

    def inward(self, semiring: str = "sum") -> None:
        """Send messages from the leaves toward the root."""
        for j in reversed(self.order[1:]):
            self.compute_message(j, self.parent[j], semiring=semiring)

    def outward(self) -> None:
        """Send sum messages from the root back toward the leaves."""
        for j in self.order[1:]:
            self.compute_message(self.parent[j], j)

    def propagate(self) -> "CompiledQuery":
        self.inward()
        self.outward()
        return self

    # -- messages ----------------------------------------------------------

    def has_message(self, i: int, j: int, semiring: str = "sum") -> bool:
        return (semiring, i, j) in self._messages

    def _stored(self, i: int, j: int, semiring: str) -> tuple[np.ndarray, float]:
        try:
            return self._messages[(semiring, i, j)]
        except KeyError:
            raise SchedulingError(
                f"message {i} -> {j} ({semiring}) has not been computed; "
                "run the inward pass (then the outward pass) first"
            ) from None

    def message(self, i: int, j: int, semiring: str = "sum") -> Factor:
        """The message i -> j over its whole separator, every state of an
        observed variable included, once this query has sent it."""
        if semiring not in ("sum", "max"):
            raise ValueError(f"unknown semiring {semiring!r}")
        sep = tuple(sorted(self.jtree.separator(i, j)))  # JunctionTreeError unless an edge
        self._stored(i, j, semiring)
        values, log_scale = self._unsliced()._stored(i, j, semiring)
        return _trusted(sep, values, log_scale)

    def _product(self, j: int, skip: int | None, semiring: str) -> tuple[np.ndarray, float]:
        """Cluster potential of j times every stored message into j except
        the one from ``skip``, all from the ``semiring`` store, over j's
        layout.  Unchecked: an overflow stays inf or turns into NaN, so one
        finite check on the product or on a reduction of it catches it.

        The one product behind every other quantity: messages (``skip``
        is the receiver), cluster marginals (no ``skip``), and the
        MAP traceback and sampling conditionals (``skip`` is the parent
        toward the root).
        """
        _, _, _, values, log_scale, seps = self._layouts[j]
        for i, edge in seps.items():
            if i != skip:
                msg, scale = self._stored(i, j, semiring)
                values, log_scale = values * msg.reshape(edge[2]), log_scale + scale
        return values, log_scale

    def _table(self, j: int, skip: int | None, semiring: str) -> tuple[np.ndarray, float]:
        """``_product`` checked finite and laid out over j's whole layout."""
        layout = self._layouts[j]
        values, log_scale = self._product(j, skip, semiring)
        _require_finite(values, log_scale)
        values = values if values.shape == layout.shape else np.broadcast_to(values, layout.shape)
        return (values if values.flags.c_contiguous else values.copy()), log_scale

    def cluster_table(
        self, j: int, skip: int | None = None, semiring: str = "sum"
    ) -> Factor:
        """``_product`` laid out over every variable of cluster j."""
        values, log_scale = self._table(j, skip, semiring)
        scope = self._layouts[j].full
        return _trusted(scope, self._with_observed(scope, values), log_scale)

    def cluster_rows(self, j: int) -> ClusterRows:
        """``cluster_table(j, parent)`` as rows over the separator toward
        the root; a normalized row is P(free | separator, evidence)."""
        parent, layout, cards = self.parent.get(j), self._layouts[j], self.net.cards
        values, _ = self._table(j, parent, "sum")
        _, sep, _, sep_shape, _ = layout.seps.get(parent, ((),) * 5)
        up = self.jtree.clusters[parent] if parent is not None else ()
        free = tuple(sorted(self.jtree.clusters[j].difference(up)))
        perm = [layout.scope.index(u) for u in (*sep, *free) if u not in self._observed]
        free_shape = tuple(cards[u] for u in free)
        table = self._with_observed((*sep, *free), values.transpose(perm))
        table = table.reshape(math.prod(sep_shape), math.prod(free_shape))
        return ClusterRows(j, sep, sep_shape, free, free_shape, table)

    def compute_message(self, j: int, k: int, semiring: str = "sum") -> Factor:
        """Message along the directed edge j -> k.

        ``_product(j, k)`` with everything outside the separator summed
        (or maximized) out, rescaled to unit maximum.  The result's scope
        is exactly the separator, broadcasting over separator variables
        that no piece mentions.  The stored table leaves out the variables
        the evidence pins; the returned factor restores their axes with
        exact zeros off the observed states, which ``message`` does not.
        """
        if semiring not in ("sum", "max"):
            raise ValueError(f"unknown semiring {semiring!r}")
        seps = self._layouts[j].seps if 0 <= j < len(self._layouts) else {}
        if k not in seps:
            raise JunctionTreeError(f"({j}, {k}) is not a tree edge")
        full, _, _, sep_shape, outside = seps[k]
        values, log_scale = self._product(j, k, semiring)
        if outside:
            values = values.sum(axis=outside) if semiring == "sum" else values.max(axis=outside)
        values = values if values.shape == sep_shape else np.broadcast_to(values, sep_shape)
        peak = _require_finite(values, log_scale)
        if peak > 0.0 and peak != 1.0:
            values, log_scale = values / peak, log_scale + math.log(peak)
        if not values.flags.c_contiguous:
            values = values.copy()
        self._messages[(semiring, j, k)] = (values, log_scale)
        return _trusted(full, self._with_observed(full, values), log_scale)

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
        """P(variable | evidence) from its home cluster; ValueError unless an integer id."""
        u = _integer(u, "variable id")
        if u not in self.net.cards:
            raise KeyError(f"unknown variable id {u}")
        return next(self._posteriors(self.jtree.assignment[u], (u,)))[1]

    def posterior_table(self) -> dict[int, np.ndarray]:
        """Every posterior by ascending id, one cluster marginal per home."""
        home, out = self.jtree.assignment, {}
        for j, us in groupby(sorted(self.net.ids, key=lambda u: (home[u], u)), key=home.get):
            out.update(self._posteriors(j, us))
        return dict(sorted(out.items()))

    def _posteriors(self, j: int, us: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
        """(u, P(u | evidence)) for each u homed in cluster j, from its marginal
        sliced once to its observed states; an observed u reads its indicator."""
        marginal, scope = self.cluster_marginal(j), self._layouts[j].scope
        table = marginal.values[self._observed_index(marginal.scope)]
        for u in us:
            single = table.sum(axis=tuple(a for a, v in enumerate(scope) if v != u))
            _require_finite(single)
            total = float(single.sum())
            if total <= 0.0:
                raise ImpossibleEvidenceError("posterior undefined: evidence has probability zero")
            yield u, self._with_observed((u,), single) / total

    # -- most probable assignment ------------------------------------------

    def map_assignment(self) -> tuple[dict[int, int], float]:
        """Most probable full assignment under the evidence.

        Returns the assignment, keyed in the order the walk over ``order``
        fixes the variables, and log P(assignment, evidence) from the
        root's peak.  Each cluster indexes its sliced max table at the
        states the walk fixed for its separator toward the root and takes
        the first maximum of that row over its free variables (ascending,
        observed ones padded back), so ties go to lower state indices.
        """
        if not all(self.has_message(j, k, "max") for j, k in self.parent.items()):
            self.inward(semiring="max")
        assignment: dict[int, int] = {}
        for j in self.order:
            parent = self.parent.get(j)
            values, scale = self._table(j, parent, "max")
            if parent is None:
                peak, root_scale = float(values.max()), scale
                if peak <= 0.0:
                    raise ImpossibleEvidenceError("no assignment is consistent with the evidence")
            up = self.jtree.clusters[parent] if parent is not None else ()
            free = tuple(sorted(self.jtree.clusters[j].difference(up)))
            fixed = tuple(assignment[u] if u in up else slice(None) for u in self._layouts[j].scope)
            row = self._with_observed(free, values[fixed])
            assignment.update(zip(free, map(int, np.unravel_index(int(np.argmax(row)), row.shape))))
        return assignment, math.log(peak) + root_scale


def compile_query(net: DiscreteNetwork, evidence: EvidenceSet | None = None) -> CompiledQuery:
    """Build a CompiledQuery and run both sum-product passes."""
    return CompiledQuery(net, evidence).propagate()
