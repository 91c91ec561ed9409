"""Message passing on a junction tree.

Each variable's potential is the paper's K_u, its CPD with its own
allowed set masked.  Each cluster multiplies the potentials of the
variables assigned to it, and messages flow along tree edges: the message
from j to k is the cluster potential of j times all incoming messages
except k's, with the non-separator variables summed out.  After an inward pass to the query's one root cluster and an
outward pass back, every cluster and edge holds an unnormalized marginal
whose total mass is the evidence probability.

The network and tree fix the scope of every such table, so the kernel runs
on bare arrays laid out by a two-part plan: per (network, tree), kept on the
network, the tree ``validate_junction_tree`` passes (one breaking running
intersection is refused, never answered) and each CPD laid out once
(``_structure``), with each cluster's layout per set of its variables observed
and each form's member reads, which later plans share; per root and observed
ids, kept on the tree, the schedule, layouts, runs and the groups of clusters
of one form (``_groups``).  A query
reads each CPD at the state of every variable the evidence pins to one state
(factor reduction), so the arrays leave those variables out, and masks only
the other restricted children by a 0/1 indicator; a group's products come from
one gather per member at the distinct observed states (``_compile``).

Every query refuses an invalid network first, so CPD entries lie in [0, 1].
Messages are renormalized to unit maximum, with the removed mass tracked in
each message's log scale, so nothing the engine forms can overflow and long
chains cannot underflow.  Both passes walk the plan's schedule, so tree depth
is not limited by the interpreter's recursion limit.  A run, a long path of
clusters with one child each and small separators, is a chain: read as a
(separator toward the root x separator away) matrix, each cluster passes
its one incoming message on by a matrix product, so the run's outward
messages are prefix products of its matrices and its inward ones suffix
products, the forward and backward quantities of a hidden Markov chain.
The sum passes send a run's messages by one log-depth (Hillis-Steele)
scan each, in the log semiring by the one scan forward/backward runs
(``hmm._log_scan``), and store them as a message at a time would be
stored; every other message, the max semiring and every readout go a
message at a time.

The same inward pass run in the max semiring yields most-probable
assignments: each max message is the elementwise maxima of the slices of
each axis it maximizes out, and records nothing else.  One kernel (``_rows``)
forms every product of a cluster potential and messages into it: whole tables,
or, for the readouts that walk the root-first order, the rows at the separator
states the walk has fixed (Dawid 1992), each operand indexed at them before the
multiply, so every entry has the bits it has in the whole table.  The traceback
forms the root's table, then one max row per cluster; sampling the root's row
once and, per batch of draws, the rows they reach; whole-separator readouts
fold whole-scope operands (``_unmasked``).  No query calls ``Factor`` algebra:
a ``Factor`` is only handed out.  Posteriors read an edge's
two messages where they can, the edge recorded on the plan; a run's are
formed together by one batched product of its scans' messages at the first
request, and each later one is a lookup; an observed variable's is its
indicator once one read has checked the query's mass.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import filterfalse, repeat
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .factor import Factor, _integer, _trusted, check_table_size
from .jtree import (
    InvalidJunctionTreeError,
    JunctionTree,
    JunctionTreeError,
    assign_clusters,
    build_junction_tree,
    validate_junction_tree,
)
from .model import (
    DiscreteNetwork,
    EvidenceSet,
    InvalidNetworkError,
    _check_evidence,
    validate_network,
)


class SchedulingError(RuntimeError):
    """A message was requested before its prerequisites were computed."""


class ImpossibleEvidenceError(ValueError):
    """A conditional quantity was requested under zero-probability evidence."""


# Edge j -> k as j reads it: whole and sliced separator, view in j's sliced scope,
# shape, the axes outside it, the order that puts those last (``_rows``' operands),
# and the variables and cards of those axes.
_Edge = namedtuple("_Edge", "whole sep view shape outside perm free dims")
# A cluster's whole scope, then what the kernel reads, observed variables left out;
# (id, family, CPD array) per id it holds; ``form``, what clusters compiled together share.
_Layout = namedtuple("_Layout", "full scope shape members form seps")
# Clusters of one ``form``, compiled together (``_groups``): their indices, a one over
# the batch axis and theirs; per member its array with the observed family axes first,
# the slice of a cluster's observed states it is read at, the view its rows take and
# its child's axis (None if observed); ``ids``, the observed family ids, cluster after
# cluster, member after member.
_Group = namedtuple("_Group", "clusters ones members ids")
# A compile plan's evidence half, for one root and set of observed ids, kept on the tree
# with the ``members`` of the structural half it was laid out from; ``inward`` and
# ``outward``, the sum passes' steps (``_passes``); ``reads``, where each posterior is read.
_Plan = namedtuple("_Plan", "members root observed order parent layouts groups inward outward reads")
# A run of clusters, root-first, each read as a matrix padded to ``width``: per
# ``groups`` entry, the run positions of clusters laid out alike in one ``_Group``, that
# group and their positions in it, their layout shape, the stacked axes summed out and
# the order putting the separator toward the root first, and the (toward × away) entries.
_Run = namedtuple("_Run", "clusters width groups")
# One direction of a run's messages: the scan's matrices reversed and transposed when
# ``inward``; the stored message ``into`` the run's first matrix, if any; per ``sends``
# entry, the scan rows, entries, shape and message keys.
_Sweep = namedtuple("_Sweep", "run inward into sends")

# The run rule, from the measured crossover of the scan against a compute_message per
# edge on k-state chains: from 32 clusters at k <= 3, 40 at k = 4, 64 at k = 6, and none
# up to 128 at k = 8 (see ``_passes``).
_RUN_MIN_CLUSTERS = 40
_RUN_MAX_ENTRIES = 4
# What a structural half keeps for later plans grows with the observed sets seen, up to
# 2 ** (cluster size) per cluster; past this many entries it starts again.
_KEPT_MAX = 1 << 12


def _structure(net: DiscreteNetwork, jtree: JunctionTree) -> tuple[JunctionTree, list, dict]:
    """A compile plan's structural half, kept on the network for its last tree: that
    tree checked by ``validate_junction_tree``, homes attached, each cluster within the
    size cap, per cluster (id, family, CPD table as a read-only array over the family
    in id order) for each id it holds, and what the plans laid out from it share: per
    (cluster, its observed ids) its ``_Layout``, per form its member reads (``_groups``)."""
    given, tree, members, kept = net._structure
    if given is jtree:
        return tree, members, kept
    report = validate_junction_tree(net, jtree)
    if not report.ok:
        raise InvalidJunctionTreeError(report)
    tree = jtree if jtree.assignment is not None else JunctionTree(
        jtree.clusters, jtree.edges, assign_clusters(net, jtree))
    # readouts lay out whole cluster tables: no query on an over-cap cluster can finish
    for j, cluster in enumerate(tree.clusters):
        check_table_size(map(net.cards.__getitem__, cluster), f"cluster {j}")
    members: list[list[tuple]] = [[] for _ in range(tree.q)]
    made: dict[tuple, np.ndarray] = {}  # a CPD table several CPDs view alike is laid out once
    for u, j in sorted(tree.assignment.items()):
        family, shape, perm = net._family_layout(u)
        table = net.cpd(u).table
        key = (id(table), shape, perm)
        if key not in made:
            made[key] = np.ascontiguousarray(table.reshape(shape).transpose(perm))
            made[key].setflags(write=False)
        members[j].append((u, family, made[key]))
    kept: dict[tuple, tuple] = {}
    object.__setattr__(net, "_structure", (jtree, tree, members, kept))
    return tree, members, kept


def _plan(net: DiscreteNetwork, jtree: JunctionTree, root: int,
          observed: frozenset[int]) -> tuple[JunctionTree, _Plan]:
    """The tree with homes and the plan for this root and these observed ids: the
    kept evidence half if laid out from the kept structural half, else a new one."""
    tree, members, kept = _structure(net, jtree)
    plan = tree._plan
    if plan is not None and plan.members is members and plan.root == root and plan.observed == observed:
        return tree, plan
    if not (0 <= root < tree.q):
        raise ValueError(f"root cluster {root} out of range")
    children, order = tree.rooted(root)
    parent = MappingProxyType({k: j for j in order for k in children[j]})
    if len(kept) > _KEPT_MAX:
        kept.clear()
    layouts = _layouts(net, tree, observed, members, kept)
    groups = _groups(layouts, kept)
    inward, outward = _passes(layouts, groups, order, children, parent)
    plan = _Plan(members, root, observed, order, parent, layouts, groups, inward, outward,
                 _reads(layouts, observed, inward))
    object.__setattr__(tree, "_plan", plan)
    return tree, plan


def _layouts(net: DiscreteNetwork, jtree: JunctionTree, observed: frozenset, members,
             kept: dict) -> tuple[_Layout, ...]:
    """Each cluster's ``_Layout``, ``observed`` sliced out; ``form`` has each member's array id
    and axes.  A cluster is laid out once per set of its variables observed, kept in ``kept``."""
    cards, clusters, layouts = net.cards, jtree.clusters, []
    for j, cpds in enumerate(members):
        key = (j, observed & clusters[j])
        if key in kept:
            layouts.append(kept[key])
            continue
        full = tuple(sorted(clusters[j]))
        scope = tuple(filterfalse(observed.__contains__, full))
        shape = tuple(map(cards.__getitem__, scope))
        axis = dict(zip(scope, range(len(scope))))
        seps = {}
        for k in jtree.neighbors(j):
            whole = tuple(filter(clusters[k].__contains__, full))
            sep = tuple(filter(axis.__contains__, whole))  # less its observed variables
            at, rest, view = tuple(map(axis.__getitem__, sep)), dict(axis), [1] * len(scope)
            for u, a in zip(sep, at):
                view[a] = shape[a]
                del rest[u]  # leaves what the message sums out
            outside = tuple(rest.values())
            seps[k] = _Edge(whole, sep, tuple(view), tuple(map(shape.__getitem__, at)), outside, at + outside,
                            tuple(rest), tuple(map(shape.__getitem__, outside)))
        form = (len(scope), *[(id(values), tuple(map(axis.get, family))) for _, family, values in cpds])
        layouts.append(kept.setdefault(key, _Layout(full, scope, shape, tuple(cpds), form, seps)))
    return tuple(layouts)


def _groups(layouts, kept: dict) -> tuple[_Group, ...]:
    """The layouts' clusters by ``form``, first seen first; clusters of one form hold the
    same arrays over the same axes, so each member's rows are read by one gather.  A form's
    member reads, and where its observed ids sit, are prepared once per structural half
    and kept in ``kept``."""
    forms: dict[tuple, list[int]] = {}
    for j, layout in enumerate(layouts):
        forms.setdefault(layout.form, []).append(j)
    groups = []
    for form, clusters in forms.items():
        if form not in kept:
            kept[form] = _member_reads(form, layouts[clusters[0]].members)
        members, at = kept[form]
        ids = [layouts[j].members[m][1][i] for j in clusters for m, i in at]
        groups.append(_Group(clusters, _ones(form[0]), members, ids))
    return tuple(groups)


def _member_reads(form: tuple, cpds) -> tuple[list, list]:
    """Per member of a ``form``'s clusters (``cpds``, one cluster's), its ``_Group`` read;
    and (member, family position) of each observed family id, in ``_Group.ids`` order."""
    (ndim, *axes), members, observed, start = form, [], [], 0
    for m, ((u, family, values), (_, at)) in enumerate(zip(cpds, axes)):
        view, first, rest = [1] * ndim, [], []  # its rows' shape; its observed axes, then the others
        for i, (a, d) in enumerate(zip(at, values.shape)):
            if a is None:
                first.append(i)
                observed.append((m, i))
            else:
                view[a] = d
                rest.append(i)
        members.append((values.transpose(first + rest) if first else values,
                        slice(start, start := start + len(first)), tuple(view), at[family.index(u)]))
    return members, observed


@functools.cache
def _ones(ndim: int) -> np.ndarray:
    """A read-only 1.0 over the batch axis and ``ndim`` cluster axes."""
    return np.broadcast_to(1.0, (1,) * (ndim + 1))


def _passes(layouts, groups, order, children, parent) -> tuple[tuple, tuple]:
    """The sum passes' steps in a valid sending order: a cluster j stands for the one
    message j -> ``parent[j]`` inward and ``parent[j]`` -> j outward, a ``_Sweep`` for
    a run's messages.

    A run is a maximal parent-child path of clusters with at most one child each (a
    leaf ends it, the root may start it) whose sliced separators share no variable and
    hold at most _RUN_MAX_ENTRIES entries each; it is kept from _RUN_MIN_CLUSTERS clusters
    on.  Inward, it sends once its last cluster's child has; outward, once its first
    cluster has heard from its parent."""
    if len(order) < _RUN_MIN_CLUSTERS:  # no run fits
        return tuple(reversed(order[1:])), order[1:]
    where = {j: (g, t) for g, group in enumerate(groups) for t, j in enumerate(group.clusters)}
    linear = set()
    for j in order:
        near = [layouts[j].seps[k] for k in (parent.get(j), *children[j]) if k is not None]
        held = [u for e in near for u in e.sep]
        if (len(children[j]) < 2 and len(held) == len(set(held))
                and all(math.prod(e.shape) <= _RUN_MAX_ENTRIES for e in near)):
            linear.add(j)
    runs: dict[int, tuple[_Sweep, _Sweep]] = {}  # member cluster -> its run's sweeps
    for j in order:
        if j in linear and parent.get(j) not in linear:
            path = [j]
            while children[path[-1]] and children[path[-1]][0] in linear:
                path.append(children[path[-1]][0])
            if len(path) >= _RUN_MIN_CLUSTERS:
                runs.update(dict.fromkeys(path, _sweeps(layouts, where, path, parent, children)))
    inward, outward = [], []
    for j in reversed(order[1:]):
        if j not in runs:
            inward.append(j)
        elif j == runs[j][0].run.clusters[-1]:
            inward.append(runs[j][0])
    for k in order[1:]:
        if parent[k] not in runs:
            outward.append(k)
        elif parent[k] == runs[parent[k]][1].run.clusters[0]:
            outward.append(runs[parent[k]][1])
    return tuple(inward), tuple(outward)


def _sweeps(layouts, where, path: list[int], parent, children) -> tuple[_Sweep, _Sweep]:
    """The inward and outward ``_Sweep`` of the run ``path``.  Each cluster's matrix
    sums its product over what neither separator holds; a missing side has one entry.
    ``where`` maps a cluster to its ``_Group`` and its position there."""
    sides = [(parent.get(j), children[j][0] if children[j] else None) for j in path]
    alike: dict[tuple, list[tuple]] = {}
    width = 1
    for t, (j, ends) in enumerate(zip(path, sides)):
        layout = layouts[j]
        axis = dict(zip(layout.scope, range(len(layout.scope))))
        toward, away = (layout.seps[k].sep if k is not None else () for k in ends)
        kept = sorted(axis[u] for u in toward + away)
        free = tuple(a + 1 for a in range(len(axis)) if a not in kept)  # the stack's axis first
        perm = (0, *[kept.index(axis[u]) + 1 for u in toward + away])
        entries = tuple(math.prod(layout.shape[axis[u]] for u in sep) for sep in (toward, away))
        width = max(width, *entries)
        g, at = where[j]
        alike.setdefault((g, layout.shape, free, perm, entries), []).append((t, at))
    run = _Run(tuple(path), width, tuple((np.array(ts), g, np.array(ats), *key)
                                        for (g, *key), pairs in alike.items() for ts, ats in [zip(*pairs)]))
    sweeps = []
    for inward in (True, False):
        walk = range(len(path) - 1, -1, -1) if inward else range(len(path))
        sends = {}
        for row, t in enumerate(walk):
            j, k = path[t], sides[t][0] if inward else sides[t][1]
            if k is not None:
                edge = layouts[j].seps[k]
                rows, sent = sends.setdefault((math.prod(edge.shape), edge.shape), ([], []))
                rows.append(row)
                sent.append(("sum", j, k))
        into = sides[walk[0]][1] if inward else sides[walk[0]][0]
        sweeps.append(_Sweep(run, inward, None if into is None else (into, path[walk[0]]),
                             tuple((np.array(rows), size, shape, tuple(sent))
                                   for (size, shape), (rows, sent) in sends.items())))
    return sweeps[0], sweeps[1]


def _reads(layouts, observed, steps) -> dict:
    """Per variable id u, where its posterior is read: (home j, k, batch), (j, k) j's smallest
    edge whose sliced separator holds u (any edge if u is observed; lowest k on ties; k None if
    none does), batch (a run's first cluster, its groups) if (j, k) lies inside a run of
    ``steps`` and holds u: per separator shape and u's axis, the ids and their edges' scan rows."""
    reads = {}
    for j, layout in enumerate(layouts):
        for u, _, _ in layout.members:
            held = [(math.prod(e.shape), k) for k, e in layout.seps.items() if u in observed or u in e.sep]
            reads[u] = j, min(held)[1] if held else None, None
    for path in (step.run.clusters for step in steps if type(step) is _Sweep):
        groups: dict[tuple, list] = {}
        for t, pair in enumerate(zip(path, path[1:])):  # scan rows n - 2 - t inward, t outward
            for j, k in (pair, pair[::-1]):
                edge = layouts[j].seps[k]
                for u in (u for u, _, _ in layouts[j].members if reads[u][1] == k and u in edge.sep):
                    reads[u] = j, k, (path[0], groups)
                    groups.setdefault((edge.shape, edge.sep.index(u)), []).append((u, len(path) - 2 - t, t))
        for key, members in groups.items():
            ids, rows_in, rows_out = zip(*members)
            groups[key] = ids, np.array(rows_in), np.array(rows_out)
    return reads


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
    which change no bit of a row's CDF (``sampling._row_cdfs``): the
    sampler draws over rows without them what this table gives.
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
    """Probability of one full assignment times the evidence indicator, CPD
    entries multiplied in ascending variable order (MAP candidates' score)."""
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
    map_assignment() and the samplers follow: ``order`` lists the clusters
    parent before child (children by ascending index), and ``parent`` maps
    every other cluster to its neighbour toward the root.  The schedule, the
    sum passes' steps (``_passes``) and each cluster's ``_Layout``, with its
    members' CPD arrays, come from the kept compile plan (``_plan``);
    construction reads those arrays at the evidence, one gather per member
    of each group of clusters of one form, into one read-only product of
    K_u per distinct cluster (``_compile``), a view of its group's stack,
    and keeps no per-variable potential.  The message stores hold (table, log scale)
    pairs over the sliced separators, and ``_batched`` each run's posteriors.
    ``_with_observed`` alone puts observed axes back, in the tables handed
    out.  ``message``, ``edge_marginal`` and ``cluster_conditional`` read
    messages over whole separators, formed on demand from the same arrays (``_whole``).
    Accessors raise SchedulingError until the messages they read exist.

    Construction first reads ``validate_network``'s report, kept on the
    network, and raises InvalidNetworkError with it unless it is ok
    (``validate`` is ignored).  So CPD entries lie in [0, 1] and stored
    messages peak at 1: a product of them is at most 1, a sum at most
    ``MAX_TABLE_ENTRIES``, and no table formed can leave double range.
    Then evidence on an unknown id or state raises ValueError.  Unless the
    tree is the network's last one, ``validate_junction_tree``'s report is
    read next, before homes are attached to a tree given without them, and
    InvalidJunctionTreeError raised with it; then, before any table is
    built, a cluster of more than ``MAX_TABLE_ENTRIES`` entries (observed
    variables included) raises FactorSizeError, and an out-of-range root
    ValueError.  A cluster index or edge given to a readout, messages included,
    is checked as the root is (``_cluster``).
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
        report = validate_network(net)
        if not report.ok:
            raise InvalidNetworkError(report)
        if jtree is None:
            jtree = build_junction_tree(net)
        self.root = _integer(root, "root cluster")
        _check_evidence(net, self.evidence)  # first: refused evidence leaves the tree's plan alone
        allowed = self.evidence.allowed
        self._observed = {u: s for u, states in allowed.items() if len(states) == 1 for s in states}
        self.jtree, plan = _plan(net, jtree, self.root, frozenset(self._observed))
        self.order, self.parent, self._reads = plan.order, plan.parent, plan.reads
        self._passes = plan.inward, plan.outward
        self._compile(plan.layouts, plan.groups)

    def _compile(self, layouts: tuple[_Layout, ...], groups: tuple[_Group, ...]) -> None:
        """``layouts``, one product of K_u per distinct cluster, and empty message stores.
        A group's key per cluster holds the observed states its members are read at, then
        a code per masked child's allowed set; each member is read at the distinct keys by
        one gather, batch axis first, into a ones stack, and a cluster takes its key's row."""
        observed, allowed = self._observed, self.evidence.allowed
        masked = {u: states for u, states in allowed.items() if u not in observed}
        codes = dict(zip(dict.fromkeys(masked.values()), range(len(masked))))  # equal sets alike
        indicators: dict[int, np.ndarray] = {}  # per card, a 0/1 row per code, then all ones
        self._layouts, self._products, self._stacks = layouts, [None] * len(layouts), []
        for clusters, ones, members, ids in groups:
            n, col = len(clusters), len(ids) // len(clusters)
            masks = {}  # member -> per cluster, the code of its child's allowed set (-1: none)
            for m, (*_, child) in enumerate(members if codes else ()):
                found = [codes.get(masked.get(layouts[j].members[m][0]), -1) for j in clusters]
                if child is not None and max(found) >= 0:
                    masks[m] = found
            keys = list(zip(*[map(observed.__getitem__, ids)] * col, *masks.values())) or [()] * n
            rows = dict.fromkeys(keys)  # distinct keys, first seen first
            if len(rows) == 1:  # a stack of one, read at ints
                inverse, index = [0] * n, keys[0]
            else:  # each cluster's row, and the keys' columns
                inverse, index = list(map(dict(zip(rows, range(n))).__getitem__, keys)), tuple(np.array(list(rows)).T)
            stack = ones
            for m, (values, take, view, child) in enumerate(members):
                # 1.0 * x == x: starting from one, or at a mask's kept state, changes no bit
                part = values[index[take]].reshape(-1, *view)
                if m in masks:  # a child kept to several states: its indicator on its axis
                    card, mask = view[child], [1] * len(view)
                    mask[child] = card
                    if card not in indicators:
                        indicators[card] = np.array([[s in states for s in range(card)] for states in codes]
                                                    + [[True] * card], float)
                    part, col = part * indicators[card][index[col]].reshape(-1, *mask), col + 1
                stack = stack * part
            stack.setflags(write=False)  # shared, and tables and messages may be views of it
            views = list(stack)
            for j, r in zip(clusters, inverse):
                self._products[j] = views[r]
            self._stacks.append((stack, inverse))
        self._messages: dict[tuple[str, int, int], tuple[np.ndarray, float]] = {}
        self._wholes: dict[tuple[str, int, int], tuple[np.ndarray, float]] = {}  # what _whole formed
        self._potentials: dict[int, np.ndarray] = {}  # cluster -> what _unmasked formed
        self._mass_checked = False  # whether a posterior read found positive mass
        self._matrices: dict[int, np.ndarray] = {}  # a run's first cluster -> what _run_matrices formed
        self._sums: dict[tuple[int, bool], np.ndarray] = {}  # (first cluster, inward) -> _scan's sums
        self._batched: dict[int, dict] = {}  # a run's first cluster -> its _run_posteriors

    def _with_observed(self, scope: tuple[int, ...], values: np.ndarray) -> np.ndarray:
        """``values``, over ``scope`` less its observed variables, over all of
        ``scope``: the observed axes come back, 0 off the observed states.  The
        one place a table the engine hands out regains them."""
        if self._observed.keys().isdisjoint(scope):
            return values
        out = np.zeros(tuple(map(self.net.cards.__getitem__, scope)))
        out[tuple(map(self._observed.get, scope, repeat(slice(None))))] = values
        return out

    # -- schedule ----------------------------------------------------------

    def rooted_children(self, root: int) -> tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]:
        """Read-only children map and parent-before-child order from ``root``."""
        return self.jtree.rooted(root)

    def inward(self, semiring: str = "sum") -> None:
        """Send messages from the leaves toward the root: in the sum semiring a run's
        by one scan (``_scan``), every other one by ``compute_message``."""
        for step in self._passes[0] if semiring == "sum" else reversed(self.order[1:]):
            if type(step) is _Sweep:
                self._scan(step)
            else:
                self.compute_message(step, self.parent[step], semiring=semiring)

    def outward(self) -> None:
        """Send sum messages from the root back toward the leaves, a run's by one scan."""
        for step in self._passes[1]:
            if type(step) is _Sweep:
                self._scan(step)
            else:
                self.compute_message(self.parent[step], step)

    def propagate(self) -> "CompiledQuery":
        self.inward()
        self.outward()
        return self

    # -- messages ----------------------------------------------------------

    def has_message(self, i: int, j: int, semiring: str = "sum") -> bool:
        """Whether i -> j is stored (``_cluster``'s errors)."""
        return (semiring, self._cluster(i, j, semiring), j) in self._messages

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
        observed variable included, once this query has sent it (``_cluster``'s errors)."""
        i = self._cluster(i, j, semiring)
        return _trusted(self._layouts[i].seps[j].whole, *self._whole(i, j, semiring))

    def _whole(self, i: int, j: int, semiring: str) -> tuple[np.ndarray, float]:
        """Message i -> j over its whole separator as ``compute_message`` sends it with nothing
        sliced: the stored one if nothing is, else formed once into ``_wholes``, each edge
        upstream first, found by an explicit stack.  SchedulingError unless each was sent."""
        if not self._observed:
            return self._stored(i, j, semiring)
        walked, stack = [], [(i, j)]
        while stack:
            a, b = stack.pop()
            if (semiring, a, b) not in self._wholes:
                self._stored(a, b, semiring)
                walked.append((a, b))
                stack.extend((c, a) for c in self._layouts[a].seps if c != b)
        for a, b in reversed(walked):
            full, whole = self._layouts[a].full, self._layouts[a].seps[b].whole
            self._wholes[semiring, a, b] = _reduced(
                *self._unmasked(a, b, semiring), tuple(x for x, u in enumerate(full) if u not in whole),
                tuple(map(self.net.cards.__getitem__, whole)), semiring)
        return self._wholes[semiring, i, j]

    def _unmasked(self, j: int, skip: int | None, semiring: str) -> tuple[list[np.ndarray], float]:
        """``_operands`` of j over its whole scope, nothing sliced: j's potential, formed once per
        query, a one times each member's CPD array, times a 0/1 indicator on its child's axis if
        the evidence restricts it; then ``_whole`` of every message into j but ``skip``'s."""
        cards, allowed, full = self.net.cards, self.evidence.allowed, self._layouts[j].full
        if j not in self._potentials:
            potential = _ones(len(full))[0]
            for u, family, values in self._layouts[j].members:
                values = values.reshape([cards[v] if v in family else 1 for v in full])
                if u in allowed:
                    mask = np.isin(np.arange(cards[u]), list(allowed[u]))
                    values = values * mask.reshape([cards[u] if v == u else 1 for v in full])
                potential = potential * values
            self._potentials[j] = potential
        operands, log_scale = [self._potentials[j]], 0.0
        for i, edge in self._layouts[j].seps.items():
            if i != skip:
                msg, scale = self._whole(i, j, semiring)
                operands.append(msg.reshape([cards[v] if v in edge.whole else 1 for v in full]))
                log_scale += scale
        return operands, log_scale

    def _operands(self, j: int, skip: int | None, semiring: str) -> tuple[list[np.ndarray], float]:
        """Cluster potential of j, then every stored message into j except the one
        from ``skip`` (a message's receiver, a cluster's parent), all from the
        ``semiring`` store, each viewed over j's layout; and their summed log scales."""
        operands, log_scale = [self._products[j]], 0.0
        for i, edge in self._layouts[j].seps.items():
            if i != skip:
                msg, scale = self._stored(i, j, semiring)
                operands.append(msg.reshape(edge.view))
                log_scale += scale
        return operands, log_scale

    def _row_operands(self, j: int, semiring: str) -> tuple[list[np.ndarray], _Edge | None]:
        """``_operands`` of j toward the root, as ``_rows`` reads them, with the axes of
        the edge to j's parent first (``_Edge.perm``); and that edge, None at the root."""
        parent = self.parent.get(j)
        edge = self._layouts[j].seps.get(parent)
        operands, _ = self._operands(j, parent, semiring)
        return [x.transpose(edge.perm) for x in operands] if edge else operands, edge

    def _cluster(self, j: int, skip: int | None = None, semiring: str = "sum") -> int:
        """``j`` as an int: ValueError unless ``j`` and ``skip`` are integers, ``j`` a
        cluster index and ``semiring`` known, JunctionTreeError unless ``skip`` is None
        or a neighbour of ``j``."""
        j = _integer(j, "cluster")
        if not 0 <= j < len(self._layouts):
            raise ValueError(f"cluster {j} out of range")
        if semiring not in ("sum", "max"):
            raise ValueError(f"unknown semiring {semiring!r}")
        if skip is not None and _integer(skip, "cluster") not in self._layouts[j].seps:
            raise JunctionTreeError(f"({j}, {skip}) is not a tree edge")
        return j

    def cluster_table(self, j: int, skip: int | None = None, semiring: str = "sum") -> Factor:
        """``_operands(j, skip)``' product over every variable of cluster j (``_cluster``'s errors)."""
        j = self._cluster(j, skip, semiring)
        operands, log_scale = self._operands(j, skip, semiring)
        full, _, shape, *_ = self._layouts[j]
        return _trusted(full, self._with_observed(full, _rows(operands, (), shape)), log_scale)

    def cluster_rows(self, j: int) -> ClusterRows:
        """``cluster_table(j, parent)`` as rows over the separator toward
        the root, C-contiguous; a normalized row is P(free | separator, evidence)."""
        j = self._cluster(j)
        parent = self.parent.get(j)
        values = _rows(self._operands(j, parent, "sum")[0], (), self._layouts[j].shape)
        edge = self._layouts[j].seps.get(parent)  # its axis order puts free axes after sep ones
        sep, sep_shape = (edge.sep, edge.shape) if edge else ((), ())
        free, free_shape = self._free(j)
        table = self._with_observed((*sep, *free), values.transpose(edge.perm) if edge else values)
        table = np.ascontiguousarray(table.reshape(math.prod(sep_shape), math.prod(free_shape)))
        return ClusterRows(j, sep, sep_shape, free, free_shape, table)

    def _free(self, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Cluster j's variables outside its parent's, ascending, and their cards."""
        up = self.jtree.clusters[self.parent[j]] if j in self.parent else ()
        free = tuple(sorted(self.jtree.clusters[j].difference(up)))
        return free, tuple(map(self.net.cards.__getitem__, free))

    def compute_message(self, j: int, k: int, semiring: str = "sum") -> Factor:
        """Message along the directed edge j -> k: ``_operands(j, k)`` folded and reduced over
        the sliced scope outside the separator (``_reduced``).
        The stored table leaves out the variables the evidence pins; the
        returned factor restores their axes with zeros off the observed
        states, which ``message`` does not (``_cluster``'s errors)."""
        j = self._cluster(j, k, semiring)
        full, _, _, sep_shape, outside, _, _, _ = self._layouts[j].seps[k]
        values, log_scale = _reduced(*self._operands(j, k, semiring), outside, sep_shape, semiring)
        self._messages[(semiring, j, k)] = (values, log_scale)
        return _trusted(full, self._with_observed(full, values), log_scale)

    def _scan(self, sweep: _Sweep) -> None:
        """Store a run's messages in one direction as ``compute_message`` would: the
        message into the run times the prefix products of its matrices, by ``_log_scan``,
        each row at unit maximum, its scan offset going to its log scale.  Inward, the
        matrices go reversed and transposed, so each prefix is a suffix product read
        backward."""
        from .hmm import _log_scan  # here, so that no network query compiles hmm

        mats = self._run_matrices(sweep.run)
        if sweep.inward:
            mats = mats[:, :, ::-1].transpose(1, 0, 2)
        values, log_scale = self._stored(*sweep.into, "sum") if sweep.into else (np.ones(1), 0.0)
        with np.errstate(divide="ignore"):  # -inf for a zero entry or sum; np.log copies
            logs, offsets = _log_scan(np.log(mats), np.log(values.reshape(-1)))
        peaks = logs.max(axis=0)
        peaks[peaks == -math.inf] = 0.0
        sums = self._sums[sweep.run.clusters[0], sweep.inward] = np.exp(logs - peaks)
        peaks += offsets + log_scale
        for rows, size, shape, keys in sweep.sends:
            tables = sums.T[rows, :size].reshape(-1, *shape)
            self._messages.update(zip(keys, zip(tables, peaks[rows].tolist())))

    def _run_matrices(self, run: _Run) -> np.ndarray:
        """The run's cluster products as (toward × away) matrices along the last axis,
        zero-padded to the run's width, formed once per query."""
        kept = self._matrices.get(run.clusters[0])
        if kept is not None:
            return kept
        mats = np.zeros((run.width, run.width, len(run.clusters)))
        for rows, g, at, shape, free, perm, (a, b) in run.groups:
            stack, inverse = self._stacks[g]  # the group's distinct products, and each cluster's row
            inverse = np.array(inverse)
            tables = stack if stack.shape[1:] == shape else np.broadcast_to(stack, (len(stack), *shape))
            tables = tables.sum(axis=free) if free else tables
            mats[:a, :b, rows] = tables.transpose(perm).reshape(-1, a, b)[inverse[at]].transpose(1, 2, 0)
        self._matrices[run.clusters[0]] = mats
        return mats

    # -- marginals ---------------------------------------------------------

    def edge_marginal(self, i: int, j: int) -> Factor:
        """Unnormalized P(separator, evidence) from the two edge messages (``message``'s errors)."""
        i = self._cluster(i, j)
        (values, log_scale), (other, scale) = self._whole(i, j, "sum"), self._whole(j, i, "sum")
        return _trusted(self._layouts[i].seps[j].whole, _rows([values, other]), log_scale + scale)

    def cluster_marginal(self, j: int) -> Factor:
        """Unnormalized P(cluster, evidence): potential times all inputs."""
        return self.cluster_table(j)

    def evidence_log_probability(self) -> float:
        """log P(evidence), -inf when the evidence is impossible, from the
        root cluster marginal, so only the inward pass is required."""
        return self.cluster_marginal(self.root).total_log_mass()

    def variable_posterior(self, u: int) -> np.ndarray:
        """P(variable | evidence) from its home cluster, a new array; ValueError unless an
        integer id.  A variable on a run's edge costs a lookup after the first such request."""
        u = _integer(u, "variable id")
        if u not in self.net.cards:
            raise KeyError(f"unknown variable id {u}")
        return self._posterior(u, {})

    def posterior_table(self) -> dict[int, np.ndarray]:
        """Every posterior by ascending id, each table they read formed once, a run's
        posteriors by one batched product, unless an earlier request formed them."""
        tables: dict = {}
        return {u: self._posterior(u, tables) for u in sorted(self.net.ids)}

    def _posterior(self, u: int, tables: dict) -> np.ndarray:
        """P(u | evidence) read as the plan records (``_reads``): from its run's batch, else
        the edge's two stored sum messages, else its home j's marginal; ``tables`` caches by
        (j, k).  An observed u's is its indicator once one read has found positive mass: it
        needs the messages that read would, and forms no table."""
        j, k, batch = self._reads[u]
        if batch is not None and u in (posts := self._run_posteriors(*batch)):
            return posts[u].copy()
        if ("sum", j, k) not in self._messages or ("sum", k, j) not in self._messages:
            k = None
        if u in self._observed and self._mass_checked:
            if k is None:
                self._operands(j, None, "sum")  # SchedulingError as j's marginal would raise
        else:
            if k is None and (j, k) not in tables:
                marginal = self.cluster_marginal(j)
                tables[j, k] = marginal.scope, marginal.values
            elif (j, k) not in tables:
                product = self._stored(j, k, "sum")[0] * self._stored(k, j, "sum")[0]
                tables[j, k] = self._layouts[j].seps[k].sep, product
            scope, table = tables[j, k]
            # np.add.reduce is what .sum() runs, without its Python wrapper
            others = tuple(a for a, v in enumerate(scope) if v != u)
            single = np.add.reduce(table, others) if others else table
            total = float(np.add.reduce(single, None))
            if total <= 0.0:
                raise ImpossibleEvidenceError("posterior undefined: evidence has probability zero")
            self._mass_checked = True
            if u not in self._observed:
                return single / total
        out = np.zeros(self.net.cards[u])  # 1.0 at the observed state, its mass over its mass
        out[self._observed[u]] = 1.0
        return out

    def _run_posteriors(self, first: int, groups: dict) -> dict[int, np.ndarray]:
        """The posteriors batched on the run from ``first`` (``_reads``), formed and kept once
        both sweeps' ``sums`` are stored (else {}): per group one product of the two directions'
        rows, one reduction, one division; a group with a zero mass is left to ``_posterior``."""
        posts = self._batched.get(first)
        if posts is not None or (first, True) not in self._sums or (first, False) not in self._sums:
            return posts or {}
        toward, away = self._sums[first, True].T, self._sums[first, False].T
        posts = self._batched[first] = {}
        for (shape, axis), (ids, rows_in, rows_out) in groups.items():
            size = math.prod(shape)
            table = (toward[rows_in, :size] * away[rows_out, :size]).reshape(-1, *shape)
            single = np.add.reduce(table, tuple(a + 1 for a in range(len(shape)) if a != axis))
            total = np.add.reduce(single, 1)
            if (total > 0.0).all():
                posts.update(zip(ids, single / total[:, None]))
        return posts

    # -- most probable assignment ------------------------------------------

    def map_assignment(self) -> tuple[dict[int, int], float]:
        """Most probable full assignment under the evidence.

        Returns the assignment, keyed in the order the walk over ``order``
        fixes the variables, and log P(assignment, evidence) from the
        root's peak.  The root takes its max table's first maximum, every
        other cluster the first maximum of its one max row (``_rows``) at the
        separator states the walk fixed (first in C order, so ties go to
        lower states); an observed variable takes its state.
        """
        if not all(self.has_message(j, k, "max") for j, k in self.parent.items()):
            self.inward(semiring="max")
        operands, log_scale = self._operands(self.root, None, "max")
        values = _rows(operands)
        peak = float(values.max())
        if peak <= 0.0:
            raise ImpossibleEvidenceError("no assignment is consistent with the evidence")
        states, assignment = dict(self._observed), {}
        states.update(zip(self._layouts[self.root].scope,
                          np.unravel_index(int(np.argmax(values)), values.shape)))
        for j in self.order:
            parent = self.parent.get(j)
            edge = self._layouts[j].seps.get(parent)
            if edge is not None and edge.outside:
                operands, _ = self._row_operands(j, "max")
                row = _rows(operands, tuple(map(assignment.__getitem__, edge.sep)), edge.dims)
                states.update(zip(edge.free, np.unravel_index(int(row.argmax()), edge.dims)))
            assignment.update((u, int(states[u])) for u in self._free(j)[0])
        return assignment, math.log(peak) + log_scale


def _reduced(operands: list[np.ndarray], log_scale: float, outside: tuple[int, ...],
             shape: tuple[int, ...], semiring: str) -> tuple[np.ndarray, float]:
    """A message from its cluster's ``operands``: their product (``_rows``) summed (or maximized,
    by elementwise maxima of each axis's slices) over the ``outside`` axes, laid out over the
    separator's ``shape``, at unit maximum, the removed mass added to ``log_scale``."""
    values = _rows(operands)
    if outside and semiring == "sum":
        values = values.sum(axis=outside)
    elif outside:  # a call per slice: a reduction over a short inner axis loops per row
        for a in reversed(outside):
            index = (slice(None),) * a
            values = functools.reduce(np.maximum, [values[(*index, s)] for s in range(values.shape[a])])
    values = values if values.shape == shape else np.broadcast_to(values, shape)
    peak = float(values.max())
    if peak > 0.0 and peak != 1.0:
        values, log_scale = values / peak, log_scale + math.log(peak)
    return (values if values.flags.c_contiguous else values.copy()), log_scale


def _rows(operands: list[np.ndarray], states: tuple = (), shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The engine's one product: ``operands`` (``CompiledQuery._operands``, ``_row_operands``,
    ``_unmasked``) folded left in their order at ``states``, one integer or index array per
    leading axis, all of one shape, each operand read at them before the multiply, so every
    entry has the bits it has in the whole table; with none, the whole table.  If ``shape``
    (the states' shape, then the other axes) is given, laid out over it, a read-only
    broadcast view where no operand spans an axis."""
    if states:
        operands = [x[tuple(s if d > 1 else 0 for s, d in zip(states, x.shape))] for x in operands]
    rows = functools.reduce(np.multiply, operands)
    return rows if shape is None or rows.shape == shape else np.broadcast_to(rows, shape)


def compile_query(net: DiscreteNetwork, evidence: EvidenceSet | None = None) -> CompiledQuery:
    """Build a CompiledQuery and run both sum-product passes."""
    return CompiledQuery(net, evidence).propagate()
