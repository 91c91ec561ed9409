"""Junction trees over a discrete network.

A junction tree here is a tree of variable clusters satisfying three
conditions: (1) the edges form a spanning tree of the clusters, (2) the
intersection of any two clusters is contained in every cluster on the
path between them, and (3) every variable's family (itself plus its
parents) fits inside at least one cluster.  Clusters do not have to be
maximal cliques of any triangulation; anything passing the validator is
accepted.

Structure readers share a tree's holder index (``holders``: each
variable's holding clusters, ascending) and its last rooted walk
(``rooted``).  Condition (2) holds for a variable when all its holders
but one have a holding parent in the walk from cluster 0; a violation
names the holders cut off from the variable's lowest-index holder.

Min-fill pops (fill, vertex id) from a heap and skips stale entries;
it holds each vertex's neighbours as an int bitset and updates fill
scores rather than recounting them.  Each variable is assigned to the
smallest covering cluster, ties going to the lower cluster index.  The
spanning tree is read off one clique tree (``_spanning_edges``) without
weighing any pair of clusters, so chains, bands and a hub held by every
cluster build in near-linear time: a binary root with 20,000 children
in about 0.4 s.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Mapping

from .model import DiscreteNetwork, ValidationReport, Violation


class JunctionTreeError(ValueError):
    pass


class InvalidJunctionTreeError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.lines()))


@dataclass(frozen=True)
class JunctionTree:
    """Clusters, undirected edges (as (low, high) index pairs), an optional
    variable-to-cluster assignment, and ``holders``: each held variable's
    clusters, ascending; both mappings read-only.  A tree never changes,
    so it keeps its last ``rooted`` walk and the evidence half of the last
    query's compile plan."""

    clusters: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]
    assignment: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        clusters = tuple(frozenset(int(u) for u in c) for c in self.clusters)
        edges = tuple(
            (min(int(i), int(j)), max(int(i), int(j))) for i, j in self.edges
        )
        assignment = None
        if self.assignment is not None:
            assignment = MappingProxyType({int(u): int(j) for u, j in self.assignment.items()})
        adj: dict[int, list[int]] = {i: [] for i in range(len(clusters))}
        for i, j in edges:
            if 0 <= i < len(clusters) and 0 <= j < len(clusters) and i != j:
                adj[i].append(j)
                adj[j].append(i)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "assignment", assignment)
        held = MappingProxyType({u: tuple(js) for u, js in _holders(clusters).items()})
        object.__setattr__(self, "holders", held)
        object.__setattr__(self, "_adj", {i: tuple(sorted(ns)) for i, ns in adj.items()})
        # every listed pair, self-loops and out-of-range ones included
        object.__setattr__(self, "_edge_set", frozenset(edges))
        object.__setattr__(self, "_rooted", (None, None))  # (root, rooted(root)) of the last call
        object.__setattr__(self, "_plan", None)  # the evidence half of the last compile plan

    @property
    def q(self) -> int:
        return len(self.clusters)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def is_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_set

    def separator(self, i: int, j: int) -> frozenset[int]:
        if not self.is_edge(i, j):
            raise JunctionTreeError(f"({i}, {j}) is not a tree edge")
        return self.clusters[i] & self.clusters[j]

    def rooted(self, root: int) -> tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]:
        """Read-only children map and parent-before-child order from ``root``, kept for the last root."""
        if self._rooted[0] == root:
            return self._rooted[1]
        children: dict[int, tuple[int, ...]] = {}
        order: list[int] = []
        seen = {root}
        stack = [root]
        while stack:
            j = stack.pop()
            order.append(j)
            kids = tuple(k for k in self.neighbors(j) if k not in seen)
            children[j] = kids
            seen.update(kids)
            # reversed so the lowest-index child is processed first
            stack.extend(reversed(kids))
        object.__setattr__(self, "_rooted", (root, (MappingProxyType(children), tuple(order))))
        return self._rooted[1]

    def side_of(self, i: int, j: int) -> frozenset[int]:
        """Clusters in the component of i when edge (i, j) is removed:
        the subtree of i in the tree rooted at j."""
        if not self.is_edge(i, j):
            raise JunctionTreeError(f"({i}, {j}) is not a tree edge")
        children, _ = self.rooted(j)
        side = [i]
        for a in side:
            side.extend(children[a])
        return frozenset(side)


def _holders(clusters: tuple[frozenset[int], ...]) -> dict[int, list[int]]:
    """Each held variable's clusters, ascending."""
    holders: dict[int, list[int]] = {}
    for j, cluster in enumerate(clusters):
        for u in cluster:
            holders.setdefault(u, []).append(j)
    return holders


@dataclass(frozen=True)
class EdgeContext:
    """The variable sets that shape the message along a directed edge.

    upstream: variables assigned on the source side of the edge.
    upstream_boundary: upstream variables inside the separator.
    upstream_interior: upstream variables summed out by the message.
    """

    source: int
    target: int
    separator: frozenset[int]
    upstream: frozenset[int]
    upstream_boundary: frozenset[int]
    upstream_interior: frozenset[int]


def moral_graph(net: DiscreteNetwork) -> dict[int, set[int]]:
    """Undirected graph linking each variable to its whole family."""
    adj: dict[int, set[int]] = {u: set() for u in net.ids}
    for u in net.ids:
        family = (*net.parents(u), u)
        for a in family:
            adj[a].update(family)
    for u, ns in adj.items():
        ns.discard(u)
    return adj


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def min_fill_cliques(adj: Mapping[int, set[int]]) -> list[frozenset[int]]:
    """Eliminate vertices greedily by fill-in count, collecting cliques.

    ``adj`` must be a simple undirected graph; ValueError names the first
    self-loop, one-way edge or neighbour that is not a key.  Each vertex
    is scored once; an elimination updates only the scores it changes.
    Ties are broken by the lower vertex id, so the result is a pure
    function of the graph.  Cliques that end up contained in another
    clique are dropped; the survivors are the maximal cliques of the
    triangulation induced by the elimination, in elimination order.
    """
    for u, ns in adj.items():
        if u in ns:
            raise ValueError(f"vertex {u} is its own neighbour")
        for w in ns:
            if u not in adj.get(w, ()):
                raise ValueError(f"edge {u}-{w} is not listed at {w}" if w in adj
                                 else f"neighbour {w} of vertex {u} is not a vertex")
    # vertex i is the i-th lowest id, so ties on position are ties on id
    ids = sorted(adj)
    at = {u: i for i, u in enumerate(ids)}
    near = [[at[w] for w in adj[u]] for u in ids]
    nb = [sum(1 << a for a in ns) for ns in near]
    # d (d - 1) / 2 pairs of neighbours, less the edges between them (each counted from both ends)
    score = [(len(ns) * (len(ns) - 1) - sum((nb[a] & m).bit_count() for a in ns)) // 2
             for ns, m in zip(near, nb)]
    heap = [(f, v) for v, f in enumerate(score)]
    heapq.heapify(heap)
    alive = [True] * len(ids)
    eliminated: list[tuple[int, int, list[int]]] = []  # (vertex, its neighbours then, as a list)
    for _ in ids:
        while not alive[heap[0][1]] or score[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)
        v = heapq.heappop(heap)[1]
        alive[v] = False
        nbrs, bit = nb[v], 1 << v
        around, changed, away = _bits(nbrs), [], ~(nbrs | bit)
        eliminated.append((v, nbrs, around))
        for a in around:
            # the missing pairs {v, w} at a leave with v
            lost = (nb[a] & away).bit_count()
            nb[a] ^= bit
            if lost:
                score[a] -= lost
                changed.append(a)
        for x in around if score[v] else ():  # score[v] missing pairs: that many fill edges
            nx = nb[x]
            for y in _bits(nbrs & ~(nx | 1 << x)):
                # fill edge x-y: new missing pairs at both ends, one fewer at common neighbours
                ny = nb[y]
                common = _bits(nx & ny)
                score[x] += nx.bit_count() - len(common)
                score[y] += ny.bit_count() - len(common)
                changed += x, y, *common
                for c in common:
                    score[c] -= 1
                nx |= 1 << y
                nb[y] = ny | 1 << x
            nb[x] = nx
        for a in set(changed):
            heapq.heappush(heap, (score[a], a))
    # a clique inside another equals some clique minus its own vertex
    # (Blair & Peyton 1993); no two cliques share their own vertex
    subsumed = {nbrs for _, nbrs, _ in eliminated}
    return [frozenset(ids[a] for a in (v, *around)) for v, nbrs, around in eliminated
            if nbrs | 1 << v not in subsumed]


def build_junction_tree(net: DiscreteNetwork) -> JunctionTree:
    """Moralize, triangulate by min-fill, and join the cliques by the
    spanning tree Kruskal's algorithm keeps over every pair of clusters
    in the order (-separator size, i, j), its edges in that order, found
    without listing the pairs (``_spanning_edges``).

    Always succeeds on a valid network; the worst case is a single
    cluster holding everything.  The output carries the smallest-cluster
    variable assignment and passes validate_junction_tree.  It is the
    network's one tree: the network keeps it, and a repeat call returns it.
    """
    if net._tree is not None:
        return net._tree
    clusters = tuple(min_fill_cliques(moral_graph(net)) or [frozenset()])
    tree = JunctionTree(clusters, _spanning_edges(clusters))
    # one tree: the homes read its holder index and join it before it is handed out
    object.__setattr__(tree, "assignment", MappingProxyType(assign_clusters(net, tree)))
    object.__setattr__(net, "_tree", tree)
    return tree


def _spanning_edges(clusters: tuple[frozenset[int], ...]) -> tuple[tuple[int, int], ...]:
    """The maximum-weight spanning tree of the maximal cliques of a chordal
    graph (weight: separator size) first under the strict order (-weight,
    i, j), its edges in that order.  First any clique tree, by maximum
    cardinality search: each cluster joins the one whose visit last raised
    its count, which holds all of it seen so far (cluster 0 if none).  All
    clique trees share their separators (Blair & Peyton 1993); for each S,
    the edges carrying more than S split S's holders into the same blocks,
    clusters of two blocks share exactly S, and S's edges join the blocks.
    So the order joins each block but that of S's lowest holder to that
    holder through the block's lowest cluster: a walk over S's holders.
    """
    q, holders = len(clusters), _holders(clusters)
    count, via, done, seen = [0] * q, [0] * q, [False] * q, set()
    heap = [(0, j) for j in range(q)]  # (-count, cluster), stale entries skipped
    links: list[list[tuple[int, frozenset[int]]]] = [[] for _ in range(q)]
    first: dict[frozenset[int], int] = {}  # each separator, and a cluster on an edge carrying it
    while heap:
        top, j = heapq.heappop(heap)
        if done[j] or -top != count[j]:
            continue
        done[j] = True
        if seen:
            sep = clusters[j] & clusters[via[j]]
            links[j].append((via[j], sep))
            links[via[j]].append((j, sep))
            first.setdefault(sep, j)
        for u in clusters[j] - seen:
            for k in holders[u]:
                if not done[k]:
                    count[k] += 1
                    via[k] = j
                    heapq.heappush(heap, (-count[k], k))
        seen |= clusters[j]
    edges = []
    for sep, start in first.items():
        size, walk = len(sep), [start]
        block, low = {start: start}, {start: start}  # cluster -> its block; block -> its lowest
        for j in walk:
            for k, s in links[j]:
                if k not in block and sep <= s:
                    b = block[k] = k if len(s) == size else block[j]
                    low[b] = min(low.get(b, k), k)
                    walk.append(k)
        lowest = min(walk)
        edges.extend((-size, lowest, m) for b, m in low.items() if b != block[lowest])
    edges.sort()
    return tuple((i, j) for _, i, j in edges)


def assign_clusters(net: DiscreteNetwork, jt: JunctionTree) -> dict[int, int]:
    """Map each variable to the smallest cluster covering its family,
    breaking size ties by the lower cluster index."""
    out: dict[int, int] = {}
    clusters = jt.clusters
    for u in net.ids:
        parents, home = net.parents(u), None
        # holders ascend, so a strict < keeps the lower index among equal sizes
        for j in jt.holders.get(u, ()):
            if clusters[j].issuperset(parents) and (home is None or len(clusters[j]) < len(clusters[home])):
                home = j
        if home is None:
            raise JunctionTreeError(f"no cluster covers the family of variable {u} ({sorted(net.family(u))})")
        out[u] = home
    return out


def validate_junction_tree(net: DiscreteNetwork, jt: JunctionTree) -> ValidationReport:
    """Every way ``jt`` fails to be a junction tree of ``net``, the one
    check a query's compile plan runs.  Clusters may name only network
    ids.  The edges must be in range, no self-loop and listed once, then
    number q - 1, then reach every cluster from cluster 0.  On such a
    tree, a variable's h holders must share h - 1 of its edges; if they do
    not, a holder's top is its parent's top if the parent holds the
    variable too, else itself, and the holders whose top is not the
    lowest holder's give one running-intersection violation.  Every
    family must fit in a holder, and an attached assignment must send
    exactly the network's ids to clusters holding their families.  One
    report per (network, tree) pair: the network keeps the last tree's
    for a repeat call.
    """
    kept, report = net._tree_check
    if kept is jt:
        return report
    out: list[Violation] = []
    ids = set(net.ids)

    clusters = jt.clusters
    for j, cluster in enumerate(clusters):
        if not ids.issuperset(cluster):
            out.append(Violation("unknown-variable", None,
                                 f"cluster {j} references unknown variable ids {sorted(cluster - ids)}"))

    q, tree, seen = jt.q, [], set()
    for i, j in jt.edges:
        if not (0 <= i < q and 0 <= j < q):
            tree.append(f"edge ({i}, {j}) is out of range")
        elif i == j:
            tree.append(f"edge ({i}, {j}) is a self-loop")
        elif (i, j) in seen:
            tree.append(f"edge ({i}, {j}) is duplicated")
        seen.add((i, j))
    children, order = jt.rooted(0) if q else ({}, ())
    missing = sorted(set(range(q)).difference(order))
    if not tree and len(jt.edges) != q - 1:
        tree.append(f"{len(jt.edges)} edges cannot span {q} clusters")
    elif not tree and missing:
        tree.append(f"clusters {missing} are disconnected")
    out.extend(Violation("tree", None, message) for message in tree)
    if not tree:
        parent = {k: j for j in order for k in children[j]}
        shared: Counter[int] = Counter()  # per variable, the edges both of whose ends hold it
        for i, j in jt.edges:
            shared.update(clusters[i] & clusters[j])
        for u in sorted(u for u, holders in jt.holders.items() if shared[u] != len(holders) - 1):
            top: dict[int, int] = {}
            for j in order:
                if u in clusters[j]:
                    top[j] = top.get(parent.get(j), j)
            start = jt.holders[u][0]
            missed = [j for j in jt.holders[u] if top[j] != top[start]]
            out.append(
                Violation(
                    "running-intersection", None,
                    f"variable {u} is held by clusters {missed}, which are "
                    f"cut off from cluster {start} by clusters lacking it",
                )
            )

    for u in sorted(ids):
        held = map(clusters.__getitem__, jt.holders.get(u, ()))
        if not any(map(frozenset.issuperset, held, repeat(net.parents(u)))):
            out.append(Violation("covering", u, f"no cluster covers the family {sorted(net.family(u))} "
                                 f"of variable {net.variable(u).name}"))

    homes = jt.assignment
    for u in sorted(homes.keys() | ids) if homes is not None else ():
        j = homes.get(u)
        if u not in ids:
            out.append(Violation("assignment", u, f"variable {u} is assigned but not in the network"))
        elif j is None:
            out.append(Violation("assignment", u, f"variable {u} is unassigned"))
        elif not (0 <= j < q):
            out.append(Violation("assignment", u, f"variable {u} assigned to {j}"))
        elif u not in clusters[j] or not clusters[j].issuperset(net.parents(u)):
            out.append(Violation("assignment", u,
                                 f"cluster {j} does not cover the family of variable {u}"))

    object.__setattr__(net, "_tree_check", (jt, ValidationReport(tuple(out))))
    return net._tree_check[1]


def edge_context(jt: JunctionTree, i: int, j: int) -> EdgeContext:
    """Separator and upstream variable sets for the directed edge i -> j.

    Requires an assignment on the tree.  The upstream set contains the
    variables assigned in the component of i once the edge is cut;
    its part inside the separator survives into the message scope and
    the rest is summed out.
    """
    if jt.assignment is None:
        raise JunctionTreeError("edge_context requires a variable assignment")
    sep = jt.separator(i, j)
    side = jt.side_of(i, j)
    upstream = frozenset(u for u, k in jt.assignment.items() if k in side)
    return EdgeContext(
        source=i,
        target=j,
        separator=sep,
        upstream=upstream,
        upstream_boundary=upstream & sep,
        upstream_interior=upstream - sep,
    )
