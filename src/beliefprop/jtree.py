"""Junction trees over a discrete network.

A junction tree here is a tree of variable clusters satisfying three
conditions: (1) the edges form a spanning tree of the clusters, (2) the
intersection of any two clusters is contained in every cluster on the
path between them, and (3) every variable's family (itself plus its
parents) fits inside at least one cluster.  Clusters do not have to be
maximal cliques of any triangulation; anything passing the validator is
accepted.

Condition (2) is checked in its equivalent per-variable form: the
clusters holding any one variable form a connected subtree.  A
violation names the variable and the holding clusters that are cut off
from its lowest-index holder.

Each variable is assigned to exactly one covering cluster; the built-in
rule picks the smallest covering cluster, breaking ties by the lower
cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import DiscreteNetwork, ValidationReport, Violation


class JunctionTreeError(ValueError):
    pass


class InvalidJunctionTreeError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.lines()))


@dataclass(frozen=True)
class JunctionTree:
    """Clusters, undirected edges (as (low, high) index pairs), and an
    optional variable-to-cluster assignment."""

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
            assignment = {int(u): int(j) for u, j in self.assignment.items()}
        adj: dict[int, list[int]] = {i: [] for i in range(len(clusters))}
        for i, j in edges:
            if 0 <= i < len(clusters) and 0 <= j < len(clusters) and i != j:
                adj[i].append(j)
                adj[j].append(i)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "_adj", {i: tuple(sorted(ns)) for i, ns in adj.items()})
        # every listed pair, self-loops and out-of-range ones included
        object.__setattr__(self, "_edge_set", frozenset(edges))

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

    def side_of(self, i: int, j: int) -> frozenset[int]:
        """Clusters in the component of i when edge (i, j) is removed."""
        if not self.is_edge(i, j):
            raise JunctionTreeError(f"({i}, {j}) is not a tree edge")
        seen = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for a in frontier:
                for b in self.neighbors(a):
                    if b not in seen and not (a == i and b == j):
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(seen)


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
        fam = sorted(net.family(u))
        for a in fam:
            for b in fam:
                if a != b:
                    adj[a].add(b)
    return adj


def min_fill_cliques(adj: Mapping[int, set[int]]) -> list[frozenset[int]]:
    """Eliminate vertices greedily by fill-in count, collecting cliques.

    Ties are broken by the lower vertex id, so the result is a pure
    function of the graph.  Cliques that end up contained in another
    clique are dropped; the survivors are the maximal cliques of the
    triangulation induced by the elimination.
    """
    work = {u: set(ns) for u, ns in adj.items()}
    cliques: list[frozenset[int]] = []
    while work:
        best = None
        for u in sorted(work):
            nbrs = sorted(work[u])
            fill = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if b not in work[a]:
                        fill += 1
            if best is None or fill < best[0]:
                best = (fill, u)
        _, v = best
        nbrs = sorted(work[v])
        cliques.append(frozenset([v, *nbrs]))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                work[a].add(b)
                work[b].add(a)
        for a in nbrs:
            work[a].discard(v)
        del work[v]
    maximal: list[frozenset[int]] = []
    for c in cliques:
        if any(c < other for other in cliques):
            continue
        if c not in maximal:
            maximal.append(c)
    return maximal


def build_junction_tree(net: DiscreteNetwork) -> JunctionTree:
    """Moralize, triangulate by min-fill, join cliques by a maximum-weight
    spanning tree (weight = separator size, ties by lexicographic edge).

    Always succeeds on a valid network; the worst case is a single
    cluster holding everything.  The output carries the smallest-cluster
    variable assignment and passes validate_junction_tree.
    """
    cliques = min_fill_cliques(moral_graph(net))
    if not cliques:
        cliques = [frozenset()]
    q = len(cliques)
    candidates = sorted(
        (-len(cliques[i] & cliques[j]), i, j)
        for i in range(q) for j in range(i + 1, q)
    )
    parent = list(range(q))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[tuple[int, int]] = []
    for _, i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
            if len(edges) == q - 1:
                break
    tree = JunctionTree(tuple(cliques), tuple(edges))
    return JunctionTree(tree.clusters, tree.edges, assign_clusters(net, tree))


def assign_clusters(net: DiscreteNetwork, jt: JunctionTree) -> dict[int, int]:
    """Map each variable to the smallest cluster covering its family,
    breaking size ties by the lower cluster index."""
    out: dict[int, int] = {}
    for u in net.ids:
        fam = net.family(u)
        best = None
        for j, cluster in enumerate(jt.clusters):
            if fam <= cluster:
                key = (len(cluster), j)
                if best is None or key < best:
                    best = key
        if best is None:
            raise JunctionTreeError(
                f"no cluster covers the family of variable {u} ({sorted(fam)})"
            )
        out[u] = best[1]
    return out


def validate_junction_tree(net: DiscreteNetwork, jt: JunctionTree) -> ValidationReport:
    """Check the tree/intersection/covering conditions plus, when an
    assignment is attached, that it maps families into their clusters.

    The intersection condition is checked per variable: starting from
    the lowest-index cluster holding it, a walk through holding clusters
    only must reach every other holder.  Each variable that fails gives
    one running-intersection violation naming it and the holders the
    walk missed.  Each walk looks only at holders and their tree
    neighbours, so no pair of clusters is ever compared along a path.
    """
    out: list[Violation] = []
    ids = set(net.ids)
    q = jt.q

    holders: dict[int, list[int]] = {}
    for j, cluster in enumerate(jt.clusters):
        unknown = sorted(cluster - ids)
        if unknown:
            out.append(
                Violation("unknown-variable", None,
                          f"cluster {j} references unknown variable ids {unknown}")
            )
        for u in cluster:
            holders.setdefault(u, []).append(j)

    tree_ok = True
    seen_edges: set[tuple[int, int]] = set()
    for i, j in jt.edges:
        if not (0 <= i < q and 0 <= j < q):
            out.append(Violation("tree", None, f"edge ({i}, {j}) is out of range"))
            tree_ok = False
        elif i == j:
            out.append(Violation("tree", None, f"edge ({i}, {j}) is a self-loop"))
            tree_ok = False
        elif (i, j) in seen_edges:
            out.append(Violation("tree", None, f"edge ({i}, {j}) is duplicated"))
            tree_ok = False
        seen_edges.add((i, j))
    if tree_ok:
        if len(jt.edges) != q - 1:
            out.append(
                Violation("tree", None,
                          f"{len(jt.edges)} edges cannot span {q} clusters")
            )
            tree_ok = False
        else:
            reached = {0} if q else set()
            frontier = [0] if q else []
            while frontier:
                nxt = []
                for a in frontier:
                    for b in jt.neighbors(a):
                        if b not in reached:
                            reached.add(b)
                            nxt.append(b)
                frontier = nxt
            if len(reached) != q:
                missing = sorted(set(range(q)) - reached)
                out.append(
                    Violation("tree", None, f"clusters {missing} are disconnected")
                )
                tree_ok = False

    if tree_ok:
        for u in sorted(holders):
            start = holders[u][0]
            reached = {start}
            stack = [start]
            while stack:
                a = stack.pop()
                for b in jt.neighbors(a):
                    if b not in reached and u in jt.clusters[b]:
                        reached.add(b)
                        stack.append(b)
            if len(reached) < len(holders[u]):
                missed = [j for j in holders[u] if j not in reached]
                out.append(
                    Violation(
                        "running-intersection", None,
                        f"variable {u} is held by clusters {missed}, which are "
                        f"cut off from cluster {start} by clusters lacking it",
                    )
                )

    for u in sorted(ids):
        fam = net.family(u)
        if not any(fam <= jt.clusters[j] for j in holders.get(u, ())):
            out.append(
                Violation("covering", u,
                          f"no cluster covers the family {sorted(fam)} of "
                          f"variable {net.variable(u).name}")
            )

    if jt.assignment is not None:
        for u in sorted(ids):
            j = jt.assignment.get(u)
            if j is None:
                out.append(Violation("assignment", u, f"variable {u} is unassigned"))
            elif not (0 <= j < q):
                out.append(Violation("assignment", u, f"variable {u} assigned to {j}"))
            elif not net.family(u) <= jt.clusters[j]:
                out.append(
                    Violation("assignment", u,
                              f"cluster {j} does not cover the family of variable {u}")
                )

    return ValidationReport(tuple(out))


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
