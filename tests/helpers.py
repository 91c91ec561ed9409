"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

import math

from beliefprop.factor import Factor
from beliefprop.jtree import JunctionTree, JunctionTreeError, moral_graph
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable, build_potentials
from beliefprop.propagation import CompiledQuery, ImpossibleEvidenceError
from beliefprop.sampling import _CHUNK, PosteriorSampler, SamplingConsistencyError, _row_cdfs

GENOTYPES = ("dd", "dD", "DD")

# Hardy-Weinberg prior with P(d) = 0.8
FOUNDER = np.array([0.64, 0.32, 0.04])

_PASS_D = {"dd": 1.0, "dD": 0.5, "DD": 0.0}


def _child_row(g1: str, g2: str) -> list[float]:
    p, q = _PASS_D[g1], _PASS_D[g2]
    return [p * q, p * (1 - q) + (1 - p) * q, (1 - p) * (1 - q)]


# 9 rows (second parent fastest) x 3 child states
MENDEL = np.array([_child_row(a, b) for a in GENOTYPES for b in GENOTYPES])

PEDIGREE_PARENTS = {
    2: (0, 1),   # X3 | X1, X2
    3: (0, 1),   # X4 | X1, X2
    6: (2, 4),   # X7 | X3, X5
    7: (2, 4),   # X8 | X3, X5
    8: (3, 5),   # X9 | X4, X6
    9: (6, 8),   # X10 | X7, X9
}


def pedigree_network() -> DiscreteNetwork:
    """Three-generation pedigree over a biallelic locus, X1..X10."""
    variables = [Variable(i, f"X{i + 1}", GENOTYPES) for i in range(10)]
    cpds = []
    for i in range(10):
        if i in PEDIGREE_PARENTS:
            cpds.append(Cpd(i, PEDIGREE_PARENTS[i], MENDEL))
        else:
            cpds.append(Cpd(i, (), FOUNDER.reshape(1, 3)))
    return DiscreteNetwork(variables, cpds)


def pedigree_evidence() -> EvidenceSet:
    # X7 not DD; X2, X4, X8, X10 observed DD
    return EvidenceSet(
        {6: frozenset({0, 1}), 1: frozenset({2}), 3: frozenset({2}),
         7: frozenset({2}), 9: frozenset({2})}
    )


def random_network(rng: np.random.Generator, max_vars: int = 8,
                   max_states: int = 3, max_parents: int = 3) -> DiscreteNetwork:
    """Random DAG with strictly positive CPD rows.

    Variable ids are not topologically sorted: parenthood follows a
    random permutation, so id order exercises the topological sort.
    """
    n = int(rng.integers(2, max_vars + 1))
    order = rng.permutation(n)
    variables = [
        Variable(i, f"V{i}", tuple(f"s{k}" for k in range(int(rng.integers(2, max_states + 1)))))
        for i in range(n)
    ]
    cpds = []
    for pos, i in enumerate(order):
        pool = list(order[:pos])
        rng.shuffle(pool)
        k = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        parents = tuple(int(p) for p in pool[:k])
        rows = 1
        for p in parents:
            rows *= variables[p].card
        table = rng.random((rows, variables[i].card)) + 0.05
        table /= table.sum(axis=1, keepdims=True)
        cpds.append(Cpd(int(i), parents, table))
    return DiscreteNetwork(variables, sorted(cpds, key=lambda c: c.child))


def banded_network(rng: np.random.Generator, n: int = 30, band: int = 9,
                   p: float = 0.7) -> DiscreteNetwork:
    """Banded random DAG of ternary variables: each variable takes each of
    the ``band`` variables before it as a parent with probability ``p``.
    Draws as the benchmark's wide workload does, so a seed gives its network."""
    states = ("a", "b", "c")
    variables = [Variable(i, f"W{i}", states) for i in range(n)]
    cpds = []
    for i in range(n):
        parents = tuple(j for j in range(max(0, i - band), i) if rng.random() < p)
        table = rng.random((3 ** len(parents), 3)) + 0.05
        cpds.append(Cpd(i, parents, table / table.sum(axis=1, keepdims=True)))
    return DiscreteNetwork(variables, cpds)


def random_evidence(rng: np.random.Generator, net: DiscreteNetwork,
                    p_restrict: float = 0.4) -> EvidenceSet:
    allowed = {}
    for v in net.variables:
        if rng.random() < p_restrict:
            k = int(rng.integers(1, v.card + 1))
            picked = rng.choice(v.card, size=k, replace=False)
            allowed[v.id] = frozenset(int(s) for s in picked)
    return EvidenceSet(allowed)


# -- reference implementations for the linear-time validators -------------


def path(jt: JunctionTree, i: int, j: int) -> list[int]:
    """Cluster indices from i to j inclusive (unique in a tree), found by
    a breadth-first walk from i."""
    if i == j:
        return [i]
    parent: dict[int, int] = {i: i}
    frontier = [i]
    while frontier:
        nxt = []
        for a in frontier:
            for b in jt.neighbors(a):
                if b not in parent:
                    parent[b] = a
                    nxt.append(b)
        frontier = nxt
    if j not in parent:
        raise ValueError(f"no path between clusters {i} and {j}")
    out = [j]
    while out[-1] != i:
        out.append(parent[out[-1]])
    return list(reversed(out))


def pairwise_running_intersection(jt: JunctionTree) -> list[tuple[int, int, int]]:
    """Condition (2) checked the quadratic way, pair by pair.

    For each pair of clusters (i, j) that share variables, walks the tree
    path between them and reports the first cluster k that misses part
    of the intersection, as (i, j, k).  Requires a valid spanning tree.
    """
    out = []
    for i in range(jt.q):
        for j in range(i + 1, jt.q):
            inter = jt.clusters[i] & jt.clusters[j]
            if not inter:
                continue
            for k in path(jt, i, j):
                if not inter <= jt.clusters[k]:
                    out.append((i, j, k))
                    break
    return out


def round_based_topological_order(net: DiscreteNetwork) -> list[int]:
    """Topological order by rescanning every pending variable per level."""
    pending = {u: set(net.parents(u)) for u in net.ids}
    order: list[int] = []
    while pending:
        ready = sorted(u for u, ps in pending.items() if not ps)
        if not ready:
            raise ValueError(f"cycle among variables {sorted(pending)}")
        for u in ready:
            del pending[u]
            order.append(u)
        for ps in pending.values():
            ps.difference_update(ready)
    return order


# -- reference implementations for the structure layer --------------------


def all_pairs_min_fill_cliques(adj) -> list[frozenset[int]]:
    """``min_fill_cliques`` by rescoring every remaining vertex at every
    step and dropping each clique strictly inside another one."""
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


def all_pairs_assign_clusters(net: DiscreteNetwork, jt: JunctionTree) -> dict[int, int]:
    """``assign_clusters`` by scanning every cluster per variable."""
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


def all_pairs_junction_tree(net: DiscreteNetwork) -> JunctionTree:
    """``build_junction_tree`` by Kruskal over every cluster pair, sorted
    by (-separator size, i, j), zero-weight pairs included."""
    cliques = all_pairs_min_fill_cliques(moral_graph(net))
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
    return JunctionTree(tree.clusters, tree.edges, all_pairs_assign_clusters(net, tree))


# -- reference implementation for the sampler's lazy CDFs ------------------


def eager_sample(sampler: PosteriorSampler, count: int) -> np.ndarray:
    """``sampler.sample(count)`` the eager way: every separator row's CDF
    is built up front from the whole table (``cluster_rows``), each draw
    gathers its whole row and counts the cells <= its uniform.  Consumes
    the sampler's generator the same way; reads only which clusters it visits."""
    out = np.zeros((count, len(sampler._columns)), dtype=np.int64)
    for visit in sampler._plan:
        layout = sampler.cq.cluster_rows(visit.cluster)
        cum = _row_cdfs(layout.table)
        zero_row = cum[:, -1] < 1.0
        uniforms = sampler._rng.random(count)
        flat = np.zeros(count, dtype=np.int64) + layout.row(
            {u: out[:, sampler._columns[u]] for u in layout.sep}
        )
        for lo in range(0, count, _CHUNK):
            hi = min(lo + _CHUNK, count)
            rows = flat[lo:hi]
            if np.any(zero_row[rows]):
                raise SamplingConsistencyError(
                    f"cluster {layout.cluster} reached with a zero-mass separator"
                )
            draws = (cum[rows] <= uniforms[lo:hi, None]).sum(axis=1)
            if layout.free:
                states = np.unravel_index(draws, layout.free_shape)
                for u, vals in zip(layout.free, states):
                    out[lo:hi, sampler._columns[u]] = vals
    keep = [sampler._columns[u] for u in sampler.variables]
    return out[:, keep]


# -- reference implementation for the MAP traceback ------------------------


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


def argmax_traceback(cq: CompiledQuery) -> tuple[dict[int, int], float]:
    """``cq.map_assignment()`` read from the whole max-semiring cluster
    tables: the root's argmax, then every other cluster along ``cq.order``
    indexed by the variables assigned so far, so the dict is keyed in the
    same order.  Needs the max messages."""
    marginal = cq.cluster_table(cq.root, semiring="max")
    peak = float(marginal.values.max())
    if peak <= 0.0:
        raise ImpossibleEvidenceError("no assignment is consistent with the evidence")
    assignment: dict[int, int] = {}
    _extend_argmax(marginal, assignment)
    for k in cq.order[1:]:
        _extend_argmax(cq.cluster_table(k, cq.parent[k], "max"), assignment)
    return assignment, math.log(peak) + marginal.log_scale


# -- reference implementation for the compiled cluster products ----------


def reference_products(cq: CompiledQuery) -> list[np.ndarray]:
    """``cq``'s cluster products formed one cluster at a time, as the engine once
    compiled them: one read-only product per distinct key (the layout's ``form``, then per
    member the observed states of its family and its child's allowed set), each member's
    array masked by ``Factor.restrict`` when its child is kept to an allowed set it is not
    sliced at, read at the observed states and multiplied into a one, in member order."""
    observed, allowed = cq._observed, cq.evidence.allowed
    products, made = [], {}
    for _, scope, shape, members, form, _ in cq._layouts:
        key = (form, *[(tuple(map(observed.get, family)), allowed.get(u)) for u, family, _ in members])
        if key not in made:
            potential = np.ones((1,) * len(scope))
            for u, family, values in members:
                if u in allowed and u not in observed:
                    values = Factor(family, values).restrict({u: allowed[u]}).values
                view = tuple(d if v in family else 1 for v, d in zip(scope, shape))
                at = tuple(observed.get(v, slice(None)) for v in family)
                potential = potential * values[at].reshape(view)
            potential.setflags(write=False)
            made[key] = potential
        products.append(made[key])
    return products


def assert_products_match(cq: CompiledQuery) -> None:
    """``cq``'s products against ``reference_products``: bit for bit, read-only, and the
    same clusters sharing one array."""
    got, want = cq._products, reference_products(cq)
    assert len(got) == len(want)
    for j, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and a.dtype == b.dtype, (j, a.shape, b.shape)
        assert a.tobytes() == b.tobytes(), j
        assert not a.flags.writeable, j
    first_got, first_want = {}, {}
    assert ([first_got.setdefault(id(p), j) for j, p in enumerate(got)]
            == [first_want.setdefault(id(p), j) for j, p in enumerate(want)])


# -- reference implementation for the compiled cluster layouts ------------


class _FactorRun:
    """One query's messages and cluster tables from ``Factor`` algebra,
    each product a chain of ``multiply`` calls from the unit, with the
    variables in ``observed`` sliced out of every potential at their
    state.  Messages are stored over the separators without them."""

    def __init__(self, cq: CompiledQuery, observed: dict[int, int]):
        self.cq, self.observed = cq, observed
        pots = build_potentials(cq.net, cq.evidence)
        jt = cq.jtree
        members: list[list[int]] = [[] for _ in range(jt.q)]
        for u, j in sorted(jt.assignment.items()):
            members[j].append(u)
        self.potentials = [self._product(self.sliced(pots[u]) for u in us) for us in members]
        self.messages: dict[tuple[str, int, int], Factor] = {}

    def sliced(self, f: Factor) -> Factor:
        """``f`` at the observed states, over its other variables."""
        index = tuple(self.observed.get(u, slice(None)) for u in f.scope)
        kept = tuple(u for u in f.scope if u not in self.observed)
        return Factor(kept, f.values[index], f.log_scale)

    def padded(self, f: Factor, scope) -> Factor:
        """``f`` over ``scope``: zeros off the observed states."""
        scope = tuple(sorted(scope))
        index = tuple(self.observed.get(u, slice(None)) for u in scope)
        if all(isinstance(i, slice) for i in index):
            return f
        values = np.zeros([self.cq.net.card(u) for u in scope])
        values[index] = f.values
        return Factor(scope, values, f.log_scale)

    @staticmethod
    def _product(factors) -> Factor:
        out = Factor.unit()
        for f in factors:
            out = out.multiply(f)
        return out

    def kept(self, variables) -> list[int]:
        return sorted(set(variables) - set(self.observed))

    def cluster_product(self, j: int, skip: int | None = None, semiring: str = "sum") -> Factor:
        pieces = [self.potentials[j]]
        for i in self.cq.jtree.neighbors(j):
            if i != skip:
                pieces.append(self.messages[(semiring, i, j)])
        return self._product(pieces)

    def cluster_table(self, j: int, skip: int | None = None, semiring: str = "sum") -> Factor:
        cluster = self.cq.jtree.clusters[j]
        table = self.cluster_product(j, skip, semiring).expand(self.kept(cluster), self.cq.net.cards)
        return self.padded(table, cluster)

    def compute_message(self, j: int, k: int, semiring: str = "sum") -> Factor:
        sep = self.kept(self.cq.jtree.separator(j, k))
        prod = self.cluster_product(j, k, semiring)
        drop = set(prod.scope) - set(sep)
        if semiring == "sum":
            msg = prod.marginalize_sum(drop)
        else:
            msg = prod.marginalize_max(drop)
        msg = msg.expand(sep, self.cq.net.cards).rescaled_unit_max()
        self.messages[(semiring, j, k)] = msg
        return msg

    def propagate(self) -> None:
        """Sum messages inward and outward, then max messages inward."""
        cq = self.cq
        for j in reversed(cq.order[1:]):
            self.compute_message(j, cq.parent[j])
        for j in cq.order[1:]:
            self.compute_message(cq.parent[j], j)
        for j in reversed(cq.order[1:]):
            self.compute_message(j, cq.parent[j], "max")


class FactorReference:
    """The engine's arithmetic before it laid clusters out, from the
    query's tree, root, assignment and evidence.  ``messages`` hold the
    messages with the evidence masked, as ``cq.message`` reports them;
    ``cluster_table`` and ``variable_posterior`` run with every
    single-state observation sliced out of every potential, as the
    engine does, and restore the sliced axes with zeros."""

    def __init__(self, cq: CompiledQuery):
        self.cq = cq
        observed = {u: next(iter(s)) for u, s in cq.evidence.allowed.items() if len(s) == 1}
        self.masked, self.sliced = _FactorRun(cq, {}), _FactorRun(cq, observed)
        self.messages = self.masked.messages

    def cluster_table(self, j: int, skip: int | None = None, semiring: str = "sum") -> Factor:
        return self.sliced.cluster_table(j, skip, semiring)

    def propagate(self) -> "FactorReference":
        self.masked.propagate()
        self.sliced.propagate()
        return self

    def variable_posterior(self, u: int) -> np.ndarray:
        """Sums the home cluster's smallest table that holds u: the product
        of the two sliced sum messages on the edge with the smallest
        separator holding u (lowest neighbour on ties), else the home's
        table.  An observed variable's posterior is its indicator, its mass
        checked on the home's smallest table."""
        run, observed, j = self.sliced, self.sliced.observed, self.cq.jtree.assignment[u]
        held = []
        for k in self.cq.jtree.neighbors(j):
            sep = run.kept(self.cq.jtree.separator(j, k))
            if u in observed or u in sep:
                held.append((math.prod(self.cq.net.card(v) for v in sep), k))
        if held:
            k = min(held)[1]
            table = run.messages[("sum", j, k)].multiply(run.messages[("sum", k, j)])
        else:
            table = self.cluster_table(j)
        single = table.values.sum(axis=tuple(a for a, v in enumerate(table.scope) if v != u))
        total = float(single.sum())
        if total <= 0.0:
            raise ImpossibleEvidenceError("posterior undefined: evidence has probability zero")
        if single.ndim == 0:
            single = np.zeros(self.cq.net.card(u))
            single[observed[u]] = total
        return single / total
