import json
import sys
import time
from itertools import combinations

import numpy as np
import pytest
from conftest import PED_ASSIGNMENT, PED_CLUSTERS, PED_EDGES
from helpers import (
    all_pairs_junction_tree,
    all_pairs_min_fill_cliques,
    banded_network,
    pairwise_running_intersection,
    path,
    pedigree_network,
    random_network,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop import hmm, jtree
from beliefprop.cli import jtree_to_json, load_network
from beliefprop.jtree import (
    JunctionTree,
    JunctionTreeError,
    assign_clusters,
    build_junction_tree,
    edge_context,
    min_fill_cliques,
    moral_graph,
    validate_junction_tree,
)
from beliefprop.model import Cpd, DiscreteNetwork, Variable


class TestMoralGraph:
    def test_pedigree_coparent_links(self):
        adj = moral_graph(pedigree_network())
        assert 1 in adj[0]        # X1 - X2 share child X3
        assert 4 in adj[2]        # X3 - X5 share child X7
        assert 8 in adj[6]        # X7 - X9 share child X10
        assert 2 in adj[0]        # parent-child edge X1 - X3
        assert 9 not in adj[0]    # X1 and X10 unrelated

    def test_symmetry(self):
        adj = moral_graph(pedigree_network())
        for u, ns in adj.items():
            for v in ns:
                assert u in adj[v]


class TestMinFill:
    def test_tree_shaped_graph(self):
        # no fill needed: cliques are exactly the edges
        adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        cliques = min_fill_cliques(adj)
        assert set(cliques) == {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}

    def test_complete_graph_single_clique(self):
        adj = {u: {v for v in range(4) if v != u} for u in range(4)}
        assert min_fill_cliques(adj) == [frozenset(range(4))]

    def test_cycle_gets_filled(self):
        # 4-cycle needs one chord; two triangles result
        adj = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}
        cliques = min_fill_cliques(adj)
        assert len(cliques) == 2
        assert all(len(c) == 3 for c in cliques)

    def test_isolated_vertex(self):
        cliques = min_fill_cliques({0: set()})
        assert cliques == [frozenset({0})]

    def test_self_loop_refused(self):
        with pytest.raises(ValueError, match="vertex 0 is its own neighbour"):
            min_fill_cliques({0: {0, 1}, 1: {0}})

    def test_neighbour_outside_the_graph_refused(self):
        with pytest.raises(ValueError, match="neighbour 5 of vertex 0 is not a vertex"):
            min_fill_cliques({0: {5}})

    def test_one_way_edge_refused(self):
        with pytest.raises(ValueError, match="edge 0-1 is not listed at 1"):
            min_fill_cliques({0: {1}, 1: set()})


class TestBuiltTree:
    def test_pedigree_tree_is_valid(self):
        net = pedigree_network()
        jt = build_junction_tree(net)
        assert validate_junction_tree(net, jt).ok
        assert jt.assignment is not None
        assert max(len(c) for c in jt.clusters) == 4

    def test_edge_count_is_tree(self):
        net = pedigree_network()
        jt = build_junction_tree(net)
        assert len(jt.edges) == jt.q - 1

    def test_random_networks_build_valid_trees(self):
        rng = np.random.default_rng(2371)
        for _ in range(25):
            net = random_network(rng)
            jt = build_junction_tree(net)
            report = validate_junction_tree(net, jt)
            assert report.ok, report.lines()

    def test_deterministic(self):
        net = pedigree_network()
        a, b = build_junction_tree(net), build_junction_tree(net)
        assert a.clusters == b.clusters and a.edges == b.edges


def disjoint_union(a: DiscreteNetwork, b: DiscreteNetwork) -> DiscreteNetwork:
    """Both networks side by side, b's ids shifted past a's."""
    off = max(a.ids) + 1
    variables = list(a.variables) + [
        Variable(v.id + off, f"{v.name}b", v.states) for v in b.variables
    ]
    cpds = list(a.cpds) + [
        Cpd(c.child + off, tuple(p + off for p in c.parents), c.table) for c in b.cpds
    ]
    return DiscreteNetwork(variables, cpds)


class TestBuiltTreeAgainstAllPairsReference:
    """The holder-index build gives the all-pairs build's tree exactly:
    clusters and their order, edges and their order, the assignment."""

    @staticmethod
    def assert_same_tree(net):
        got, want = build_junction_tree(net), all_pairs_junction_tree(net)
        assert got.clusters == want.clusters
        assert got.edges == want.edges
        assert got.assignment == want.assignment
        assert validate_junction_tree(net, got).ok

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
    def test_random_dags(self, rng_seed, max_vars, max_parents):
        rng = np.random.default_rng(rng_seed)
        net = random_network(rng, max_vars=max_vars, max_parents=max_parents)
        assert min_fill_cliques(moral_graph(net)) == all_pairs_min_fill_cliques(moral_graph(net))
        self.assert_same_tree(net)

    @seed(20261021)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.floats(0.05, 0.5))
    def test_min_fill_on_random_graphs(self, rng_seed, n, density):
        # larger than the DAGs above, so fill edges added next to a
        # neighbour of the eliminated vertex often change who goes next
        rng = np.random.default_rng(rng_seed)
        adj: dict[int, set[int]] = {u: set() for u in range(n)}
        for u, w in combinations(range(n), 2):
            if rng.random() < density:
                adj[u].add(w)
                adj[w].add(u)
        assert min_fill_cliques(adj) == all_pairs_min_fill_cliques(adj)

    @seed(20261024)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_min_fill_on_banded_moral_graphs(self, rng_seed):
        # the wide benchmark's networks: about 0.7 of the pairs within a
        # band of 9 linked, denser than the random graphs above
        adj = moral_graph(banded_network(np.random.default_rng(rng_seed)))
        assert min_fill_cliques(adj) == all_pairs_min_fill_cliques(adj)

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_disjoint_unions(self, rng_seed):
        # the parts share no variable, so they meet through zero-weight joins
        rng = np.random.default_rng(rng_seed)
        self.assert_same_tree(disjoint_union(random_network(rng), random_network(rng)))

    @seed(20261020)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3))
    def test_hub_networks(self, rng_seed, n_children, n_hubs):
        # each child has one or two hub parents, so a hub is held by many
        # cliques and its elimination rescoring reaches far
        rng = np.random.default_rng(rng_seed)
        n = n_hubs + n_children
        variables = [Variable(i, f"V{i}", ("a", "b")) for i in range(n)]
        cpds = [Cpd(i, (), [[0.5, 0.5]]) for i in range(n_hubs)]
        for i in range(n_hubs, n):
            ps = tuple(sorted({int(h) for h in rng.integers(0, n_hubs, size=2)}))
            cpds.append(Cpd(i, ps, np.full((2 ** len(ps), 2), 0.5)))
        self.assert_same_tree(DiscreteNetwork(variables, cpds))

    def test_empty_network(self):
        self.assert_same_tree(DiscreteNetwork([], []))
        assert build_junction_tree(DiscreteNetwork([], [])).clusters == (frozenset(),)

    def test_pedigree_tree_is_pinned(self, fixtures_dir):
        # clusters in order, edges in order and the assignment, as
        # `beliefprop jtree fixtures/pedigree.json --emit-json` prints them
        net = load_network(str(fixtures_dir / "pedigree.json"))
        want = json.loads((fixtures_dir / "pedigree_jtree.json").read_text())
        assert jtree_to_json(net, build_junction_tree(net)) == want

    def test_long_chain_network_builds_in_near_linear_time(self):
        # the all-pairs build took seconds here; 5 s is a generous bound
        spec = hmm.precipitation_spec(2000)
        net, _ = hmm.to_bayes_net(spec, [0] * 2000)
        start = time.perf_counter()
        jt = build_junction_tree(net)
        elapsed = time.perf_counter() - start
        assert jt.q == 3999
        assert validate_junction_tree(net, jt).ok
        assert elapsed < 5.0

    def test_star_min_fill_is_linear_in_its_leaves(self):
        # rescoring the hub from scratch after each leaf took about 4.5 s
        # at this size; 2 s is a generous bound
        leaves = 5000
        adj = {0: set(range(1, leaves + 1)), **{i: {0} for i in range(1, leaves + 1)}}
        start = time.perf_counter()
        cliques = min_fill_cliques(adj)
        elapsed = time.perf_counter() - start
        assert cliques == [frozenset({0, i}) for i in range(1, leaves + 1)]
        assert elapsed < 2.0


def hub_network(rng: np.random.Generator, n_hubs: int, n_children: int) -> DiscreteNetwork:
    """Binary root variables 0..n_hubs-1 and children with one or two of them as parents."""
    n = n_hubs + n_children
    variables = [Variable(i, f"V{i}", ("a", "b")) for i in range(n)]
    cpds = [Cpd(i, (), [[0.5, 0.5]]) for i in range(n_hubs)]
    for i in range(n_hubs, n):
        ps = tuple(sorted({int(h) for h in rng.integers(0, n_hubs, size=int(rng.integers(1, 3)))}))
        cpds.append(Cpd(i, ps, np.full((2 ** len(ps), 2), 0.5)))
    return DiscreteNetwork(variables, cpds)


class TestSpanningTreeAtScale:
    """The spanning tree read off one clique tree is the all-pairs
    Kruskal's tree on the benchmark's networks and on hubs of hundreds of
    ties, and its work grows linearly with a hub's children."""

    def test_wide_sized_banded_networks(self):
        # 30 ternary variables, band 9: the wide benchmark's networks
        for rng_seed in range(60):
            TestBuiltTreeAgainstAllPairsReference.assert_same_tree(banded_network(np.random.default_rng(rng_seed)))

    @pytest.mark.parametrize("n_hubs, n_children", [(1, 300), (2, 120), (3, 200), (4, 300), (6, 250)])
    def test_several_hubs_with_many_tied_children(self, n_hubs, n_children):
        # every child's clique shares one or two hub variables with many
        # others, so hundreds of pairs tie on separator size
        for rng_seed in range(3):
            net = hub_network(np.random.default_rng([rng_seed, n_hubs, n_children]), n_hubs, n_children)
            TestBuiltTreeAgainstAllPairsReference.assert_same_tree(net)

    @staticmethod
    def lines_run(net: DiscreteNetwork, budget: int) -> int:
        """Lines of jtree.py run to build ``net``'s tree, counted by a trace
        function; AssertionError once they pass ``budget``."""
        count = 0

        def local(frame, event, arg):
            nonlocal count
            count += event == "line"
            assert count <= budget, f"building took more than {budget} lines"
            return local

        before = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == jtree.__file__ else None)
        try:
            build_junction_tree(net)
        finally:
            sys.settrace(before)
        return count

    def test_hub_build_work_is_linear_in_its_children(self):
        # a binary root with k binary children: k cliques all holding the
        # root; weighing every pair of them ran about 64 times the lines
        # at k = 4000 that it ran at k = 500, eight times the children
        small = self.lines_run(hub_network(np.random.default_rng(0), 1, 500), 500 * 400)
        large = self.lines_run(hub_network(np.random.default_rng(0), 1, 4000), 4000 * 400)
        assert large <= 10 * small, (small, large)


class TestAssignment:
    def test_pedigree_fixture_assignment(self, ped_net):
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES)
        assert assign_clusters(ped_net, jt) == PED_ASSIGNMENT

    def test_smallest_cluster_wins(self, ped_net):
        # X9's family {X4, X6, X9} fits cluster 2 (size 3), not cluster 0
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES)
        assert assign_clusters(ped_net, jt)[8] == 2

    def test_tie_breaks_to_lower_index(self, ped_net):
        # X5 alone fits clusters 5 and 6, both size 3
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES)
        assert assign_clusters(ped_net, jt)[4] == 5

    def test_uncovered_family_raises(self, ped_net):
        lone = JunctionTree((frozenset({0, 1, 2}),), ())
        with pytest.raises(JunctionTreeError, match="family"):
            assign_clusters(ped_net, lone)


class TestTreeQueries:
    def test_separator(self, ped_jtree):
        assert ped_jtree.separator(0, 1) == frozenset({2, 3})
        assert ped_jtree.separator(5, 6) == frozenset({2, 4})

    def test_separator_requires_edge(self, ped_jtree):
        with pytest.raises(JunctionTreeError, match="not a tree edge"):
            ped_jtree.separator(0, 6)

    def test_is_edge_answers_for_every_listed_pair(self):
        # a self-loop and an out-of-range pair are listed edges, though
        # neither makes it into the neighbour lists
        clusters = (frozenset({0}), frozenset({0, 1}), frozenset({1}))
        jt = JunctionTree(clusters, ((1, 0), (2, 2), (0, 7)))
        assert jt.is_edge(0, 1) and jt.is_edge(1, 0)
        assert jt.is_edge(2, 2)
        assert jt.is_edge(7, 0) and jt.is_edge(0, 7)
        assert not jt.is_edge(1, 2)
        assert not jt.is_edge(1, 1)
        assert jt.neighbors(2) == ()

    def test_path(self, ped_jtree):
        assert path(ped_jtree, 0, 6) == [0, 1, 3, 5, 6]
        assert path(ped_jtree, 2, 2) == [2]

    def test_side_of(self, ped_jtree):
        assert ped_jtree.side_of(1, 0) == frozenset({1, 2, 3, 4, 5, 6})
        assert ped_jtree.side_of(0, 1) == frozenset({0})

    def test_side_of_requires_edge(self, ped_jtree):
        with pytest.raises(JunctionTreeError, match=r"\(0, 6\) is not a tree edge"):
            ped_jtree.side_of(0, 6)

    def test_side_of_matches_paths(self, ped_jtree):
        # k is on i's side of edge (i, j) exactly when its path to j passes i
        for i, j in ped_jtree.edges:
            for a, b in ((i, j), (j, i)):
                want = {k for k in range(ped_jtree.q) if a in path(ped_jtree, k, b)}
                assert ped_jtree.side_of(a, b) == frozenset(want)

    def test_rooted_lists_parents_first(self, ped_jtree):
        children, order = ped_jtree.rooted(3)
        assert order == (3, 1, 0, 2, 4, 5, 6)
        assert dict(children) == {3: (1, 4, 5), 1: (0, 2), 0: (), 2: (), 4: (), 5: (6,), 6: ()}

    def test_rooted_walk_is_kept(self, ped_jtree):
        # a tree never changes, so asking again for the same root walks nothing
        first, again = ped_jtree.rooted(3), ped_jtree.rooted(3)
        assert first[0] is again[0] and first[1] is again[1]
        assert ped_jtree.rooted(0)[1] == (0, 1, 2, 3, 4, 5, 6)
        assert ped_jtree.rooted(3) == first

    def test_assignment_is_read_only(self, ped_jtree):
        u, j = next(iter(ped_jtree.assignment.items()))
        with pytest.raises(TypeError):
            ped_jtree.assignment[u] = j
        assert ped_jtree.assignment == PED_ASSIGNMENT

    def test_holders_list_clusters_in_ascending_order(self, ped_jtree):
        assert ped_jtree.holders[8] == (1, 2, 3, 4)
        assert set(ped_jtree.holders) == set(range(10))
        for u, js in ped_jtree.holders.items():
            assert list(js) == [j for j, c in enumerate(PED_CLUSTERS) if u in c]

    def test_edge_context_upstream(self, ped_jtree):
        # everything below cluster 1 seen from the root side
        ctx = edge_context(ped_jtree, 1, 0)
        assert ctx.separator == frozenset({2, 3})
        assert ctx.upstream == frozenset({4, 5, 6, 7, 8, 9})
        assert ctx.upstream_interior == frozenset({4, 5, 6, 7, 8, 9})

    def test_edge_context_boundary(self, ped_jtree):
        ctx = edge_context(ped_jtree, 0, 1)
        assert ctx.upstream == frozenset({0, 1, 2, 3})
        assert ctx.upstream_boundary == frozenset({2, 3})
        assert ctx.upstream_interior == frozenset({0, 1})

    def test_edge_context_requires_assignment(self):
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES)
        with pytest.raises(JunctionTreeError, match="assignment"):
            edge_context(jt, 0, 1)


class TestValidator:
    def test_accepts_fixture(self, ped_net, ped_jtree):
        assert validate_junction_tree(ped_net, ped_jtree).ok

    def test_accepts_single_cluster(self, ped_net):
        jt = JunctionTree((frozenset(range(10)),), ())
        report = validate_junction_tree(ped_net, jt)
        assert report.ok

    def test_accepts_chain_tree(self):
        spec = hmm.precipitation_spec(5)
        net, _ = hmm.to_bayes_net(spec, [0, 1, 2, 0, 1])
        jt = hmm.chain_junction_tree(spec)
        assert validate_junction_tree(net, jt).ok

    def test_rejects_cycle(self, ped_net):
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES + ((0, 2),))
        report = validate_junction_tree(ped_net, jt)
        assert not report.ok
        assert "tree" in {v.kind for v in report.violations}

    def test_rejects_disconnected(self, ped_net):
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES[:-1])
        report = validate_junction_tree(ped_net, jt)
        assert not report.ok
        assert "tree" in {v.kind for v in report.violations}

    def test_rejects_broken_running_intersection(self, ped_net):
        # reroute cluster 2 ({X4, X6, X9}) to cluster 0, which lacks X9
        edges = ((0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (5, 6))
        jt = JunctionTree(PED_CLUSTERS, edges)
        report = validate_junction_tree(ped_net, jt)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "running-intersection" in kinds
        assert "tree" not in kinds

    def test_rejects_broken_covering(self, ped_net):
        clusters = PED_CLUSTERS[:4] + (frozenset({6, 8}),) + PED_CLUSTERS[5:]
        jt = JunctionTree(clusters, PED_EDGES)
        report = validate_junction_tree(ped_net, jt)
        assert not report.ok
        assert any(v.kind == "covering" and v.variable == 9 for v in report.violations)

    def test_rejects_unknown_variable(self, ped_net):
        clusters = PED_CLUSTERS[:6] + (frozenset({2, 4, 7, 77}),)
        jt = JunctionTree(clusters, PED_EDGES)
        report = validate_junction_tree(ped_net, jt)
        assert not report.ok
        assert "unknown-variable" in {v.kind for v in report.violations}

    def test_rejects_bad_assignment(self, ped_net):
        # X10 (family {X7, X9, X10}) pinned to a cluster missing it
        assignment = {**PED_ASSIGNMENT, 9: 0}
        jt = JunctionTree(PED_CLUSTERS, PED_EDGES, assignment)
        report = validate_junction_tree(ped_net, jt)
        assert not report.ok
        assert "assignment" in {v.kind for v in report.violations}

    @pytest.mark.parametrize(
        "edges, assignment, line",
        [
            (PED_EDGES[:-1] + ((5, 7),), None, "tree: edge (5, 7) is out of range"),
            (PED_EDGES[:-1] + ((6, 6),), None, "tree: edge (6, 6) is a self-loop"),
            (PED_EDGES[:-1] + ((3, 5),), None, "tree: edge (3, 5) is duplicated"),
            # six edges, but a cycle through 0, 1, 2 leaves cluster 6 out
            (PED_EDGES[:-1] + ((0, 2),), None, "tree: clusters [6] are disconnected"),
            (PED_EDGES, {u: j for u, j in PED_ASSIGNMENT.items() if u != 9},
             "assignment: variable 9 is unassigned"),
            (PED_EDGES, {**PED_ASSIGNMENT, 9: 7}, "assignment: variable 9 assigned to 7"),
            # an id outside the network would end in a KeyError in CompiledQuery
            (PED_EDGES, {**PED_ASSIGNMENT, 77: 0},
             "assignment: variable 77 is assigned but not in the network"),
        ],
        ids=["out-of-range", "self-loop", "duplicated", "disconnected", "unassigned", "assigned-to",
             "not-in-network"],
    )
    def test_violation_lines(self, ped_net, edges, assignment, line):
        jt = JunctionTree(PED_CLUSTERS, edges, assignment)
        assert validate_junction_tree(ped_net, jt).lines() == [line]

    def test_witness_names_condition(self, ped_net):
        edges = ((0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (5, 6))
        jt = JunctionTree(PED_CLUSTERS, edges)
        lines = validate_junction_tree(ped_net, jt).lines()
        assert any("running-intersection" in line for line in lines)


@st.composite
def clustered_trees(draw):
    """A random network, random clusters over its variables, and a
    random spanning tree joining them (cluster 0 need not be the root)."""
    net = random_network(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         max_vars=6)
    q = draw(st.integers(1, 7))
    clusters = tuple(
        frozenset(draw(st.sets(st.sampled_from(net.ids), max_size=len(net.ids))))
        for _ in range(q)
    )
    perm = draw(st.permutations(range(q)))
    edges = tuple(
        (perm[i], perm[draw(st.integers(0, i - 1))]) for i in range(1, q)
    )
    return net, JunctionTree(clusters, edges)


class TestValidatorAgainstPairwiseReference:
    @seed(20240117)
    @settings(max_examples=300, deadline=None)
    @given(clustered_trees())
    def test_verdict_matches_reference(self, case):
        net, jt = case
        report = validate_junction_tree(net, jt)
        kinds = {v.kind for v in report.violations}
        broken = bool(pairwise_running_intersection(jt))
        uncovered = {
            u for u in net.ids if not any(net.family(u) <= c for c in jt.clusters)
        }
        assert ("running-intersection" in kinds) == broken
        assert {v.variable for v in report.violations if v.kind == "covering"} == uncovered
        assert report.ok == (not broken and not uncovered)
        assert kinds <= {"running-intersection", "covering"}

    def test_one_violation_per_disconnected_variable(self, ped_net):
        # cluster 2 ({X4, X6, X9}) hangs off cluster 0, which lacks X9:
        # X9's holders {1, 2, 3, 4} split into {1, 3, 4} and {2}
        edges = ((0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (5, 6))
        jt = JunctionTree(PED_CLUSTERS, edges)
        ri = [v for v in validate_junction_tree(ped_net, jt).violations
              if v.kind == "running-intersection"]
        assert [v.message for v in ri] == [
            "variable 8 is held by clusters [2], which are cut off from "
            "cluster 1 by clusters lacking it"
        ]

    def test_long_chain_needs_no_path_walks(self, monkeypatch):
        spec = hmm.precipitation_spec(2000)
        net, _ = hmm.to_bayes_net(spec, [0] * 2000)
        jt = hmm.chain_junction_tree(spec)

        def no_walk(self, i, j):
            raise AssertionError("validate_junction_tree walked the tree per edge")

        monkeypatch.setattr(JunctionTree, "side_of", no_walk)
        assert validate_junction_tree(net, jt).ok
