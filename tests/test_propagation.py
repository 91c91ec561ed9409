import math

import numpy as np
import pytest
from helpers import (
    pedigree_evidence,
    pedigree_network,
    random_evidence,
    random_network,
)

from beliefprop.jtree import InvalidJunctionTreeError, JunctionTree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, InvalidNetworkError, Variable
from beliefprop.oracle import (
    joint_table,
    oracle_log_probability,
    oracle_map,
    oracle_message,
    oracle_posterior,
)
from beliefprop.propagation import (
    CompiledQuery,
    ImpossibleEvidenceError,
    SchedulingError,
    build_potentials,
    compile_query,
    joint_score,
)


@pytest.fixture(scope="module")
def calibrated(ped_net_module, ped_ev_module, ped_jtree_module):
    cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module, root=0)
    cq.propagate()
    return cq


# module-scoped copies so `calibrated` can also be module-scoped
@pytest.fixture(scope="module")
def ped_net_module():
    return pedigree_network()


@pytest.fixture(scope="module")
def ped_ev_module():
    return pedigree_evidence()


@pytest.fixture(scope="module")
def ped_jtree_module(ped_net_module):
    from conftest import PED_ASSIGNMENT, PED_CLUSTERS, PED_EDGES

    return JunctionTree(PED_CLUSTERS, PED_EDGES, PED_ASSIGNMENT)


class TestPotentials:
    def test_restriction_zeroes_child_states_only(self):
        net = pedigree_network()
        ev = pedigree_evidence()
        pots = build_potentials(net, ev)
        # X9 | X4, X6 carries no restriction itself even though X4 does
        f9 = pots[8].linear()
        assert f9[0, 0, 0] > 0  # X4=dd row survives in X9's potential
        # X4's own potential is restricted to DD
        f4 = pots[3].linear()
        assert f4[:, :, 0].max() == 0 and f4[:, :, 1].max() == 0
        assert f4[:, :, 2].max() > 0

    def test_no_evidence_is_plain_cpd(self):
        net = pedigree_network()
        pots = build_potentials(net, EvidenceSet.none())
        np.testing.assert_array_equal(pots[0].linear(), net.cpd_factor(0).linear())


class TestMessages:
    def test_every_message_matches_oracle(self, calibrated, ped_net_module,
                                          ped_ev_module, ped_jtree_module):
        for i, j in ped_jtree_module.edges:
            for src, dst in ((i, j), (j, i)):
                got = calibrated.message(src, dst).linear()
                want = oracle_message(
                    ped_net_module, ped_ev_module, ped_jtree_module, src, dst
                ).linear()
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_message_scope_is_separator(self, calibrated, ped_jtree_module):
        msg = calibrated.message(1, 0)
        assert set(msg.scope) == set(ped_jtree_module.separator(1, 0))

    def test_scheduling_error_before_pass(self, ped_net_module, ped_ev_module,
                                          ped_jtree_module):
        cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module)
        with pytest.raises(SchedulingError):
            cq.message(1, 0)

    def test_inward_only_outward_missing(self, ped_net_module, ped_ev_module,
                                         ped_jtree_module):
        cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module, root=0)
        cq.inward()
        assert cq.has_message(1, 0)
        assert not cq.has_message(0, 1)

    def test_bad_semiring(self, calibrated):
        with pytest.raises(ValueError, match="semiring"):
            calibrated.compute_message(1, 0, semiring="tropical")


class TestCalibration:
    def test_all_cluster_masses_equal_evidence_probability(self, calibrated):
        want = calibrated.evidence_log_probability()
        for j in range(calibrated.jtree.q):
            got = calibrated.cluster_marginal(j).total_log_mass()
            assert got == pytest.approx(want, rel=1e-12)

    def test_all_edge_masses_equal_evidence_probability(self, calibrated):
        want = calibrated.evidence_log_probability()
        for i, j in calibrated.jtree.edges:
            got = calibrated.edge_marginal(i, j).total_log_mass()
            assert got == pytest.approx(want, rel=1e-12)

    def test_cluster_and_edge_marginals_consistent(self, calibrated):
        # summing a cluster marginal down to a separator matches the
        # edge marginal on that separator
        for i, j in calibrated.jtree.edges:
            sep = calibrated.jtree.separator(i, j)
            via_cluster = calibrated.cluster_marginal(j).marginalize_sum(
                set(calibrated.jtree.clusters[j]) - sep
            )
            via_edge = calibrated.edge_marginal(i, j)
            np.testing.assert_allclose(
                via_cluster.linear(), via_edge.linear(), rtol=1e-12
            )

    def test_root_choice_irrelevant(self, ped_net_module, ped_ev_module,
                                    ped_jtree_module):
        values = []
        for root in range(7):
            cq = CompiledQuery(ped_net_module, ped_ev_module,
                               jtree=ped_jtree_module, root=root)
            cq.inward()
            values.append(cq.evidence_log_probability())
        assert max(values) - min(values) < 1e-12


class TestPosteriors:
    def test_matches_oracle_everywhere(self, calibrated, ped_net_module, ped_ev_module):
        for u in ped_net_module.ids:
            got = calibrated.variable_posterior(u)
            want = oracle_posterior(ped_net_module, ped_ev_module, u)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_posterior_table_covers_all_variables(self, calibrated, ped_net_module):
        table = calibrated.posterior_table()
        assert set(table) == set(ped_net_module.ids)
        for row in table.values():
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_on_observed(self, calibrated):
        np.testing.assert_allclose(calibrated.variable_posterior(1), [0, 0, 1])


class TestEvidenceProbability:
    def test_matches_oracle(self, calibrated, ped_net_module, ped_ev_module):
        want = oracle_log_probability(ped_net_module, ped_ev_module)
        assert calibrated.evidence_log_probability() == pytest.approx(want, rel=1e-12)

    def test_no_evidence_gives_log_one(self, ped_net_module):
        cq = compile_query(ped_net_module, EvidenceSet.none())
        assert cq.evidence_log_probability() == pytest.approx(0.0, abs=1e-12)

    def test_impossible_evidence_is_minus_inf(self, ped_net_module):
        # X2 = DD forces X3 to carry a D allele
        ev = EvidenceSet({1: frozenset({2}), 2: frozenset({0})})
        cq = compile_query(ped_net_module, ev)
        assert cq.evidence_log_probability() == float("-inf")
        with pytest.raises(ImpossibleEvidenceError):
            cq.variable_posterior(0)
        with pytest.raises(ImpossibleEvidenceError):
            cq.map_assignment()


class TestMostProbable:
    def test_map_matches_oracle_score(self, ped_net_module, ped_ev_module,
                                      ped_jtree_module):
        cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module, root=0)
        assignment, log_value = cq.map_assignment()
        oracle_assignment, oracle_value = oracle_map(ped_net_module, ped_ev_module)
        got = joint_score(ped_net_module, ped_ev_module, assignment)
        want = joint_score(ped_net_module, ped_ev_module, oracle_assignment)
        assert got == want
        assert log_value == pytest.approx(math.log(want), rel=1e-12)

    def test_map_respects_evidence(self, ped_net_module, ped_ev_module):
        cq = CompiledQuery(ped_net_module, ped_ev_module)
        assignment, _ = cq.map_assignment()
        for u, allowed in ped_ev_module.allowed.items():
            assert assignment[u] in allowed

    def test_map_root_choice_irrelevant(self, ped_net_module, ped_ev_module,
                                        ped_jtree_module):
        scores = set()
        for root in range(7):
            cq = CompiledQuery(ped_net_module, ped_ev_module,
                               jtree=ped_jtree_module, root=root)
            assignment, _ = cq.map_assignment()
            scores.add(joint_score(ped_net_module, ped_ev_module, assignment))
        assert len(scores) == 1

    def test_no_evidence_map_is_mode(self):
        net = pedigree_network()
        cq = CompiledQuery(net, EvidenceSet.none())
        assignment, log_value = cq.map_assignment()
        _, oracle_value = oracle_map(net, EvidenceSet.none())
        assert math.exp(log_value) == pytest.approx(oracle_value, rel=1e-12)


    def test_map_for_non_default_root(self, ped_net_module, ped_ev_module,
                                      ped_jtree_module):
        oracle_assignment, _ = oracle_map(ped_net_module, ped_ev_module)
        want = joint_score(ped_net_module, ped_ev_module, oracle_assignment)
        for root in (4, 6):
            cq = CompiledQuery(ped_net_module, ped_ev_module,
                               jtree=ped_jtree_module, root=root)
            assignment, log_value = cq.map_assignment()
            assert joint_score(ped_net_module, ped_ev_module, assignment) == want
            assert log_value == pytest.approx(math.log(want), rel=1e-12)


class TestSchedule:
    def test_root_zero(self, calibrated):
        children, order = calibrated.rooted_children(0)
        assert order == (0, 1, 2, 3, 4, 5, 6)
        assert dict(children) == {
            0: (1,), 1: (2, 3), 2: (), 3: (4, 5), 4: (), 5: (6,), 6: ()
        }

    def test_cached_read_only_per_root(self, calibrated):
        jt = calibrated.jtree
        for root in range(jt.q):
            schedule = calibrated.rooted_children(root)
            assert calibrated.rooted_children(root) is schedule
            children, order = schedule
            assert isinstance(order, tuple) and order[0] == root
            assert sorted(order) == list(range(jt.q))
            with pytest.raises(TypeError):
                children[root] = ()
            parent = {k: j for j in order for k in children[j]}
            for pos, j in enumerate(order):
                up = {parent[j]} if j != root else set()
                assert children[j] == tuple(sorted(set(jt.neighbors(j)) - up))
                assert all(order.index(k) > pos for k in children[j])

    def test_parent_map_per_root(self, ped_net_module, ped_ev_module,
                                 ped_jtree_module):
        jt = ped_jtree_module
        for root in range(jt.q):
            cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=jt, root=root)
            assert set(cq.parent) == set(range(jt.q)) - {root}
            for j, parent in cq.parent.items():
                assert parent == jt.path(j, root)[1]
            with pytest.raises(TypeError):
                cq.parent[root] = 0


class TestJointScore:
    def test_against_joint_table(self):
        net = pedigree_network()
        ev = pedigree_evidence()
        table = joint_table(net, ev)
        rng = np.random.default_rng(5)
        for _ in range(20):
            assignment = {u: int(rng.integers(0, 3)) for u in net.ids}
            idx = tuple(assignment[u] for u in sorted(net.ids))
            assert joint_score(net, ev, assignment) == pytest.approx(
                float(table.linear()[idx]), rel=1e-12, abs=1e-300
            )

    def test_zero_when_evidence_violated(self):
        net = pedigree_network()
        ev = pedigree_evidence()
        assignment = {u: 0 for u in net.ids}
        assert joint_score(net, ev, assignment) == 0.0


class TestConstruction:
    def test_invalid_network_rejected(self):
        net = DiscreteNetwork(
            [Variable(0, "A", ("x", "y"))],
            [Cpd(0, (), np.array([[0.7, 0.7]]))],
        )
        with pytest.raises(InvalidNetworkError):
            CompiledQuery(net, EvidenceSet.none())

    def test_invalid_tree_rejected(self, ped_net_module, ped_ev_module):
        bad = JunctionTree((frozenset({0, 1, 2}),), ())
        with pytest.raises(InvalidJunctionTreeError):
            CompiledQuery(ped_net_module, ped_ev_module, jtree=bad)

    def test_default_tree_built_and_assigned(self, ped_net_module, ped_ev_module):
        cq = CompiledQuery(ped_net_module, ped_ev_module)
        assert cq.jtree.assignment is not None
        cq.propagate()
        assert cq.evidence_log_probability() == pytest.approx(
            math.log(1.632e-4), rel=1e-9
        )

    def test_bad_root(self, ped_net_module, ped_ev_module, ped_jtree_module):
        with pytest.raises(ValueError):
            CompiledQuery(ped_net_module, ped_ev_module,
                          jtree=ped_jtree_module, root=99)


class TestRandomizedAgainstOracle:
    def test_small_networks(self):
        rng = np.random.default_rng(991)
        for _ in range(30):
            net = random_network(rng, max_vars=6)
            ev = random_evidence(rng, net)
            cq = compile_query(net, ev)
            want = oracle_log_probability(net, ev)
            got = cq.evidence_log_probability()
            if want == float("-inf"):
                assert got == float("-inf")
                continue
            assert got == pytest.approx(want, rel=1e-10)
            for u in net.ids:
                np.testing.assert_allclose(
                    cq.variable_posterior(u), oracle_posterior(net, ev, u),
                    rtol=1e-10, atol=1e-12,
                )
