import hashlib
import gc
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from helpers import (
    FactorReference,
    argmax_traceback,
    banded_network,
    path,
    pedigree_evidence,
    pedigree_network,
    random_evidence,
    random_network,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import beliefprop
from beliefprop import factor, hmm, jtree, model, oracle, propagation, sampling
from beliefprop.factor import MAX_TABLE_ENTRIES, Factor, FactorSizeError
from beliefprop.jtree import (
    InvalidJunctionTreeError,
    JunctionTree,
    JunctionTreeError,
    build_junction_tree,
    validate_junction_tree,
)
from beliefprop.model import (
    Cpd,
    DiscreteNetwork,
    EvidenceSet,
    InvalidNetworkError,
    Variable,
    build_potentials,
    validate_network,
)
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
    compile_query,
    joint_score,
)
from beliefprop.sampling import PosteriorSampler, cluster_conditional, sample_posterior


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

    def test_one_builder_shared_with_the_oracle(self):
        # the oracle builds its potentials with the model's one definition of K_u
        assert model.build_potentials is beliefprop.build_potentials
        assert oracle.build_potentials is model.build_potentials

    def test_unknown_evidence_ids_refused(self):
        # the engine and the oracle share the builder, so neither can
        # report log P(evidence) = 0 for evidence on a missing variable
        net = pedigree_network()
        ev = EvidenceSet({999: {0}, 3: {2}, -1: {0}})
        with pytest.raises(ValueError, match=r"unknown variable ids \[-1, 999\]"):
            compile_query(net, ev)
        with pytest.raises(ValueError, match=r"unknown variable ids \[-1, 999\]"):
            oracle_log_probability(net, ev)
        jt = build_junction_tree(net)
        CompiledQuery(net, EvidenceSet({3: {2}}), jtree=jt)
        kept = jt._plan
        with pytest.raises(ValueError, match=r"unknown variable ids \[-1, 999\]"):
            CompiledQuery(net, ev, jtree=jt)
        assert jt._plan is kept  # refused before a plan for its observed ids is laid out

    def test_state_out_of_range_refused(self):
        # the engine and the oracle both index CPDs at the observed state
        net = pedigree_network()
        ev = EvidenceSet({3: {2}, 0: {1, 3}})
        with pytest.raises(ValueError, match=r"out of range for variable 0: \[1, 3\]"):
            build_potentials(net, ev)
        with pytest.raises(ValueError, match=r"out of range for variable 0: \[1, 3\]"):
            compile_query(net, ev)
        # on a plan kept for the same observed ids, at an in-range state
        jt = build_junction_tree(net)
        CompiledQuery(net, EvidenceSet({3: {2}, 0: {1, 2}}), jtree=jt)
        with pytest.raises(ValueError, match=r"out of range for variable 0: \[1, 3\]"):
            CompiledQuery(net, ev, jtree=jt)

    def test_a_shared_allowed_set_is_checked_at_each_cardinality(self):
        # one set object, in range for a ternary variable and not for a binary one:
        # the check runs once per (set, cardinality) and still names the first bad one
        variables = [Variable(0, "T", ("a", "b", "c")), Variable(1, "B", ("a", "b")),
                     Variable(2, "U", ("a", "b"))]
        cpds = [Cpd(0, (), [[0.2, 0.3, 0.5]]), Cpd(1, (), [[0.5, 0.5]]), Cpd(2, (), [[0.5, 0.5]])]
        net = DiscreteNetwork(variables, cpds)
        shared, other = frozenset({2}), frozenset({0, 5})
        build_potentials(net, model._trusted_evidence({0: shared}))
        for allowed, bad in (({0: shared, 2: other, 1: shared}, "2: \\[0, 5\\]"),
                             ({0: shared, 1: shared, 2: other}, "1: \\[2\\]")):
            with pytest.raises(ValueError, match=f"out of range for variable {bad}$"):
                build_potentials(net, model._trusted_evidence(allowed))

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

    def test_message_off_the_tree_is_refused(self, calibrated, ped_jtree_module):
        # clusters 0 and 2 are not neighbours: no pass ever sends 0 -> 2
        assert not ped_jtree_module.is_edge(0, 2)
        for i, j in ((0, 2), (2, 0)):
            with pytest.raises(JunctionTreeError, match=rf"\({i}, {j}\) is not a tree edge"):
                calibrated.message(i, j)
            with pytest.raises(JunctionTreeError, match="is not a tree edge"):
                calibrated.edge_marginal(i, j)

    def test_unknown_semiring_named(self, calibrated):
        # no pass sends a "prod" message, so asking to run one cannot help
        for i, j in ((1, 0), (0, 2)):
            with pytest.raises(ValueError, match="unknown semiring 'prod'"):
                calibrated.message(i, j, semiring="prod")

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

    @pytest.mark.parametrize("u, error, message", [
        (1.0, ValueError, "variable id 1.0 is not an integer"),
        (np.float64(2.0), ValueError, rf"variable id {re.escape(repr(np.float64(2.0)))} is not"),
        ("1", ValueError, "variable id '1' is not an integer"),
        (99, KeyError, "unknown variable id 99"),
    ])
    def test_variable_id_follows_the_integer_rule(self, calibrated, u, error, message):
        # a float or a string is never read as the id it resembles
        with pytest.raises(error, match=message):
            calibrated.variable_posterior(u)


    def test_root_posteriors_after_the_inward_pass_alone(self, ped_net_module, ped_ev_module,
                                                         ped_jtree_module):
        # an edge is read only once both its messages exist; until then the
        # root's marginal serves, and a cluster missing a message raises
        cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module, root=0)
        cq.inward()
        home = cq.jtree.assignment
        for u in ped_net_module.ids:
            if home[u] == 0:
                np.testing.assert_allclose(cq.variable_posterior(u),
                                           oracle_posterior(ped_net_module, ped_ev_module, u),
                                           rtol=0, atol=1e-12)
            else:
                with pytest.raises(SchedulingError):
                    cq.variable_posterior(u)


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

    def test_traceback_matches_whole_table_reference(self, ped_net_module,
                                                     ped_ev_module, ped_jtree_module):
        # the walk over separator rows picks exactly what indexing the whole
        # max-semiring cluster tables picks, at every root; the dict is keyed
        # in the order the walk fixes the variables
        cases = [(ped_net_module, ped_ev_module, ped_jtree_module)]
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            net = random_network(rng)
            cases.append((net, random_evidence(rng, net), build_junction_tree(net)))
        for net, ev, jt in cases:
            for root in range(jt.q):
                cq = CompiledQuery(net, ev, jtree=jt, root=root)
                assignment, log_value = cq.map_assignment()
                assert (assignment, log_value) == argmax_traceback(cq)
                walk = []
                for j in cq.order:
                    up = jt.separator(j, cq.parent[j]) if j != root else frozenset()
                    walk += sorted(jt.clusters[j] - up)
                assert list(assignment) == walk

    @staticmethod
    def tied_case(rng):
        """A random network whose CPD rows take only the values 1 and 2
        before normalizing, so most rows hold ties, with each variable
        pinned to one state or held to two at random."""
        net = random_network(rng, max_vars=7)
        cpds = []
        for c in net.cpds:
            t = rng.integers(1, 3, size=c.table.shape).astype(float)
            cpds.append(Cpd(c.child, c.parents, t / t.sum(axis=1, keepdims=True)))
        net = DiscreteNetwork(net.variables, cpds)
        allowed = {}
        for v in net.variables:
            if rng.random() < 0.5:
                k = int(rng.integers(1, min(2, v.card) + 1))
                allowed[v.id] = frozenset(int(s) for s in rng.choice(v.card, size=k, replace=False))
        return net, EvidenceSet(allowed)

    def test_ties_match_whole_table_traceback_at_random_roots(self):
        # the recorded argmaxes pick what indexing whole max tables picks,
        # ties and dict order included, under one- and two-state evidence
        rng = np.random.default_rng(20261019)
        cases = [self.tied_case(rng) for _ in range(60)]
        cases = [(net, ev, build_junction_tree(net)) for net, ev in cases]
        # a tree whose messages broadcast separator variables no piece holds
        jt = JunctionTree((frozenset({0, 1, 2}), frozenset({0, 1})), ((0, 1),), {0: 0, 1: 1, 2: 0})
        for allowed in ({}, {1: frozenset({0, 2}), 2: frozenset({1})}, {2: frozenset({0})}):
            cases.append((TestLayoutsMatchFactorReference.three_variables(), EvidenceSet(allowed), jt))
        for net, ev, jt in cases:
            cq = CompiledQuery(net, ev, jtree=jt, root=int(rng.integers(jt.q)))
            _, want = oracle_map(net, ev)
            if want == 0.0:
                with pytest.raises(ImpossibleEvidenceError):
                    cq.map_assignment()
                continue
            assignment, log_value = cq.map_assignment()
            ref_assignment, ref_value = argmax_traceback(cq)
            assert list(assignment.items()) == list(ref_assignment.items())
            assert log_value == ref_value
            assert math.exp(log_value) == pytest.approx(want, rel=1e-12)
            assert joint_score(net, ev, assignment) == pytest.approx(want, rel=1e-12)

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


class TestReadoutWork:
    """Readouts counted, not timed: they form no table a pass already holds."""

    @staticmethod
    def chain_query():
        spec = hmm.precipitation_spec(200)
        _, y = hmm.simulate(spec, 7)
        net, ev = hmm.to_bayes_net(spec, y)
        return spec, y, CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), validate=False)

    def test_chain_posteriors_read_one_cluster_marginal(self, monkeypatch):
        # S_i lies in the separator toward S_{i+1}; only S_200's home has none
        spec, y, cq = self.chain_query()
        cq.propagate()
        homes = []
        marginal = CompiledQuery.cluster_marginal
        monkeypatch.setattr(CompiledQuery, "cluster_marginal",
                            lambda self, j: homes.append(j) or marginal(self, j))
        post = np.array([cq.variable_posterior(2 * i) for i in range(spec.horizon)])
        assert homes == [spec.horizon - 1]
        np.testing.assert_allclose(post, hmm.posteriors(spec, y), rtol=0, atol=1e-9)

    def test_map_forms_one_cluster_product_after_the_max_pass(self, monkeypatch):
        _, _, cq = self.chain_query()
        cq.inward("max")
        formed = []
        kernel = propagation._rows

        def counted(operands, states=(), shape=None):
            if not states:  # a whole table; its first operand is the cluster's potential
                formed.append(operands[0])
            return kernel(operands, states, shape)

        monkeypatch.setattr(propagation, "_rows", counted)
        cq.map_assignment()
        assert len(formed) == 1 and formed[0] is cq._products[cq.root]

    def test_map_keeps_no_argmax_and_reads_one_row_per_cluster(self, monkeypatch):
        # every max message is a plain table over its separator; the traceback
        # reads each non-root cluster's one row at the states the walk fixed
        rows = []
        kernel = propagation._rows
        monkeypatch.setattr(propagation, "_rows",
                            lambda operands, states=(), shape=None: rows.append((states, shape))
                            or kernel(operands, states, shape))
        rng = np.random.default_rng(35)
        queries = [CompiledQuery(pedigree_network(), pedigree_evidence())]
        queries += [CompiledQuery(banded_network(rng), EvidenceSet({3: {1}, 17: {0}})) for _ in range(3)]
        for cq in queries:
            before = set(vars(cq))
            cq.inward("max")
            rows.clear()
            assignment, _ = cq.map_assignment()
            assert set(vars(cq)) == before and not hasattr(cq, "_argmax")
            assert rows.pop(0) == ((), None)  # the root's whole max table
            for (semiring, j, k), (values, _) in cq._messages.items():
                assert values.shape == cq._layouts[j].seps[k].shape, (semiring, j, k)
            read = [j for j in cq.order[1:] if cq._layouts[j].seps[cq.parent[j]].outside]
            assert len(rows) == len(read)
            for j, (states, shape) in zip(read, rows):
                edge = cq._layouts[j].seps[cq.parent[j]]
                assert states == tuple(assignment[u] for u in edge.sep) and shape == edge.dims

    def test_observed_posteriors_form_no_table_after_one_mass_check(self, monkeypatch):
        spec, y, cq = self.chain_query()
        cq.propagate()
        stored = []
        read = CompiledQuery._stored
        monkeypatch.setattr(CompiledQuery, "_stored",
                            lambda self, i, j, semiring: stored.append((i, j)) or read(self, i, j, semiring))
        table = cq.posterior_table()
        # the run's batch reads the stored scans; Y_1 its edge's two messages, the
        # query's one mass check; every later Y_i nothing; S_200 its home's one message in
        assert stored == [(0, 1), (1, 0), (198, 199)]
        for i, state in enumerate(y):
            want = np.zeros(cq.net.card(2 * i + 1))
            want[state] = 1.0
            assert table[2 * i + 1].tobytes() == want.tobytes()
            assert cq.variable_posterior(2 * i + 1).tobytes() == want.tobytes()

    def test_observed_posteriors_still_need_their_messages(self):
        # after the mass check an observed variable still needs what its read
        # needed: with the inward pass alone, only the root's variables are read
        spec, y, cq = self.chain_query()
        cq.inward()
        assert cq.variable_posterior(1).tobytes() == np.eye(cq.net.card(1))[y[0]].tobytes()
        assert cq._mass_checked
        for u in (3, 2 * 199 + 1):
            with pytest.raises(SchedulingError):
                cq.variable_posterior(u)


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
            children, order = calibrated.rooted_children(root)
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
                assert parent == path(jt, j, root)[1]
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

    @pytest.mark.parametrize("validate", [False, True])
    def test_invalid_tree_rejected(self, ped_net_module, ped_ev_module, validate):
        # given without homes, it fails covering before any are attached
        bad = JunctionTree((frozenset({0, 1, 2}),), ())
        with pytest.raises(InvalidJunctionTreeError) as err:
            CompiledQuery(ped_net_module, ped_ev_module, jtree=bad, validate=validate)
        assert err.value.report == validate_junction_tree(ped_net_module, bad)
        assert {v.kind for v in err.value.report.violations} == {"covering"}

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

    @pytest.mark.parametrize("root", [1.5, "1", None])
    def test_non_integer_root_refused(self, ped_net_module, ped_ev_module,
                                      ped_jtree_module, root):
        # 1.5 used to end in a bare KeyError, "1" in a comparison TypeError
        with pytest.raises(ValueError, match=re.escape(f"root cluster {root!r} is not an integer")):
            CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module, root=root)
        cq = CompiledQuery(ped_net_module, ped_ev_module, jtree=ped_jtree_module,
                           root=np.int64(1))
        assert cq.root == 1 and cq.order[0] == 1

    @pytest.mark.parametrize(
        "wide_at, n, card",
        [
            pytest.param(0, 26, 2, id="0"),
            pytest.param(1, 26, 2, id="1"),
            # under 25 variables, over 2^25 entries
            pytest.param(0, 16, 3, id="ternary-0"),
            pytest.param(1, 16, 3, id="ternary-1"),
        ],
    )
    def test_over_cap_cluster_fails_before_any_table(self, monkeypatch, wide_at, n, card):
        k = n + wide_at  # one more variable for the narrow cluster
        states = tuple("abc"[:card])
        net = DiscreteNetwork(
            [Variable(i, f"V{i}", states) for i in range(k)],
            [Cpd(i, (), np.full((1, card), 1 / card)) for i in range(k)],
        )
        wide = frozenset(range(n))
        if wide_at == 0:
            jt = JunctionTree((wide,), ())
        else:
            jt = JunctionTree((frozenset({n}), wide), ((0, 1),))

        def no_multiply(self, other):
            raise AssertionError("a table was built before the size check")

        monkeypatch.setattr(Factor, "multiply", no_multiply)
        with pytest.raises(
            FactorSizeError,
            match=f"cluster {wide_at} has {card ** n} entries, cap is {MAX_TABLE_ENTRIES}",
        ):
            CompiledQuery(net, jtree=jt)

    # A -> B, C independent, evidence C = c0: log P(e) = log 0.25
    CONTRACT_NET = DiscreteNetwork(
        [Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1")),
         Variable(2, "C", ("c0", "c1"))],
        [Cpd(0, (), [[0.3, 0.7]]), Cpd(1, (0,), [[0.9, 0.1], [0.4, 0.6]]),
         Cpd(2, (), [[0.25, 0.75]])],
    )
    CONTRACT_CLUSTERS = (frozenset({0, 1}), frozenset({0}), frozenset({2}))
    CONTRACT_EDGES = ((0, 1), (1, 2))
    CONTRACT_HOMES = {0: 1, 1: 0, 2: 2}

    @pytest.mark.parametrize("validate", [False, True])
    def test_contract_tree_gives_the_exact_answer(self, validate):
        jt = JunctionTree(self.CONTRACT_CLUSTERS, self.CONTRACT_EDGES, self.CONTRACT_HOMES)
        cq = CompiledQuery(self.CONTRACT_NET, EvidenceSet({2: frozenset({0})}), jtree=jt,
                           validate=validate)
        cq.inward()
        assert cq.evidence_log_probability() == pytest.approx(math.log(0.25), rel=1e-12)

    # checked once per plan, validate or not: laid out anyway, these trees
    # give a wrong log Z, a KeyError or a SchedulingError
    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize(
        "clusters, edges, homes, kind, line",
        [
            pytest.param(None, None, {0: 1, 1: 0}, "assignment", "variable 2 is unassigned",
                         id="missing-id"),
            pytest.param(None, None, {0: 1, 1: 0, 2: 2, 7: 0}, "assignment",
                         "variable 7 is assigned but not in the network", id="unknown-id"),
            pytest.param(None, None, {0: -1, 1: 0, 2: 2}, "assignment",
                         "variable 0 assigned to -1", id="home-minus-1"),
            pytest.param(None, None, {0: 3, 1: 0, 2: 2}, "assignment",
                         "variable 0 assigned to 3", id="home-q"),
            pytest.param(None, None, {0: 1, 1: 1, 2: 2}, "assignment",
                         "cluster 1 does not cover the family of variable 1", id="stray-home"),
            pytest.param(None, ((0, 1),), None, "tree", "1 edges cannot span 3 clusters",
                         id="dropped-edge"),
            pytest.param(None, ((0, 1), (1, 2), (0, 2)), None, "tree",
                         "3 edges cannot span 3 clusters", id="extra-edge"),
            # A's holders 0 and 1 hang off {C}: log Z comes out log 0.5, not log 0.25
            pytest.param(None, ((0, 2), (1, 2)), None, "running-intersection",
                         "variable 0 is held by clusters [1], which are cut off from cluster 0 "
                         "by clusters lacking it", id="running-intersection"),
            # no cluster holds B with its parent A; {} gives the tree without homes
            pytest.param((frozenset({1}), frozenset({0}), frozenset({2})), None, {}, "covering",
                         "no cluster covers the family [0, 1] of variable B", id="covering"),
        ],
    )
    def test_malformed_tree_refused(self, monkeypatch, validate, clusters, edges, homes, kind,
                                    line):
        homes = self.CONTRACT_HOMES if homes is None else homes or None
        jt = JunctionTree(clusters or self.CONTRACT_CLUSTERS, edges or self.CONTRACT_EDGES, homes)

        def no_tables(*args):
            raise AssertionError("a table was built before the tree was checked")

        monkeypatch.setattr(DiscreteNetwork, "_family_layout", no_tables)
        with pytest.raises(InvalidJunctionTreeError) as err:
            CompiledQuery(self.CONTRACT_NET, EvidenceSet({2: frozenset({0})}), jtree=jt,
                          validate=validate)
        assert err.value.report.lines() == [f"{kind}: {line}"]
        assert err.value.report == validate_junction_tree(self.CONTRACT_NET, jt)
        assert jt._plan is None

    @pytest.mark.parametrize("validate", [False, True])
    def test_cluster_naming_an_unknown_variable_refused(self, monkeypatch, validate):
        # cluster 2 holds C and an id 9 the network lacks
        clusters = (*self.CONTRACT_CLUSTERS[:2], frozenset({2, 9}))
        jt = JunctionTree(clusters, self.CONTRACT_EDGES, self.CONTRACT_HOMES)

        def no_tables(*args):
            raise AssertionError("a table was built before the tree was checked")

        monkeypatch.setattr(DiscreteNetwork, "_family_layout", no_tables)
        with pytest.raises(InvalidJunctionTreeError) as err:
            CompiledQuery(self.CONTRACT_NET, EvidenceSet({2: frozenset({0})}), jtree=jt,
                          validate=validate)
        assert err.value.report == validate_junction_tree(self.CONTRACT_NET, jt)
        assert err.value.report.lines()[0] == (
            "unknown-variable: cluster 2 references unknown variable ids [9]")


class TestInvalidNetworksRefused:
    """Every query reads the network's kept ``validate_network`` report, whatever
    ``validate`` says: laid out anyway, these networks answered silently (a root
    whose row sums to 2 gave log Z = log 2, a cycle log Z = 0) or failed deep inside."""

    A, B = Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1"))
    HALVES = [[0.5, 0.5], [0.5, 0.5]]
    NETWORKS = {
        "row-sum-2": ([A], [Cpd(0, (), [[1.0, 1.0]])], None,
                      "bad-row-sum: A rows [0] sum to [2.0]"),
        "cycle": ([A, B], [Cpd(0, (1,), HALVES), Cpd(1, (0,), HALVES)],
                  (frozenset({0, 1}),), "cycle: cycle among variables [0, 1]"),
        "missing-cpd": ([A, B], [Cpd(0, (), [[0.5, 0.5]])], None,
                        "missing-cpd: variable B has no CPD"),
    }

    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("case", list(NETWORKS))
    def test_refused_with_the_kept_report(self, monkeypatch, case, validate):
        variables, cpds, clusters, line = self.NETWORKS[case]
        net = DiscreteNetwork(variables, cpds)
        jt = JunctionTree(clusters, (), {0: 0, 1: 0}) if clusters else None

        def no_tables(*args):
            raise AssertionError("a CPD was laid out for an invalid network")

        monkeypatch.setattr(DiscreteNetwork, "_family_layout", no_tables)
        for _ in range(2):  # the same network object, and tree if given
            with pytest.raises(InvalidNetworkError) as err:
                CompiledQuery(net, jtree=jt, validate=validate)
            assert err.value.report is validate_network(net)
            assert err.value.report.lines() == [line]
            assert jt is None or jt._plan is None


class TestClusterIndices:
    """A cluster index given to a readout, and a cluster pair given to an edge
    readout, follow the one integer rule, as the root does: an integer in range,
    else ValueError; a ``skip`` or target that is no neighbour is
    JunctionTreeError, an unknown semiring ValueError."""

    READOUTS = {
        "cluster_table": lambda cq, j: cq.cluster_table(j),
        "cluster_marginal": lambda cq, j: cq.cluster_marginal(j),
        "cluster_rows": lambda cq, j: cq.cluster_rows(j),
        "cluster_conditional": lambda cq, j: cluster_conditional(cq, j, {}),
    }

    @staticmethod
    def calibrated(q: int) -> CompiledQuery:
        """The contract network on its three-cluster tree, or on one cluster."""
        net = TestConstruction.CONTRACT_NET
        if q == 1:
            jt = JunctionTree((frozenset({0, 1, 2}),), (), {0: 0, 1: 0, 2: 0})
        else:
            jt = JunctionTree(TestConstruction.CONTRACT_CLUSTERS, TestConstruction.CONTRACT_EDGES,
                              TestConstruction.CONTRACT_HOMES)
        return CompiledQuery(net, EvidenceSet({2: frozenset({0})}), jtree=jt).propagate()

    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("readout", list(READOUTS))
    @pytest.mark.parametrize("j, error", [(-1, "cluster -1 out of range"),
                                          ("q", "cluster 'q' is not an integer"),
                                          (1.0, "cluster 1.0 is not an integer")],
                             ids=["minus-1", "str", "float"])
    def test_a_bad_index_is_a_value_error(self, q, readout, j, error):
        cq = self.calibrated(q)
        with pytest.raises(ValueError, match=re.escape(error)):
            self.READOUTS[readout](cq, j)
        with pytest.raises(ValueError, match=re.escape(f"cluster {q} out of range")):
            self.READOUTS[readout](cq, q)

    @pytest.mark.parametrize("readout", list(READOUTS))
    def test_an_integer_of_another_type_is_the_same_index(self, readout):
        cq = self.calibrated(3)
        got, want = (self.READOUTS[readout](cq, j) for j in (np.int64(0), 0))  # the root
        if readout == "cluster_rows":
            assert got.cluster == 0 and got.table.tobytes() == want.table.tobytes()
        else:
            assert got.scope == want.scope and got.values.tobytes() == want.values.tobytes()

    def test_a_skip_that_is_no_neighbour_is_a_tree_error(self):
        cq = self.calibrated(3)  # edges 0 - 1 - 2
        for j, skip in ((0, 2), (2, 0), (1, 1)):
            with pytest.raises(JunctionTreeError, match=re.escape(f"({j}, {skip}) is not a tree edge")):
                cq.cluster_table(j, skip=skip)
        with pytest.raises(ValueError, match="cluster 1.5 is not an integer"):
            cq.cluster_table(1, skip=1.5)
        with pytest.raises(JunctionTreeError, match=re.escape("(0, 0) is not a tree edge")):
            self.calibrated(1).cluster_table(0, skip=0)
        assert cq.cluster_table(1, skip=0).scope == (0,)

    def test_an_unknown_semiring_is_a_value_error(self):
        cq = self.calibrated(3)
        with pytest.raises(ValueError, match="unknown semiring 'prod'"):
            cq.cluster_table(0, semiring="prod")

    EDGE_READOUTS = {
        "compute_message": lambda cq, i, j: cq.compute_message(i, j),
        "message": lambda cq, i, j: cq.message(i, j),
        "edge_marginal": lambda cq, i, j: cq.edge_marginal(i, j),
        "has_message": lambda cq, i, j: cq.has_message(i, j),
    }

    @pytest.mark.parametrize("readout", list(EDGE_READOUTS))
    @pytest.mark.parametrize("i, j, error, match", [
        (0.0, 1, ValueError, "cluster 0.0 is not an integer"),
        ("q", 1, ValueError, "cluster 'q' is not an integer"),
        (0, "q", ValueError, "cluster 'q' is not an integer"),
        (1, 1.0, ValueError, "cluster 1.0 is not an integer"),
        (-1, 0, ValueError, "cluster -1 out of range"),
        (3, 2, ValueError, "cluster 3 out of range"),
        (0, 2, JunctionTreeError, "(0, 2) is not a tree edge"),
        (2, 3, JunctionTreeError, "(2, 3) is not a tree edge"),
        (1, 1, JunctionTreeError, "(1, 1) is not a tree edge"),
    ], ids=["float", "str", "str-to", "float-to", "minus-1", "past-q", "no-edge", "to-past-q", "self"])
    def test_an_edge_readout_takes_its_pair_by_the_same_rule(self, readout, i, j, error, match):
        cq = self.calibrated(3)  # edges 0 - 1 - 2
        with pytest.raises(error, match=re.escape(match)):
            self.EDGE_READOUTS[readout](cq, i, j)

    @pytest.mark.parametrize("readout", list(EDGE_READOUTS))
    def test_an_edge_of_other_integer_types_is_the_same_edge(self, readout):
        cq = self.calibrated(3)
        got, want = (self.EDGE_READOUTS[readout](cq, *edge) for edge in ((np.int64(1), np.int64(0)), (1, 0)))
        if readout == "has_message":
            assert got is want is True
        else:
            assert got.scope == want.scope and got.values.tobytes() == want.values.tobytes()


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


class TestLayoutsMatchFactorReference:
    """Messages and readouts run on compiled cluster layouts; every table
    equals the Factor-algebra reference bit for bit."""

    @staticmethod
    def assert_same(got: Factor, want: Factor) -> None:
        assert got.scope == want.scope
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.log_scale == want.log_scale

    def check(self, cq: CompiledQuery, ref: FactorReference, clusters) -> None:
        cq.propagate()
        cq.inward("max")
        ref.propagate()
        assert set(cq._messages) == set(ref.messages)
        for (semiring, i, j), want in ref.messages.items():
            self.assert_same(cq.message(i, j, semiring), want)
        for j in clusters:
            self.assert_same(cq.cluster_marginal(j), ref.cluster_table(j))
            parent = cq.parent.get(j)
            self.assert_same(
                cq.cluster_table(j, parent, "max"), ref.cluster_table(j, parent, "max")
            )

    def check_posteriors(self, cq: CompiledQuery, ref: FactorReference) -> None:
        ids = sorted(cq.net.ids)
        try:
            want = {u: ref.variable_posterior(u) for u in ids}
        except ImpossibleEvidenceError:
            with pytest.raises(ImpossibleEvidenceError):
                cq.posterior_table()
            return
        table = cq.posterior_table()
        assert list(table) == ids
        for u in ids:
            assert table[u].tobytes() == want[u].tobytes()
            assert cq.variable_posterior(u).tobytes() == want[u].tobytes()
        logz = ref.cluster_table(cq.root).total_log_mass()
        assert cq.evidence_log_probability() == logz

    @seed(20261018)
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_networks_roots_and_evidence(self, s):
        rng = np.random.default_rng(s)
        net = random_network(rng, max_vars=7)
        ev = random_evidence(rng, net)
        jt = build_junction_tree(net)
        cq = CompiledQuery(net, ev, jtree=jt, root=int(rng.integers(jt.q)))
        ref = FactorReference(cq)
        self.check(cq, ref, range(jt.q))
        self.check_posteriors(cq, ref)

    @staticmethod
    def three_variables() -> DiscreteNetwork:
        # A and B are roots, C depends on A
        return DiscreteNetwork(
            [Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1", "b2")),
             Variable(2, "C", ("c0", "c1"))],
            [Cpd(0, (), [[0.3, 0.7]]), Cpd(1, (), [[0.2, 0.5, 0.3]]),
             Cpd(2, (0,), [[0.9, 0.1], [0.4, 0.6]])],
        )

    @pytest.mark.parametrize("root", [0, 1])
    def test_separator_only_variables_broadcast(self, root):
        # B reaches cluster 0 only through the separator and A reaches
        # cluster 1 only through it, so both messages broadcast a
        # separator variable no piece carries
        jt = JunctionTree((frozenset({0, 1, 2}), frozenset({0, 1})), ((0, 1),), {0: 0, 1: 1, 2: 0})
        ev = EvidenceSet({1: frozenset({0, 2}), 2: frozenset({1})})
        cq = CompiledQuery(self.three_variables(), ev, jtree=jt, root=root, validate=False)
        ref = FactorReference(cq)
        self.check(cq, ref, range(2))
        self.check_posteriors(cq, ref)

    def test_overflowing_product_and_sum_raise(self):
        # CPD entries past 1 are the only way a product or a sum could leave
        # double range, and the network's kept report refuses them whatever
        # ``validate`` says, before any tree is laid out
        net = DiscreteNetwork(
            [Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1"))],
            [Cpd(0, (), [[1e308, 1e308]]), Cpd(1, (), [[1e200, 1.0]])],
        )
        clusters = (frozenset({0, 1}), frozenset({1}))
        # where the product A * B would overflow in a cluster table, in a message
        # from the cluster holding both, and where the sum over A would
        for jt in (
            JunctionTree(clusters[:1], (), {0: 0, 1: 0}),
            JunctionTree(clusters, ((0, 1),), {0: 0, 1: 0}),
            JunctionTree(clusters, ((0, 1),), {0: 0, 1: 1}),
        ):
            for validate in (False, True):
                with pytest.raises(InvalidNetworkError) as caught:
                    CompiledQuery(net, jtree=jt, root=jt.q - 1, validate=validate)
                assert caught.value.report is validate_network(net)
                assert caught.value.report.lines() == [
                    "bad-prob: A has entries outside [0, 1]",
                    "bad-prob: B has entries outside [0, 1]",
                ]
                assert jt._plan is None


def test_hot_path_builds_no_factor_algebra(monkeypatch, ped_net_module, ped_ev_module):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Factor algebra on the compiled hot path")

    spec = hmm.precipitation_spec(200)
    _, y = hmm.simulate(spec, 7)
    net, ev = hmm.to_bayes_net(spec, y)
    jt = hmm.chain_junction_tree(spec)
    for name in ("multiply", "marginalize_sum", "marginalize_max", "expand", "rescaled_unit_max"):
        monkeypatch.setattr(Factor, name, refuse)
    cq = CompiledQuery(net, ev, jtree=jt, validate=False)
    cq.inward()
    assert math.isfinite(cq.evidence_log_probability())
    cq.outward()
    post = np.array([cq.variable_posterior(2 * i) for i in range(spec.horizon)])
    np.testing.assert_allclose(post, hmm.posteriors(spec, y), rtol=0, atol=1e-9)
    ped = compile_query(ped_net_module, ped_ev_module)
    assert len(ped.posterior_table()) == len(ped_net_module.ids)
    ped.map_assignment()
    sample_posterior(ped, seed=3, count=100)


def test_handed_out_tables_cannot_write_into_the_query():
    # a leaf's rows toward the root are its cluster potential itself
    spec = hmm.precipitation_spec(5)
    net, _ = hmm.to_bayes_net(spec, [0] * 5)
    cq = CompiledQuery(net, jtree=hmm.chain_junction_tree(spec))
    cq.inward()
    with pytest.raises(ValueError, match="read-only"):
        cq.cluster_rows(4).table[0, 0] = 0.0


def _runs(cq: CompiledQuery) -> list[tuple[int, ...]]:
    """The runs the query's sum passes send by one scan each, root-first."""
    return [step.run.clusters for step in cq._passes[0] if isinstance(step, propagation._Sweep)]


def _chain_with_extras(n: int, rng: np.random.Generator) -> tuple[DiscreteNetwork, JunctionTree]:
    """V_0 -> ... -> V_{n-1} of two or three states, each V_i with a binary
    child E_i; clusters {V_0, E_0} and {V_{i-1}, V_i, E_i} in a path."""
    cards = [int(c) for c in rng.integers(2, 4, size=n)]
    variables = [Variable(2 * i, f"V{i}", tuple("abc"[:c])) for i, c in enumerate(cards)]
    variables += [Variable(2 * i + 1, f"E{i}", ("0", "1")) for i in range(n)]

    def table(rows: int, card: int) -> np.ndarray:
        t = rng.random((rows, card)) + 0.05
        return t / t.sum(axis=1, keepdims=True)

    cpds = [Cpd(0, (), table(1, cards[0]))]
    cpds += [Cpd(2 * i, (2 * i - 2,), table(cards[i - 1], cards[i])) for i in range(1, n)]
    cpds += [Cpd(2 * i + 1, (2 * i,), table(cards[i], 2)) for i in range(n)]
    clusters = [{0, 1}] + [{2 * i - 2, 2 * i, 2 * i + 1} for i in range(1, n)]
    tree = JunctionTree(clusters, [(i - 1, i) for i in range(1, n)], {u: u // 2 for u in range(2 * n)})
    return DiscreteNetwork(variables, cpds), tree


class TestScannedRuns:
    """A run of one-child clusters with small separators sends its sum
    messages by one scan per pass; every other message, each max message
    and every readout take the per-message path."""

    def test_separators_of_several_sizes_answer_as_the_stepped_passes(self, monkeypatch):
        # E_i observed or free (summed inside its cluster's matrix), V_20
        # masked, V_9, V_10 and V_50 pinned: sliced separators of 1, 2 and 3
        # entries along each run
        rng = np.random.default_rng(27)
        net, jt = _chain_with_extras(100, rng)
        allowed = {2 * i + 1: {int(rng.integers(2))} for i in range(100) if i % 3}
        allowed.update({2 * i: {0} for i in (9, 10, 50)})
        allowed[2 * 20] = {0, 1}
        ev = EvidenceSet(allowed)
        answers = []
        for rule in (propagation._RUN_MIN_CLUSTERS, 10**9):
            monkeypatch.setattr(propagation, "_RUN_MIN_CLUSTERS", rule)
            tree = JunctionTree(jt.clusters, jt.edges, jt.assignment)
            cq = CompiledQuery(net, ev, jtree=tree, root=45).propagate()
            answers.append(cq)
        scanned, stepped = answers
        assert _runs(scanned) == [tuple(range(46, 100)), tuple(range(44, -1, -1))]
        assert _runs(stepped) == []
        assert len({(size, shape) for step in scanned._passes[1] if not isinstance(step, int)
                    for _, size, shape, _ in step.sends}) > 1
        assert set(scanned._messages) == set(stepped._messages)
        for key, (values, log_scale) in stepped._messages.items():
            got, got_scale = scanned._messages[key]
            assert got.shape == values.shape and got.max() == values.max() == 1.0
            assert got.flags.c_contiguous
            np.testing.assert_allclose(got * math.exp(got_scale - log_scale), values, rtol=1e-12)
        logz = stepped.evidence_log_probability()
        assert scanned.evidence_log_probability() == pytest.approx(logz, rel=1e-12)
        for u, want in stepped.posterior_table().items():
            np.testing.assert_allclose(scanned.variable_posterior(u), want, rtol=0, atol=1e-12)
        # message() replays the held messages in schedule order with nothing sliced
        for i, j in jt.edges:
            for a, b in ((i, j), (j, i)):
                np.testing.assert_allclose(scanned.message(a, b).linear(),
                                           stepped.message(a, b).linear(), rtol=1e-12)
        assert scanned.map_assignment() == stepped.map_assignment()

    def test_a_run_whose_products_overflow_raises_as_the_loop_does(self):
        # each cluster's transition times its emission would be 1e400, on the
        # stepped path (horizon 5) and on a scanned run (64) alike; the network's
        # kept report refuses the tables before either is laid out
        for horizon, runs in ((5, 0), (64, 1)):
            variables = [Variable(u, f"V{u}", ("0", "1")) for u in range(2 * horizon)]
            ev = EvidenceSet({2 * i + 1: {0} for i in range(horizon)})
            jt = hmm.chain_junction_tree(hmm.precipitation_spec(horizon))

            def chain(entry: float) -> DiscreteNetwork:
                table = np.full((2, 2), entry)
                cpds = [Cpd(0, (), table[:1]), Cpd(1, (0,), table)]
                cpds += [Cpd(u, (u - 2,) if u % 2 == 0 else (u - 1,), table) for u in range(2, 2 * horizon)]
                return DiscreteNetwork(variables, cpds)

            # the same tree on a valid network takes the path named
            valid = CompiledQuery(chain(0.5), ev, jtree=JunctionTree(jt.clusters, jt.edges, jt.assignment),
                                  validate=False)
            assert len(_runs(valid)) == runs
            valid.inward()
            assert valid.evidence_log_probability() == pytest.approx(horizon * math.log(0.5))
            net, tree = chain(1e200), JunctionTree(jt.clusters, jt.edges, jt.assignment)
            with pytest.raises(InvalidNetworkError,
                               match=re.escape("bad-prob: V0 has entries outside [0, 1]")) as caught:
                CompiledQuery(net, ev, jtree=tree, validate=False)
            assert caught.value.report is validate_network(net)
            assert tree._plan is None

    def test_pedigree_and_banded_networks_have_no_run(self):
        net, ev = pedigree_network(), pedigree_evidence()
        jt = build_junction_tree(net)
        for root in range(jt.q):
            assert _runs(CompiledQuery(net, ev, jtree=jt, root=root)) == []
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = banded_network(rng)
            assert _runs(compile_query(net)) == []


class TestPlan:
    """A tree keeps the plan of the last query laid out on it; a query on the
    same network object, root and observed ids reuses it, to the bit."""

    # used by no other test, so the memoized chain tree holds no plan yet
    SPEC = hmm.HmmSpec(("L", "H"), (0.5, 0.5), ((0.8, 0.2), (0.35, 0.65)), (2.5, 0.7), 12)

    @staticmethod
    def answers(cq: CompiledQuery, draw_seed: int) -> list:
        out = [repr(cq.propagate().evidence_log_probability())]
        out += [p.tobytes() for p in cq.posterior_table().values()]
        out.append(repr(cq.map_assignment()))
        return out + [PosteriorSampler(cq, seed=draw_seed).sample(100).tobytes()]

    def test_second_sequence_skips_the_tree_checks(self, monkeypatch):
        calls, check = [], propagation.validate_junction_tree

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(propagation, "validate_junction_tree", counted)
        queries = []
        for sim_seed in (1, 2):
            net, ev = hmm.to_bayes_net(self.SPEC, hmm.simulate(self.SPEC, sim_seed)[1])
            queries.append(CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(self.SPEC)))
        assert len(calls) == 1
        assert queries[1]._layouts is queries[0]._layouts

    @pytest.mark.parametrize("case", ["chain", "pedigree"])
    @pytest.mark.parametrize("draw_seed", [0, 5])
    def test_reused_plan_answers_as_a_cold_query(self, case, draw_seed):
        if case == "chain":
            spec = hmm.precipitation_spec(60)
            jt = hmm.chain_junction_tree(spec)
            inputs = [hmm.to_bayes_net(spec, hmm.simulate(spec, s)[1]) for s in (3, 4)]
        else:  # the same observed ids at other states
            net, jt = pedigree_network(), build_junction_tree(pedigree_network())
            inputs = [(net, EvidenceSet({1: {0}, 5: {2}, 8: {1}})),
                      (net, EvidenceSet({1: {2}, 5: {1}, 8: {1}}))]
        first, warm = (CompiledQuery(net, ev, jtree=jt, root=1) for net, ev in inputs)
        assert warm._layouts is first._layouts
        cold = CompiledQuery(*inputs[1], jtree=JunctionTree(jt.clusters, jt.edges, jt.assignment),
                             root=1)
        assert cold._layouts is not warm._layouts
        assert self.answers(warm, draw_seed) == self.answers(cold, draw_seed)

    @pytest.mark.parametrize("validate", [False, True])
    def test_the_tree_is_checked_once_per_network_and_tree(self, monkeypatch, validate):
        calls, check = [], propagation.validate_junction_tree
        monkeypatch.setattr(propagation, "validate_junction_tree",
                            lambda *args: calls.append(args) or check(*args))
        net = pedigree_network()
        jt = build_junction_tree(net)
        counts = []
        for query_net, ev, root in [(net, EvidenceSet({1: {0}}), 0),
                                    (net, EvidenceSet({1: {2}}), 0),  # a hit
                                    (net, EvidenceSet({1: {2}}), 1),
                                    (net, EvidenceSet({1: {2}, 5: {0}}), 1),
                                    (pedigree_network(), EvidenceSet({1: {2}, 5: {0}}), 1)]:
            CompiledQuery(query_net, ev, jtree=jt, root=root, validate=validate)
            counts.append(len(calls))
        assert counts == [1, 1, 1, 1, 2]
        assert all(args[1] is jt for args in calls)

    def test_another_network_is_checked_again(self):
        contract = TestConstruction
        jt = JunctionTree(contract.CONTRACT_CLUSTERS, contract.CONTRACT_EDGES,
                          contract.CONTRACT_HOMES)
        ev = EvidenceSet({2: frozenset({0})})
        CompiledQuery(contract.CONTRACT_NET, ev, jtree=jt, validate=False)
        kept = jt._plan
        # same variables, but C now has parent A, which C's home {C} lacks
        cpds = (*contract.CONTRACT_NET.cpds[:2], Cpd(2, (0,), [[0.25, 0.75], [0.5, 0.5]]))
        other = DiscreteNetwork(contract.CONTRACT_NET.variables, cpds)
        with pytest.raises(InvalidJunctionTreeError,
                           match="cluster 2 does not cover the family of variable 2"):
            CompiledQuery(other, ev, jtree=jt, validate=False)
        assert jt._plan is kept

    def test_a_dropped_tree_lets_its_network_go(self):
        net = pedigree_network()
        jt = build_junction_tree(net)
        CompiledQuery(net, pedigree_evidence(), jtree=jt)
        alive = weakref.ref(net)
        del net
        gc.collect()
        assert alive() is None  # nothing the tree keeps refers to it
        del jt
        gc.collect()
        assert alive() is None

    def test_a_network_and_all_it_keeps_go_without_the_cycle_collector(self):
        # a fresh network per query, as the wide workload makes them
        rng = np.random.default_rng(17)
        net = banded_network(rng)
        observed = rng.choice(30, size=5, replace=False)
        ev = EvidenceSet({int(u): {int(rng.integers(3))} for u in observed})
        gc.disable()
        try:
            assert validate_network(net).ok
            jt = build_junction_tree(net)
            assert validate_junction_tree(net, jt).ok
            cq = CompiledQuery(net, ev, jtree=jt, validate=False).propagate()
            cq.posterior_table()
            cq.map_assignment()
            cq.message(*jt.edges[0])
            sampler = PosteriorSampler(cq, seed=0)
            sampler.sample(100)
            alive = weakref.ref(net)
            del net, jt, cq, sampler
            assert alive() is None
        finally:
            gc.enable()

    def test_structure_is_worked_out_once_per_network_object(self, monkeypatch):
        # consistent genotype draws, about half of each observed: 20 families
        ids, draws = sample_posterior(compile_query(pedigree_network()), seed=11, count=20)
        rng = np.random.default_rng(11)
        families = [EvidenceSet({u: {int(s)} for u, s in zip(ids, row) if rng.random() < 0.5})
                    for row in draws]
        assert len({frozenset(ev.allowed) for ev in families}) > 10
        runs, checked = Counter(), []

        def counted(name, original):
            return lambda *args: runs.update([name]) or original(*args)

        # each check's work ends in building its one report
        monkeypatch.setattr(model, "ValidationReport", counted("network", model.ValidationReport))
        monkeypatch.setattr(jtree, "ValidationReport", counted("tree", jtree.ValidationReport))
        monkeypatch.setattr(jtree, "min_fill_cliques", counted("min-fill", jtree.min_fill_cliques))
        check = Factor.__post_init__
        monkeypatch.setattr(Factor, "__post_init__", lambda f: checked.append(f.scope) or check(f))
        for copies in (1, 2):
            net = pedigree_network()
            for ev in families:
                for root in (0, 1):
                    assert validate_network(net).ok
                    jt = build_junction_tree(net)
                    assert validate_junction_tree(net, jt).ok
                    CompiledQuery(net, ev, jtree=jt, root=root)
            assert runs == {"network": copies, "tree": copies, "min-fill": copies}
            # the network's one report covers the CPDs: none enters Factor
            assert checked == []

    def test_plan_misses_share_cluster_layouts_within_a_bound(self, monkeypatch):
        # a plan miss lays a cluster out again only for a set of its variables
        # observed it has not seen; what the structure keeps stays bounded, and
        # every answer is a fresh network's, bit for bit
        ids, draws = sample_posterior(compile_query(pedigree_network()), seed=12, count=40)
        rng = np.random.default_rng(12)
        families = [EvidenceSet({u: {int(s)} for u, s in zip(ids, row) if rng.random() < 0.5})
                    for row in draws]
        net = pedigree_network()
        jt = build_junction_tree(net)
        first = CompiledQuery(net, EvidenceSet({0: {1}}), jtree=jt)
        second = CompiledQuery(net, EvidenceSet({0: {2}, 9: {0}}), jtree=jt)
        assert first._layouts is not second._layouts
        for j, cluster in enumerate(jt.clusters):
            assert (first._layouts[j] is second._layouts[j]) == (9 not in cluster)
        monkeypatch.setattr(propagation, "_KEPT_MAX", 10)
        for ev in families:
            cq = CompiledQuery(net, ev, jtree=jt).propagate()
            assert len(net._structure[3]) <= 10 + 2 * jt.q
            fresh_net = pedigree_network()
            fresh = CompiledQuery(fresh_net, ev, jtree=build_junction_tree(fresh_net)).propagate()
            assert cq.evidence_log_probability() == fresh.evidence_log_probability()
            got, want = cq.posterior_table(), fresh.posterior_table()
            assert all(got[u].tobytes() == want[u].tobytes() for u in want)


class TestPlanOwnsTheTables:
    """The plan lays out and checks each distinct CPD view once; a query
    reads those arrays at its evidence and builds no per-variable factor."""

    @staticmethod
    def chain(seeds, horizon=30):
        spec = hmm.precipitation_spec(horizon)
        return spec, [hmm.to_bayes_net(spec, hmm.simulate(spec, s)[1]) for s in seeds]

    def test_reading_unsliced_messages_keeps_the_tree_plan(self, monkeypatch):
        calls, check = [], propagation.validate_junction_tree
        monkeypatch.setattr(propagation, "validate_junction_tree",
                            lambda *args: calls.append(args) or check(*args))
        spec, inputs = self.chain((21, 22))
        tree = hmm.chain_junction_tree(spec)
        jt = JunctionTree(tree.clusters, tree.edges, tree.assignment)
        first = CompiledQuery(*inputs[0], jtree=jt).propagate()
        plan = jt._plan
        first.message(0, 1)
        first.edge_marginal(1, 2)
        cluster_conditional(first, first.root, {})
        assert jt._plan is plan
        second = CompiledQuery(*inputs[1], jtree=jt)
        assert len(calls) == 1
        assert second._layouts is first._layouts

    @pytest.mark.parametrize("case", ["pedigree", "chain"])
    def test_whole_messages_read_alike_whatever_root_they_were_sent_toward(self, case):
        # sum and max messages sent by hand toward another root than the query's
        # (root 0 here), max ones outward too, read over their whole separators
        # as those of a query rooted there
        if case == "pedigree":
            net, ev = pedigree_network(), pedigree_evidence()
            jt = build_junction_tree(net)
            other = jt.q - 1
        else:
            spec = hmm.precipitation_spec(60)
            net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, 60)[1])
            jt, other = hmm.chain_junction_tree(spec), 37
        queries = []
        for root in (0, other):
            tree = JunctionTree(jt.clusters, jt.edges, jt.assignment)
            cq = CompiledQuery(net, ev, jtree=tree, root=root)
            children, order = tree.rooted(other)
            parent = {k: j for j in order for k in children[j]}
            for semiring in ("sum", "max"):
                for j in reversed(order[1:]):
                    cq.compute_message(j, parent[j], semiring)
                for k in order[1:]:
                    cq.compute_message(parent[k], k, semiring)
            queries.append(cq)
        by_hand, rooted = queries
        assert by_hand._observed and by_hand.order != rooted.order
        sent = dict(by_hand._messages)
        assert len(sent) == 4 * len(jt.edges)
        for i, j in jt.edges:
            for a, b in ((i, j), (j, i)):
                for semiring in ("sum", "max"):
                    got, want = by_hand.message(a, b, semiring), rooted.message(a, b, semiring)
                    assert got.scope == want.scope and got.log_scale == want.log_scale
                    assert got.values.tobytes() == want.values.tobytes(), (a, b, semiring)
            got, want = by_hand.edge_marginal(i, j), rooted.edge_marginal(i, j)
            assert got.scope == want.scope and got.log_scale == want.log_scale
            assert got.values.tobytes() == want.values.tobytes(), (i, j)
        # reading stores nothing in the message store
        assert by_hand._messages.keys() == sent.keys()
        assert all(by_hand._messages[key] is sent[key] for key in sent)

    def test_a_query_on_a_kept_plan_builds_no_factor(self, monkeypatch):
        spec, inputs = self.chain((31, 32), horizon=200)
        jt = hmm.chain_junction_tree(spec)
        first = CompiledQuery(*inputs[0], jtree=jt)
        built = []

        def counted(original):
            return lambda *args: built.append(args) or original(*args)

        monkeypatch.setattr(Factor, "__post_init__", counted(Factor.__post_init__))
        for module in (factor, model, propagation, sampling):
            if hasattr(module, "_trusted"):
                monkeypatch.setattr(module, "_trusted", counted(module._trusted))
        second = CompiledQuery(*inputs[1], jtree=jt)
        assert second._layouts is first._layouts
        assert built == []

    @pytest.mark.parametrize("bad", [float("nan"), -0.25])
    def test_unchecked_bad_cpd_refused_on_every_query(self, bad):
        net = DiscreteNetwork(
            [Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1"))],
            [Cpd(0, (), [[0.3, 0.7]]), Cpd(1, (0,), [[0.9, 0.1], [bad, 0.6]])],
        )
        jt = build_junction_tree(net)
        for _ in range(2):  # the same network object and tree
            with pytest.raises(InvalidNetworkError,
                               match=re.escape("bad-prob: B has entries outside [0, 1]")) as caught:
                CompiledQuery(net, EvidenceSet({0: {1}}), jtree=jt, validate=False)
            assert caught.value.report is validate_network(net)
            assert jt._plan is None


# -- posteriors read on a run, all at once ------------------------------------


def _pair_chain(n: int, rng: np.random.Generator) -> tuple[DiscreteNetwork, JunctionTree]:
    """Binary A_i, B_i with A_i <- A_{i-1} and B_i <- A_{i-1}, B_{i-1}, and a binary
    E_i <- A_i, B_i; clusters {A_0, B_0, E_0} and {A_{i-1}, B_{i-1}, A_i, B_i, E_i} in a
    path, so a run's separators hold two variables each."""
    variables = [Variable(3 * i + c, f"{'ABE'[c]}{i}", ("0", "1")) for i in range(n) for c in range(3)]

    def table(rows: int) -> np.ndarray:
        t = rng.random((rows, 2)) + 0.05
        return t / t.sum(axis=1, keepdims=True)

    cpds = [Cpd(0, (), table(1)), Cpd(1, (0,), table(2))]
    cpds += [Cpd(3 * i, (3 * i - 3,), table(2)) for i in range(1, n)]
    cpds += [Cpd(3 * i + 1, (3 * i - 3, 3 * i - 2), table(4)) for i in range(1, n)]
    cpds += [Cpd(3 * i + 2, (3 * i, 3 * i + 1), table(4)) for i in range(n)]
    clusters = [{0, 1, 2}] + [{3 * i - 3, 3 * i - 2, 3 * i, 3 * i + 1, 3 * i + 2} for i in range(1, n)]
    tree = JunctionTree(clusters, [(i - 1, i) for i in range(1, n)], {u: u // 3 for u in range(3 * n)})
    return DiscreteNetwork(variables, sorted(cpds, key=lambda c: c.child)), tree


def _read_all(h, cq: CompiledQuery) -> None:
    """Every variable_posterior, then posterior_table, into the hash: bytes, or the
    error's name in their place."""
    for read in [lambda u=u: cq.variable_posterior(u).tobytes() for u in sorted(cq.net.ids)] + [
            lambda: b"".join(p.tobytes() for p in cq.posterior_table().values())]:
        try:
            h.update(read())
        except (SchedulingError, ImpossibleEvidenceError) as exc:
            h.update(type(exc).__name__.encode())


def _posterior_digest(case: str) -> str:
    """The bytes of every posterior read on a case's queries, before the outward pass
    where it says so; pinned from the per-variable reads, one variable at a time."""
    h = hashlib.sha256()
    if case.startswith("chain"):  # horizon 200, one root, inward alone then both passes
        spec = hmm.precipitation_spec(200)
        root = int(case[5:])
        for seed in range(4):
            net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, seed)[1])
            cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=root)
            cq.inward()
            _read_all(h, cq)
            cq.outward()
            _read_all(h, cq)
            _read_all(h, CompiledQuery(net, ev, jtree=cq.jtree, root=root).propagate())
    elif case == "pedigree":  # the fixture evidence and seeded families, at every root
        net = pedigree_network()
        jt = build_junction_tree(net)
        rng = np.random.default_rng(29)
        for ev in [pedigree_evidence()] + [random_evidence(rng, net, 0.5) for _ in range(30)]:
            for root in range(jt.q):
                h.update(repr(sorted((u, sorted(s)) for u, s in ev.allowed.items())).encode())
                _read_all(h, CompiledQuery(net, ev, jtree=jt, root=root).propagate())
    elif case == "banded":  # the wide workload's networks
        rng = np.random.default_rng(0)
        for _ in range(20):
            net = banded_network(rng)
            ev = random_evidence(rng, net, 1 / 6)
            h.update(b"".join(p.tobytes() for p in CompiledQuery(net, ev).propagate().posterior_table().values()))
    else:  # runs of other separators: 3 and 4 states, mixed sizes, two variables
        spec3 = hmm.HmmSpec(("a", "b", "c"), (0.2, 0.3, 0.5),
                            ((0.8, 0.1, 0.1), (0.2, 0.7, 0.1), (0.3, 0.3, 0.4)), (0.5, 2.0, 6.0), 120)
        spec4 = hmm.HmmSpec(("a", "b", "c", "d"), (0.25,) * 4,
                            tuple(tuple(0.7 if r == c else 0.1 for c in range(4)) for r in range(4)),
                            (0.5, 2.0, 6.0, 12.0), 120)
        for spec in (spec3, spec4):
            net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, 5)[1])
            _read_all(h, CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=60).propagate())
        rng = np.random.default_rng(27)
        net, jt = _chain_with_extras(100, rng)
        allowed = {2 * i + 1: {int(rng.integers(2))} for i in range(100) if i % 3}
        allowed.update({2 * i: {0} for i in (9, 10, 50)})
        allowed[2 * 20] = {0, 1}
        _read_all(h, CompiledQuery(net, EvidenceSet(allowed), jtree=jt, root=45).propagate())
        net, jt = _pair_chain(80, np.random.default_rng(28))
        allowed = {3 * i + 2: {i % 2} for i in range(80)}
        allowed.update({30: {1}, 31: {0, 1}, 150: {0}})
        _read_all(h, CompiledQuery(net, EvidenceSet(allowed), jtree=jt, root=0).propagate())
    return h.hexdigest()


def _read_whole(h, cq: CompiledQuery, rng: np.random.Generator) -> None:
    """Every message, sum and max, and edge marginal over its whole separator, then per
    cluster two ``cluster_conditional`` rows at drawn separator states, the second with
    each observed variable at its state, into the hash: scope, log scale and bytes, or
    the error's name in their place."""
    def read(readout):
        try:
            out = readout()
        except (SchedulingError, sampling.SamplingConsistencyError) as exc:
            h.update(type(exc).__name__.encode())
        else:
            h.update(repr((out.scope, out.log_scale)).encode() + out.values.tobytes())

    for i, j in cq.jtree.edges:
        for a, b in ((i, j), (j, i)):
            read(lambda: cq.message(a, b))
            read(lambda: cq.message(a, b, "max"))
        read(lambda: cq.edge_marginal(i, j))
    cards, clusters = cq.net.cards, cq.jtree.clusters
    for j in range(cq.jtree.q):
        sep = sorted(clusters[j].intersection(clusters[cq.parent[j]] if j in cq.parent else ()))
        drawn = [int(rng.integers(cards[u])) for u in sep]
        for states in (drawn, [cq._observed.get(u, s) for u, s in zip(sep, drawn)]):
            read(lambda: cluster_conditional(cq, j, dict(zip(sep, states))))


def _readout_digest(case: str) -> str:
    """The bytes of every whole-separator readout (``_read_whole``) on queries over
    ``_posterior_digest``'s cases, max messages sent inward; the digests were recorded
    when these readouts came from a second compile of each query with nothing sliced."""
    h, rng = hashlib.sha256(), np.random.default_rng(37)

    def read(cq: CompiledQuery, outward: bool = True) -> None:
        cq.inward()
        cq.inward("max")
        if not outward:  # inward alone, then both passes: the reads formed first are kept
            _read_whole(h, cq, rng)
        cq.outward()
        _read_whole(h, cq, rng)

    if case.startswith("chain"):
        spec = hmm.precipitation_spec(200)
        for seed in range(2):
            net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, seed)[1])
            read(CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=int(case[5:])), False)
    elif case == "pedigree":
        net = pedigree_network()
        jt = build_junction_tree(net)
        evs = np.random.default_rng(29)
        for ev in [pedigree_evidence()] + [random_evidence(evs, net, 0.5) for _ in range(10)]:
            for root in range(jt.q):
                read(CompiledQuery(net, ev, jtree=jt, root=root))
    elif case == "banded":
        nets = np.random.default_rng(0)
        for _ in range(8):
            net = banded_network(nets)
            read(CompiledQuery(net, random_evidence(nets, net, 1 / 6)))
    else:  # observed variables inside separators on long paths
        spec3 = hmm.HmmSpec(("a", "b", "c"), (0.2, 0.3, 0.5),
                            ((0.8, 0.1, 0.1), (0.2, 0.7, 0.1), (0.3, 0.3, 0.4)), (0.5, 2.0, 6.0), 120)
        net, ev = hmm.to_bayes_net(spec3, hmm.simulate(spec3, 5)[1])
        read(CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec3), root=60), False)
        net, jt = _chain_with_extras(100, np.random.default_rng(27))
        allowed = {2 * i + 1: {int(rng.integers(2))} for i in range(100) if i % 3}
        allowed.update({2 * i: {0} for i in (9, 10, 50)})
        allowed[2 * 20] = {0, 1}
        read(CompiledQuery(net, EvidenceSet(allowed), jtree=jt, root=45), False)
        net, jt = _pair_chain(80, np.random.default_rng(28))
        allowed = {3 * i + 2: {i % 2} for i in range(80)}
        allowed.update({30: {1}, 31: {0, 1}, 150: {0}})
        read(CompiledQuery(net, EvidenceSet(allowed), jtree=jt, root=0))
    return h.hexdigest()


class TestWholeReadouts:
    """``message``, ``edge_marginal`` and ``cluster_conditional`` report every state of
    an observed variable: each whole-separator message is formed on demand, once."""

    @pytest.mark.parametrize("case, digest", [
        ("chain0", "40f216860eb81bf8ad623ee5f2db16a20f3955091120cbb431012de599594d5e"),
        ("chain100", "f4295bbfb7f47170fe5dc11eeac3d0d047ff4e9967a868d3b4d4c0cefaeeb2d3"),
        ("chain199", "b2a15151b4782fd31f7f7122d9a4d75d3255687f89367b53a0b1d5219619f45e"),
        ("pedigree", "84b6f6a50c9aa42e1a9a58b003f344916c7307819cdf23890f2fb1618d0e7d51"),
        ("banded", "0ea4dc34252529137afe4dddca828866703a12953339436af015baadb3a75b1d"),
        ("other", "085acf2fb5b88943c639e165b2e9d4034005cb5d3a713bd800d94b610df4e337"),
    ])
    def test_readouts_keep_their_bytes(self, case, digest):
        assert _readout_digest(case) == digest

    def test_a_message_forms_each_edge_upstream_of_it_once(self, monkeypatch):
        # counted, not timed: reading i -> j forms the whole message of every edge on
        # i's side of it, i -> j included, stores none, and a second read forms nothing
        reduced, formed = propagation._reduced, []
        monkeypatch.setattr(propagation, "_reduced", lambda *args: formed.append(1) or reduced(*args))
        rng = np.random.default_rng(37)
        for _ in range(4):
            net = banded_network(rng)
            observed = EvidenceSet({int(u): {int(rng.integers(3))} for u in rng.choice(30, 5, replace=False)})
            cq = CompiledQuery(net, observed).propagate()
            sent = dict(cq._messages)
            i, j = cq.jtree.edges[int(rng.integers(len(cq.jtree.edges)))]
            children, _ = cq.jtree.rooted(j)
            side, upstream = [i], {(i, j)}
            for c in side:
                side += children[c]
                upstream.update((k, c) for k in children[c])
            formed.clear()
            cq.message(i, j)
            assert {(a, b) for _, a, b in cq._wholes} == upstream and len(formed) == len(upstream)
            formed.clear()
            cq.message(i, j)
            assert formed == []
            assert cq._messages.keys() == sent.keys()
            assert all(cq._messages[key] is sent[key] for key in sent)

    @staticmethod
    def banded_query(rng: np.random.Generator) -> CompiledQuery:
        """A banded network with five of its separator variables pinned to one state
        and one more kept to two."""
        net = banded_network(rng)
        jt = build_junction_tree(net)
        held = sorted(set().union(*(jt.separator(i, j) for i, j in jt.edges)))
        picked = [int(u) for u in rng.choice(held, 6, replace=False)]
        allowed = {u: {int(rng.integers(3))} for u in picked[:5]}
        allowed[picked[5]] = {0, 2}
        return CompiledQuery(net, EvidenceSet(allowed), jtree=jt)

    def test_the_query_path_calls_no_factor_algebra(self, monkeypatch):
        # Factor is the type tables are handed out in; every table is formed on arrays
        def algebra(*args, **kwargs):
            raise AssertionError("Factor algebra on the query path")

        for name in ("multiply", "restrict", "marginalize_sum", "marginalize_max", "expand",
                     "rescaled_unit_max"):
            monkeypatch.setattr(Factor, name, algebra)
        rng = np.random.default_rng(38)
        queries = [CompiledQuery(pedigree_network(), pedigree_evidence())]
        queries += [self.banded_query(rng) for _ in range(2)]
        for cq in queries:
            cq.propagate()
            cq.posterior_table()
            assignment, _ = cq.map_assignment()
            PosteriorSampler(cq, seed=1).sample(50)
            for i, j in cq.jtree.edges:
                cq.message(i, j)
                cq.message(j, i)
                cq.edge_marginal(i, j)
            for j, parent in cq.parent.items():  # the max pass runs inward only
                cq.message(j, parent, "max")
            for j in range(cq.jtree.q):
                cq.cluster_table(j)
                assert cq.cluster_rows(j).table.flags.c_contiguous
                sep = cq.jtree.separator(j, cq.parent[j]) if j in cq.parent else ()
                cluster_conditional(cq, j, {u: assignment[u] for u in sep})

    def test_each_whole_scope_potential_is_formed_once_per_query(self):
        # counted, not timed: repeated conditionals and messages, sum and max, read each
        # member CPD array of a cluster once
        reads = Counter()

        class Read(np.ndarray):
            def reshape(self, *shape):
                reads[id(self)] += 1
                return self.view(np.ndarray).reshape(*shape)

        rng = np.random.default_rng(7)
        for _ in range(3):
            cq = self.banded_query(rng).propagate()
            assignment, _ = cq.map_assignment()
            cq._layouts = tuple(layout._replace(members=tuple((u, family, values.view(Read))
                                                              for u, family, values in layout.members))
                                for layout in cq._layouts)
            members = {id(values) for layout in cq._layouts for _, _, values in layout.members}
            reads.clear()
            for _ in range(3):
                for j in range(cq.jtree.q):
                    sep = cq.jtree.separator(j, cq.parent[j]) if j in cq.parent else ()
                    cluster_conditional(cq, j, {u: assignment[u] for u in sep})
                for i, j in cq.jtree.edges:
                    cq.message(i, j)
                    cq.message(j, i)
                for j, parent in cq.parent.items():
                    cq.message(j, parent, "max")
            assert reads.keys() == members and set(reads.values()) == {1}


class TestRunPosteriors:
    """Where each posterior is read is kept on the plan; a run's posteriors are
    formed together, by one product of its two scans' messages, at the first
    request after both scans, and every later request reads them."""

    @pytest.mark.parametrize("case, digest", [
        ("chain0", "ad3b11884f53962d8f562c68c909169c8297005b704dffe6430df217e0c29025"),
        ("chain100", "bf8c59166bd8fe2831d3929e9399fea95f5da164a7880bb20d4d5d1848eafb22"),
        ("chain199", "27583def448b7ec1d4a7522a61936cbf78acc4fca84ff3cb202d0b20f009f853"),
        ("pedigree", "91a24f2cb8cad70a3b5a1be1957e9497651e717b15938944efdb614621c4ea02"),
        ("banded", "b44ce3925314929b7dea6450011e1474d357afdb6723091d8e4a1f3235b3aeee"),
        ("other", "e60e999bc19e69e64fc92ab78b146a95fd1df6bf035d5bad1452ebfaf48cfff0"),
    ])
    def test_posteriors_keep_their_bytes(self, case, digest):
        # each pinned where it equals the digest with every posterior read one
        # variable at a time (``_run_posteriors`` answering {})
        assert _posterior_digest(case) == digest

    @staticmethod
    def counted(monkeypatch) -> tuple[list, list]:
        """Runs whose posteriors a query forms, and the stored messages read one
        variable at a time (an edge's two, or the ones a cluster marginal folds in)."""
        formed, stored = [], []
        run_posteriors, read = CompiledQuery._run_posteriors, CompiledQuery._stored

        def counted(self, first, groups):
            kept = first in self._batched
            out = run_posteriors(self, first, groups)
            if not kept and first in self._batched:
                formed.append(first)
            return out

        monkeypatch.setattr(CompiledQuery, "_run_posteriors", counted)
        monkeypatch.setattr(CompiledQuery, "_stored", lambda self, i, j, semiring: (
            stored.append((i, j))) or read(self, i, j, semiring))
        return formed, stored

    @pytest.mark.parametrize("root, runs, edges", [
        (0, [0], []), (199, [199], []),
        # two runs; S_100 and S_101 read the edges to the root's cluster, outside them
        (100, [99, 101], [(99, 100), (100, 99), (100, 101), (101, 100)])])
    def test_a_chain_forms_each_run_once(self, monkeypatch, root, runs, edges):
        spec = hmm.precipitation_spec(200)
        _, y = hmm.simulate(spec, 7)
        cq = CompiledQuery(*hmm.to_bayes_net(spec, y), jtree=hmm.chain_junction_tree(spec),
                           root=root).propagate()
        formed, stored = self.counted(monkeypatch)
        homes = []
        marginal = CompiledQuery.cluster_marginal
        monkeypatch.setattr(CompiledQuery, "cluster_marginal",
                            lambda self, j: homes.append(j) or marginal(self, j))
        post = np.array([cq.variable_posterior(2 * i) for i in range(spec.horizon)])
        assert formed == runs
        # one variable at a time: S_200 from its home's marginal, and the states
        # whose edge lies off the runs
        assert homes == [199]
        assert sorted(stored) == sorted(edges + [(198, 199)])
        np.testing.assert_allclose(post, hmm.posteriors(spec, y), rtol=0, atol=1e-9)
        table = cq.posterior_table()
        assert formed == runs
        for i in range(spec.horizon):
            assert table[2 * i].tobytes() == post[i].tobytes()

    def test_no_run_is_formed_before_both_scans(self, monkeypatch):
        spec = hmm.precipitation_spec(200)
        net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, 8)[1])
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec))
        formed, _ = self.counted(monkeypatch)
        cq.inward()
        assert cq.variable_posterior(0).sum() == pytest.approx(1.0)  # the root's marginal
        with pytest.raises(SchedulingError):
            cq.variable_posterior(2)
        assert formed == [] and cq._batched == {}
        cq.outward()
        cq.variable_posterior(2)
        assert formed == [0]

    def test_each_answer_is_its_own_array(self):
        spec = hmm.precipitation_spec(200)
        net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, 9)[1])
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec)).propagate()
        want = {u: p.tobytes() for u, p in cq.posterior_table().items()}
        for u in (0, 2, 2 * 199, 1):  # on the run, off it, observed
            got = cq.variable_posterior(u)
            assert got.flags.writeable and got.flags.owndata
            got[:] = -1.0
            assert cq.variable_posterior(u).tobytes() == want[u]
        for p in cq.posterior_table().values():
            p[:] = -1.0
        assert {u: p.tobytes() for u, p in cq.posterior_table().items()} == want

    def test_reading_a_whole_message_keeps_the_posteriors(self):
        spec = hmm.precipitation_spec(200)
        net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, 10)[1])
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec)).propagate()
        want = {u: p.tobytes() for u, p in cq.posterior_table().items()}
        cq.message(0, 1)
        assert {u: p.tobytes() for u, p in cq.posterior_table().items()} == want
        # a second propagate() sends the same messages and reads the same bytes
        cq.propagate()
        assert {u: p.tobytes() for u, p in cq.posterior_table().items()} == want
        fresh = CompiledQuery(net, ev, jtree=cq.jtree).propagate()
        assert {u: p.tobytes() for u, p in fresh.posterior_table().items()} == want

    def test_the_reads_live_on_the_plan(self):
        spec = hmm.precipitation_spec(200)
        jt = hmm.chain_junction_tree(spec)
        first, second = (CompiledQuery(*hmm.to_bayes_net(spec, hmm.simulate(spec, s)[1]), jtree=jt)
                         for s in (11, 12))
        assert first._reads is second._reads is jt._plan.reads
        j, k, batch = first._reads[2 * 7]
        assert (j, k) == (7, 8) and batch[0] == 0
        assert first._reads[2 * 199][1:] == (None, None)
        assert first._reads[1][1:] == (1, None)  # observed: its home's smallest edge

    def test_impossible_evidence_on_a_run_raises_for_every_variable(self):
        # every edge on the runs has zero mass: no group is kept, and each read
        # raises from the per-variable path as before
        net, jt = _chain_with_extras(100, np.random.default_rng(27))
        cq = CompiledQuery(net, EvidenceSet({2 * 70: set(), 5: {1}}), jtree=jt, root=45).propagate()
        assert len(_runs(cq)) == 2
        for u in net.ids:
            with pytest.raises(ImpossibleEvidenceError):
                cq.variable_posterior(u)
        with pytest.raises(ImpossibleEvidenceError):
            cq.posterior_table()
        assert cq._batched == {44: {}, 46: {}}
