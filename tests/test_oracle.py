import math

import numpy as np
import pytest
from helpers import pedigree_evidence, pedigree_network

from beliefprop.factor import FactorSizeError
from beliefprop.jtree import JunctionTree, build_junction_tree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable
from beliefprop.oracle import (
    joint_table,
    oracle_log_probability,
    oracle_map,
    oracle_marginal,
    oracle_message,
    oracle_posterior,
)


def coin_pair():
    """A -> B with easily enumerable numbers."""
    return DiscreteNetwork(
        [Variable(0, "A", ("h", "t")), Variable(1, "B", ("h", "t"))],
        [Cpd(0, (), np.array([[0.6, 0.4]])),
         Cpd(1, (0,), np.array([[0.9, 0.1], [0.3, 0.7]]))],
    )


class TestJointTable:
    def test_sums_to_one_without_evidence(self):
        table = joint_table(pedigree_network(), EvidenceSet.none())
        assert table.total_log_mass() == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_evidence_probability(self):
        table = joint_table(pedigree_network(), pedigree_evidence())
        assert math.exp(table.total_log_mass()) == pytest.approx(1.632e-4, rel=1e-9)

    def test_entries_by_hand(self):
        table = joint_table(coin_pair(), EvidenceSet.none()).linear()
        np.testing.assert_allclose(table, [[0.54, 0.06], [0.12, 0.28]])

    def test_evidence_zeroes_rows(self):
        ev = EvidenceSet({1: frozenset({0})})
        table = joint_table(coin_pair(), ev).linear()
        np.testing.assert_allclose(table, [[0.54, 0.0], [0.12, 0.0]])


class TestMarginalAndPosterior:
    def test_marginal_by_hand(self):
        marg = oracle_marginal(coin_pair(), EvidenceSet.none(), [1])
        np.testing.assert_allclose(marg.linear(), [0.66, 0.34])

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            oracle_marginal(coin_pair(), EvidenceSet.none(), [5])

    def test_posterior_by_hand(self):
        # P(A | B = h) = (0.54, 0.12) / 0.66
        ev = EvidenceSet({1: frozenset({0})})
        post = oracle_posterior(coin_pair(), ev, 0)
        np.testing.assert_allclose(post, [0.54 / 0.66, 0.12 / 0.66], rtol=1e-14)

    def test_log_probability_by_hand(self):
        ev = EvidenceSet({1: frozenset({0})})
        assert oracle_log_probability(coin_pair(), ev) == pytest.approx(math.log(0.66))

    def test_impossible_evidence(self):
        net = coin_pair()
        # B = t impossible once the A -> B table is made deterministic
        det = DiscreteNetwork(
            [Variable(0, "A", ("h", "t")), Variable(1, "B", ("h", "t"))],
            [Cpd(0, (), np.array([[1.0, 0.0]])),
             Cpd(1, (0,), np.array([[1.0, 0.0], [0.0, 1.0]]))],
        )
        ev = EvidenceSet({1: frozenset({1})})
        assert oracle_log_probability(det, ev) == float("-inf")
        assert oracle_log_probability(net, ev) > float("-inf")


    def test_posterior_under_impossible_evidence_refused(self):
        # B = t is impossible once the A -> B table is deterministic
        det = DiscreteNetwork(
            [Variable(0, "A", ("h", "t")), Variable(1, "B", ("h", "t"))],
            [Cpd(0, (), np.array([[1.0, 0.0]])),
             Cpd(1, (0,), np.array([[1.0, 0.0], [0.0, 1.0]]))],
        )
        with pytest.raises(ValueError, match="evidence has probability zero"):
            oracle_posterior(det, EvidenceSet({1: frozenset({1})}), 0)


class TestOracleMessage:
    def test_definition_on_tiny_chain(self):
        # chain A -> B -> C; message over the A-B separator from the
        # C side is sum_C K_C, a function of B (and the B indicator)
        net = DiscreteNetwork(
            [Variable(0, "A", ("x", "y")), Variable(1, "B", ("x", "y")),
             Variable(2, "C", ("x", "y"))],
            [Cpd(0, (), np.array([[0.5, 0.5]])),
             Cpd(1, (0,), np.array([[0.8, 0.2], [0.4, 0.6]])),
             Cpd(2, (1,), np.array([[0.7, 0.3], [0.1, 0.9]]))],
        )
        ev = EvidenceSet({2: frozenset({0})})
        jt = build_junction_tree(net)
        # find the edge whose separator is {1}
        for i, j in jt.edges:
            if jt.separator(i, j) == frozenset({1}):
                src, dst = ((i, j) if 2 in jt.clusters[i] else (j, i))
                msg = oracle_message(net, ev, jt, src, dst)
                np.testing.assert_allclose(msg.linear(), [0.7, 0.1], rtol=1e-14)
                break
        else:
            pytest.fail("no edge with separator {B}")


class TestMostProbable:
    def test_map_by_hand(self):
        assignment, value = oracle_map(coin_pair(), EvidenceSet.none())
        assert assignment == {0: 0, 1: 0}
        assert value == pytest.approx(0.54)

    def test_map_under_evidence(self):
        ev = EvidenceSet({1: frozenset({1})})
        assignment, value = oracle_map(coin_pair(), ev)
        assert assignment == {0: 1, 1: 1}
        assert value == pytest.approx(0.28)

    def test_tie_breaks_to_lowest_state(self):
        net = DiscreteNetwork(
            [Variable(0, "A", ("x", "y"))],
            [Cpd(0, (), np.array([[0.5, 0.5]]))],
        )
        assignment, _ = oracle_map(net, EvidenceSet.none())
        assert assignment == {0: 0}


class TestSizeGuard:
    def test_large_enumeration_refused(self):
        n = 24  # 3 states each: far beyond the table cap
        variables = [Variable(i, f"V{i}", ("a", "b", "c")) for i in range(n)]
        cpds = [Cpd(i, (), np.array([[0.2, 0.3, 0.5]])) for i in range(n)]
        net = DiscreteNetwork(variables, cpds)
        with pytest.raises(
            FactorSizeError, match=f"joint table over {n} variables has {3 ** n} entries"
        ):
            oracle_log_probability(net, EvidenceSet.none())

    def test_large_message_refused(self):
        # 16 ternary variables upstream of an empty separator: over 2^25
        # entries with fewer than 25 variables
        n = 16
        variables = [Variable(i, f"V{i}", ("a", "b", "c")) for i in range(n + 1)]
        cpds = [Cpd(i, (), np.array([[0.2, 0.3, 0.5]])) for i in range(n + 1)]
        net = DiscreteNetwork(variables, cpds)
        assignment = {i: 0 for i in range(n)} | {n: 1}
        jt = JunctionTree((frozenset(range(n)), frozenset({n})), ((0, 1),), assignment)
        with pytest.raises(
            FactorSizeError,
            match=f"table over {n} variables for message 0 -> 1 has {3 ** n} entries",
        ):
            oracle_message(net, EvidenceSet.none(), jt, 0, 1)
