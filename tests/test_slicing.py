"""Evidence by slicing: a variable pinned to one state is indexed out of
every cluster table, and every readout still reports it."""

import math

import numpy as np
import pytest
from helpers import pedigree_evidence, pedigree_network, random_network
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop.jtree import build_junction_tree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable
from beliefprop.oracle import oracle_log_probability, oracle_map, oracle_message, oracle_posterior
from beliefprop.propagation import CompiledQuery, ImpossibleEvidenceError, compile_query, joint_score
from beliefprop.sampling import PosteriorSampler, cluster_conditional


def mixed_evidence(rng, net, jt) -> EvidenceSet:
    """Single-state, multi-state and empty allowed sets; one time in
    three every variable of one cluster is observed."""
    allowed = {}
    for v in net.variables:
        r = rng.random()
        if r < 0.3:
            allowed[v.id] = {int(rng.integers(v.card))}
        elif r < 0.45:
            size = int(rng.integers(2, v.card + 1))
            allowed[v.id] = {int(s) for s in rng.choice(v.card, size=size, replace=False)}
        elif r < 0.48:
            allowed[v.id] = set()
    if rng.random() < 1 / 3:
        for u in jt.clusters[int(rng.integers(jt.q))]:
            allowed[u] = {int(rng.integers(net.card(u)))}
    return EvidenceSet(allowed)


def single_states(ev: EvidenceSet) -> dict[int, int]:
    return {u: next(iter(s)) for u, s in ev.allowed.items() if len(s) == 1}


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_engine_matches_oracle(s):
    # the pedigree's Mendel tables hold zeros, so its evidence can be
    # impossible without an empty set
    rng = np.random.default_rng(s)
    net = pedigree_network() if rng.random() < 0.25 else random_network(rng, max_vars=7)
    jt = build_junction_tree(net)
    ev = mixed_evidence(rng, net, jt)
    cq = CompiledQuery(net, ev, jtree=jt, root=int(rng.integers(jt.q))).propagate()
    want = oracle_log_probability(net, ev)
    if want == -math.inf:
        assert cq.evidence_log_probability() == -math.inf
        with pytest.raises(ImpossibleEvidenceError):
            cq.posterior_table()
        with pytest.raises(ImpossibleEvidenceError):
            cq.map_assignment()
        return
    assert cq.evidence_log_probability() == pytest.approx(want, rel=1e-12, abs=1e-12)
    observed = single_states(ev)
    table = cq.posterior_table()
    for u in net.ids:
        np.testing.assert_allclose(table[u], oracle_posterior(net, ev, u), rtol=0, atol=1e-12)
        if u in observed:
            assert table[u].tolist() == [float(x == observed[u]) for x in range(net.card(u))]
    assignment, log_value = cq.map_assignment()
    _, best = oracle_map(net, ev)
    assert joint_score(net, ev, assignment) == pytest.approx(best, rel=1e-12)
    assert math.exp(log_value) == pytest.approx(best, rel=1e-12)
    assert all(assignment[u] == state for u, state in observed.items())
    sampler = PosteriorSampler(cq, seed=s % 1000)
    draws = sampler.sample(40)
    for col, u in enumerate(sampler.variables):
        if u in observed:
            assert np.all(draws[:, col] == observed[u])
        assert all(ev.permits(u, int(x)) for x in np.unique(draws[:, col]))


def test_fully_observed_cluster():
    # A -> B -> C: observing A and B leaves the cluster {A, B} no axis
    variables = [Variable(i, n, ("0", "1", "2")) for i, n in enumerate("ABC")]
    cpds = [
        Cpd(0, (), [[0.2, 0.5, 0.3]]),
        Cpd(1, (0,), [[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.7, 0.2, 0.1]]),
        Cpd(2, (1,), [[0.3, 0.3, 0.4], [0.5, 0.25, 0.25], [0.9, 0.05, 0.05]]),
    ]
    net = DiscreteNetwork(variables, cpds)
    ev = EvidenceSet({0: {2}, 1: {0}})
    jt = build_junction_tree(net)
    for root in range(jt.q):
        cq = CompiledQuery(net, ev, jtree=jt, root=root).propagate()
        assert cq.evidence_log_probability() == pytest.approx(math.log(0.3 * 0.7), rel=1e-12)
        np.testing.assert_array_equal(cq.variable_posterior(2), [0.3, 0.3, 0.4])
        assignment, log_value = cq.map_assignment()
        assert assignment == {0: 2, 1: 0, 2: 2}
        assert log_value == pytest.approx(math.log(0.3 * 0.7 * 0.4), rel=1e-12)
        for i, j in [*jt.edges, *(e[::-1] for e in jt.edges)]:
            np.testing.assert_allclose(
                cq.message(i, j).linear(), oracle_message(net, ev, jt, i, j).linear(),
                rtol=1e-12, atol=1e-15,
            )


def test_public_scopes_stay_full():
    net, ev = pedigree_network(), pedigree_evidence()
    cq = compile_query(net, ev)
    best, _ = cq.map_assignment()
    jt = cq.jtree
    for j in range(jt.q):
        scope = tuple(sorted(jt.clusters[j]))
        assert cq.cluster_marginal(j).scope == scope
        assert cq.cluster_table(j, cq.parent.get(j), "max").scope == scope
        for k in jt.neighbors(j):
            sep = tuple(sorted(jt.separator(j, k)))
            assert cq.message(j, k).scope == sep
            assert cq.compute_message(j, k).scope == sep
            assert cq.edge_marginal(j, k).scope == sep
        parent = cq.parent.get(j)
        up = jt.clusters[parent] if parent is not None else frozenset()
        rows = cq.cluster_rows(j)
        assert rows.free == tuple(sorted(jt.clusters[j] - up))
        assert set(rows.sep) == set(up & jt.clusters[j]) - set(single_states(ev))
        states = {u: best[u] for u in up & jt.clusters[j]}
        assert cluster_conditional(cq, j, states).scope == rows.free


def test_one_uniform_per_draw_per_visited_cluster():
    net, ev = pedigree_network(), pedigree_evidence()
    cq = compile_query(net, ev)
    for targets in (None, [1], [5, 9]):
        sampler = PosteriorSampler(cq, seed=11, targets=targets)
        sampler.sample(25)
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in sampler._plan:
            rng.random(25)
        assert sampler._rng.bit_generator.state == rng.bit_generator.state
