"""Acceptance gate: one test per shipped guarantee.

Every numeric target here was computed away from this code base, either
by hand, from the published reference tables for the pedigree model, or
by the enumeration oracle.  Tolerances are pinned per test and are part
of the contract; loosening one is an interface change.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from conftest import PED_CLUSTERS, PED_EDGES
from helpers import pedigree_evidence, pedigree_network, random_evidence, random_network

from beliefprop import hmm
from beliefprop.jtree import JunctionTree, validate_junction_tree
from beliefprop.model import EvidenceSet
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
    compile_query,
    joint_score,
)
from beliefprop.sampling import sample_posterior

P_EVIDENCE = 1.632e-4

# Pedigree posteriors, indexed by variable id, states (dd, dD, DD).
# X9 (id 8) is exact by construction; the rest are 4-digit references.
PED_POSTERIOR = {
    0: (0.0, 0.7647, 0.2353),
    1: (0.0, 0.0, 1.0),
    2: (0.0, 0.2941, 0.7059),
    3: (0.0, 0.0, 1.0),
    4: (0.0, 0.9412, 0.0588),
    5: (0.5333, 0.4, 0.0667),
    6: (0.0, 1.0, 0.0),
    7: (0.0, 0.0, 1.0),
    8: (0.0, 2.0 / 3.0, 1.0 / 3.0),
    9: (0.0, 0.0, 1.0),
}

# Reference message tables on the hand-built seven-cluster tree rooted at
# cluster 0, flattened in canonical order (ascending-id scope, last
# variable fastest).  Inward rows are plain probabilities; outward rows
# are published scaled by 1000.
INWARD_ROWS = {
    (6, 5): [0, 0, 0, 0, 0.25, 0.5, 0, 0.5, 1],
    (5, 3): [0, 0, 0, 0.02, 0.05, 0, 0, 0.08, 0],
    (4, 3): [0, 0, 0, 0, 0.25, 0.5, 0, 0.5, 1],
    (3, 1): [0, 0, 0, 0, 0.025, 0.05, 0, 0.04, 0.08],
    (2, 1): [0.8, 0.2, 0, 0.4, 0.5, 0.1, 0, 0.8, 0.2],
    (1, 0): [0, 0, 0, 0.0025, 0.0088, 0.015, 0.004, 0.014, 0.024],
}
OUTWARD_ROWS = {
    (0, 1): [0, 0, 0, 0, 0, 3.2, 0, 0, 4.8],
    (1, 2): [0, 0, 0, 0, 0, 0, 0, 0.136, 0.272],
    (1, 3): [0, 0, 0, 0, 2.56, 0.64, 0, 3.84, 0.96],
    (3, 4): [0, 0.0512, 0.0128, 0, 0.4352, 0.1088, 0, 0, 0],
    (3, 5): [0, 0, 0, 0, 0.96, 1.92, 0, 1.44, 2.88],
    (5, 6): [0, 0, 0, 0.3072, 0.1536, 0.0192, 0.9216, 0.2304, 0],
}

DOUBLED_REFERENCE_EDGE = (3, 1)


@pytest.fixture(scope="module")
def ped_cq(ped_net, ped_ev, ped_jtree):
    return CompiledQuery(ped_net, ped_ev, jtree=ped_jtree, root=0).propagate()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "beliefprop", *args], capture_output=True, text=True
    )


def test_c1_pedigree_evidence_probability(ped_cq, ped_net, ped_ev):
    assert math.exp(ped_cq.evidence_log_probability()) == pytest.approx(
        P_EVIDENCE, rel=1e-9
    )
    assert math.exp(oracle_log_probability(ped_net, ped_ev)) == pytest.approx(
        P_EVIDENCE, rel=1e-9
    )


def _message_cases():
    cases = []
    for edge, row in INWARD_ROWS.items():
        marks = ()
        if edge == DOUBLED_REFERENCE_EDGE:
            marks = (
                pytest.mark.xfail(
                    strict=True,
                    reason="the published table for this edge is exactly twice "
                    "the value its own definition yields; the companion test "
                    "below pins engine == oracle == half the published row",
                ),
            )
        cases.append(
            pytest.param(edge, row, 1.0, id=f"in_{edge[0]}to{edge[1]}", marks=marks)
        )
    for edge, row in OUTWARD_ROWS.items():
        cases.append(pytest.param(edge, row, 1000.0, id=f"out_{edge[0]}to{edge[1]}"))
    return cases


@pytest.mark.parametrize("edge,row,scale", _message_cases())
def test_c2_fixture_tree_message_tables(ped_cq, edge, row, scale):
    got = ped_cq.message(*edge).linear().reshape(-1) * scale
    np.testing.assert_allclose(got, row, rtol=1e-9, atol=5e-5)


def test_c2_companion_doubled_reference_row(ped_cq, ped_net, ped_ev, ped_jtree):
    i, j = DOUBLED_REFERENCE_EDGE
    got = ped_cq.message(i, j).linear().reshape(-1)
    want = oracle_message(ped_net, ped_ev, ped_jtree, i, j).linear().reshape(-1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    published = np.asarray(INWARD_ROWS[DOUBLED_REFERENCE_EDGE])
    np.testing.assert_allclose(got, published / 2.0, rtol=1e-9, atol=2.5e-5)


def test_c3_pedigree_posterior_marginals(ped_cq, ped_net, ped_ev):
    for u, want in PED_POSTERIOR.items():
        got = ped_cq.variable_posterior(u)
        if u == 8:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
            np.testing.assert_allclose(
                got, oracle_posterior(ped_net, ped_ev, u), rtol=1e-9, atol=0
            )
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=5e-5)


def test_c4_couple_joint_posterior(ped_cq):
    # separator {X3, X5} on the edge between clusters {X3,X5,X7} and
    # {X3,X5,X8}; rows are X3 states, columns X5 states
    marg = ped_cq.edge_marginal(5, 6)
    assert tuple(marg.scope) == (2, 4)
    table = marg.linear()
    table = table / table.sum()
    want = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.2353, 0.0588],
            [0.0, 0.7059, 0.0],
        ]
    )
    np.testing.assert_allclose(table, want, rtol=0, atol=5e-5)


def test_c5_chain_tree_reproduces_forward_backward():
    for seed in range(20):
        spec = hmm.precipitation_spec(100)
        _, y = hmm.simulate(spec, seed=seed)
        net, ev = hmm.to_bayes_net(spec, [int(k) for k in y])
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=0)
        cq.propagate()
        fb = hmm.forward_backward(spec, y)
        for i in range(1, spec.horizon):
            np.testing.assert_allclose(
                cq.message(i - 1, i).linear(),
                np.exp(fb.log_forward[i - 1]),
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                cq.message(i, i - 1).linear(),
                np.exp(fb.log_backward[i - 1]),
                rtol=1e-12,
            )
        post = hmm.posteriors(spec, y)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_c6_random_models_match_enumeration():
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        net = random_network(rng)
        ev = random_evidence(rng, net)
        cq = compile_query(net, ev)
        want_log = oracle_log_probability(net, ev)
        assert cq.evidence_log_probability() == pytest.approx(want_log, rel=1e-10)
        for u in net.ids:
            np.testing.assert_allclose(
                cq.variable_posterior(u),
                oracle_posterior(net, ev, u),
                rtol=1e-10,
                atol=0,
            )
        got_assign, got_log = cq.map_assignment()
        want_assign, want_value = oracle_map(net, ev)
        assert math.exp(got_log) == pytest.approx(want_value, rel=1e-10)
        assert joint_score(net, ev, got_assign) == joint_score(net, ev, want_assign)
    # contradictory evidence: probability zero, no most-probable assignment
    net = pedigree_network()
    ev = EvidenceSet({1: frozenset({2}), 2: frozenset({0})})
    cq = compile_query(net, ev)
    assert cq.evidence_log_probability() == float("-inf")
    assert oracle_log_probability(net, ev) == float("-inf")
    with pytest.raises(ImpossibleEvidenceError):
        cq.map_assignment()


def test_c7_posterior_sampling_statistics(ped_cq, ped_ev):
    ids, draws = sample_posterior(ped_cq, seed=20260819, count=200000)
    col = {u: k for k, u in enumerate(ids)}
    for u, allowed in ped_ev.allowed.items():
        assert set(np.unique(draws[:, col[u]])) <= set(allowed)
    for u, want in PED_POSTERIOR.items():
        got = np.bincount(draws[:, col[u]], minlength=3) / draws.shape[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-3)
    # chi-square goodness of fit of sampled joints against enumeration
    rng = np.random.default_rng(2)
    net = random_network(rng, max_vars=4, max_states=3)
    ev = random_evidence(rng, net)
    cq = compile_query(net, ev)
    p = joint_table(net, ev).linear().reshape(-1)
    p = p / p.sum()
    n = 20000
    ids2, draws2 = sample_posterior(cq, seed=1234, count=n)
    shape = tuple(net.card(u) for u in ids2)
    flat = np.ravel_multi_index(tuple(draws2[:, k] for k in range(len(ids2))), shape)
    counts = np.bincount(flat, minlength=p.size).astype(float)
    assert counts[p == 0.0].sum() == 0
    expected = n * p[p > 0.0]
    assert expected.min() >= 5.0  # the frozen seed keeps every cell healthy
    stat = float(((counts[p > 0.0] - expected) ** 2 / expected).sum())
    assert float(stats.chi2.sf(stat, expected.size - 1)) > 1e-3


def test_c8_tree_validator_verdicts(ped_net, ped_jtree):
    assert validate_junction_tree(ped_net, ped_jtree).ok
    spec = hmm.precipitation_spec(5)
    chain_net, _ = hmm.to_bayes_net(spec, [0, 1, 2, 3, 4])
    assert validate_junction_tree(chain_net, hmm.chain_junction_tree(spec)).ok
    single = JunctionTree((frozenset(ped_net.ids),), ())
    assert validate_junction_tree(ped_net, single).ok

    disconnected = JunctionTree(PED_CLUSTERS, PED_EDGES[:-1])
    report = validate_junction_tree(ped_net, disconnected)
    assert not report.ok
    assert any("tree" in line for line in report.lines())

    rerouted = JunctionTree(PED_CLUSTERS, ((0, 2),) + PED_EDGES[1:])
    report = validate_junction_tree(ped_net, rerouted)
    assert not report.ok
    assert any("running-intersection" in line for line in report.lines())
    assert not any("tree" in line for line in report.lines())

    shrunk = list(PED_CLUSTERS)
    shrunk[4] = frozenset({6, 8})
    report = validate_junction_tree(ped_net, JunctionTree(tuple(shrunk), PED_EDGES))
    assert not report.ok
    assert any("covering" in line for line in report.lines())


def test_c9_cli_reference_output(fixtures_dir):
    net = str(fixtures_dir / "pedigree.json")
    ev = str(fixtures_dir / "ped_ev.json")

    r = run_cli("logz", net, "--evidence", ev)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "p_evidence=1.632000000e-4"

    r = run_cli("marginals", net, "--evidence", ev, "--var", "X6")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "variable,state,probability",
        "X6,dd,0.5333333333",
        "X6,dD,0.4",
        "X6,DD,0.06666666667",
    ]

    r = run_cli("sample", net, "--evidence", ev, "-n", "5", "--seed", "42")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 6
    names = lines[0].split(",")
    for row in lines[1:]:
        states = dict(zip(names, row.split(",")))
        assert all(states[k] == "DD" for k in ("X2", "X4", "X8", "X10"))
        assert states["X7"] in ("dd", "dD")
