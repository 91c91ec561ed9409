"""The group compile: each cluster's product of K_u against the per-cluster
reference (``helpers.reference_products``), bit for bit and shared alike."""

from types import SimpleNamespace

import numpy as np
import pytest
from helpers import assert_products_match, pedigree_network, random_network, reference_products
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop import hmm
from beliefprop.jtree import build_junction_tree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable, _trusted_evidence
from beliefprop.propagation import CompiledQuery, _rows, _Sweep


def tied_network(rng: np.random.Generator) -> DiscreteNetwork:
    """Random DAG of k-state variables whose CPDs with the same number of parents
    share one table, so one array is read at other states and over other axes."""
    n, k = int(rng.integers(3, 9)), int(rng.integers(2, 4))
    order = rng.permutation(n)
    tables = {}
    cpds = []
    for pos, u in enumerate(order):
        parents = tuple(int(p) for p in rng.permutation(order[:pos])[:int(rng.integers(0, min(2, pos) + 1))])
        if len(parents) not in tables:
            table = rng.random((k ** len(parents), k)) + 0.05
            tables[len(parents)] = table / table.sum(axis=1, keepdims=True)
        cpds.append(Cpd(int(u), parents, tables[len(parents)]))
    variables = [Variable(i, f"T{i}", tuple(map(str, range(k)))) for i in range(n)]
    return DiscreteNetwork(variables, sorted(cpds, key=lambda c: c.child))


def chain_network(rng: np.random.Generator):
    """A 50-step precipitation chain, long enough for a run, its counts observed."""
    spec = hmm.precipitation_spec(50)
    net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, int(rng.integers(2**31)))[1])
    return net, hmm.chain_junction_tree(spec), dict(ev.allowed)


def evidence(rng: np.random.Generator, net: DiscreteNetwork, allowed: dict) -> EvidenceSet:
    """``allowed`` with about a third of the variables pinned to one state, some kept
    to several states or to none, and some dropped; half the multi-state sets are one
    object shared by every variable kept to those states, as to_bayes_net shares its."""
    allowed, shared = dict(allowed), {}
    for v in net.variables:
        r = rng.random()
        if r < 0.3:
            allowed[v.id] = frozenset({int(rng.integers(v.card))})
        elif r < 0.45:
            states = frozenset(int(s) for s in rng.choice(v.card, int(rng.integers(2, v.card + 1)), replace=False))
            allowed[v.id] = shared.setdefault(states, states) if rng.random() < 0.5 else states
        elif r < 0.48:
            allowed[v.id] = frozenset()
        elif r < 0.55:
            allowed.pop(v.id, None)
    return _trusted_evidence(allowed)


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_group_compile_matches_the_per_cluster_reference(s):
    rng = np.random.default_rng(s)
    kind = rng.integers(4)
    if kind == 3:
        net, jt, allowed = chain_network(rng)
    else:
        net = (lambda r: pedigree_network(), tied_network, lambda r: random_network(r, max_vars=7))[kind](rng)
        jt, allowed = build_junction_tree(net), {}
    ev = evidence(rng, net, allowed) if rng.random() < 0.9 else EvidenceSet.none()
    cq = CompiledQuery(net, ev, jtree=jt, root=int(rng.integers(jt.q)))
    assert_products_match(cq)
    # the whole-scope products behind message() read every state, masking the evidence:
    # with unit messages in, each is the reference product laid out with nothing sliced
    cards = net.cards
    cq._whole = lambda i, j, semiring: (np.ones([cards[u] for u in cq._layouts[i].seps[j].whole]), 0.0)
    unsliced = SimpleNamespace(_observed={}, evidence=ev, _layouts=[
        layout._replace(scope=layout.full, shape=tuple(map(cards.__getitem__, layout.full)), form=j)
        for j, layout in enumerate(cq._layouts)])
    for j, want in enumerate(reference_products(unsliced)):
        operands, log_scale = cq._unmasked(j, None, "sum")
        got = _rows(operands)
        assert log_scale == 0.0 and got.tobytes() == np.broadcast_to(want, got.shape).tobytes(), j


@pytest.mark.parametrize("horizon", [20, 200, 2000])
def test_a_chain_compiles_in_two_groups(horizon, monkeypatch):
    spec = hmm.precipitation_spec(horizon)
    net, ev = hmm.to_bayes_net(spec, hmm.simulate(spec, horizon)[1])
    jt = hmm.chain_junction_tree(spec)
    cq = CompiledQuery(net, ev, jtree=jt)
    # {S_1, Y_1}, then each later step's cluster: one transition and one emission array
    assert [list(group.clusters) for group in jt._plan.groups] == [[0], list(range(1, horizon))]
    stacked = []
    monkeypatch.setattr(np, "stack", lambda *args, **kwargs: stacked.append(args))
    runs = [step.run for step in cq._passes[0] if type(step) is _Sweep]
    assert len(runs) == (horizon >= 40)
    for run in runs:
        mats = cq._run_matrices(run)
        assert mats.shape == (2, 2, horizon)
    # a run's matrices are read from its groups' distinct products, not stacked again
    assert stacked == []
    monkeypatch.undo()
    assert_products_match(cq)
