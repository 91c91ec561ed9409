import math

import numpy as np
import pytest

from beliefprop import hmm
from beliefprop.jtree import validate_junction_tree
from beliefprop.model import validate_network
from beliefprop.oracle import oracle_log_probability, oracle_posterior
from beliefprop.propagation import CompiledQuery


@pytest.fixture(scope="module")
def spec5():
    return hmm.precipitation_spec(5)


class TestSpec:
    def test_demo_parameters(self, spec5):
        assert spec5.states == ("L", "H")
        np.testing.assert_array_equal(spec5.initial, [0.0, 1.0])
        np.testing.assert_allclose(spec5.transition, [[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(spec5.rates, [3.0, 0.5])

    def test_state_index(self, spec5):
        assert spec5.state_index("H") == 1
        assert spec5.state_index(0) == 0
        with pytest.raises(KeyError):
            spec5.state_index("X")

    def test_validation(self):
        with pytest.raises(ValueError):
            hmm.HmmSpec(("L", "H"), (0.5, 0.6), ((0.9, 0.1), (0.3, 0.7)),
                        (3.0, 0.5), 5)
        with pytest.raises(ValueError):
            hmm.HmmSpec(("L", "H"), (0.0, 1.0), ((0.9, 0.2), (0.3, 0.7)),
                        (3.0, 0.5), 5)
        with pytest.raises(ValueError):
            hmm.HmmSpec(("L", "H"), (0.0, 1.0), ((0.9, 0.1), (0.3, 0.7)),
                        (3.0, -0.5), 5)
        with pytest.raises(ValueError):
            hmm.precipitation_spec(0)


class TestEmission:
    def test_poisson_values(self, spec5):
        # rate 3.0 for L, 0.5 for H
        assert hmm.emission(spec5, 0, 0) == pytest.approx(0.050, abs=5e-4)
        assert hmm.emission(spec5, 1, 0) == pytest.approx(0.607, abs=5e-4)
        assert hmm.emission(spec5, 1, 2) == pytest.approx(0.076, abs=5e-4)

    def test_pmf_formula(self, spec5):
        k, rate = 4, 3.0
        want = math.exp(-rate) * rate ** k / math.factorial(k)
        assert hmm.emission(spec5, 0, k) == pytest.approx(want, rel=1e-12)

    def test_large_count_is_finite(self, spec5):
        # rate**k / k! overflows a float from k = 171 on; the log-space
        # pmf must not, and must still follow pmf(k) = pmf(k-1) * rate / k
        value = hmm.emission(spec5, 0, 171)
        assert math.isfinite(value) and value > 0.0
        assert value == pytest.approx(hmm.emission(spec5, 0, 170) * 3.0 / 171, rel=1e-12)
        fb = hmm.forward_backward(hmm.precipitation_spec(3), [0, 171, 0])
        assert math.isfinite(hmm.log_likelihood(fb))


class TestForwardBackward:
    def test_single_step(self):
        spec = hmm.precipitation_spec(1)
        table, logs = hmm.forward(spec, [0])
        lin = table[0] * math.exp(logs[0])
        np.testing.assert_allclose(lin, [0.0, math.exp(-0.5)], rtol=1e-12)

    def test_loglik_same_from_every_step(self, spec5):
        y = [0, 2, 1, 4, 0]
        fb = hmm.forward_backward(spec5, y)
        values = [hmm.log_likelihood(fb, i) for i in range(5)]
        assert max(values) - min(values) < 1e-12

    def test_backward_terminal_is_one(self, spec5):
        fb = hmm.forward_backward(spec5, [0, 2, 1, 4, 0])
        np.testing.assert_array_equal(fb.backward[-1], [1.0, 1.0])
        assert fb.backward_log[-1] == 0.0

    def test_posteriors_rows_normalized(self, spec5):
        table = hmm.posteriors(spec5, [0, 2, 1, 4, 0])
        np.testing.assert_allclose(table.sum(axis=1), np.ones(5), atol=1e-12)

    def test_initial_point_mass_respected(self, spec5):
        table = hmm.posteriors(spec5, [0, 2, 1, 4, 0])
        assert table[0, 0] == 0.0 and table[0, 1] == 1.0

    def test_impossible_observations_raise(self):
        # a count of 2000 has pmf 0.0 in both states
        spec = hmm.precipitation_spec(3)
        with pytest.raises(ValueError, match="probability zero"):
            hmm.posteriors(spec, [0, 2000, 0])
        with pytest.raises(ValueError, match="probability zero"):
            hmm.posterior(spec, [0, 2000, 0], 1)

    def test_against_brute_force(self):
        # n = 3 keeps the enumerated table (2 * 41)^3 inside the oracle cap
        spec = hmm.precipitation_spec(3)
        y = [1, 0, 3]
        net, ev = hmm.to_bayes_net(spec, y)
        want = oracle_log_probability(net, ev)
        fb = hmm.forward_backward(spec, y)
        assert hmm.log_likelihood(fb) == pytest.approx(want, rel=1e-12)
        for i in range(3):
            np.testing.assert_allclose(
                hmm.posterior(spec, y, i, fb),
                oracle_posterior(net, ev, 2 * i),
                rtol=0, atol=1e-12,
            )


class TestSimulate:
    def test_deterministic(self, spec5):
        a = hmm.simulate(spec5, seed=11)
        b = hmm.simulate(spec5, seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_shapes_and_ranges(self, spec5):
        states, y = hmm.simulate(spec5, seed=3)
        assert states.shape == (5,) and y.shape == (5,)
        assert states[0] == 1  # initial point mass on H
        assert np.all((states == 0) | (states == 1))
        assert np.all(y >= 0)


class TestToBayesNet:
    def test_network_validates(self, spec5):
        net, ev = hmm.to_bayes_net(spec5, [0, 1, 2, 3, 4])
        assert validate_network(net).ok

    def test_interleaved_ids(self, spec5):
        net, ev = hmm.to_bayes_net(spec5, [0, 1, 2, 3, 4])
        # state variables even, count variables odd
        assert net.parents(0) == ()
        assert net.parents(2) == (0,)
        assert net.parents(1) == (0,)
        assert net.parents(9) == (8,)
        assert ev.allowed[1] == frozenset({0})
        assert ev.allowed[7] == frozenset({3})

    def test_count_out_of_range(self, spec5):
        with pytest.raises(ValueError, match="cutoff"):
            hmm.to_bayes_net(spec5, [0, 1, 2, 3, 99])

    def test_count_state_labels(self, spec5):
        net, _ = hmm.to_bayes_net(spec5, [0, 1, 2, 3, 4])
        assert net.variable(1).states[:3] == ("0", "1", "2")


class TestChainTree:
    def test_validates(self, spec5):
        net, _ = hmm.to_bayes_net(spec5, [0, 1, 2, 3, 4])
        jt = hmm.chain_junction_tree(spec5)
        assert validate_junction_tree(net, jt).ok
        assert jt.q == 5

    def test_cluster_shapes(self, spec5):
        jt = hmm.chain_junction_tree(spec5)
        assert jt.clusters[0] == frozenset({0, 1})
        assert jt.clusters[3] == frozenset({4, 6, 7})
        assert jt.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_messages_are_forward_backward(self, spec5):
        y = [0, 2, 1, 4, 0]
        net, ev = hmm.to_bayes_net(spec5, y)
        jt = hmm.chain_junction_tree(spec5)
        cq = CompiledQuery(net, ev, jtree=jt, root=0)
        cq.propagate()
        fb = hmm.forward_backward(spec5, y)
        for i in range(1, 5):
            fwd = cq.message(i - 1, i).linear()
            want_f = fb.forward[i - 1] * math.exp(fb.forward_log[i - 1])
            np.testing.assert_allclose(fwd, want_f, rtol=1e-12)
            bwd = cq.message(i, i - 1).linear()
            want_b = fb.backward[i - 1] * math.exp(fb.backward_log[i - 1])
            np.testing.assert_allclose(bwd, want_b, rtol=1e-12)

    def test_long_chain_evidence_probability(self):
        # 2000 steps of messages multiply far below the smallest double;
        # log Z stays finite only because every message is rescaled
        spec = hmm.precipitation_spec(2000)
        _, y = hmm.simulate(spec, 5)
        net, ev = hmm.to_bayes_net(spec, y)
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=0)
        logz = cq.propagate().evidence_log_probability()
        assert math.isfinite(logz)
        want = hmm.log_likelihood(hmm.forward_backward(spec, y))
        assert logz == pytest.approx(want, rel=1e-12)

    def test_tree_posterior_equals_smoothing(self, spec5):
        y = [0, 2, 1, 4, 0]
        net, ev = hmm.to_bayes_net(spec5, y)
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec5), root=0)
        cq.propagate()
        table = hmm.posteriors(spec5, y)
        for i in range(5):
            np.testing.assert_allclose(
                cq.variable_posterior(2 * i), table[i], rtol=0, atol=1e-12
            )
