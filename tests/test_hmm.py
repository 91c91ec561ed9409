import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import special, stats

from beliefprop import hmm
from beliefprop.factor import MAX_TABLE_ENTRIES, FactorSizeError
from beliefprop.jtree import validate_junction_tree
from beliefprop.model import validate_network
from beliefprop.oracle import oracle_log_probability, oracle_posterior
from beliefprop.propagation import CompiledQuery
from beliefprop.sampling import sample_hmm_path


@pytest.fixture(scope="module")
def spec5():
    return hmm.precipitation_spec(5)


def _log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


def enumerate_log_space(spec, y):
    """log P(y) and the smoothing posteriors by a log-space sum over every
    state path, with the Poisson log pmf written out independently."""
    n, k = len(y), spec.n_states
    log_e = [[c * math.log(r) - r - math.lgamma(c + 1) if c >= 0 else -math.inf
              for r in spec.rates] for c in y]
    paths = list(itertools.product(range(k), repeat=n))
    scores = np.array([
        _log(spec.initial[path[0]]) + log_e[0][path[0]]
        + sum(_log(spec.transition[path[i - 1]][path[i]]) + log_e[i][path[i]]
              for i in range(1, n))
        for path in paths
    ])
    peak = scores.max()
    if peak == -math.inf:
        return peak, None
    weights = np.exp(scores - peak)
    post = np.zeros((n, k))
    for path, w in zip(paths, weights):
        post[np.arange(n), path] += w
    return peak + math.log(weights.sum()), post / weights.sum()


@st.composite
def chain_cases(draw, max_horizon, max_count, max_rate, zero_transitions, min_count=0):
    """A random chain spec and an observation sequence for it.  Initial
    entries may be zero; transition entries only if ``zero_transitions``.
    A negative ``min_count`` lets impossible observations in."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, max_horizon))

    def distribution(low):
        w = draw(st.lists(st.integers(low, 4), min_size=k, max_size=k).filter(any))
        return tuple(x / sum(w) for x in w)

    spec = hmm.HmmSpec(
        tuple("ABC"[:k]),
        distribution(0),
        tuple(distribution(0 if zero_transitions else 1) for _ in range(k)),
        tuple(draw(st.floats(0.1, max_rate)) for _ in range(k)),
        n,
    )
    y = draw(st.lists(st.integers(min_count, max_count), min_size=n, max_size=n))
    return spec, y


class TestSpec:
    def test_demo_parameters(self, spec5):
        assert spec5.states == ("L", "H")
        np.testing.assert_array_equal(spec5.initial, [0.0, 1.0])
        np.testing.assert_allclose(spec5.transition, [[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(spec5.rates, [3.0, 0.5])

    def test_state_index(self, spec5):
        assert spec5.state_index("H") == 1
        assert spec5.state_index(0) == 0
        assert spec5.state_index(np.int64(1)) == 1
        with pytest.raises(KeyError):
            spec5.state_index("X")
        # truncating would return 1
        with pytest.raises(ValueError, match=r"state 1\.5 is not an integer"):
            spec5.state_index(1.5)

    def test_fractional_horizon_refused(self):
        # truncating would build a 2-step spec
        with pytest.raises(ValueError, match=r"horizon 2\.5 is not an integer"):
            hmm.precipitation_spec(2.5)
        assert hmm.precipitation_spec(np.int64(3)).horizon == 3

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

    @pytest.mark.parametrize("field, value", [
        ("initial", (math.nan, 1.0)),
        ("initial", (1.5, -0.5)),
        ("transition", ((1.2, -0.2), (0.3, 0.7))),
        ("transition", ((0.9, 0.1), (math.nan, 1.0))),
        ("rates", (math.inf, 1.0)),
        ("rates", (math.nan, 1.0)),
    ])
    def test_rejects_nan_negative_and_infinite_entries(self, field, value):
        # NaN passes both `abs(sum - 1) > tol` and `r <= 0`; a negative
        # entry can still sum to one
        fields = dict(states=("L", "H"), initial=(0.0, 1.0),
                      transition=((0.9, 0.1), (0.3, 0.7)), rates=(3.0, 0.5), horizon=3)
        fields[field] = value
        with pytest.raises(ValueError):
            hmm.HmmSpec(**fields)

    def test_short_rates_refused(self):
        with pytest.raises(ValueError, match="one entry per state"):
            hmm.HmmSpec(("L", "H"), (0.0, 1.0), ((0.9, 0.1), (0.3, 0.7)), (3.0,), 5)

    def test_horizon_over_the_table_cap(self):
        # two states: the largest horizon is half the entry cap
        hmm.precipitation_spec(MAX_TABLE_ENTRIES // 2)
        with pytest.raises(FactorSizeError, match="horizon x states table"):
            hmm.precipitation_spec(MAX_TABLE_ENTRIES // 2 + 1)


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


    def test_table_is_log_pmf_per_step_and_state(self, spec5):
        counts = [0, 4, 171, 2000]
        want = [[k * math.log(r) - r - math.lgamma(k + 1) for r in (3.0, 0.5)]
                for k in counts]
        np.testing.assert_allclose(hmm.log_emissions(spec5, counts), want, rtol=1e-14)

    COUNTS = (0, 1, 2, 5, 10, 100, 10**4, 10**6, 10**9, 10**13, 10**16, 10**20)
    # the second row sits near counts, where x log(x / rate) + rate - x cancels
    RATES = (1e-3, 0.5, 3.0, 1e2, 1e6, 1e13, 1e20,
             2.2, 101.5, 1.0003e6, 9.9999e12, 1.000001e20)

    def grid_spec(self) -> hmm.HmmSpec:
        n = len(self.RATES)
        return hmm.HmmSpec(tuple(f"s{i}" for i in range(n)), (1.0,) + (0.0,) * (n - 1),
                           np.eye(n), self.RATES, 1)

    @staticmethod
    def exact_log_pmf(k: int, rate: float) -> float:
        """k log(rate) - rate - log k! at 60 digits: log k! exactly up to
        k = 1000, past that Stirling's series, whose seventh term is
        below 1e-39."""
        with localcontext() as ctx:
            ctx.prec = 60
            r = Decimal(rate)
            if k <= 1000:
                log_fact = Decimal(math.factorial(k)).ln()
            else:
                n = Decimal(k)
                two_pi = 2 * Decimal("3.14159265358979323846264338327950288419716939937510582")
                log_fact = (n + Decimal("0.5")) * n.ln() - n + two_pi.ln() / 2
                for i, b in enumerate((Decimal(1) / 6, Decimal(-1) / 30, Decimal(1) / 42,
                                       Decimal(-1) / 30, Decimal(5) / 66, Decimal(-691) / 2730), 1):
                    log_fact += b / (2 * i * (2 * i - 1) * n ** (2 * i - 1))
            return float(k * r.ln() - r - log_fact)

    def test_log_pmf_keeps_relative_accuracy(self):
        # rates 1e20 and counts 10**20 made k log(rate) - rate - lgamma(k + 1)
        # cancel down to 0.0 (pmf 1) where the log pmf is about -23.9
        table = hmm.log_emissions(self.grid_spec(), self.COUNTS)
        assert table[self.COUNTS.index(10**20), self.RATES.index(1e20)] == pytest.approx(
            -23.944789, abs=1e-6
        )
        for k, row in zip(self.COUNTS, table):
            for rate, got in zip(self.RATES, row):
                assert got == pytest.approx(self.exact_log_pmf(k, rate), rel=1e-12), (k, rate)

    def test_log_pmf_matches_scipy_where_scipy_is_exact(self):
        # scipy's logpmf is the plain difference, so it is a referee only
        # where its terms do not cancel by more than three digits
        table = hmm.log_emissions(self.grid_spec(), self.COUNTS)
        compared = 0
        for k, row in zip(self.COUNTS, table):
            for rate, got in zip(self.RATES, row):
                want = float(stats.poisson.logpmf(float(k), rate))
                terms = abs(float(special.xlogy(k, rate))) + float(special.gammaln(k + 1.0)) + rate
                if terms <= 1e3 * abs(want):
                    assert got == pytest.approx(want, rel=1e-12), (k, rate)
                    compared += 1
        assert compared >= 60

    def test_negative_count_is_impossible(self, spec5):
        assert np.all(hmm.log_emissions(spec5, [-1]) == -math.inf)
        assert hmm.emission(spec5, 0, -3) == 0.0

    def test_fractional_counts_are_refused(self, spec5):
        # truncating 1.7 to 1 would answer for other observations
        spec = hmm.precipitation_spec(4)
        with pytest.raises(ValueError, match="count 1.7 at step 1 is not an integer"):
            hmm.posteriors(spec, [1, 1.7, 2, 3])
        with pytest.raises(ValueError, match="count 0.5 at step 0"):
            hmm.posteriors(spec, [0.5, 1.7, 2.2, 3.9])
        with pytest.raises(ValueError, match="count 2.0 at step 2"):
            hmm.to_bayes_net(spec, [0, 1, 2.0, 3])
        with pytest.raises(ValueError, match="at step 3"):
            sample_hmm_path(spec, [0, 1, 2, np.float64(3.0)])
        # integer types of any kind are counts
        hmm.posteriors(spec, np.array([0, 1, 2, 3], dtype=np.int32))
        hmm.to_bayes_net(spec, [np.int64(0), 1, np.uint8(2), 3])

    def test_counts_past_float_range_are_refused(self, spec5):
        # refused where counts enter, like a fractional count, instead of
        # a bare OverflowError from the float conversion or log-gamma
        spec = hmm.precipitation_spec(1)
        for big in (10 ** 400, -(10 ** 400), hmm.MAX_COUNT + 1):
            with pytest.raises(ValueError, match="count at step 0 is out of range"):
                hmm.posteriors(spec, [big])
        table = hmm.log_emissions(spec5, [hmm.MAX_COUNT, -hmm.MAX_COUNT])
        assert np.all(np.isfinite(table[0])) and np.all(table[1] == -math.inf)


class TestForwardBackward:
    def test_single_step(self):
        spec = hmm.precipitation_spec(1)
        fb = hmm.forward_backward(spec, [0])
        lin = np.exp(fb.log_forward[0])
        np.testing.assert_allclose(lin, [0.0, math.exp(-0.5)], rtol=1e-12)

    def test_loglik_same_from_every_step(self, spec5):
        y = [0, 2, 1, 4, 0]
        fb = hmm.forward_backward(spec5, y)
        values = [hmm.log_likelihood(fb, i) for i in range(5)]
        assert max(values) - min(values) < 1e-12

    def test_backward_terminal_is_one(self, spec5):
        fb = hmm.forward_backward(spec5, [0, 2, 1, 4, 0])
        np.testing.assert_array_equal(fb.backward[-1], [1.0, 1.0])
        np.testing.assert_array_equal(fb.log_backward[-1], [0.0, 0.0])

    def test_posteriors_rows_normalized(self, spec5):
        table = hmm.posteriors(spec5, [0, 2, 1, 4, 0])
        np.testing.assert_allclose(table.sum(axis=1), np.ones(5), atol=1e-12)

    def test_initial_point_mass_respected(self, spec5):
        table = hmm.posteriors(spec5, [0, 2, 1, 4, 0])
        assert table[0, 0] == 0.0 and table[0, 1] == 1.0

    def test_impossible_observations_raise(self):
        # a negative count has pmf 0 in every state
        spec = hmm.precipitation_spec(3)
        with pytest.raises(ValueError, match="probability zero"):
            hmm.posteriors(spec, [0, -1, 0])

    @pytest.mark.parametrize("y", [[0, 1, 2, 0], [0, 1, 2, 0, 1, 3]])
    def test_wrong_number_of_counts_refused(self, spec5, y):
        with pytest.raises(ValueError, match=f"expected 5 observations, got {len(y)}"):
            hmm.forward_backward(spec5, y)
        with pytest.raises(ValueError, match=f"expected 5 observations, got {len(y)}"):
            hmm.to_bayes_net(spec5, y)

    def test_log_likelihood_past_float_range_is_refused(self):
        # each count of 1e305 has log pmf near -7e307 in both states, so
        # log P(y) lies near -2.1e308, which no float holds (and the
        # suite turns an overflow RuntimeWarning into a failure)
        spec = hmm.precipitation_spec(3)
        for call in (hmm.forward_backward, hmm.posteriors, sample_hmm_path):
            with pytest.raises(ValueError, match="leaves the float range"):
                call(spec, [hmm.MAX_COUNT] * 3)

    def test_one_path_past_float_range_reads_weight_zero(self):
        # state A's path leaves the float range while B's stays in it, so
        # the readouts add log tables whose A entries overflow to -inf;
        # that is weight 0, and the suite's warning filter sees no overflow
        spec = hmm.HmmSpec(("A", "B"), (0.5, 0.5), ((1, 0), (0, 1)), (3.0, 1e305), 3)
        y = [hmm.MAX_COUNT] * 3
        fb = hmm.forward_backward(spec, y)
        # each count equals B's rate: log pmf -log(2 pi k) / 2 - 1 / (12 k) + ...
        want = math.log(0.5) - 1.5 * math.log(2 * math.pi * 1e305)
        assert hmm.log_likelihood(fb) == pytest.approx(want, rel=1e-12)
        assert np.array_equal(hmm.posteriors(spec, y), [[0.0, 1.0]] * 3)
        assert np.array_equal(hmm.forward_transition(fb, 1)[1], [0.0, 1.0])
        assert np.array_equal(hmm.backward_transition(fb, 1)[1], [0.0, 1.0])
        for direction in ("forward", "backward"):
            paths = sample_hmm_path(spec, y, direction, seed=3, count=5)
            assert np.array_equal(paths, np.ones((5, 3), dtype=np.int64))

    def test_impossible_observations_past_float_range_stay_impossible(self):
        # the first three steps leave the float range, but the negative
        # fourth count makes every path impossible
        spec = hmm.precipitation_spec(4)
        y = [hmm.MAX_COUNT] * 3 + [-1]
        assert hmm.log_likelihood(hmm.forward_backward(spec, y), 3) == -math.inf
        with pytest.raises(ValueError, match="probability zero"):
            hmm.posteriors(spec, y)

    @pytest.mark.parametrize("y", [[0, 2000, 0], [2000, 0, 0], [5000, 3, 4000]])
    def test_underflowing_counts_stay_exact(self, y):
        # each of these counts has pmf 0.0 as a float in both states;
        # the log-space steps keep log P(y) finite and exact
        spec = hmm.precipitation_spec(3)
        want_logz, want_post = enumerate_log_space(spec, y)
        fb = hmm.forward_backward(spec, y)
        for i in range(3):
            assert hmm.log_likelihood(fb, i) == pytest.approx(want_logz, rel=1e-12)
        np.testing.assert_allclose(hmm.posteriors(spec, y), want_post, rtol=0, atol=1e-9)

    def test_path_after_underflowing_count_starts_at_h(self):
        # the start is pinned to H, so every path must begin there even
        # though a first count of 2000 favours L by thousands of nats
        spec = hmm.precipitation_spec(3)
        for direction in ("forward", "backward"):
            paths = sample_hmm_path(spec, [2000, 0, 0], direction, seed=4, count=500)
            assert np.all(paths[:, 0] == spec.state_index("H"))

    def test_zero_transitions_keep_mass_below_peak(self):
        # the A and B paths never mix; after step 0 B's weight lies 999
        # nats (below 1e-308) under A's until a count of 2000 lifts it
        spec = hmm.HmmSpec(("A", "B"), (0.5, 0.5), ((1, 0), (0, 1)), (1.0, 1000.0), 2)
        y = [0, 2000]
        want_logz, want_post = enumerate_log_space(spec, y)
        assert want_logz == pytest.approx(-1391.7069397300927, rel=1e-12)
        fb = hmm.forward_backward(spec, y)
        for i in range(2):
            assert hmm.log_likelihood(fb, i) == pytest.approx(-1391.7069397300927, rel=1e-12)
        table = hmm.posteriors(spec, y)
        assert np.all(np.isfinite(table))
        np.testing.assert_allclose(table, want_post, rtol=0, atol=1e-12)

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(chain_cases(max_horizon=5, max_count=10 ** 4, max_rate=50.0,
                       zero_transitions=True, min_count=-1))
    def test_large_counts_match_log_space_enumeration(self, case):
        # no sweep step rescales, so neither large counts nor zero
        # transitions round mass away
        spec, y = case
        want_logz, want_post = enumerate_log_space(spec, y)
        fb = hmm.forward_backward(spec, y)
        for i in range(spec.horizon):
            assert hmm.log_likelihood(fb, i) == pytest.approx(want_logz, rel=1e-12)
        if want_logz == -math.inf:
            with pytest.raises(ValueError, match="probability zero"):
                hmm.posteriors(spec, y)
            return
        np.testing.assert_allclose(hmm.posteriors(spec, y), want_post, rtol=0, atol=1e-9)
        steps = np.arange(spec.horizon)
        for direction in ("forward", "backward"):
            paths = sample_hmm_path(spec, y, direction, seed=0, count=200)
            assert np.all(want_post[steps, paths] > 0)
            assert np.all(np.asarray(spec.transition)[paths[:, :-1], paths[:, 1:]] > 0)

    def test_against_brute_force(self):
        # n = 3 keeps the enumerated table (2 * 41)^3 inside the oracle cap
        spec = hmm.precipitation_spec(3)
        y = [1, 0, 3]
        net, ev = hmm.to_bayes_net(spec, y)
        want = oracle_log_probability(net, ev)
        fb = hmm.forward_backward(spec, y)
        assert hmm.log_likelihood(fb) == pytest.approx(want, rel=1e-12)
        table = hmm.posteriors(spec, y)
        for i in range(3):
            np.testing.assert_allclose(
                table[i], oracle_posterior(net, ev, 2 * i), rtol=0, atol=1e-12
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
            want_f = np.exp(fb.log_forward[i - 1])
            np.testing.assert_allclose(fwd, want_f, rtol=1e-12)
            bwd = cq.message(i, i - 1).linear()
            want_b = np.exp(fb.log_backward[i - 1])
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

    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    @given(chain_cases(max_horizon=60, max_count=40, max_rate=5.0,
                       zero_transitions=True))
    def test_engine_matches_forward_backward(self, case):
        # rates up to 5 keep the Poisson tail past the count cutoff of 40
        # below the CPD row-sum tolerance
        spec, y = case
        net, ev = hmm.to_bayes_net(spec, y)
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=0)
        logz = cq.propagate().evidence_log_probability()
        fb = hmm.forward_backward(spec, y)
        assert logz == pytest.approx(hmm.log_likelihood(fb), rel=1e-12)
        table = hmm.posteriors(spec, y)
        for i in range(spec.horizon):
            np.testing.assert_allclose(
                cq.variable_posterior(2 * i), table[i], rtol=0, atol=1e-12
            )

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
