import dataclasses
import hashlib
import itertools
import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import special, stats

from beliefprop import hmm, propagation
from beliefprop.factor import MAX_TABLE_ENTRIES, Factor, FactorSizeError
from beliefprop.jtree import JunctionTree, build_junction_tree, validate_junction_tree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable, validate_network
from beliefprop.oracle import oracle_log_probability, oracle_posterior
from beliefprop.propagation import CompiledQuery, ImpossibleEvidenceError, _Sweep
from beliefprop.sampling import PosteriorSampler, sample_hmm_path


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
def chain_cases(draw, max_horizon, max_count, max_rate, zero_transitions, min_count=0, max_states=3):
    """A random chain spec of 2 to ``max_states`` states and an observation
    sequence for it.  Initial entries may be zero; transition entries only
    if ``zero_transitions``.  A negative ``min_count`` lets impossible
    observations in."""
    k = draw(st.integers(2, max_states))
    n = draw(st.integers(1, max_horizon))

    def distribution(low):
        w = draw(st.lists(st.integers(low, 4), min_size=k, max_size=k).filter(any))
        return tuple(x / sum(w) for x in w)

    spec = hmm.HmmSpec(
        tuple("ABCD"[:k]),
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
        with pytest.raises(ValueError, match="count at step 1: 1.7 is not an integer"):
            hmm.posteriors(spec, [1, 1.7, 2, 3])
        with pytest.raises(ValueError, match="count at step 0: 0.5"):
            hmm.posteriors(spec, [0.5, 1.7, 2.2, 3.9])
        with pytest.raises(ValueError, match="count at step 2: 2.0"):
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


    # counts 0..10^4, the largest refused magnitude's neighbour and negative
    # counts, through the list path; the digest is of the table as the
    # per-count form computed it, one saddle-point lead per step
    PINNED_COUNTS = [*range(10**4 + 1), hmm.MAX_COUNT, -1, -7, -hmm.MAX_COUNT]

    @staticmethod
    def pinned_spec() -> hmm.HmmSpec:
        return hmm.HmmSpec(("a", "b", "c"), (1.0, 0.0, 0.0), np.eye(3), (0.5, 3.0, 1e3), 1)

    def test_table_is_pinned_bit_for_bit(self):
        table = hmm.log_emissions(self.pinned_spec(), self.PINNED_COUNTS)
        assert table.shape == (len(self.PINNED_COUNTS), 3)
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "0d3610fbdff0514885f8eb46250f1e2f44bb07c6cddba4f854a0d9a2ee291cd7")

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16, np.uint16, np.uint64])
    def test_integer_arrays_read_as_lists_do(self, dtype):
        spec = self.pinned_spec()
        low = 0 if np.dtype(dtype).kind == "u" else -3
        counts = np.arange(low, 10**4 + 1).astype(dtype)[::-1]
        want = hmm.log_emissions(spec, counts.tolist())
        assert hmm.log_emissions(spec, counts).tobytes() == want.tobytes()
        assert hmm.log_emissions(spec, counts.tolist()).tobytes() == want.tobytes()
        # each row is the count's row alone, whatever else the sequence holds
        for k in (low, 0, 1, 15, 16, 9999):
            assert want[list(counts).index(k)].tobytes() == \
                hmm.log_emissions(spec, [k])[0].tobytes()

    def test_integer_array_counts_are_not_checked_one_at_a_time(self, spec5, monkeypatch):
        def per_count(value, what):
            raise AssertionError(f"{what} checked one at a time")

        monkeypatch.setattr("beliefprop.hmm._integer", per_count)
        y = np.array([0, 2, 1, 4, 0])
        assert hmm.log_emissions(spec5, y).shape == (5, 2)
        hmm.forward_backward(spec5, y)
        _, ev = hmm.to_bayes_net(spec5, y)
        assert ev.allowed[3] == {2}
        with pytest.raises(ValueError, match="count cutoff"):
            hmm.to_bayes_net(spec5, np.array([0, 2, 41, 4, 0]))
        with pytest.raises(ValueError, match="count cutoff"):
            hmm.to_bayes_net(spec5, np.array([0, -1, 1, 4, 0]))

    def test_chain_evidence_is_built_without_the_per_count_checks(self, monkeypatch):
        # the counts were checked where they entered: the evidence equals what the
        # checking constructor builds, one frozenset per distinct count, and
        # EvidenceSet's own checks are not run
        spec = hmm.precipitation_spec(200)
        y = hmm.simulate(spec, 3)[1]
        want = EvidenceSet({2 * i + 1: {int(c)} for i, c in enumerate(y)})
        monkeypatch.setattr("beliefprop.model._integer", lambda value, what: pytest.fail(what))
        for counts in (y, y.tolist(), list(y)):
            _, ev = hmm.to_bayes_net(spec, counts)
            assert ev == want and list(ev.allowed) == list(want.allowed)
            assert all(type(s) is frozenset and all(type(c) is int for c in s)
                       for s in ev.allowed.values())
            assert len({id(s) for s in ev.allowed.values()}) == len(set(y.tolist()))
        monkeypatch.undo()
        # the public constructor keeps every check
        with pytest.raises(ValueError, match="state of variable 1 1.5 is not an integer"):
            EvidenceSet({1: {1.5}})
        with pytest.raises(ValueError, match="evidence variable id '1' is not an integer"):
            EvidenceSet({"1": {0}})

    def test_other_arrays_are_checked_one_count_at_a_time(self, spec5):
        # an integral float is no count either
        with pytest.raises(ValueError, match=r"count at step 0: \S*0\.0\S* is not an integer"):
            hmm.log_emissions(spec5, np.array([0.0, 1.0, 1.5]))
        with pytest.raises(ValueError, match="count at step 0:"):
            hmm.log_emissions(spec5, np.array([[1], [2]]))
        with pytest.raises(ValueError, match="count at step 0: .*False.* is not an integer"):
            hmm.log_emissions(spec5, np.array([False, True]))


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

    def test_log_likelihood_steps_follow_the_integer_rule(self, spec5):
        fb = hmm.forward_backward(spec5, [0, 2, 1, 4, 0])
        for i in (1.5, 2.0, np.float64(1.0), np.True_, "1", None):
            with pytest.raises(ValueError, match=re.escape(f"step {i!r} is not an integer")):
                hmm.log_likelihood(fb, i)
        assert hmm.log_likelihood(fb, np.int64(3)) == hmm.log_likelihood(fb, 3)
        assert hmm.log_likelihood(fb, -1) == hmm.log_likelihood(fb, 4)
        for i in (5, -6):
            with pytest.raises(IndexError):
                hmm.log_likelihood(fb, i)

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


def step_sweeps(spec, y) -> tuple[np.ndarray, np.ndarray]:
    """The log forward and backward tables one step at a time, each step
    one log-sum-exp over the log transition matrix."""
    n, log_e = spec.horizon, hmm.log_emissions(spec, y)
    fwd, bwd = np.empty((n, spec.n_states)), np.zeros((n, spec.n_states))
    with np.errstate(divide="ignore", over="ignore"):
        log_t = np.log(spec.transition)
        fwd[0] = np.log(spec.initial) + log_e[0]
        for i in range(1, n):
            fwd[i] = np.logaddexp.reduce(fwd[i - 1][:, None] + log_t, axis=0) + log_e[i]
        for i in range(n - 2, -1, -1):
            bwd[i] = np.logaddexp.reduce(log_t + (log_e[i + 1] + bwd[i + 1]), axis=1)
    return fwd, bwd


def sweep_case(k: int, horizon: int, kind: str, seed: int) -> tuple[hmm.HmmSpec, np.ndarray]:
    """A seeded k-state chain and a sequence it emits.  "zeros" puts a zero
    in every transition row and in the initial row; "absorbing" pins the
    start to a state the chain never leaves, which emits counts of 10 at
    some 1e-7 the rate the others do, so its rows trail theirs by
    hundreds of nats within a few dozen steps."""
    rng = np.random.default_rng(seed)
    initial, transition = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k), size=k)
    rates = rng.uniform(0.3, 8.0, k)
    if kind == "zeros":
        transition[np.arange(k), rng.integers(0, k, k)] = 0.0
        initial[0] = 0.0
    if kind == "absorbing":
        transition[-1] = np.eye(k)[-1]
        initial = np.eye(k)[-1]
        rates[-1] = 0.5
    spec = hmm.HmmSpec(tuple(map(str, range(k))), tuple(initial / initial.sum()),
                       tuple(map(tuple, transition / transition.sum(axis=1, keepdims=True))),
                       tuple(rates), horizon)
    y = np.full(horizon, 10) if kind == "absorbing" else hmm.simulate(spec, seed)[1]
    return spec, y


class TestScannedSweeps:
    """A chain of at most SCAN_STATES states sweeps by log-semiring scans,
    a larger one by the per-step loop; both read as the per-step sweep."""

    def assert_matches_step_sweeps(self, spec, y):
        fb = hmm.forward_backward(spec, y)
        fwd, bwd = step_sweeps(spec, y)
        for got, want in ((fb.log_forward, fwd), (fb.log_backward, bwd)):
            assert np.array_equal(got == -math.inf, want == -math.inf)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        with np.errstate(over="ignore"):
            want = float(np.logaddexp.reduce(fwd[-1]))
        for i in (0, spec.horizon // 2, spec.horizon - 1):
            got = hmm.log_likelihood(fb, i)
            assert got == want or got == pytest.approx(want, rel=1e-12), i

    @pytest.mark.parametrize("horizon", [1, 2, 3, 64, 2000])
    @pytest.mark.parametrize("kind", ["plain", "zeros", "absorbing"])
    @pytest.mark.parametrize("k", [2, hmm.SCAN_STATES, hmm.SCAN_STATES + 1])
    def test_sweeps_match_the_per_step_sweep(self, k, kind, horizon):
        spec, y = sweep_case(k, horizon, kind, seed=100 * k + horizon)
        self.assert_matches_step_sweeps(spec, y)

    @pytest.mark.parametrize("kind", ["plain", "zeros", "absorbing"])
    def test_blocks_carry_their_end_rows(self, kind, monkeypatch):
        monkeypatch.setattr("beliefprop.hmm._SCAN_BLOCK", 5)
        for horizon in (6, 7, 64):
            self.assert_matches_step_sweeps(*sweep_case(hmm.SCAN_STATES, horizon, kind, seed=3))

    def test_impossible_observations_keep_their_mask(self):
        spec, y = sweep_case(hmm.SCAN_STATES, 64, "zeros", seed=5)
        y[30] = -1
        self.assert_matches_step_sweeps(spec, y)
        with pytest.raises(ValueError, match="probability zero"):
            hmm.posteriors(spec, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("layout", ["sweeps", "run"])
    def test_log_scan_matches_a_per_step_reduction(self, n, layout):
        # the sweeps' (s, s, 2, m) batch with a start row per side, and a run's
        # (w, w, n) stack whose start covers its first rows (the rest fold in 0);
        # -inf cells, one all -inf matrix and -inf start entries
        rng = np.random.default_rng(n)
        shape, starts = ((3, 3, 2, n), (3, 2)) if layout == "sweeps" else ((4, 4, n), (2,))
        logs = rng.normal(scale=40.0, size=shape)
        logs[rng.random(shape) < 0.2] = -math.inf
        if layout == "sweeps":  # one all -inf matrix
            logs[:, :, 1, n // 2] = -math.inf
        else:
            logs[:, :, n - 1] = -math.inf
        start = rng.normal(scale=40.0, size=starts)
        start[0] = -math.inf
        with np.errstate(divide="ignore"):
            values, offsets = hmm._log_scan(logs.copy(), start)
        assert values.shape == shape[1:] and offsets.shape == shape[2:]
        assert np.array_equal(offsets, np.rint(offsets))
        got = values + offsets
        padded = np.zeros(shape[:1] + starts[1:])
        padded[:len(start)] = start
        for batch in np.ndindex(shape[2:-1]):
            row = padded[(slice(None), *batch)]
            for t in range(n):
                row = np.logaddexp.reduce(row[:, None] + logs[(slice(None), slice(None), *batch, t)], axis=0)
                at = got[(slice(None), *batch, t)]
                assert np.array_equal(at == -math.inf, row == -math.inf), (batch, t)
                finite = row > -math.inf
                np.testing.assert_allclose(at[finite], row[finite], rtol=1e-12, atol=1e-12)

    def test_the_state_count_alone_picks_the_sweep(self, monkeypatch):
        called = []
        for name in ("_scan_sweeps", "_step_sweeps"):
            sweeps = getattr(hmm, name)
            monkeypatch.setattr(f"beliefprop.hmm.{name}",
                                lambda *args, name=name, sweeps=sweeps:
                                called.append(name) or sweeps(*args))
        for k in (2, hmm.SCAN_STATES, hmm.SCAN_STATES + 1, 6):
            for horizon in (1, 2000):
                hmm.forward_backward(*sweep_case(k, horizon, "plain", seed=k))
        assert called == ["_scan_sweeps"] * 4 + ["_step_sweeps"] * 4


class TestKeptSweep:
    """A spec keeps the sweep of its last sequence: the same counts read it
    again, other counts, an array edited in place or another spec sweep anew."""

    @pytest.fixture
    def swept(self, monkeypatch):
        called = []
        for name in ("_scan_sweeps", "_step_sweeps"):
            sweeps = getattr(hmm, name)
            monkeypatch.setattr(f"beliefprop.hmm.{name}",
                                lambda *args, name=name, sweeps=sweeps:
                                called.append(name) or sweeps(*args))
        return called

    @pytest.mark.parametrize("k", [2, 4])
    def test_a_chain_query_sweeps_once(self, swept, k):
        spec, y = sweep_case(k, 200, "plain", seed=k)
        # the chain benchmark's order: the floor, its paths, then the referee
        floor = hmm.posteriors(spec, y)
        sample_hmm_path(spec, y, seed=1, count=10)
        sample_hmm_path(spec, y, "backward", seed=1, count=10)
        fb = hmm.forward_backward(spec, y)
        assert swept == ["_scan_sweeps" if k <= hmm.SCAN_STATES else "_step_sweeps"]
        assert hmm.forward_backward(spec, y) is fb
        assert hmm.smoothing_posteriors(fb).tobytes() == floor.tobytes()

    def test_other_counts_or_another_spec_sweep_again(self, swept):
        spec, y = sweep_case(2, 50, "plain", seed=7)
        fb = hmm.forward_backward(spec, y)
        y[3] += 1  # the same array, edited in place
        edited = hmm.forward_backward(spec, y)
        assert edited is not fb and not np.array_equal(edited.log_emissions, fb.log_emissions)
        # the same values under another dtype, and as a list of ints
        assert hmm.forward_backward(spec, y.astype(np.int32)) is not edited
        listed = hmm.forward_backward(spec, y.tolist())
        assert hmm.forward_backward(spec, list(y.tolist())) is listed
        assert hmm.forward_backward(spec, y[::-1]) is not listed
        twin = dataclasses.replace(spec)
        assert twin == spec and hmm.forward_backward(twin, y[::-1]) is not hmm.forward_backward(spec, y[::-1])
        assert swept == ["_scan_sweeps"] * 6

    def test_a_refused_sequence_keeps_the_sweep(self, swept):
        spec, y = hmm.precipitation_spec(3), [0, 1, 2]
        fb = hmm.forward_backward(spec, y)
        refused = ([0, 1], [0, 1.5, 2], [0, 10**306, 2], [hmm.MAX_COUNT] * 3)
        for bad in refused:
            with pytest.raises(ValueError):
                hmm.forward_backward(spec, bad)
            assert hmm.forward_backward(spec, y) is fb
        # only the sequence past the float range got as far as sweeping
        assert swept == ["_scan_sweeps"] * 2

    def test_kept_arrays_are_read_only(self):
        spec, y = hmm.precipitation_spec(4), np.array([0, 1, 2, 3])
        fb = hmm.forward_backward(spec, y)
        for table in (fb.log_forward, fb.log_backward, fb.log_emissions, fb.log_transition):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert hmm.forward_backward(spec, y) is fb

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_paths_from_the_kept_sweep_match_a_fresh_one(self, k, direction):
        spec, y = sweep_case(k, 64, "plain", seed=11)
        hmm.posteriors(spec, y)
        kept = sample_hmm_path(spec, y, direction, seed=5, count=30)
        fresh = dataclasses.replace(spec)
        got = sample_hmm_path(fresh, y, direction, seed=5, count=30)
        assert kept.tobytes() == got.tobytes()
        for name in ("log_forward", "log_backward", "log_emissions", "log_transition"):
            assert getattr(spec._sweep[1], name).tobytes() == getattr(fresh._sweep[1], name).tobytes()


class TestSimulate:
    def test_deterministic(self, spec5):
        a = hmm.simulate(spec5, seed=11)
        b = hmm.simulate(spec5, seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_non_integer_seed_refused(self, spec5):
        with pytest.raises(ValueError, match=r"seed 1\.5 is not an integer"):
            hmm.simulate(spec5, seed=1.5)
        for got, want in zip(hmm.simulate(spec5, seed=np.int64(11)), hmm.simulate(spec5, seed=11)):
            np.testing.assert_array_equal(got, want)

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

    def test_network_is_built_once_per_spec(self, spec5):
        # the network reads only the spec; each sequence gets its own evidence
        net1, ev1 = hmm.to_bayes_net(spec5, [0, 1, 2, 3, 4])
        net2, ev2 = hmm.to_bayes_net(spec5, [4, 3, 2, 1, 0])
        assert net1 is net2
        assert ev1.allowed != ev2.allowed and ev2.allowed[1] == frozenset({4})
        assert hmm.chain_junction_tree(spec5) is hmm.chain_junction_tree(spec5)
        # the per-sequence checks still run on a spec already built
        with pytest.raises(ValueError, match="expected 5 observations"):
            hmm.to_bayes_net(spec5, [0] * 4)

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
        # five clusters send a message each per edge; sixty-four, past the run
        # threshold, send them all by one scan per pass
        spec64 = hmm.precipitation_spec(64)
        for spec, y in ((spec5, [0, 2, 1, 4, 0]), (spec64, hmm.simulate(spec64, 40)[1])):
            net, ev = hmm.to_bayes_net(spec, y)
            jt = hmm.chain_junction_tree(spec)
            cq = CompiledQuery(net, ev, jtree=jt, root=0)
            assert _scanned(cq) == (spec is spec64)
            cq.propagate()
            fb = hmm.forward_backward(spec, y)
            for i in range(1, spec.horizon):
                fwd = cq.message(i - 1, i).linear()
                want_f = np.exp(fb.log_forward[i - 1])
                np.testing.assert_allclose(fwd, want_f, rtol=1e-12)
                bwd = cq.message(i, i - 1).linear()
                want_b = np.exp(fb.log_backward[i - 1])
                np.testing.assert_allclose(bwd, want_b, rtol=1e-12)
                # message() lays the edge out again with nothing sliced; the
                # passes stored these tables, each Y sliced out
                for edge, want in (((i - 1, i), want_f), ((i, i - 1), want_b)):
                    values, log_scale = cq._messages[("sum", *edge)]
                    assert values.max() == 1.0
                    np.testing.assert_allclose(values * math.exp(log_scale), want, rtol=1e-12)

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

    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(chain_cases(max_horizon=60, max_count=40, max_rate=5.0, zero_transitions=True,
                       max_states=4), st.data())
    def test_a_scan_stores_each_message_as_exact_arithmetic_does(self, case, data):
        # every run of two clusters or more scanned, against the same tree with none
        spec, y = case
        n = spec.horizon
        root = data.draw(st.integers(0, n - 1), label="root")
        net, ev = hmm.to_bayes_net(spec, y)
        jt = hmm.chain_junction_tree(spec)
        answers = []
        for rule in (2, 10**9):
            with mock.patch.object(propagation, "_RUN_MIN_CLUSTERS", rule):
                tree = JunctionTree(jt.clusters, jt.edges, jt.assignment)
                answers.append(CompiledQuery(net, ev, jtree=tree, root=root).propagate())
        scanned, stepped = answers
        # the root starts the one run at either end; in the middle it has two children
        runs = int(n > 1) if root in (0, n - 1) else (root >= 2) + (n - 1 - root >= 2)
        assert (_scanned(scanned), _scanned(stepped)) == (runs, 0)
        assert set(scanned._messages) == set(stepped._messages)
        assert all(table.max() == 1.0 for q in answers for table, _ in q._messages.values())
        # each scanned message against exact arithmetic from what its scan read, not
        # against the stepped passes: a product of one-scale messages can pass through
        # the subnormal range and round away an entry a scan keeps (an absorbing state's)
        for sweep in scanned._passes[0] + scanned._passes[1]:
            if isinstance(sweep, _Sweep):
                exact = _exact_sweep(scanned, sweep, y)
                for key in (key for _, _, _, keys in sweep.sends for key in keys):
                    got, got_scale = scanned._messages[key]
                    want, want_scale = exact[key[1]]
                    assert np.array_equal(got == 0.0, want == 0.0), key
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).smallest_subnormal)
                    assert got_scale == pytest.approx(want_scale, rel=1e-12, abs=1e-12)

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

    def test_sum_passes_take_log_depth_steps(self, monkeypatch):
        spec = hmm.precipitation_spec(2000)
        _, y = hmm.simulate(spec, 8)
        net, ev = hmm.to_bayes_net(spec, y)
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec))
        calls = []
        compute_message, kernel = CompiledQuery.compute_message, propagation._rows
        monkeypatch.setattr(CompiledQuery, "compute_message",
                            lambda self, *args, **kwargs: calls.append(args) or compute_message(self, *args, **kwargs))
        monkeypatch.setattr(propagation, "_rows", lambda *args: calls.append(args) or kernel(*args))
        cq.propagate()
        # one compute_message per directed edge was 3998 calls
        assert len(calls) <= 2 * math.ceil(math.log2(spec.horizon))
        assert len(cq._messages) == 2 * (spec.horizon - 1)
        assert math.isfinite(cq.evidence_log_probability())

    @pytest.mark.parametrize("middle", [False, True])
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("horizon", [200, 2000])
    def test_scanned_chain_matches_forward_backward(self, horizon, zeros, middle):
        spec = hmm.HmmSpec(horizon=horizon, **ZERO_ENTRY) if zeros else hmm.precipitation_spec(horizon)
        _, y = hmm.simulate(spec, horizon + zeros)
        net, ev = hmm.to_bayes_net(spec, y)
        # a middle root has two children, so it splits the chain into two runs
        root = horizon // 2 if middle else 0
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=root).propagate()
        assert _scanned(cq) == 1 + middle
        fb = hmm.forward_backward(spec, y)
        logz = cq.evidence_log_probability()
        assert logz == pytest.approx(hmm.log_likelihood(fb), rel=1e-12)
        # every cluster's mass reads the stored outward messages and their scales
        for j in range(0, horizon, 37):
            assert cq.cluster_marginal(j).total_log_mass() == pytest.approx(logz, rel=1e-12)
        table, want = cq.posterior_table(), hmm.posteriors(spec, y)
        got = np.array([table[2 * i] for i in range(horizon)])
        # the log-space sweeps hold log tables near -4000 at step 2000, whose
        # rounding alone moves a posterior by about 5e-13
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_impossible_evidence_on_a_scanned_chain(self):
        spec = hmm.precipitation_spec(200)
        _, y = hmm.simulate(spec, 4)
        net, ev = hmm.to_bayes_net(spec, y)
        # S_1 pinned to L, which the initial law rules out
        ev = EvidenceSet({**ev.allowed, 0: {0}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec))
            assert _scanned(cq) == 1
            cq.propagate()
            assert cq.evidence_log_probability() == -math.inf
            with pytest.raises(ImpossibleEvidenceError):
                cq.posterior_table()
            with pytest.raises(ImpossibleEvidenceError):
                cq.variable_posterior(2 * 100)
            with pytest.raises(ImpossibleEvidenceError):
                PosteriorSampler(cq, seed=0)

    @pytest.mark.parametrize("middle", [False, True])
    def test_a_scan_keeps_the_rows_of_an_absorbing_state(self, middle):
        # S_1 = H, a state the chain never leaves; y = 10 puts each step's H row near
        # 2e-7 of its L row, so a block of 64 steps holds H's row some 1e-400
        # below L's.  The forward messages sit on H: one scale per partial
        # product lost them all, and log Z read -inf.
        spec = hmm.HmmSpec(horizon=200, **ABSORBING)
        y = [10] * 200
        net, ev = hmm.to_bayes_net(spec, y)
        root = 100 if middle else 199
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec), root=root).propagate()
        assert _scanned(cq) == 1 + middle
        fb = hmm.forward_backward(spec, y)
        # i - 1 -> i is scanned inward below the root and outward above it
        for i in range(1, 200):
            values, log_scale = cq._messages[("sum", i - 1, i)]
            with np.errstate(divide="ignore"):
                got = np.log(values) + log_scale
            np.testing.assert_allclose(got, fb.log_forward[i - 1], rtol=1e-12)
        if not middle:
            logz = cq.evidence_log_probability()
            assert logz == pytest.approx(hmm.log_likelihood(fb), rel=1e-12)
            draws = PosteriorSampler(cq, seed=0, targets=[2 * i for i in range(200)]).sample(20)
            assert (draws == 1).all()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a stored message keeps one log scale for its whole table, so the "
                       "messages carrying later evidence back toward the absorbing start lose H")
    def test_log_z_at_every_root_on_an_absorbing_start(self):
        # the scan rounds nothing away inside a run, but the message each stores
        # keeps one scale: each step puts H's entry a factor of about 1.6e6 further below L's, so it is 0
        # some 50 steps in, and log Z reads -inf at roots 0 and 100 on both trees
        spec = hmm.HmmSpec(horizon=200, **ABSORBING)
        y = [10] * 200
        net, ev = hmm.to_bayes_net(spec, y)
        want = hmm.log_likelihood(hmm.forward_backward(spec, y))
        assert want == pytest.approx(-4507.18, abs=0.005)
        for jt in (hmm.chain_junction_tree(spec), build_junction_tree(net)):
            for root in (0, 100):
                cq = CompiledQuery(net, ev, jtree=jt, root=root)
                cq.inward()
                assert cq.evidence_log_probability() == pytest.approx(want, rel=1e-12)

    def test_sampler_on_a_scanned_chain_draws_possible_paths(self):
        spec = hmm.HmmSpec(horizon=200, **ZERO_ENTRY)
        _, y = hmm.simulate(spec, 6)
        net, ev = hmm.to_bayes_net(spec, y)
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec)).propagate()
        assert _scanned(cq) == 1
        draws = PosteriorSampler(cq, seed=3, targets=[2 * i for i in range(200)]).sample(500)
        initial, transition = np.asarray(spec.initial), np.asarray(spec.transition)
        assert (initial[draws[:, 0]] > 0).all()
        assert (transition[draws[:, :-1], draws[:, 1:]] > 0).all()

    @pytest.mark.parametrize("sim_seed", [3, 11, 29])
    def test_map_is_the_viterbi_path(self, sim_seed):
        spec = hmm.precipitation_spec(200)
        _, y = hmm.simulate(spec, sim_seed)
        net, ev = hmm.to_bayes_net(spec, y)
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec))
        assignment, value = cq.map_assignment()
        path, want = _viterbi(spec, y)
        assert [assignment[2 * i] for i in range(spec.horizon)] == path
        assert math.isclose(value, want, rel_tol=1e-9), (value, want)


# as tests/test_sampling.py's ZERO_ENTRY: a zero in every transition row and the initial row
ZERO_ENTRY = dict(states=("a", "b", "c"), initial=(0.5, 0.5, 0.0),
                  transition=((0.0, 0.6, 0.4), (0.3, 0.0, 0.7), (0.2, 0.2, 0.6)),
                  rates=(0.7, 2.0, 6.0))


# a start pinned to an absorbing state H, whose emissions trail L's at y = 10
ABSORBING = dict(states=("L", "H"), initial=(0.0, 1.0), transition=((0.9, 0.1), (0.0, 1.0)),
                 rates=(3.0, 0.5))


def _exact_sweep(cq: CompiledQuery, sweep: _Sweep, y) -> dict:
    """The messages a chain tree's ``sweep`` sends, each as (table rounded once
    to unit maximum, log scale), in rational arithmetic on the cluster products
    the engine forms (each CPD entry times the observed emission, rounded once),
    from the stored message the sweep reads, or from the chain's end."""
    net = cq.net
    mats = [net.cpd(0).table * net.cpd(1).table[:, y[0]]]  # one row: cluster 0 has no parent state
    mats += [net.cpd(2 * i).table * net.cpd(2 * i + 1).table[:, y[i]] for i in range(1, len(y))]
    mats = [[[Fraction(x) for x in row] for row in m.tolist()] for m in mats]
    # sending order, from each key's scan row; direction from the cluster indices,
    # as on a middle root an inward run points up the chain
    keys = [key for _, key in sorted((row, key) for rows, _, _, keys in sweep.sends
                                     for row, key in zip(rows.tolist(), keys))]
    forward = keys[0][2] > keys[0][1]
    if sweep.into is None:
        vector, log_scale = [Fraction(1)] * (1 if forward else len(mats[-1][0])), 0.0
    else:
        values, log_scale = cq._messages[("sum", *sweep.into)]
        vector = [Fraction(x) for x in values.tolist()]
    out = {}
    for _, j, _ in keys:
        if forward:
            vector = [sum(v * row[s] for v, row in zip(vector, mats[j])) for s in range(len(mats[j][0]))]
        else:
            vector = [sum(m * v for m, v in zip(row, vector)) for row in mats[j]]
        top = max(vector)
        out[j] = (np.array([float(x / top) for x in vector]),
                  log_scale + math.log(top.numerator) - math.log(top.denominator))
    return out


def _scanned(cq: CompiledQuery) -> int:
    """How many runs the query's inward pass sends by one scan each."""
    return sum(isinstance(step, _Sweep) for step in cq._passes[0])


def _viterbi(spec, y) -> tuple[list[int], float]:
    """Most probable state path and its log joint with y, by the log-space
    Viterbi recursion: max over the log transition matrix plus each
    step's log emissions, then backtracking from the best last state."""
    with np.errstate(divide="ignore"):
        log_t, score = np.log(spec.transition), np.log(spec.initial)
    log_e = hmm.log_emissions(spec, y)
    score, back = score + log_e[0], []
    for i in range(1, len(y)):
        cand = score[:, None] + log_t
        back.append(cand.argmax(axis=0))
        score = cand.max(axis=0) + log_e[i]
    path = [int(score.argmax())]
    for best in reversed(back):
        path.append(int(best[path[-1]]))
    return path[::-1], float(score.max())


def _answers(cq: CompiledQuery) -> list:
    """log Z, every posterior, the MAP, every message sent (both
    semirings) and a digest of 100 draws, as exact bytes or reprs."""
    out = [repr(cq.propagate().evidence_log_probability())]
    out += [p.tobytes() for p in cq.posterior_table().values()]
    out.append(repr(cq.map_assignment()))
    for i, j in cq.jtree.edges:
        for a, b, semiring in ((i, j, "sum"), (j, i, "sum"), (i, j, "max"), (j, i, "max")):
            if cq.has_message(a, b, semiring):
                msg = cq.message(a, b, semiring)
                out += [msg.values.tobytes(), repr(msg.log_scale)]
    draws = PosteriorSampler(cq, seed=5).sample(100)
    out.append(hashlib.sha256(draws.tobytes()).hexdigest())
    return out


class TestSharedTables:
    """to_bayes_net gives all transition CPDs one array and all emission
    CPDs another; a compile plan lays out and checks each once, and
    clusters that read the same arrays the same way share one product."""

    @pytest.fixture(scope="class")
    def chain200(self):
        spec = hmm.precipitation_spec(200)
        _, y = hmm.simulate(spec, 3)
        return (spec, y, *hmm.to_bayes_net(spec, y))

    def test_tied_and_copied_tables_answer_bit_for_bit(self, chain200):
        spec, _, net, ev = chain200
        copies = DiscreteNetwork(
            net.variables, [Cpd(c.child, c.parents, c.table.copy()) for c in net.cpds]
        )
        assert len({id(c.table) for c in net.cpds}) == 3
        assert len({id(c.table) for c in copies.cpds}) == 400
        tied, copied = (_answers(CompiledQuery(network, ev, jtree=hmm.chain_junction_tree(spec)))
                        for network in (net, copies))
        assert tied == copied

    def test_each_distinct_table_is_checked_once_per_plan(self, chain200, monkeypatch):
        spec, y, net, ev = chain200
        chain_tree = hmm.chain_junction_tree(spec)
        jt = JunctionTree(chain_tree.clusters, chain_tree.edges, chain_tree.assignment)
        checked = []
        check = Factor.__post_init__

        def counted_check(self):
            checked.append(self.scope)
            check(self)

        monkeypatch.setattr(Factor, "__post_init__", counted_check)
        cq = CompiledQuery(net, ev, jtree=jt).propagate()
        cq.posterior_table()
        cq.map_assignment()
        # every Y is pinned to one state, so it is sliced: no product keeps a Y axis
        assert all(not any(u % 2 for u in layout.scope) for layout in cq._layouts)
        assert all(p.ndim == len(layout.scope) for p, layout in zip(cq._products, cq._layouts))
        cq.message(0, 1)
        # a cluster's whole-scope product behind message() slices nothing, so it
        # masks every Y: each (Y_i its last axis) is zero off the observed count
        # and not all zero at it
        for j, count in enumerate(y):
            product = propagation._rows(cq._unmasked(j, None, "sum")[0])
            off = np.arange(product.shape[-1]) != count
            assert not product[..., off].any() and product[..., count].any(), count
        # the network's kept report checked the CPDs: the plan lays out
        # read-only views and no CPD enters Factor, nor in those readouts
        assert checked == []
        members = {u: (family, values) for layout in jt._plan.layouts
                   for u, family, values in layout.members}
        assert members[2][1] is members[4][1]
        # the initial law, the transition matrix and the emission table, once each
        assert len({id(values) for _, values in members.values()}) == 3
        assert not any(values.flags.writeable for _, values in members.values())
        assert members[4][0] == (2, 4)
        # one emission array for every Y, whatever its count
        assert all(members[2 * i + 1][1] is members[1][1] for i in range(200))
        assert members[1][0] == (0, 1)
        # a query on the kept plan lays nothing out again and checks nothing
        assert CompiledQuery(net, ev, jtree=jt)._layouts is cq._layouts
        assert checked == []

    def test_one_product_per_distinct_cluster(self, chain200):
        spec, y, net, ev = chain200
        cq = CompiledQuery(net, ev, jtree=hmm.chain_junction_tree(spec))
        # the first cluster, then one per count seen after step 1
        assert len({id(potential) for potential in cq._products}) == len(set(y[1:])) + 1
        assert len(set(y[1:])) + 1 == 9
        same = [i for i in range(1, 200) if y[i] == y[1]]
        assert all(cq._products[i] is cq._products[1] for i in same)
        assert not cq._products[1].flags.writeable

    @pytest.mark.parametrize("states, shared", [((0, 0), True), ((0, 1), False), ((1, 0), False)])
    def test_same_array_at_another_state_gets_its_own_product(self, states, shared):
        # 0 -> 1 -> 2 -> 3 -> 4 on one transition array; clusters 1 = {1, 2}
        # and 3 = {3, 4} each hold one transition potential, read at the
        # observed state of 1 and of 3
        net = _tied_chain(5)
        jt = JunctionTree([{0, 1}, {1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)],
                          {0: 0, 1: 0, 2: 1, 3: 2, 4: 3})
        ev = EvidenceSet({1: {states[0]}, 3: {states[1]}})
        cq = CompiledQuery(net, ev, jtree=jt)
        (_, _, first), = cq._layouts[1].members
        (_, _, second), = cq._layouts[3].members
        assert first is second
        assert (cq._products[1] is cq._products[3]) is shared
        np.testing.assert_array_equal(cq._products[1], TRANSITION[states[0]])
        np.testing.assert_array_equal(cq._products[3], TRANSITION[states[1]])
        _check_posteriors(cq, net, ev)

    def test_same_array_in_other_axes_gets_its_own_product(self):
        # 1 | 0 and 4 | 3 share the transition array; cluster 1 = {0, 1, 2}
        # holds the first over its first two axes, cluster 2 = {2, 3, 4}
        # the second over its last two
        variables = [Variable(i, f"V{i}", ("0", "1")) for i in range(5)]
        prior = np.array([[0.4, 0.6]])
        cpds = [Cpd(0, (), prior), Cpd(1, (0,), TRANSITION), Cpd(2, (), prior),
                Cpd(3, (), prior), Cpd(4, (3,), TRANSITION)]
        net = DiscreteNetwork(variables, cpds)
        jt = JunctionTree([{0}, {0, 1, 2}, {2, 3, 4}, {2}, {3}],
                          [(0, 1), (1, 2), (2, 3), (2, 4)], {0: 0, 1: 1, 2: 3, 3: 4, 4: 2})
        cq = CompiledQuery(net, EvidenceSet.none(), jtree=jt)
        (u, _, first), = cq._layouts[1].members
        (v, _, second), = cq._layouts[2].members
        assert (u, v) == (1, 4) and first is second
        assert cq._products[1].shape == (2, 2, 1)
        assert cq._products[2].shape == (1, 2, 2)
        _check_posteriors(cq, net, EvidenceSet.none())


TRANSITION = np.array([[0.9, 0.1], [0.3, 0.7]])


def _tied_chain(n: int) -> DiscreteNetwork:
    """Binary chain 0 -> 1 -> ... -> n-1 whose transition CPDs share one array."""
    variables = [Variable(i, f"V{i}", ("0", "1")) for i in range(n)]
    cpds = [Cpd(0, (), np.array([[0.4, 0.6]]))]
    cpds += [Cpd(i, (i - 1,), TRANSITION) for i in range(1, n)]
    return DiscreteNetwork(variables, cpds)


def _check_posteriors(cq: CompiledQuery, net: DiscreteNetwork, ev: EvidenceSet) -> None:
    cq.propagate()
    want = oracle_log_probability(net, ev)
    assert math.isclose(cq.evidence_log_probability(), want, rel_tol=1e-12, abs_tol=1e-12)
    for u in net.ids:
        np.testing.assert_allclose(cq.variable_posterior(u), oracle_posterior(net, ev, u),
                                   rtol=0, atol=1e-12)
