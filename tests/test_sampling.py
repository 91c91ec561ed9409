import dataclasses

import numpy as np
import pytest
from helpers import (
    eager_sample,
    path,
    pedigree_evidence,
    pedigree_network,
    random_evidence,
    random_network,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop import hmm
from beliefprop.factor import MAX_TABLE_ENTRIES, FactorSizeError
from beliefprop.jtree import JunctionTree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable
from beliefprop.oracle import joint_table, oracle_posterior
from beliefprop.propagation import (
    CompiledQuery,
    ImpossibleEvidenceError,
    SchedulingError,
    compile_query,
)
from beliefprop.sampling import (
    PosteriorSampler,
    SamplingConsistencyError,
    _invert,
    _row_cdfs,
    cluster_conditional,
    sample_hmm_path,
    sample_posterior,
)


@pytest.fixture(scope="module")
def ped_query():
    cq = compile_query(pedigree_network(), pedigree_evidence())
    return cq


class TestClusterConditional:
    def test_rows_normalized(self, ped_query):
        cq = ped_query
        root = cq.root
        for j in range(cq.jtree.q):
            if j == root:
                continue
            parent = path(cq.jtree, j, root)[1]
            sep = sorted(cq.jtree.separator(j, parent))
            # walk every separator assignment with positive mass
            sep_marg = cq.message(j, parent).linear()
            for flat in range(sep_marg.size):
                idx = np.unravel_index(flat, sep_marg.shape)
                if sep_marg[idx] == 0.0:
                    continue
                cond = cluster_conditional(cq, j, dict(zip(sep, idx)))
                assert cond.linear().sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_inward_messages(self):
        cq = CompiledQuery(pedigree_network(), pedigree_evidence())
        with pytest.raises(SchedulingError, match="inward"):
            cluster_conditional(cq, cq.root, {})

    def test_wrong_separator_assignment(self, ped_query):
        with pytest.raises(ValueError, match="separator"):
            cluster_conditional(ped_query, ped_query.root, {0: 0})

    @pytest.mark.parametrize("state", [-1, 3])
    def test_separator_state_out_of_range(self, ped_query, state):
        j, parent = next(iter(ped_query.parent.items()))
        sep = sorted(ped_query.jtree.separator(j, parent))
        with pytest.raises(ValueError, match="out of range"):
            cluster_conditional(ped_query, j, {u: state for u in sep})

    def test_non_integer_separator_state_refused(self, ped_query):
        # truncating would read 0.9 as state 0
        j, parent = next(iter(ped_query.parent.items()))
        sep = sorted(ped_query.jtree.separator(j, parent))
        with pytest.raises(ValueError, match=r"state of variable \d+ 0\.9 is not an integer"):
            cluster_conditional(ped_query, j, {u: 0.9 for u in sep})
        msg = ped_query.message(j, parent).linear()
        idx = np.unravel_index(int(np.argmax(msg)), msg.shape)
        got = cluster_conditional(ped_query, j, dict(zip(sep, idx)))
        want = cluster_conditional(ped_query, j, {u: int(s) for u, s in zip(sep, idx)})
        np.testing.assert_array_equal(got.values, want.values)

    def test_matches_oracle_conditional(self, ped_query):
        # P(cluster | separator, evidence) against enumeration
        cq = ped_query
        net, ev = pedigree_network(), pedigree_evidence()
        root = cq.root
        j = next(k for k in range(cq.jtree.q) if k != root)
        parent = path(cq.jtree, j, root)[1]
        sep = sorted(cq.jtree.separator(j, parent))
        sep_marg = cq.message(j, parent).linear()
        idx = np.unravel_index(int(np.argmax(sep_marg)), sep_marg.shape)
        cond = cluster_conditional(cq, j, dict(zip(sep, idx)))
        drop = set(net.ids) - set(cq.jtree.clusters[j])
        joint = joint_table(net, ev).marginalize_sum(drop)
        axes = {u: pos for pos, u in enumerate(joint.scope)}
        index = [slice(None)] * len(joint.scope)
        for var, state in zip(sep, idx):
            index[axes[var]] = int(state)
        want = joint.linear()[tuple(index)]
        want = want / want.sum()
        np.testing.assert_allclose(cond.linear(), want, rtol=1e-10)

    def test_zero_mass_separator_rejected(self, ped_query):
        cq = ped_query
        root = cq.root
        j = next(k for k in range(cq.jtree.q) if k != root)
        parent = path(cq.jtree, j, root)[1]
        sep = sorted(cq.jtree.separator(j, parent))
        sep_marg = cq.message(j, parent).linear()
        zeros = np.argwhere(sep_marg == 0.0)
        if zeros.size == 0:
            pytest.skip("no zero separator assignment on this edge")
        with pytest.raises(SamplingConsistencyError):
            cluster_conditional(cq, j, dict(zip(sep, zeros[0])))


class TestRowCdfs:
    def test_pinned_from_last_positive_cell(self):
        # ten 0.1s sum to 0.9999999999999999 without the pin
        cum = _row_cdfs(np.array([[0.1] * 10 + [0.0, 0.0]]))
        assert np.all(cum[0, 9:] == 1.0)
        assert np.all(cum[0, :9] < 1.0)
        assert np.all(np.diff(cum[0]) >= 0.0)

    def test_all_zero_row_stays_zero(self):
        cum = _row_cdfs(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]]))
        np.testing.assert_array_equal(cum[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(cum[1], [1.0 / 3.0, 1.0, 1.0])

    def test_zero_mass_cluster_row(self):
        # A -> B -> C with P(A=0) = 1 and P(B=0 | A=0) = 0: seen from
        # cluster {A, B} below the root {B, C}, the row B=0 has no mass
        variables = [Variable(i, n, ("0", "1")) for i, n in enumerate("ABC")]
        cpds = [
            Cpd(0, (), np.array([[1.0, 0.0]])),
            Cpd(1, (0,), np.array([[0.0, 1.0], [0.5, 0.5]])),
            Cpd(2, (1,), np.array([[0.5, 0.5], [0.5, 0.5]])),
        ]
        jt = JunctionTree((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),),
                          {0: 0, 1: 0, 2: 1})
        cq = CompiledQuery(DiscreteNetwork(variables, cpds), jtree=jt, root=1)
        cq.propagate()
        layout = cq.cluster_rows(0)
        assert layout.sep == (1,) and layout.free == (0,)
        cum = _row_cdfs(layout.table)
        np.testing.assert_array_equal(cum[0], [0.0, 0.0])
        assert cum[1, -1] == 1.0
        sampler = PosteriorSampler(cq, seed=0)
        assert [t.cluster for t in sampler._plan] == [1, 0]
        # force the root draw to B=0, the state upstream calls impossible
        sampler._plan[0] = dataclasses.replace(
            sampler._plan[0], table=np.array([[1.0, 0.0, 0.0, 0.0]])
        )
        with pytest.raises(SamplingConsistencyError):
            sampler.sample(5)


def _prefix_counts(cum, pos, u):
    return (cum[pos] <= u[:, None]).sum(axis=1)


@st.composite
def _cdf_case(draw):
    """CDF rows of small-integer weights (exact ties, trailing zero cells)
    and draws whose uniforms are often a cell of their row."""
    width = draw(st.one_of(
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]),
        st.integers(1, 69),
    ))
    n = draw(st.integers(1, 5))
    weights = np.array(
        draw(st.lists(st.integers(0, 3), min_size=n * width, max_size=n * width)),
        dtype=float,
    ).reshape(n, width)
    for r in range(n):
        weights[r, width - draw(st.integers(0, width - 1)):] = 0.0
        if weights[r].sum() == 0.0:
            weights[r, 0] = 1.0
    cum = _row_cdfs(weights)
    pos, u = [], []
    for _ in range(draw(st.integers(1, 12))):
        r = draw(st.integers(0, n - 1))
        ties = [c for c in cum[r] if c < 1.0]
        if ties and draw(st.booleans()):
            u.append(draw(st.sampled_from(ties)))
        else:
            u.append(draw(st.floats(0.0, 1.0, exclude_max=True)))
        pos.append(r)
    return cum, np.array(pos, dtype=np.int64), np.array(u)


class TestLazyCdfs:
    """The sampler builds CDFs only for reached rows and inverts them by
    binary search; draws must equal the eager reference bit for bit."""

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(_cdf_case())
    def test_invert_counts_cells_at_or_below_u(self, case):
        cum, pos, u = case
        np.testing.assert_array_equal(_invert(cum, pos, u), _prefix_counts(cum, pos, u))

    def test_invert_edge_widths(self):
        for width in (1, 2, 3, 4, 5, 31, 32, 33, 1024, 1025):
            cum = _row_cdfs(np.ones((2, width)))
            u = np.concatenate([[0.0], cum[0, :-1], [np.nextafter(1.0, 0.0)]])
            pos = np.arange(u.size) % 2
            np.testing.assert_array_equal(_invert(cum, pos, u), _prefix_counts(cum, pos, u))

    @pytest.mark.parametrize("count", [0, 1, 1000, (1 << 16) + 7])
    def test_pedigree_every_root(self, count):
        net, ev = pedigree_network(), pedigree_evidence()
        for root in range(CompiledQuery(net, ev).jtree.q):
            cq = CompiledQuery(net, ev, root=root)
            cq.inward()
            for targets in (None, [0, 8], [5]):
                got = PosteriorSampler(cq, seed=root + 1, targets=targets).sample(count)
                want = eager_sample(PosteriorSampler(cq, seed=root + 1, targets=targets), count)
                assert got.shape[0] == count
                np.testing.assert_array_equal(got, want)

    def test_random_networks_every_root(self):
        rng = np.random.default_rng(20261018)
        compared = 0
        for _ in range(40):
            net = random_network(rng, max_vars=8, max_states=4)
            ev = random_evidence(rng, net)
            for root in range(CompiledQuery(net, ev).jtree.q):
                cq = CompiledQuery(net, ev, root=root)
                cq.inward()
                if cq.evidence_log_probability() == float("-inf"):
                    continue
                for targets in (None, [int(rng.integers(len(net.ids)))]):
                    got = PosteriorSampler(cq, seed=root, targets=targets).sample(300)
                    want = eager_sample(PosteriorSampler(cq, seed=root, targets=targets), 300)
                    np.testing.assert_array_equal(got, want)
                    compared += 1
        assert compared >= 80


class TestPosteriorSampler:
    def test_deterministic_per_seed(self, ped_query):
        a = PosteriorSampler(ped_query, seed=7).sample(50)
        b = PosteriorSampler(ped_query, seed=7).sample(50)
        np.testing.assert_array_equal(a, b)
        c = PosteriorSampler(ped_query, seed=8).sample(50)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("count", [10 ** 15, np.int64(1 << 62)])
    def test_over_cap_count_fails_before_drawing(self, ped_query, count):
        sampler = PosteriorSampler(ped_query, seed=7)
        # counted exactly, even where int64 arithmetic would wrap
        entries = int(count) * len(ped_query.net.ids)
        with pytest.raises(
            FactorSizeError,
            match=f"sample output has {entries} entries, cap is {MAX_TABLE_ENTRIES}",
        ):
            sampler.sample(count)
        # the refused call drew no uniforms
        np.testing.assert_array_equal(
            sampler.sample(50), PosteriorSampler(ped_query, seed=7).sample(50)
        )

    def test_sample_posterior_wrapper(self, ped_query):
        ids, draws = sample_posterior(ped_query, seed=3, count=10)
        assert draws.shape == (10, len(ids))
        assert list(ids) == sorted(ids)

    def test_evidence_always_respected(self, ped_query):
        ids, draws = sample_posterior(ped_query, seed=1, count=5000)
        col = {u: k for k, u in enumerate(ids)}
        ev = pedigree_evidence()
        for u, allowed in ev.allowed.items():
            assert set(np.unique(draws[:, col[u]])) <= set(allowed)

    def test_marginals_converge(self, ped_query):
        ids, draws = sample_posterior(ped_query, seed=42, count=40000)
        col = {u: k for k, u in enumerate(ids)}
        net, ev = pedigree_network(), pedigree_evidence()
        for u in (0, 2, 4, 5, 8):
            want = oracle_posterior(net, ev, u)
            got = np.bincount(draws[:, col[u]], minlength=3) / draws.shape[0]
            np.testing.assert_allclose(got, want, atol=0.012)

    def test_pairwise_joint_converges(self, ped_query):
        # dependence between X3 and X5 must survive sampling
        ids, draws = sample_posterior(ped_query, seed=9, count=40000)
        col = {u: k for k, u in enumerate(ids)}
        net, ev = pedigree_network(), pedigree_evidence()
        table = joint_table(net, ev).marginalize_sum(set(net.ids) - {2, 4})
        want = table.linear() / table.linear().sum()
        counts = np.zeros((3, 3))
        for a, b in zip(draws[:, col[2]], draws[:, col[4]]):
            counts[a, b] += 1
        np.testing.assert_allclose(counts / draws.shape[0], want, atol=0.012)

    def test_targets_restrict_columns(self, ped_query):
        ids, draws = sample_posterior(ped_query, seed=5, count=200, targets=[0, 8])
        assert {0, 8} <= set(ids)
        assert len(ids) < 10  # subtree, not the whole network
        full_ids, _ = sample_posterior(ped_query, seed=5, count=200)
        assert len(full_ids) == 10

    def test_target_marginal_unbiased(self, ped_query):
        ids, draws = sample_posterior(ped_query, seed=21, count=40000, targets=[5])
        col = {u: k for k, u in enumerate(ids)}
        want = oracle_posterior(pedigree_network(), pedigree_evidence(), 5)
        got = np.bincount(draws[:, col[5]], minlength=3) / draws.shape[0]
        np.testing.assert_allclose(got, want, atol=0.012)

    def test_unknown_target(self, ped_query):
        with pytest.raises(KeyError):
            PosteriorSampler(ped_query, targets=[55])

    def test_non_integer_target_refused(self, ped_query):
        # truncating would sample variable 1
        with pytest.raises(ValueError, match=r"target 1\.9 is not an integer"):
            PosteriorSampler(ped_query, targets=[1.9])
        assert PosteriorSampler(ped_query, targets=[np.int64(1)]).variables == (1,)

    def test_negative_count_refused(self, ped_query):
        with pytest.raises(ValueError, match="count must be non-negative"):
            PosteriorSampler(ped_query, seed=7).sample(-1)

    def test_fractional_count_refused(self, ped_query):
        with pytest.raises(ValueError, match=r"count 2\.5 is not an integer"):
            PosteriorSampler(ped_query, seed=7).sample(2.5)
        assert PosteriorSampler(ped_query, seed=7).sample(np.int64(2)).shape == (2, 10)

    def test_zero_probability_states_never_drawn(self, ped_query):
        # X3 = dd has zero posterior mass under the evidence
        ids, draws = sample_posterior(ped_query, seed=2, count=20000)
        col = {u: k for k, u in enumerate(ids)}
        assert np.all(draws[:, col[2]] != 0)

    def test_impossible_evidence(self):
        net = pedigree_network()
        ev = EvidenceSet({1: frozenset({2}), 2: frozenset({0})})
        cq = compile_query(net, ev)
        with pytest.raises(ImpossibleEvidenceError):
            PosteriorSampler(cq, seed=0)

    def test_chunking_boundary(self, ped_query):
        # crossing the 2^16 chunk edge keeps the stream identical
        ids, big = sample_posterior(ped_query, seed=31, count=(1 << 16) + 7)
        assert big.shape[0] == (1 << 16) + 7
        ev = pedigree_evidence()
        col = {u: k for k, u in enumerate(ids)}
        for u, allowed in ev.allowed.items():
            assert set(np.unique(big[:, col[u]])) <= set(allowed)

    def test_long_chain_targets_need_no_path_walks(self, monkeypatch):
        # every parent comes from the query's schedule, so a targeted
        # sampler on a 2000-step chain walks each cluster once
        spec = hmm.precipitation_spec(2000)
        _, y = hmm.simulate(spec, 5)
        net, ev = hmm.to_bayes_net(spec, y)
        jt = hmm.chain_junction_tree(spec)

        def no_walk(self, i, j):
            raise AssertionError("sampling walked the tree per edge")

        monkeypatch.setattr(JunctionTree, "side_of", no_walk)
        cq = CompiledQuery(net, ev, jtree=jt)
        cq.inward()
        targets = [2 * i for i in range(2000)]
        sampler = PosteriorSampler(cq, seed=0, targets=targets)
        assert sampler.variables == tuple(targets)
        draws = sampler.sample(3)
        assert draws.shape == (3, 2000)
        assert draws.min() >= 0 and draws.max() < spec.n_states
        for j in range(jt.q):
            if j == cq.root:
                continue
            msg = cq.message(j, cq.parent[j])
            idx = np.unravel_index(int(np.argmax(msg.values)), msg.values.shape)
            cond = cluster_conditional(cq, j, dict(zip(msg.scope, idx)))
            assert cond.linear().sum() == pytest.approx(1.0, abs=1e-12)

    def test_joint_distribution_exact_on_tiny_net(self):
        # empirical joint over a 3-variable network vs enumeration
        rng = np.random.default_rng(17)
        net = random_network(rng, max_vars=3, max_states=2)
        ev = random_evidence(rng, net, p_restrict=0.3)
        cq = compile_query(net, ev)
        if cq.evidence_log_probability() == float("-inf"):
            pytest.skip("drew impossible evidence")
        ids, draws = sample_posterior(cq, seed=4, count=30000)
        table = joint_table(net, ev)
        want = table.linear() / table.linear().sum()
        shape = tuple(net.card(u) for u in sorted(net.ids))
        counts = np.zeros(shape)
        for row in draws:
            counts[tuple(row)] += 1
        np.testing.assert_allclose(counts / draws.shape[0], want, atol=0.015)


@pytest.fixture(scope="module")
def setup():
    spec = hmm.precipitation_spec(12)
    _, y = hmm.simulate(spec, seed=5)
    fb = hmm.forward_backward(spec, y)
    return spec, y, fb


class TestHmmPathSampling:
    def test_transition_rows_stochastic(self, setup):
        spec, y, fb = setup
        from beliefprop.hmm import backward_transition, forward_transition

        # a conditioning state is reachable exactly when its scaling-pass
        # entry is positive: backward for the forward walk, forward for
        # the backward walk
        for i in range(1, spec.horizon):
            fwd = forward_transition(fb, i).sum(axis=1)
            bwd = backward_transition(fb, i).sum(axis=1)
            for r in range(spec.n_states):
                if fb.backward[i - 1][r] > 0:
                    assert fwd[r] == pytest.approx(1.0, abs=1e-12)
            for s in range(spec.n_states):
                if fb.forward[i][s] > 0:
                    assert bwd[s] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, setup):
        spec, y, _ = setup
        a = sample_hmm_path(spec, y, "forward", seed=3, count=40)
        b = sample_hmm_path(spec, y, "forward", seed=3, count=40)
        np.testing.assert_array_equal(a, b)

    def test_unknown_direction(self, setup):
        spec, y, _ = setup
        with pytest.raises(ValueError, match="direction"):
            sample_hmm_path(spec, y, "sideways")

    def test_over_cap_count_refused(self, setup):
        spec, y, _ = setup
        with pytest.raises(
            FactorSizeError, match=f"sample output has {10 ** 15 * spec.horizon} entries"
        ):
            sample_hmm_path(spec, y, count=10 ** 15)

    def test_negative_count_refused_before_sweeps(self, setup, monkeypatch):
        spec, y, _ = setup

        def no_sweep(*args):
            raise AssertionError("sample_hmm_path swept before checking count")

        monkeypatch.setattr("beliefprop.sampling.forward_backward", no_sweep)
        with pytest.raises(ValueError, match="count must be non-negative"):
            sample_hmm_path(spec, y, count=-1)

    def test_fractional_count_refused(self, setup):
        spec, y, _ = setup
        with pytest.raises(ValueError, match=r"count 2\.5 is not an integer"):
            sample_hmm_path(spec, y, count=2.5)

    def test_impossible_observations_refused(self, setup):
        # a negative rain count has probability zero under every state
        spec, y, _ = setup
        with pytest.raises(ValueError, match="observations have probability zero"):
            sample_hmm_path(spec, [-1, *y[1:]], seed=1, count=5)

    def test_marginals_match_smoothing(self, setup):
        spec, y, fb = setup
        smooth = hmm.posteriors(spec, y)
        for direction in ("forward", "backward"):
            paths = sample_hmm_path(spec, y, direction, seed=11, count=20000)
            assert paths.shape == (20000, spec.horizon)
            emp = (paths == 0).mean(axis=0)
            np.testing.assert_allclose(emp, smooth[:, 0], atol=0.015)

    def test_initial_state_pinned(self, setup):
        spec, y, _ = setup
        paths = sample_hmm_path(spec, y, "forward", seed=1, count=500)
        assert np.all(paths[:, 0] == 1)
