import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from helpers import (
    argmax_traceback,
    banded_network,
    eager_sample,
    path,
    pedigree_evidence,
    pedigree_network,
    random_evidence,
    random_network,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop import hmm, propagation, sampling
from beliefprop.factor import MAX_TABLE_ENTRIES, FactorSizeError
from beliefprop.jtree import JunctionTree, build_junction_tree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable
from beliefprop.oracle import joint_table, oracle_posterior
from beliefprop.propagation import (
    CompiledQuery,
    ImpossibleEvidenceError,
    SchedulingError,
    compile_query,
)
from beliefprop.sampling import (
    _CHUNK,
    PosteriorSampler,
    SamplingConsistencyError,
    _padded,
    _row_cdfs,
    _search,
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
        # nor a float key as a variable id: cluster 6's separator is {3, 8}
        with pytest.raises(ValueError, match=r"separator variable id 3\.0 is not an integer"):
            cluster_conditional(ped_query, 6, {3.0: 0, 8.0: 0})
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

    def test_impossible_evidence_is_no_engine_bug(self):
        # dd parents X1 and X2 cannot have a DD child X3: log Z is -inf, so a zero row
        # is the evidence's doing, as the sampler and the posteriors report it
        cq = compile_query(pedigree_network(), EvidenceSet({0: {0}, 1: {0}, 2: {2}}))
        assert cq.evidence_log_probability() == -math.inf
        with pytest.raises(ImpossibleEvidenceError):
            PosteriorSampler(cq)
        with pytest.raises(ImpossibleEvidenceError):
            cluster_conditional(cq, cq.root, {})
        raised = 0
        for j, parent in cq.parent.items():
            sep = sorted(cq.jtree.separator(j, parent))
            for states in np.ndindex(*(cq.net.cards[u] for u in sep)):
                try:
                    cluster_conditional(cq, j, dict(zip(sep, states)))
                except ImpossibleEvidenceError:
                    raised += 1
        assert raised > 0


@st.composite
def _zero_padded_rows(draw):
    """Rows of widths 1-69, small-integer weights (exact ties) or floats at
    unit maximum, with trailing zeros and now and then an all-zero row; the
    same rows with zero columns put in at random places; and where in the
    padded rows the original columns went."""
    width, n = draw(st.integers(1, 69)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        cells = st.integers(0, 3).map(float)
    else:
        cells = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True))
    rows = np.array(draw(st.lists(cells, min_size=n * width, max_size=n * width))).reshape(n, width)
    for r in range(n):
        rows[r, width - draw(st.integers(0, width)):] = 0.0  # all of it now and then
        if rows[r].max() > 0.0 and draw(st.booleans()):
            rows[r] /= rows[r].max()
    places = draw(st.lists(st.integers(0, width), max_size=20))
    columns = np.insert(np.arange(width), places, -1)
    return rows, np.insert(rows, places, 0.0, axis=1), np.flatnonzero(columns >= 0)


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

    @seed(20261021)
    @settings(max_examples=300, deadline=None)
    @given(_zero_padded_rows())
    def test_zero_cells_change_no_bit(self, case):
        # the sampler draws over rows with the observed axes' zeros left out,
        # the references over the whole rows: both must build the same CDFs
        rows, padded, columns = case
        cum = _row_cdfs(rows)
        assert _row_cdfs(padded)[:, columns].tobytes() == cum.tobytes()
        assert np.all(np.diff(cum, axis=1) >= 0.0)
        for row, cdf in zip(rows, cum):
            positive = np.flatnonzero(row > 0.0)
            if positive.size:
                assert np.all(cdf[positive[-1]:] == 1.0)
            else:
                assert not cdf.any()

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


@st.composite
def _reader_case(draw):
    """A random network, its CPD rows often tied, evidence of one-state and
    several-state allowed sets (now and then an empty one), a root and targets."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = random_network(rng, max_vars=draw(st.integers(2, 7)))
    if draw(st.booleans()):  # rows of ones and twos: most rows hold ties
        cpds = [Cpd(c.child, c.parents, t / t.sum(axis=1, keepdims=True)) for c in net.cpds
                for t in [rng.integers(1, 3, size=c.table.shape).astype(float)]]
        net = DiscreteNetwork(net.variables, cpds)
    allowed = {}
    for v in net.variables:
        size = draw(st.sampled_from([None, None, 1, 1, 2]))
        if size is not None:
            allowed[v.id] = set(draw(st.permutations(range(v.card)))[:size])
    if draw(st.integers(0, 9)) == 0:
        allowed[draw(st.sampled_from(net.ids))] = set()
    root = draw(st.integers(0, build_junction_tree(net).q - 1))
    targets = draw(st.none() | st.lists(st.sampled_from(net.ids), min_size=1, max_size=3))
    return net, EvidenceSet(allowed), root, targets


class TestReadersAgainstWholeTables:
    """MAP and draws read separator rows only; the references read whole tables."""

    @seed(20261020)
    @settings(max_examples=150, deadline=None)
    @given(_reader_case(), st.integers(0, 2 ** 32 - 1))
    def test_map_and_draws_match_the_references(self, case, draw_seed):
        net, ev, root, targets = case
        cq = CompiledQuery(net, ev, root=root).propagate()
        if cq.evidence_log_probability() == float("-inf"):
            with pytest.raises(ImpossibleEvidenceError):
                cq.map_assignment()
            with pytest.raises(ImpossibleEvidenceError):
                PosteriorSampler(cq, seed=draw_seed, targets=targets)
            return
        assignment, value = cq.map_assignment()
        ref_assignment, ref_value = argmax_traceback(cq)
        assert list(assignment.items()) == list(ref_assignment.items()) and value == ref_value
        for count in (1, 60):
            got = PosteriorSampler(cq, seed=draw_seed, targets=targets).sample(count)
            want = eager_sample(PosteriorSampler(cq, seed=draw_seed, targets=targets), count)
            assert got.tobytes() == want.tobytes()

    def test_the_sampler_forms_only_the_rows_its_draws_reach(self, monkeypatch):
        def whole(*args):
            raise AssertionError("the sampler formed a whole cluster table")

        formed = []
        kernel = sampling._rows

        def counted(operands, states, shape):
            # one row per distinct separator state reached, over the free entries
            distinct = set(zip(*map(np.ravel, states)))
            assert shape[0] == (len(distinct) if states else 1)
            rows = kernel(operands, states, shape)
            assert rows.shape == shape
            formed.append(shape)
            return rows

        monkeypatch.setattr(sampling, "_rows", counted)
        rng = np.random.default_rng(20261020)
        for _ in range(3):
            net = banded_network(rng)
            cq = CompiledQuery(net, EvidenceSet({4: {2}, 20: {0, 1}})).propagate()
            formed.clear()
            with monkeypatch.context() as m:
                # every whole table the query forms is a fold at no states in propagation
                m.setattr(propagation, "_rows", whole)
                for name in ("cluster_table", "cluster_rows"):
                    m.setattr(CompiledQuery, name, whole)
                sampler = PosteriorSampler(cq, seed=1)
                sampler.sample(100)
            assert len(formed) == len(cq.order)  # the root's row at init, a batch per cluster
            for visit, shape in zip(sampler._plan, formed):
                edge = cq._layouts[visit.cluster].seps.get(cq.parent.get(visit.cluster))
                assert shape[0] <= (100 if edge else 1) and shape[1:] == visit.dims
                if edge:
                    assert shape[0] <= math.prod(edge.shape)


    def test_the_sampler_forms_no_padded_row(self, monkeypatch):
        # every visit draws over its sliced row and puts each draw back by a
        # gather; only the tables handed out regain the observed axes
        def padded(*args):
            raise AssertionError("the sampler put observed axes back into a row")

        queries, targets = [], (None, [2, 7])
        net, ev = pedigree_network(), pedigree_evidence()
        for root in range(CompiledQuery(net, ev).jtree.q):
            queries.append(CompiledQuery(net, ev, root=root).propagate())
        rng = np.random.default_rng(20261021)
        for _ in range(3):
            net = banded_network(rng)
            allowed = {int(u): {int(rng.integers(3))} for u in rng.choice(30, size=5, replace=False)}
            allowed[int(rng.integers(30))] = {0, 2}
            queries.append(CompiledQuery(net, EvidenceSet(allowed)).propagate())
        for cq in queries:
            assert cq._observed
            for chosen in targets:
                with monkeypatch.context() as m:
                    m.setattr(CompiledQuery, "_with_observed", padded)
                    got = PosteriorSampler(cq, seed=3, targets=chosen).sample(200)
                want = eager_sample(PosteriorSampler(cq, seed=3, targets=chosen), 200)
                assert got.tobytes() == want.tobytes()


class TestLazyCdfs:
    """The sampler builds CDFs only for reached rows and inverts them by
    binary search; draws must equal the eager reference bit for bit."""

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(_cdf_case())
    def test_invert_counts_cells_at_or_below_u(self, case):
        cum, pos, u = case
        np.testing.assert_array_equal(_search(_padded(cum), pos, u), _prefix_counts(cum, pos, u))

    def test_invert_edge_widths(self):
        for width in (1, 2, 3, 4, 5, 31, 32, 33, 1024, 1025):
            cum = _row_cdfs(np.ones((2, width)))
            u = np.concatenate([[0.0], cum[0, :-1], [np.nextafter(1.0, 0.0)]])
            pos = np.arange(u.size) % 2
            np.testing.assert_array_equal(_search(_padded(cum), pos, u), _prefix_counts(cum, pos, u))

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

    def test_non_integer_seed_refused(self, ped_query):
        for seed in (1.5, "1"):
            want = re.escape(f"seed {seed!r} is not an integer")
            with pytest.raises(ValueError, match=want):
                PosteriorSampler(ped_query, seed=seed)
            with pytest.raises(ValueError, match=want):
                sample_posterior(ped_query, seed=seed, count=3)
        # an integer type keeps its stream
        np.testing.assert_array_equal(PosteriorSampler(ped_query, seed=np.int64(7)).sample(5),
                                      PosteriorSampler(ped_query, seed=7).sample(5))

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

        # sample_hmm_path reads the hmm module's sweep when called
        monkeypatch.setattr("beliefprop.hmm.forward_backward", no_sweep)
        with pytest.raises(ValueError, match="count must be non-negative"):
            sample_hmm_path(spec, y, count=-1)

    def test_fractional_count_refused(self, setup):
        spec, y, _ = setup
        with pytest.raises(ValueError, match=r"count 2\.5 is not an integer"):
            sample_hmm_path(spec, y, count=2.5)

    def test_non_integer_seed_refused(self, setup):
        spec, y, _ = setup
        with pytest.raises(ValueError, match=r"seed 1\.5 is not an integer"):
            sample_hmm_path(spec, y, seed=1.5, count=3)
        np.testing.assert_array_equal(sample_hmm_path(spec, y, seed=np.int64(4), count=3),
                                      sample_hmm_path(spec, y, seed=4, count=3))

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


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# a zero in every row of the transition matrix and in the initial row
ZERO_ENTRY = hmm.HmmSpec(("a", "b", "c"), (0.5, 0.5, 0.0),
                         ((0.0, 0.6, 0.4), (0.3, 0.0, 0.7), (0.2, 0.2, 0.6)), (0.7, 2.0, 6.0), 60)
PINNED_CHAINS = [(hmm.precipitation_spec(n), [i * i % 7 for i in range(n)]) for n in (1, 2, 200)]
PINNED_CHAINS.append((ZERO_ENTRY, [i * 5 % 9 for i in range(60)]))


# a start that may not be c, a state with no way out, and zeros elsewhere
FOUR_STATES = hmm.HmmSpec(("a", "b", "c", "d"), (0.4, 0.3, 0.0, 0.3),
                          ((0.7, 0.1, 0.1, 0.1), (0.0, 0.5, 0.5, 0.0), (0.2, 0.2, 0.3, 0.3),
                           (0.0, 0.0, 0.0, 1.0)), (0.5, 2.0, 4.0, 9.0), 80)
RAIN200 = hmm.precipitation_spec(200)
PATH_CASES = {
    "rain200": (RAIN200, hmm.simulate(RAIN200, 7)[1], 100),
    "zero_entry": (ZERO_ENTRY, [i * 5 % 9 for i in range(60)], 100),
    "four_states": (FOUR_STATES, [i * 7 % 11 for i in range(80)], 100),
    "rain200_blocks": (RAIN200, hmm.simulate(RAIN200, 8)[1], 1000),
}


class TestDrawStreamPinned:
    """Pinned draw streams: the stacked conditionals and the shared CDF
    search draw exactly what a walk building each step's CDFs draws."""

    # blocks of one step each, of a few steps, and of the whole chain
    @pytest.mark.parametrize("chunk", [1, 20, 1 << 16])
    def test_hmm_paths(self, chunk, monkeypatch):
        monkeypatch.setattr("beliefprop.sampling._CHUNK", chunk)
        draws = [sample_hmm_path(spec, y, direction, seed=spec.horizon + count, count=count)
                 for spec, y in PINNED_CHAINS
                 for direction in ("forward", "backward") for count in (0, 1, 100)]
        assert _digest(draws) == "017508abef471ba3edc72b52ee7804d9116f7e27e7a86f44e2bbe832653ed12f"

    # digests of the walk that searched each step's CDF rows, so they pin
    # the outcome-table walk to it: the 200-step demo chain; the 3-state
    # chain with zeros; a chain one state too large for outcome tables,
    # which searches each step; and 1000 paths, whose outcome tables take
    # the 199 steps in several blocks
    @pytest.mark.parametrize("case, digest", [
        ("rain200", "f7b15958c1d0fc6aa2de5a9a85f18bb16eee691f436ada48cc66603073e30012"),
        ("zero_entry", "c949dbe109a603e94d8ce0c001f17f4aa572c320cf69da4544d1185f94acac2a"),
        ("four_states", "8d4ee42701481cd50ff0d4f775fac1cca04a9879c0dd14f3ee238638e19030cd"),
        ("rain200_blocks", "195aa02d44a1a6b4d21ce253a14392f648fb07f7d77c7b4a7105d3703579ff0c"),
    ])
    def test_outcome_walk_draws_the_searched_walk(self, case, digest, monkeypatch):
        spec, y, count = PATH_CASES[case]
        blocks, searches = [], []
        transitions = hmm._transitions
        search = sampling._search
        monkeypatch.setattr("beliefprop.hmm._transitions",
                            lambda *args: blocks.append(args[2:]) or transitions(*args))
        monkeypatch.setattr("beliefprop.sampling._search",
                            lambda *args: searches.append(1) or search(*args))
        draws = [sample_hmm_path(spec, y, d, seed=spec.horizon + count, count=count)
                 for d in ("forward", "backward")]
        assert _digest(draws) == digest
        small = spec.n_states <= hmm.SCAN_STATES
        # outcome tables search only for the first state, blocks walk in order
        assert len(searches) == (2 if small else 2 * spec.horizon)
        # 163 steps of 100 two-state paths fill a block, 16 of 1000 paths
        per_walk = {"rain200": 2, "zero_entry": 1, "four_states": 1, "rain200_blocks": 13}
        assert len(blocks) == 2 * per_walk[case]
        firsts = [lo for lo, _ in blocks[:len(blocks) // 2]]
        assert firsts == sorted(firsts) and blocks[len(blocks) // 2:] == blocks[:len(blocks) // 2][::-1]

    @pytest.mark.parametrize("case", range(len(PINNED_CHAINS)))
    def test_each_step_is_the_per_step_formula(self, case):
        spec, y = PINNED_CHAINS[case]
        fb = hmm.forward_backward(spec, y)
        stacks = [hmm._transitions(fb, d, 1, spec.horizon) for d in ("forward", "backward")]
        assert stacks[0].shape == (spec.horizon - 1, spec.n_states, spec.n_states)
        for i in range(1, spec.horizon):
            with np.errstate(over="ignore"):
                fwd = hmm._normalized(fb.log_transition + (fb.log_emissions[i] + fb.log_backward[i]))
                bwd = hmm._normalized((fb.log_forward[i - 1][:, None] + fb.log_transition).T)
            assert hmm.forward_transition(fb, i).tobytes() == fwd.tobytes()
            assert hmm.backward_transition(fb, i).tobytes() == bwd.tobytes()
            # one CDF call on the stack gives each step's CDFs bit for bit
            for stack, step in zip(stacks, (fwd, bwd)):
                assert stack[i - 1].tobytes() == step.tobytes()
                assert _row_cdfs(stack)[i - 1].tobytes() == _row_cdfs(step).tobytes()

    def test_steps_outside_the_chain_refused(self):
        spec, y = PINNED_CHAINS[2]
        fb = hmm.forward_backward(spec, y)
        for i in (0, -1, spec.horizon):
            for transition in (hmm.forward_transition, hmm.backward_transition):
                with pytest.raises(IndexError, match=f"no transition at steps {i}..{i} "):
                    transition(fb, i)
        # a step follows the one integer rule: 1.9 is not step 1
        for i in (1.5, 2.0, np.float64(1.0), np.True_, "1", None):
            for transition in (hmm.forward_transition, hmm.backward_transition):
                with pytest.raises(ValueError, match=re.escape(f"step {i!r} is not an integer")):
                    transition(fb, i)
        for transition in (hmm.forward_transition, hmm.backward_transition):
            assert np.array_equal(transition(fb, np.int64(2)), transition(fb, 2))

    @pytest.mark.parametrize("k, horizon", [(100, 40), (300, 5)])
    def test_many_states_build_bounded_blocks(self, k, horizon, monkeypatch):
        # horizon x k fits the cap easily, but one stack over all steps
        # would hold (horizon - 1) k^2 entries; blocks keep each stack to
        # _CHUNK entries, or to one step when a step alone needs more
        rates = tuple(0.5 + 0.1 * s for s in range(k))
        spec = hmm.HmmSpec(tuple(map(str, range(k))), (1 / k,) * k,
                           ((1 / k,) * k,) * k, rates, horizon)
        y = [i % 9 for i in range(horizon)]
        built, transitions = [], hmm._transitions

        def recording(fb, direction, lo, hi):
            built.append(hi - lo)
            return transitions(fb, direction, lo, hi)

        monkeypatch.setattr("beliefprop.hmm._transitions", recording)
        for direction in ("forward", "backward"):
            built.clear()
            paths = sample_hmm_path(spec, y, direction, seed=4, count=50)
            assert sum(built) == horizon - 1 and len(built) > 1
            assert max(built) * k * k <= max(_CHUNK, k * k)
            with monkeypatch.context() as m:
                m.setattr("beliefprop.sampling._CHUNK", 1 << 30)  # one block
                whole = sample_hmm_path(spec, y, direction, seed=4, count=50)
            assert paths.tobytes() == whole.tobytes()

    def test_posterior_sampler(self, ped_net, ped_ev, ped_jtree):
        draws = []
        for ev in (None, ped_ev):
            for root in range(ped_jtree.q):
                cq = CompiledQuery(ped_net, ev, jtree=ped_jtree, root=root)
                cq.inward()
                draws += [PosteriorSampler(cq, seed=root + count).sample(count)
                          for count in (0, 1, 100)]
                sampler = PosteriorSampler(cq, seed=5, targets=[0, 3, 7])
                draws += [sampler.sample(30), sampler.sample(70)]
        assert _digest(draws) == "9892f0a5bfe824d1e16b81c84ab522daa1004ed67671f1eb3d7fe913038ec3f4"

    def test_map_and_draws_on_pedigree_and_banded_networks(self):
        # MAP (key order and value) and whole and target draws on the pedigree
        # at every root and on 20 banded networks at the wide benchmark's size,
        # pinned before the traceback and the sampler formed separator rows only
        h = hashlib.sha256()

        def add(cq, seed):
            assignment, value = cq.map_assignment()
            h.update(repr((list(assignment.items()), value.hex())).encode())
            for targets, count in ((None, 200), ([3, 5], 57)):
                draws = PosteriorSampler(cq, seed=seed, targets=targets).sample(count)
                h.update(repr(draws.shape).encode() + draws.astype(np.int64).tobytes())

        net = pedigree_network()
        for ev in (EvidenceSet.none(), pedigree_evidence()):
            for root in range(CompiledQuery(net, ev).jtree.q):
                add(CompiledQuery(net, ev, root=root).propagate(), root)
        rng = np.random.default_rng(20261020)
        for k in range(20):
            net = banded_network(rng)
            observed = rng.choice(30, size=5, replace=False)
            allowed = {int(u): {int(rng.integers(3))} for u in observed}
            allowed[int(rng.integers(30))] = {0, 2}
            ev = EvidenceSet(allowed)
            q = CompiledQuery(net, ev).jtree.q
            add(CompiledQuery(net, ev, root=int(rng.integers(q))).propagate(), k)
        assert h.hexdigest() == "fb0f276ce11a52959dc6629c4c03204d3d9d0ecd0bcdce7e3ee0f4f79d3b97f4"
