import math

import numpy as np
import pytest
from helpers import pedigree_network
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop.factor import (
    MAX_TABLE_ENTRIES,
    Factor,
    FactorSizeError,
    check_table_size,
    product,
)
from beliefprop.propagation import compile_query
from beliefprop.sampling import cluster_conditional, sample_posterior


def F(scope, values, log_scale=0.0):
    return Factor(tuple(scope), np.asarray(values, dtype=float), log_scale)


class TestConstruction:
    def test_scalar(self):
        u = Factor.unit()
        assert u.scope == ()
        assert u.linear() == 1.0

    def test_scope_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            F([2, 1], np.ones((2, 2)))
        with pytest.raises(ValueError, match="ascending"):
            F([1, 1], np.ones((2, 2)))

    def test_shape_scope_mismatch(self):
        with pytest.raises(ValueError, match="axes"):
            F([0], np.ones((2, 2)))

    def test_rejects_negative_nan_inf(self):
        with pytest.raises(ValueError):
            F([0], [-0.1, 1.0])
        with pytest.raises(ValueError):
            F([0], [float("nan"), 1.0])
        with pytest.raises(ValueError):
            F([0], [float("inf"), 1.0])
        with pytest.raises(ValueError):
            F([0], [0.5, 0.5], log_scale=float("inf"))

    def test_values_frozen(self):
        f = F([0], [0.2, 0.8])
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_cards(self):
        f = F([1, 4], np.ones((2, 3)))
        assert f.card(1) == 2 and f.card(4) == 3


class TestMultiply:
    def test_overlapping_scopes(self):
        a = F([0, 1], [[1, 2], [3, 4]])
        b = F([1, 2], [[10, 20], [30, 40]])
        out = a * b
        assert out.scope == (0, 1, 2)
        # out[x0, x1, x2] = a[x0, x1] * b[x1, x2]
        assert out.linear()[1, 0, 1] == 3 * 20
        assert out.linear()[0, 1, 0] == 2 * 30

    def test_scales_add(self):
        a = F([0], [1, 1], log_scale=-2.0)
        b = F([0], [1, 1], log_scale=-3.0)
        assert (a * b).log_scale == -5.0

    def test_scalar_identity(self):
        a = F([0, 2], np.arange(6.0).reshape(2, 3))
        out = a * Factor.unit()
        np.testing.assert_array_equal(out.linear(), a.linear())

    def test_cardinality_mismatch(self):
        a = F([0], [1, 1])
        b = F([0], [1, 1, 1])
        with pytest.raises(ValueError, match="variable 0"):
            a * b

    def test_scope_cap(self):
        # the entry check runs before any allocation, so huge products fail fast
        a = F(range(14), np.ones((2,) * 14))
        b = F(range(13, 27), np.ones((2,) * 14))
        with pytest.raises(
            FactorSizeError,
            match=f"product table has {1 << 27} entries, cap is {MAX_TABLE_ENTRIES}",
        ):
            a.multiply(b)
        # 16 ternary variables: under 25 variables, over 2^25 entries
        c = F(range(8), np.ones((3,) * 8))
        d = F(range(8, 16), np.ones((3,) * 8))
        with pytest.raises(FactorSizeError, match=f"has {3 ** 16} entries"):
            product([c, d])
        assert c.multiply(F([7, 8], np.ones((3, 3)))).scope == tuple(range(9))


class TestCheckTableSize:
    def test_cap_is_inclusive(self):
        assert MAX_TABLE_ENTRIES == 1 << 25
        check_table_size((2,) * 25, "t")
        with pytest.raises(FactorSizeError, match=f"^t has {1 << 26} entries"):
            check_table_size((2,) * 26, "t")

    def test_scalar_and_empty_axis_pass(self):
        check_table_size((), "t")
        check_table_size((0, 1 << 40), "t")

    def test_counts_in_python_ints(self):
        # int64 would wrap 2^40 * 2^40 to 0; the count must stay exact
        with pytest.raises(FactorSizeError, match=f"has {1 << 80} entries"):
            check_table_size((1 << 40, 1 << 40), "t")


class TestMarginalize:
    def test_sum(self):
        f = F([0, 1], [[1, 2], [3, 4]])
        out = f.marginalize_sum([1])
        assert out.scope == (0,)
        np.testing.assert_array_equal(out.linear(), [3, 7])

    def test_max(self):
        f = F([0, 1], [[1, 5], [3, 4]])
        out = f.marginalize_max([0])
        np.testing.assert_array_equal(out.linear(), [3, 5])

    def test_to_scalar(self):
        f = F([0, 1], [[1, 2], [3, 4]])
        assert f.marginalize_sum([0, 1]).linear() == 10.0

    def test_unknown_variable(self):
        f = F([0], [1, 1])
        with pytest.raises(ValueError, match="not in scope"):
            f.marginalize_sum([3])


class TestRestrict:
    def test_zeroes_disallowed(self):
        f = F([0, 1], np.ones((2, 3)))
        out = f.restrict({1: [0, 2]})
        np.testing.assert_array_equal(out.linear(), [[1, 0, 1], [1, 0, 1]])

    def test_ignores_out_of_scope_entries(self):
        f = F([0], [1, 1])
        out = f.restrict({5: [0]})
        assert out is f

    def test_out_of_range_state(self):
        f = F([0], [1, 1])
        with pytest.raises(ValueError, match="out of range"):
            f.restrict({0: [2]})

    def test_idempotent(self):
        f = F([0, 1], np.arange(6.0).reshape(2, 3))
        once = f.restrict({0: [1]})
        twice = once.restrict({0: [1]})
        np.testing.assert_array_equal(once.linear(), twice.linear())


class TestNormalizeScale:
    def test_total_log_mass(self):
        assert F([0], [0, 0]).total_log_mass() == float("-inf")
        assert F([0], [1, 1], log_scale=-1.0).total_log_mass() == pytest.approx(
            math.log(2) - 1.0
        )

    def test_rescaled_unit_max_preserves_linear(self):
        f = F([0, 1], [[0.002, 0.004], [0.001, 0.0]])
        out = f.rescaled_unit_max()
        assert out.values.max() == 1.0
        np.testing.assert_allclose(out.linear(), f.linear(), rtol=1e-15)

    def test_rescaled_zero_factor_unchanged(self):
        f = F([0], [0, 0])
        assert f.rescaled_unit_max() is f


class TestExpand:
    def test_broadcast(self):
        f = F([1], [2, 3])
        out = f.expand([0, 1], {0: 2, 1: 2})
        assert out.scope == (0, 1)
        np.testing.assert_array_equal(out.linear(), [[2, 3], [2, 3]])

    def test_not_superset(self):
        f = F([0, 1], np.ones((2, 2)))
        with pytest.raises(ValueError, match="does not contain"):
            f.expand([0], {0: 2})

    def test_duplicated_target_id(self):
        f = F([1], [2, 3])
        with pytest.raises(ValueError, match="ascending"):
            f.expand([0, 0, 1], {0: 2, 1: 2})


class TestOverflow:
    # the algebra builds its results unchecked except where valid
    # operands can leave double range: products and sums
    def test_product_overflow(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            F([0], [1e200]) * F([0], [1e200])

    def test_sum_overflow(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            F([0], [1e308, 1e308]).marginalize_sum([0])

    def test_log_scale_overflow(self):
        with pytest.raises(ValueError, match="log_scale"):
            F([0], [1.0], log_scale=1e308) * F([0], [1.0], log_scale=1e308)


def test_product_empty_is_unit():
    out = product([])
    assert out.scope == () and out.linear() == 1.0


def test_product_starts_from_its_first_factor():
    # no unit multiply in front: a single factor comes back as it is
    f = F([0, 1], [[1, 2], [3, 4]], log_scale=0.5)
    assert product([f]) is f
    assert product(iter([f, F([1], [2, 3])])).log_scale == 0.5


def test_product_of_three():
    fs = [F([0], [1, 2]), F([1], [3, 4]), F([0, 1], [[1, 1], [1, 0.5]])]
    out = product(fs)
    assert out.linear()[1, 1] == pytest.approx(2 * 4 * 0.5)


def test_only_outside_factors_are_validated(monkeypatch, ped_ev):
    # the CPDs are checked once, by the network's kept validate_network
    # report, and the plan lays them out as read-only views: no CPD enters
    # Factor on the query path, every table the queries derive is built by
    # the algebra without a re-check, and the whole-separator readouts
    # read the same views
    validated = []
    check = Factor.__post_init__

    def counted(self):
        validated.append(self.scope)
        check(self)

    monkeypatch.setattr(Factor, "__post_init__", counted)
    ped_net = pedigree_network()  # its own: nothing is laid out for it yet
    cq = compile_query(ped_net, ped_ev)
    cq.posterior_table()
    cq.map_assignment()
    sample_posterior(cq, count=10)
    i, j = cq.jtree.edges[0]
    cq.message(i, j)
    cq.edge_marginal(i, j)
    cluster_conditional(cq, cq.root, {})
    assert validated == []


# -- randomized algebra laws ------------------------------------------------

small_tables = st.integers(min_value=0, max_value=2 ** 12 - 1)


def table_from_seed(seed: int, scope, shape):
    rng = np.random.default_rng(seed)
    return Factor(scope, rng.random(shape) + 0.01)


@settings(max_examples=60, deadline=None)
@given(small_tables, small_tables)
def test_multiply_commutes(seed_a, seed_b):
    a = table_from_seed(seed_a, (0, 1), (2, 3))
    b = table_from_seed(seed_b, (1, 2), (3, 2))
    left = (a * b).linear()
    right = (b * a).linear()
    np.testing.assert_allclose(left, right, rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(small_tables, small_tables, small_tables)
def test_multiply_associates(sa, sb, sc):
    a = table_from_seed(sa, (0,), (2,))
    b = table_from_seed(sb, (0, 1), (2, 2))
    c = table_from_seed(sc, (1, 2), (2, 2))
    left = ((a * b) * c).linear()
    right = (a * (b * c)).linear()
    np.testing.assert_allclose(left, right, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(small_tables)
def test_marginalization_order_irrelevant(seed):
    f = table_from_seed(seed, (0, 1, 2), (2, 3, 2))
    one = f.marginalize_sum([0]).marginalize_sum([2])
    other = f.marginalize_sum([2]).marginalize_sum([0])
    np.testing.assert_allclose(one.linear(), other.linear(), rtol=1e-14)
    both = f.marginalize_sum([0, 2])
    np.testing.assert_allclose(one.linear(), both.linear(), rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(small_tables)
def test_sum_then_max_bounds(seed):
    # max marginal never exceeds sum marginal for non-negative tables
    f = table_from_seed(seed, (0, 1), (3, 4))
    mx = f.marginalize_max([1]).linear()
    sm = f.marginalize_sum([1]).linear()
    assert np.all(mx <= sm + 1e-15)


@settings(max_examples=40, deadline=None)
@given(small_tables)
def test_distributivity_of_sum_over_product(seed):
    # (sum over x2 of a*b) == a * (sum over x2 of b) when a lacks x2
    a = table_from_seed(seed, (0,), (2,))
    b = table_from_seed(seed + 1, (0, 2), (2, 3))
    left = (a * b).marginalize_sum([2]).linear()
    right = (a * b.marginalize_sum([2])).linear()
    np.testing.assert_allclose(left, right, rtol=1e-14)


# -- results hold the invariants by construction ----------------------------

CARDS = {0: 2, 1: 3, 2: 1, 3: 2, 4: 4}


@st.composite
def factors(draw):
    scope = tuple(sorted(draw(st.sets(st.sampled_from(tuple(CARDS)), max_size=3))))
    shape = tuple(CARDS[u] for u in scope)
    size = math.prod(shape)
    entries = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                            min_size=size, max_size=size))
    log_scale = draw(st.floats(-700.0, 700.0))
    values = np.array(entries, dtype=float).reshape(shape)
    if values.ndim > 1 and draw(st.booleans()):
        values = np.asfortranarray(values)
    return Factor(scope, values, log_scale)


def subset(data, items):
    return data.draw(st.sets(st.sampled_from(tuple(items)))) if items else set()


def assert_invariants(f):
    assert type(f.scope) is tuple and all(type(u) is int for u in f.scope)
    assert list(f.scope) == sorted(set(f.scope))
    values = f.values
    assert values.dtype == np.float64
    assert values.flags.c_contiguous and not values.flags.writeable
    assert values.ndim == len(f.scope)
    assert np.all(np.isfinite(values)) and not np.any(values < 0)
    assert type(f.log_scale) is float and math.isfinite(f.log_scale)
    checked = Factor(f.scope, f.values, f.log_scale)
    assert checked.scope == f.scope and checked.log_scale == f.log_scale
    assert checked.values.shape == values.shape
    assert checked.values.tobytes() == values.tobytes()


@seed(20240520)
@settings(max_examples=150, deadline=None)
@given(factors(), factors(), factors(), st.data())
def test_algebra_results_hold_invariants(a, b, c, data):
    allowed = {
        u: data.draw(st.sets(st.integers(0, CARDS[u] - 1)))
        for u in subset(data, CARDS)
    }
    results = [
        a.multiply(b),
        a.marginalize_sum(subset(data, a.scope)),
        a.marginalize_max(subset(data, a.scope)),
        a.marginalize_sum(a.scope),
        a.restrict(allowed),
        a.expand(set(a.scope) | subset(data, CARDS), CARDS),
        a.rescaled_unit_max(),
        product([a, b, c]),
        product([]),
    ]
    for f in results:
        assert_invariants(f)
