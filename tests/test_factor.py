import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefprop.factor import Factor, FactorSizeError, product


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
        assert f.cards == {1: 2, 4: 3}


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
        # cap check runs before any allocation, so huge unions fail fast
        a = F(range(14), np.ones((2,) * 14))
        b = F(range(13, 27), np.ones((2,) * 14))
        with pytest.raises(FactorSizeError):
            a.multiply(b)
        c = F([0, 1], np.ones((2, 2)))
        d = F([1, 2], np.ones((2, 2)))
        with pytest.raises(FactorSizeError):
            c.multiply(d, max_scope=2)
        assert c.multiply(d, max_scope=3).scope == (0, 1, 2)


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


def test_product_empty_is_unit():
    out = product([])
    assert out.scope == () and out.linear() == 1.0


def test_product_of_three():
    fs = [F([0], [1, 2]), F([1], [3, 4]), F([0, 1], [[1, 1], [1, 0.5]])]
    out = product(fs)
    assert out.linear()[1, 1] == pytest.approx(2 * 4 * 0.5)


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
