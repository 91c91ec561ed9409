import numpy as np
import pytest
from helpers import (
    FOUNDER,
    MENDEL,
    pedigree_evidence,
    pedigree_network,
    round_based_topological_order,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from beliefprop.model import (
    Cpd,
    DiscreteNetwork,
    EvidenceSet,
    Variable,
    validate_network,
)


def two_var_net(table_b=None):
    """A -> B, both binary."""
    if table_b is None:
        table_b = [[0.9, 0.1], [0.2, 0.8]]
    return DiscreteNetwork(
        [Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1"))],
        [Cpd(0, (), np.array([[0.5, 0.5]])), Cpd(1, (0,), np.array(table_b))],
    )


class TestNetworkBasics:
    def test_lookup(self):
        net = pedigree_network()
        assert net.by_name("X7").id == 6
        assert net.card(0) == 3
        assert net.parents(9) == (6, 8)
        assert net.family(8) == frozenset({3, 5, 8})

    def test_topological_order_respects_parenthood(self):
        net = pedigree_network()
        order = net.topological_order()
        pos = {u: i for i, u in enumerate(order)}
        for u in net.ids:
            for p in net.parents(u):
                assert pos[p] < pos[u]

    def test_topological_order_with_unsorted_ids(self):
        # child id lower than its parent's
        net = DiscreteNetwork(
            [Variable(0, "child", ("x", "y")), Variable(1, "root", ("x", "y"))],
            [Cpd(1, (), np.array([[0.3, 0.7]])),
             Cpd(0, (1,), np.array([[0.5, 0.5], [0.1, 0.9]]))],
        )
        assert net.topological_order() == [1, 0]

    def test_cycle_detected(self):
        net = DiscreteNetwork(
            [Variable(0, "A", ("x", "y")), Variable(1, "B", ("x", "y"))],
            [Cpd(0, (1,), np.array([[0.5, 0.5], [0.5, 0.5]])),
             Cpd(1, (0,), np.array([[0.5, 0.5], [0.5, 0.5]]))],
        )
        with pytest.raises(ValueError, match="cycle"):
            net.topological_order()

    def test_cards_are_read_only(self):
        net = pedigree_network()
        assert net.cards == {u: 3 for u in range(10)}
        with pytest.raises(TypeError):
            net.cards[0] = 5

    def test_cards_last_duplicate_wins(self):
        net = DiscreteNetwork(
            [Variable(0, "A", ("x", "y")), Variable(0, "B", ("x", "y", "z"))], []
        )
        assert net.cards[0] == 3


@st.composite
def parent_graphs(draw, defects: bool):
    """A network whose structure is all that matters: distinct, unsorted
    ids with parents drawn from earlier positions, plus (with defects)
    extra parent links that may close cycles, point at the variable
    itself or name an unknown id (99)."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
    parents = {
        u: draw(st.lists(st.sampled_from(ids[:pos]), max_size=3)) if pos else []
        for pos, u in enumerate(ids)
    }
    if defects:
        for child, p in draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids + [99])),
            min_size=1, max_size=3,
        )):
            parents[child].append(p)
    order = draw(st.permutations(ids))
    return DiscreteNetwork(
        [Variable(u, f"V{u}", ("x",)) for u in order],
        [Cpd(u, tuple(parents[u]), np.ones((1, 1))) for u in order],
    )


def topological_outcome(order_fn, net):
    try:
        return order_fn(net)
    except ValueError as exc:
        return str(exc)


class TestTopologicalOrderAgainstReference:
    @seed(20240118)
    @settings(max_examples=300, deadline=None)
    @given(parent_graphs(defects=False))
    def test_dags_give_identical_order(self, net):
        assert net.topological_order() == round_based_topological_order(net)

    @seed(20240119)
    @settings(max_examples=300, deadline=None)
    @given(parent_graphs(defects=True))
    def test_defective_graphs_give_identical_outcome(self, net):
        assert topological_outcome(DiscreteNetwork.topological_order, net) == \
            topological_outcome(round_based_topological_order, net)

    @pytest.mark.parametrize(
        "parents, stuck",
        [
            ({5: (), 3: (5,), 8: (3, 8)}, [8]),     # self-parent
            ({5: (), 3: (5, 99), 8: (3,)}, [3, 8]),  # dangling parent and its child
            ({5: (8,), 3: (5,), 8: (3,), 1: ()}, [3, 5, 8]),
        ],
    )
    def test_defect_message(self, parents, stuck):
        net = DiscreteNetwork(
            [Variable(u, f"V{u}", ("x",)) for u in parents],
            [Cpd(u, ps, np.ones((1, 1))) for u, ps in parents.items()],
        )
        with pytest.raises(ValueError) as exc:
            net.topological_order()
        assert str(exc.value) == f"cycle among variables {stuck}"
        assert str(exc.value) == topological_outcome(round_based_topological_order, net)


class TestCpdFactor:
    def test_scope_ascends_regardless_of_parent_order(self):
        # parents listed as (2, 1): rows iterate X2-major, X1-fastest
        table = np.arange(8.0).reshape(4, 2)
        table = table / table.sum(axis=1, keepdims=True)
        net = DiscreteNetwork(
            [Variable(0, "C", ("u", "v")), Variable(1, "P1", ("u", "v")),
             Variable(2, "P2", ("u", "v"))],
            [Cpd(0, (2, 1), table),
             Cpd(1, (), np.array([[0.5, 0.5]])),
             Cpd(2, (), np.array([[0.5, 0.5]]))],
        )
        f = net.cpd_factor(0)
        assert f.scope == (0, 1, 2)
        # row index in the table is 2*state(P2) + state(P1)
        for s2 in range(2):
            for s1 in range(2):
                for c in range(2):
                    assert f.linear()[c, s1, s2] == table[2 * s2 + s1, c]

    def test_root_factor_is_prior(self):
        net = pedigree_network()
        f = net.cpd_factor(0)
        assert f.scope == (0,)
        np.testing.assert_array_equal(f.linear(), FOUNDER)

    def test_child_factor_rows(self):
        net = pedigree_network()
        f = net.cpd_factor(2)  # X3 | X1, X2
        assert f.scope == (0, 1, 2)
        # f[x1, x2, x3] = MENDEL[3*x1 + x2, x3]
        for a in range(3):
            for b in range(3):
                np.testing.assert_array_equal(f.linear()[a, b, :], MENDEL[3 * a + b])


class TestValidation:
    def test_pedigree_is_valid(self):
        report = validate_network(pedigree_network())
        assert report.ok
        assert report.lines() == []

    @pytest.mark.parametrize(
        "kind,variables,cpds",
        [
            ("duplicate-id",
             [Variable(0, "A", ("x",)), Variable(0, "B", ("x",))],
             [Cpd(0, (), np.array([[1.0]]))]),
            ("empty-domain",
             [Variable(0, "A", ())],
             [Cpd(0, (), np.ones((1, 0)))]),
            ("duplicate-state",
             [Variable(0, "A", ("x", "x"))],
             [Cpd(0, (), np.array([[0.5, 0.5]]))]),
            ("duplicate-name",
             [Variable(0, "A", ("x",)), Variable(1, "A", ("x",))],
             [Cpd(0, (), np.array([[1.0]])), Cpd(1, (), np.array([[1.0]]))]),
            ("missing-cpd",
             [Variable(0, "A", ("x", "y"))],
             []),
            ("extra-cpd",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (), np.array([[0.5, 0.5]])), Cpd(0, (), np.array([[0.5, 0.5]]))]),
            ("unknown-child",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (), np.array([[0.5, 0.5]])), Cpd(7, (), np.array([[1.0]]))]),
            ("duplicate-parent",
             [Variable(0, "A", ("x", "y")), Variable(1, "B", ("x", "y"))],
             [Cpd(0, (), np.array([[0.5, 0.5]])),
              Cpd(1, (0, 0), np.ones((4, 2)) / 2)]),
            ("self-parent",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (0,), np.ones((2, 2)) / 2)]),
            ("dangling-parent",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (9,), np.ones((2, 2)) / 2)]),
            ("bad-shape",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (), np.array([[0.5, 0.5], [0.5, 0.5]]))]),
            ("bad-prob",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (), np.array([[1.5, -0.5]]))]),
            ("bad-row-sum",
             [Variable(0, "A", ("x", "y"))],
             [Cpd(0, (), np.array([[0.5, 0.6]]))]),
            ("cycle",
             [Variable(0, "A", ("x", "y")), Variable(1, "B", ("x", "y"))],
             [Cpd(0, (1,), np.ones((2, 2)) / 2), Cpd(1, (0,), np.ones((2, 2)) / 2)]),
            # NaN, +-inf and a lone out-of-range entry
            *(("bad-prob",
               [Variable(0, "A", ("x", "y"))],
               [Cpd(0, (), np.array([row]))])
              for row in ([np.nan, 0.5], [np.inf, 0.0], [-np.inf, 1.0],
                          [-0.1, 1.0], [1.5, 0.0])),
        ],
    )
    def test_defect_reported(self, kind, variables, cpds):
        report = validate_network(DiscreteNetwork(variables, cpds))
        assert not report.ok
        assert kind in {v.kind for v in report.violations}

    def test_row_sum_tolerance(self):
        # 1e-10 off is inside tolerance, 1e-8 is not
        ok = two_var_net([[0.9 + 1e-10, 0.1], [0.2, 0.8]])
        assert validate_network(ok).ok
        bad = two_var_net([[0.9 + 1e-8, 0.1], [0.2, 0.8]])
        assert not validate_network(bad).ok


class TestEvidence:
    def test_from_labels_names_and_shorthand(self):
        net = pedigree_network()
        ev = EvidenceSet.from_labels(net, {"X2": "DD", "X7": ["dd", "dD"]})
        assert ev.allowed[1] == frozenset({2})
        assert ev.allowed[6] == frozenset({0, 1})

    def test_from_labels_accepts_ids(self):
        net = pedigree_network()
        ev = EvidenceSet.from_labels(net, {1: "DD"})
        assert ev.allowed[1] == frozenset({2})

    def test_unknown_variable_named(self):
        net = pedigree_network()
        with pytest.raises(KeyError, match="X99"):
            EvidenceSet.from_labels(net, {"X99": "DD"})

    def test_unknown_state_named(self):
        net = pedigree_network()
        with pytest.raises(KeyError, match="Dd"):
            EvidenceSet.from_labels(net, {"X2": "Dd"})

    def test_unknown_variable_id_named(self):
        with pytest.raises(KeyError, match="unknown variable id 99"):
            EvidenceSet.from_labels(pedigree_network(), {99: "DD"})

    def test_fractional_ids_and_states_refused(self):
        # truncating would observe X2 = DD
        with pytest.raises(ValueError, match=r"state of variable 1 2\.7 is not an integer"):
            EvidenceSet({1: {2.7}})
        with pytest.raises(ValueError, match=r"evidence variable id 1\.9 is not an integer"):
            EvidenceSet({1.9: {2.7}})
        with pytest.raises(ValueError, match=r"evidence variable id 1\.9 is not an integer"):
            EvidenceSet.from_labels(pedigree_network(), {1.9: "DD"})

    def test_numpy_integer_ids_accepted(self):
        assert EvidenceSet({np.int64(1): {np.int64(2)}}).allowed == {1: frozenset({2})}
        ev = EvidenceSet.from_labels(pedigree_network(), {np.int64(1): "DD"})
        assert ev.allowed == {1: frozenset({2})}

    @pytest.mark.parametrize("value", [{"dd": 5, "DD": 1}, {"dd", "DD"}, 5, None])
    def test_value_not_a_label_or_list_is_type_error(self, value):
        # iterating a dict would take its keys as labels
        with pytest.raises(TypeError, match="'X1'"):
            EvidenceSet.from_labels(pedigree_network(), {"X1": value})

    def test_permits_and_restricts(self):
        ev = pedigree_evidence()
        assert ev.restricts(6) and not ev.restricts(0)
        assert ev.permits(6, 0) and ev.permits(6, 1) and not ev.permits(6, 2)
        assert ev.permits(0, 2)  # unrestricted variable permits everything

    def test_none(self):
        ev = EvidenceSet.none()
        assert not ev.restricts(0)
        assert ev.allowed == {}
