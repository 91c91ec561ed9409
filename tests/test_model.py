import re

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

from beliefprop import hmm
from beliefprop.model import (
    Cpd,
    DiscreteNetwork,
    EvidenceSet,
    InvalidNetworkError,
    Variable,
    build_potentials,
    validate_network,
)
from beliefprop.jtree import build_junction_tree
from beliefprop.propagation import CompiledQuery


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

    def test_network_is_read_only(self):
        # its report, tree and compile plans are kept on it, so nothing may change it
        net = pedigree_network()
        for name in ("variables", "cpds", "_by_id", "_report", "extra"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(net, name, ())
        with pytest.raises(AttributeError, match="read-only"):
            del net.cpds
        for lookup in (net._by_id, net._by_name, net._cpd_by_child, net.cards):
            with pytest.raises(TypeError):
                lookup[0] = None
        assert len(net.variables) == len(net.cpds) == 10

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

    def test_missing_cpd_is_a_typed_error_past_the_check(self):
        # only A has a CPD: building a tree reads B's parents, with or without the check
        net = DiscreteNetwork([Variable(0, "A", ("a0", "a1")), Variable(1, "B", ("b0", "b1"))],
                              [Cpd(0, (), np.array([[0.5, 0.5]]))])
        report = validate_network(net)
        for build in (lambda: build_junction_tree(net),
                      lambda: CompiledQuery(net, validate=False),
                      lambda: CompiledQuery(net, validate=True)):
            with pytest.raises(InvalidNetworkError, match="variable B has no CPD") as caught:
                build()
            assert caught.value.report is report
        with pytest.raises(KeyError):  # an id that is no variable stays a lookup miss
            net.parents(7)


def tall_net(bad_row=None) -> DiscreteNetwork:
    """C with eight ternary parents, its (3**8, 3) CPD uniform except row
    4321 when ``bad_row`` is given."""
    states = ("a", "b", "c")
    variables = [Variable(i, f"P{i}", states) for i in range(8)] + [Variable(8, "C", states)]
    table = np.full((3 ** 8, 3), 1 / 3)
    if bad_row is not None:
        table[4321] = bad_row
    cpds = [Cpd(i, (), np.full((1, 3), 1 / 3)) for i in range(8)]
    cpds.append(Cpd(8, tuple(range(8)), table))
    return DiscreteNetwork(variables, cpds)


class TestRowSums:
    """Tall tables take their row sums by a product against ones; the
    report lines stay those of a plain row sum."""

    def test_tall_table_is_valid(self):
        assert validate_network(tall_net()).ok

    def test_tall_bad_row_sum_line(self):
        report = validate_network(tall_net([0.6, 0.3, 0.2]))
        assert report.lines() == ["bad-row-sum: C rows [4321] sum to [1.0999999999999999]"]

    def test_tall_row_sum_tolerance(self):
        assert validate_network(tall_net([1 / 3 + 1e-10, 1 / 3, 1 / 3])).ok
        assert not validate_network(tall_net([1 / 3 + 1e-8, 1 / 3, 1 / 3])).ok

    @pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0],
                                     [-np.inf, 1.0, 1.0], [-0.1, 0.6, 0.5]])
    def test_tall_out_of_range_entries(self, row):
        assert validate_network(tall_net(row)).lines() == [
            "bad-prob: C has entries outside [0, 1]"]

    def test_empty_domain_row(self):
        net = DiscreteNetwork([Variable(0, "A", ())], [Cpd(0, (), np.ones((1, 0)))])
        assert validate_network(net).lines() == [
            "empty-domain: A has no states", "bad-row-sum: A rows [0] sum to [0.0]"]

    def test_chain_emission_table_validates(self):
        net, _ = hmm.to_bayes_net(hmm.precipitation_spec(5), [0, 3, 40, 1, 0])
        assert net.cpds[1].table.shape == (2, hmm.COUNT_CUTOFF + 1) == (2, 41)
        assert validate_network(net).ok


# row 1 leaves [0, 1]; both rows of the other table miss a sum of one
OUT_OF_RANGE = np.array([[0.5, 0.5], [1.2, -0.2]])
BAD_SUM = np.array([[0.5, 0.6], [0.3, 0.8]])


def tied_chain(tied: bool) -> DiscreteNetwork:
    """V0 -> V1 -> ... -> V7; V1..V6 alternate between the two bad
    tables, one array each when ``tied``, a copy per CPD otherwise.  V7
    has three states, so the shared table is the wrong shape for it."""
    variables = [Variable(i, f"V{i}", ("0", "1")) for i in range(7)]
    variables.append(Variable(7, "V7", ("0", "1", "2")))
    cpds = [Cpd(0, (), np.array([[0.5, 0.5]]))]
    for i in range(1, 8):
        table = OUT_OF_RANGE if i % 2 else BAD_SUM
        cpds.append(Cpd(i, (i - 1,), table if tied else table.copy()))
    return DiscreteNetwork(variables, cpds)


class TestTiedTables:
    def test_report_matches_per_cpd_copies(self):
        tied, copies = tied_chain(tied=True), tied_chain(tied=False)
        assert len({id(c.table) for c in tied.cpds}) == 3
        assert len({id(c.table) for c in copies.cpds}) == 8
        report = validate_network(tied)
        assert report == validate_network(copies)
        assert [(v.kind, v.variable) for v in report.violations] == [
            ("bad-prob", 1), ("bad-row-sum", 2), ("bad-prob", 3), ("bad-row-sum", 4),
            ("bad-prob", 5), ("bad-row-sum", 6), ("bad-shape", 7),
        ]
        assert report.lines()[1] == "bad-row-sum: V2 rows [0, 1] sum to [1.1, 1.1]"

    def test_unchecked_query_refuses_a_negative_shared_entry(self):
        net = tied_chain(tied=True)
        # the network's kept report reads every CPD whole, whatever the
        # evidence: with V0 observed at state 0, V1's table still shows its bad row
        ev = EvidenceSet({0: {0}})
        head = DiscreteNetwork(net.variables[:2], net.cpds[:2])
        with pytest.raises(InvalidNetworkError) as caught:
            CompiledQuery(head, ev, validate=False)
        assert caught.value.report is validate_network(head)
        assert caught.value.report.lines() == ["bad-prob: V1 has entries outside [0, 1]"]
        for evidence in (EvidenceSet.none(), ev):
            with pytest.raises(InvalidNetworkError,
                               match=re.escape("bad-prob: V1 has entries outside [0, 1]")) as caught:
                CompiledQuery(net, evidence, validate=False)
            assert caught.value.report is validate_network(net)

    def test_one_table_viewed_two_ways_is_laid_out_per_view(self):
        # C | A, B and D | B, A share one table; D lists its parents against
        # id order, so its view has the same shape and other strides
        table = np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7], [0.4, 0.6]])
        variables = [Variable(i, name, ("0", "1")) for i, name in enumerate("ABCD")]
        cpds = [Cpd(i, (), np.array([[0.5, 0.5]])) for i in (0, 1)]
        net = DiscreteNetwork(variables, cpds + [Cpd(2, (0, 1), table), Cpd(3, (1, 0), table)])
        pots = build_potentials(net, EvidenceSet({2: {1}, 3: {1}}))
        for u in (2, 3):
            want = net.cpd_factor(u).restrict({u: {1}})
            assert pots[u].scope == want.scope
            assert pots[u].values.tobytes() == want.values.tobytes()
        assert not np.array_equal(pots[2].values, pots[3].values)

    def test_shared_table_is_checked_before_it_is_masked(self):
        # V1..V3 share OUT_OF_RANGE and are observed at state 0; masking
        # first would turn its -0.2 in column 1 into -0.0, which is not < 0
        variables = [Variable(i, f"V{i}", ("0", "1")) for i in range(4)]
        cpds = [Cpd(0, (), np.array([[0.5, 0.5]]))]
        cpds += [Cpd(i, (i - 1,), OUT_OF_RANGE) for i in range(1, 4)]
        ev = EvidenceSet({i: {0} for i in range(1, 4)})
        net = DiscreteNetwork(variables, cpds)
        with pytest.raises(InvalidNetworkError) as caught:
            CompiledQuery(net, ev, validate=False)
        assert caught.value.report is validate_network(net)
        assert caught.value.report.lines() == [
            f"bad-prob: V{i} has entries outside [0, 1]" for i in range(1, 4)]


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
