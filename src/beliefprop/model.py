"""Discrete Bayesian networks: variables, conditional tables, evidence.

State labels are strings for I/O purposes only; all computation indexes
states by position.  Conditional probability tables are stored row-wise,
one row per joint parent assignment with the last listed parent varying
fastest, one column per child state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .factor import Factor, _integer

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    states: tuple[str, ...]

    @property
    def card(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Cpd:
    """P(child | parents) as a dense row-stochastic table."""

    child: int
    parents: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.atleast_2d(np.asarray(self.table, dtype=float))
        table.setflags(write=False)
        object.__setattr__(self, "child", int(self.child))
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))
        object.__setattr__(self, "table", table)


class DiscreteNetwork:
    """A set of variables plus one CPD per variable.

    Construction is deliberately permissive: structurally broken inputs
    (cycles, dangling parents, bad row sums...) are accepted so that
    validate_network can enumerate every defect instead of dying on the
    first one.  A query (``CompiledQuery``) reads that report and raises
    InvalidNetworkError with it unless it is ok; the lookups and the
    oracle assume a valid network and may raise KeyError or ValueError on
    a broken one.

    Read-only once built: rebinding an attribute raises AttributeError and
    the lookups are read-only mappings.  So the network keeps, in slots
    that never refer back to it, ``validate_network``'s report,
    ``build_junction_tree``'s tree and, for the last tree checked or
    compiled on it, that tree's report and ``propagation._structure``.
    """

    def __init__(self, variables: Iterable[Variable], cpds: Iterable[Cpd]):
        variables, cpds = tuple(variables), tuple(cpds)
        by_id: dict[int, Variable] = {}
        by_name: dict[str, Variable] = {}
        for v in variables:
            by_id.setdefault(v.id, v)
            by_name.setdefault(v.name, v)
        cpd_by_child: dict[int, Cpd] = {}
        for c in cpds:
            cpd_by_child.setdefault(c.child, c)
        vars(self).update(
            variables=variables, cpds=cpds, _by_id=MappingProxyType(by_id),
            _by_name=MappingProxyType(by_name), _cpd_by_child=MappingProxyType(cpd_by_child),
            # on a duplicate id the last variable's card wins
            _cards=MappingProxyType({v.id: v.card for v in variables}),
            _report=None, _tree=None, _tree_check=(None, None), _structure=(None, None, None, None),
        )

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"a DiscreteNetwork is read-only: {name!r} cannot be rebound")

    __delattr__ = __setattr__

    # -- lookups ---------------------------------------------------------

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables)

    def variable(self, u: int) -> Variable:
        return self._by_id[u]

    def by_name(self, name: str) -> Variable:
        return self._by_name[name]

    def card(self, u: int) -> int:
        return self._by_id[u].card

    @property
    def cards(self) -> Mapping[int, int]:
        """Read-only id -> card mapping, built once."""
        return self._cards

    def cpd(self, u: int) -> Cpd:
        return self._cpd_by_child[u]

    def parents(self, u: int) -> tuple[int, ...]:
        """u's parents: InvalidNetworkError with the kept report when the
        variable u has no CPD, KeyError when u is no variable."""
        cpd = self._cpd_by_child.get(u)
        if cpd is not None:
            return cpd.parents
        if u in self._by_id:
            raise InvalidNetworkError(validate_network(self))
        raise KeyError(u)

    def family(self, u: int) -> frozenset[int]:
        """The variable together with its parents."""
        return frozenset(self.parents(u)) | {self._by_id[u].id}

    # -- structure ---------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Parents-before-children order; raises ValueError on a cycle.

        Kahn's algorithm, level by level: a level holds every variable
        whose parents all sit in earlier levels, sorted by id.  A
        dangling or self parent is never emitted, so its child ends up
        in the cycle error.
        """
        waiting: dict[int, int] = {}
        children: dict[int, list[int]] = {}
        for u in dict.fromkeys(self.ids):
            ps = set(self.parents(u))
            waiting[u] = len(ps)
            for p in ps:
                children.setdefault(p, []).append(u)
        order: list[int] = []
        level = sorted(u for u, n in waiting.items() if n == 0)
        while level:
            order.extend(level)
            ready = []
            for p in level:
                for u in children.get(p, ()):
                    waiting[u] -= 1
                    if waiting[u] == 0:
                        ready.append(u)
            level = sorted(ready)
        if len(order) < len(waiting):
            stuck = sorted(u for u, n in waiting.items() if n)
            raise ValueError(f"cycle among variables {stuck}")
        return order

    def cpd_factor(self, u: int) -> Factor:
        """The CPD of u as a checked factor, one axis per family member in ascending id order."""
        scope, shape, perm = self._family_layout(u)
        return Factor(scope, self._cpd_by_child[u].table.reshape(shape).transpose(perm))

    def _family_layout(self, u: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``cpd_factor``'s scope, then the CPD table's shape with one axis per
        listed family member and the permutation that puts those axes in id order."""
        listed = self._cpd_by_child[u].parents + (u,)
        scope, perm = zip(*sorted(zip(listed, range(len(listed)))))
        return scope, tuple(map(self._cards.__getitem__, listed)), perm


@dataclass(frozen=True)
class Violation:
    kind: str
    variable: int | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [f"{v.kind}: {v.message}" for v in self.violations]


class InvalidNetworkError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.lines()))


def _table_defects(table: np.ndarray) -> list[tuple[str, str]]:
    """(kind, what is wrong) unless a well-shaped CPD table's rows are distributions."""
    # NaN and +-inf fail the comparisons too; the initial values let an empty table pass
    if not (table.min(initial=0.0) >= 0 and table.max(initial=1.0) <= 1):
        return [("bad-prob", "has entries outside [0, 1]")]
    # numpy sums a short last axis row by row: past 16 rows one product with
    # ones is faster, up to 16 (a very wide row too) the plain sum, which reports read
    sums = table.dot(np.ones(table.shape[1])) if len(table) > 16 else table.sum(axis=1)
    off = np.abs(sums - 1.0)
    if off.max(initial=0.0) > ROW_SUM_TOL:
        bad = np.nonzero(off > ROW_SUM_TOL)[0]
        return [("bad-row-sum", f"rows {bad.tolist()} sum to {table[bad].sum(axis=1).tolist()}")]
    return []


def validate_network(net: DiscreteNetwork) -> ValidationReport:
    """Check every structural and numeric invariant of the network, once:
    the network keeps the report, which a repeat call returns."""
    if net._report is not None:
        return net._report
    out: list[Violation] = []

    seen_ids: set[int] = set()
    for v in net.variables:
        if v.id in seen_ids:
            out.append(Violation("duplicate-id", v.id, f"variable id {v.id} declared twice"))
        seen_ids.add(v.id)
        if not v.states:
            out.append(Violation("empty-domain", v.id, f"{v.name} has no states"))
        if len(set(v.states)) != len(v.states):
            out.append(
                Violation("duplicate-state", v.id, f"{v.name} repeats a state label")
            )
    name_counts = Counter(v.name for v in net.variables)
    for name in sorted(n for n, k in name_counts.items() if k > 1):
        out.append(Violation("duplicate-name", None, f"variable name {name!r} declared twice"))

    ids = set(seen_ids)
    cpd_counts = Counter(c.child for c in net.cpds)
    for u in sorted(ids - set(cpd_counts)):
        out.append(Violation("missing-cpd", u, f"variable {net.variable(u).name} has no CPD"))
    for u in sorted(c for c, k in cpd_counts.items() if k > 1):
        out.append(Violation("extra-cpd", u, f"variable id {u} has multiple CPDs"))
    for c in net.cpds:
        if c.child not in ids:
            out.append(Violation("unknown-child", c.child, f"CPD for unknown id {c.child}"))

    defects: dict[int, list[tuple[str, str]]] = {}
    for c in net.cpds:
        if c.child not in ids:
            continue
        child_name = net.variable(c.child).name
        if len(set(c.parents)) != len(c.parents):
            out.append(
                Violation("duplicate-parent", c.child, f"{child_name} lists a parent twice")
            )
        if c.child in c.parents:
            out.append(Violation("self-parent", c.child, f"{child_name} is its own parent"))
        dangling = [p for p in c.parents if p not in ids]
        if dangling:
            out.append(
                Violation(
                    "dangling-parent",
                    c.child,
                    f"{child_name} references unknown parent ids {dangling}",
                )
            )
            continue
        want = (math.prod(net.card(p) for p in c.parents), net.card(c.child))
        if c.table.shape != want:
            out.append(
                Violation(
                    "bad-shape",
                    c.child,
                    f"{child_name} table has shape {c.table.shape}, expected {want}",
                )
            )
            continue
        # a table shared by several CPDs (a chain's transition matrix) is
        # checked once and its defect reported under each of them
        if id(c.table) not in defects:
            defects[id(c.table)] = _table_defects(c.table)
        for kind, detail in defects[id(c.table)]:
            out.append(Violation(kind, c.child, f"{child_name} {detail}"))

    structural = {v.kind for v in out}
    if not structural & {"duplicate-id", "missing-cpd", "extra-cpd", "dangling-parent",
                         "unknown-child", "self-parent", "duplicate-parent"}:
        try:
            net.topological_order()
        except ValueError as exc:
            out.append(Violation("cycle", None, str(exc)))

    object.__setattr__(net, "_report", ValidationReport(tuple(out)))
    return net._report


EvidenceMapping = Mapping[int, Iterable[int]]


@dataclass(frozen=True)
class EvidenceSet:
    """Per-variable sets of permitted state indices.

    Variables absent from ``allowed`` are unrestricted.  An empty set is
    legal and makes the evidence impossible to satisfy.
    """

    allowed: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        frozen = {_integer(u, "evidence variable id"):
                  frozenset(_integer(s, f"state of variable {u}") for s in states)
                  for u, states in self.allowed.items()}
        object.__setattr__(self, "allowed", frozen)

    @classmethod
    def none(cls) -> "EvidenceSet":
        return cls({})

    @classmethod
    def from_labels(
        cls,
        net: DiscreteNetwork,
        mapping: Mapping[Union[str, int], Union[str, Sequence[str]]],
    ) -> "EvidenceSet":
        """Build from variable names (or ids) and state labels.

        A bare string is one label; a value that is not a string, list or
        tuple raises TypeError, an unknown variable or label KeyError.
        """
        allowed: dict[int, frozenset[int]] = {}
        for key, val in mapping.items():
            if isinstance(key, str):
                try:
                    var = net.by_name(key)
                except KeyError:
                    raise KeyError(f"unknown variable {key!r} in evidence") from None
            else:
                try:
                    var = net.variable(_integer(key, "evidence variable id"))
                except KeyError:
                    raise KeyError(f"unknown variable id {key} in evidence") from None
            if not isinstance(val, (str, list, tuple)):
                raise TypeError(f"evidence for {var.name!r} is not a label or list of labels: {val!r}")
            labels = [val] if isinstance(val, str) else val
            idx = []
            for lab in labels:
                if lab not in var.states:
                    raise KeyError(f"unknown state {lab!r} for variable {var.name!r}")
                idx.append(var.states.index(lab))
            allowed[var.id] = frozenset(idx)
        return cls(allowed)

    def restricts(self, u: int) -> bool:
        return u in self.allowed

    def permits(self, u: int, state: int) -> bool:
        return u not in self.allowed or state in self.allowed[u]


def _trusted_evidence(allowed: dict[int, frozenset[int]]) -> EvidenceSet:
    """An EvidenceSet of checked ids and states, built as ``factor._trusted`` builds a Factor."""
    out = object.__new__(EvidenceSet)
    object.__setattr__(out, "allowed", allowed)
    return out


def _check_evidence(net: DiscreteNetwork, evidence: EvidenceSet) -> None:
    """ValueError naming the unknown variable ids or out-of-range states the evidence restricts."""
    cards, allowed = net.cards, evidence.allowed
    if not allowed.keys() <= cards.keys():
        raise ValueError(f"evidence names unknown variable ids {sorted(allowed.keys() - cards.keys())}")
    # each distinct allowed set once per cardinality (to_bayes_net shares one set per
    # count); only a failure scans every variable, for the first bad one
    if all(0 <= s < card for states, card in set(zip(allowed.values(), map(cards.__getitem__, allowed)))
           for s in states):
        return
    for u, states in allowed.items():
        if not all(0 <= s < cards[u] for s in states):
            raise ValueError(f"state index out of range for variable {u}: {sorted(states)}")


def build_potentials(net: DiscreteNetwork, evidence: EvidenceSet) -> dict[int, Factor]:
    """One factor per variable, the paper's potential K_u: its CPD over its
    family in ascending id order (``cpd_factor``), every axis whole, with
    the child's disallowed states zeroed; the evidence is checked first.

    Each variable's indicator is applied exactly once, in its own
    potential, never where the variable appears as a parent, so products
    of potentials carry each restriction once and a single potential
    matches the message definitions entry for entry.  The oracle builds on
    this; the engine's plan lays each CPD out once (``propagation._plan``).
    """
    _check_evidence(net, evidence)
    return {u: net.cpd_factor(u).restrict({u: evidence.allowed[u]} if evidence.restricts(u) else {})
            for u in net.ids}
