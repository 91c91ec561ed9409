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
    first one.  Query helpers assume a valid network and may raise
    KeyError or ValueError on a broken one.
    """

    def __init__(self, variables: Iterable[Variable], cpds: Iterable[Cpd]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.cpds: tuple[Cpd, ...] = tuple(cpds)
        self._by_id: dict[int, Variable] = {}
        for v in self.variables:
            self._by_id.setdefault(v.id, v)
        self._by_name: dict[str, Variable] = {}
        for v in self.variables:
            self._by_name.setdefault(v.name, v)
        self._cpd_by_child: dict[int, Cpd] = {}
        for c in self.cpds:
            self._cpd_by_child.setdefault(c.child, c)
        # on a duplicate id the last variable's card wins
        self._cards: Mapping[int, int] = MappingProxyType(
            {v.id: v.card for v in self.variables}
        )

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
        return self._cpd_by_child[u].parents

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
        """The CPD of u as a factor over its family (canonical scope order)."""
        return Factor(*self._cpd_view(u))

    def _cpd_view(self, u: int) -> tuple[tuple[int, ...], np.ndarray]:
        """The family of u in ascending id order, and its CPD table viewed
        with one axis per family member in that order (no copy)."""
        cpd, cards = self._cpd_by_child[u], self._cards
        listed = cpd.parents + (u,)
        perm = sorted(range(len(listed)), key=listed.__getitem__)
        table = cpd.table.reshape([cards[w] for w in listed]).transpose(perm)
        return tuple(listed[i] for i in perm), table


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


def validate_network(net: DiscreteNetwork) -> ValidationReport:
    """Check every structural and numeric invariant of the network."""
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
        # NaN and +-inf fail the comparison too
        if not ((c.table >= 0) & (c.table <= 1)).all():
            out.append(
                Violation("bad-prob", c.child, f"{child_name} has entries outside [0, 1]")
            )
            continue
        sums = c.table.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            out.append(
                Violation(
                    "bad-row-sum",
                    c.child,
                    f"{child_name} rows {bad.tolist()} sum to {sums[bad].tolist()}",
                )
            )

    structural = {v.kind for v in out}
    if not structural & {"duplicate-id", "missing-cpd", "extra-cpd", "dangling-parent",
                         "unknown-child", "self-parent", "duplicate-parent"}:
        try:
            net.topological_order()
        except ValueError as exc:
            out.append(Violation("cycle", None, str(exc)))

    return ValidationReport(tuple(out))


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


def build_potentials(
    net: DiscreteNetwork, evidence: EvidenceSet, sliced: Mapping[int, int] | None = None
) -> dict[int, Factor]:
    """One factor per variable: its CPD over its family in ascending id
    order, with the child's disallowed states zeroed.

    Each variable's indicator is applied exactly once, in its own
    potential, never where the variable appears as a parent.  Products
    over sets of potentials therefore carry each restriction once, and
    a single potential restricted this way still matches the message
    definitions entry for entry.  A variable in ``sliced`` (variable ->
    its one allowed state) is instead indexed at that state in every
    potential that mentions it, which drops its axis (factor reduction).
    ValueError naming them when the evidence restricts variable ids the
    network does not have, or names a state out of range.
    """
    cards, allowed, sliced = net.cards, evidence.allowed, sliced or {}
    unknown = sorted(u for u in allowed if u not in cards)
    if unknown:
        raise ValueError(f"evidence names unknown variable ids {unknown}")
    for u, states in allowed.items():
        if not all(0 <= s < cards[u] for s in states):
            raise ValueError(f"state index out of range for variable {u}: {sorted(states)}")
    out: dict[int, Factor] = {}
    for u in net.ids:
        scope, table = net._cpd_view(u)
        kept = tuple(w for w in scope if w not in sliced)
        factor = Factor(kept, table[tuple(sliced.get(w, slice(None)) for w in scope)])
        if u in allowed and u not in sliced:
            factor = factor.restrict({u: allowed[u]})
        out[u] = factor
    return out
