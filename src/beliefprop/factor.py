"""Dense non-negative tables over sets of discrete variables.

A factor represents a function f(x_scope) = values[x] * exp(log_scale).
The scope is a strictly ascending tuple of integer variable ids and the
table carries one axis per scope entry, with the last scope variable
varying fastest in the flat (C-order) layout.  Keeping a separate
log-domain scale lets long chains of products stay inside double range
without switching the tables themselves to log space.

All operations are pure: they return new factors and never mutate the
operands.  The invariants (ascending scope, one axis per scope variable,
finite non-negative values, finite scale) are checked once, where a
factor enters from outside through the ``Factor`` constructor.  The
algebra methods build their results without re-scanning them: from
valid operands only a product or a sum can leave double range, so
``multiply`` and ``marginalize_sum`` check their result for overflow and
the other operations need no value check at all.

One guard bounds every table whose size comes from the input: a table
may hold at most ``MAX_TABLE_ENTRIES`` entries, counted as the product
of its variables' cardinalities.  ``check_table_size`` raises
``FactorSizeError`` before anything is allocated; ``multiply`` calls it
on every product, the engine once per cluster when it compiles a query,
and the oracle and the sampler where they plan a joint table or a
sample output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

# Hard ceiling on the entries of any one table: 2^25 doubles is a
# 256 MB table, so anything larger is almost certainly a mistake in how
# the caller decomposed the problem.
MAX_TABLE_ENTRIES = 1 << 25


class FactorSizeError(ValueError):
    """A table would hold more than ``MAX_TABLE_ENTRIES`` entries."""


def check_table_size(shape: Iterable[int], label: str) -> None:
    """Raise FactorSizeError if a table of this shape would hold more
    than ``MAX_TABLE_ENTRIES`` entries.

    The shape must hold Python ints (numpy shapes and cardinalities do),
    which cannot overflow, so the check is exact however large the
    table would be; a count from outside is converted where it enters.
    """
    entries = math.prod(shape)
    if entries > MAX_TABLE_ENTRIES:
        raise FactorSizeError(
            f"{label} has {entries} entries, cap is {MAX_TABLE_ENTRIES}"
        )


def _integer(value, what: str) -> int:
    """``value`` as an int; ValueError naming it otherwise (1.9 is not 1)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _alignment_index(sub: tuple[int, ...], full: tuple[int, ...]) -> tuple:
    """Index expression that views a table over `sub` inside scope `full`."""
    members = set(sub)
    return tuple(slice(None) if u in members else None for u in full)


@dataclass(frozen=True)
class Factor:
    """Immutable table over ``scope`` scaled by ``exp(log_scale)``.

    A factor with empty scope is a scalar (0-d table).  Values must be
    finite and non-negative; the scale must be finite.  The constructor
    checks all of this; results of the algebra methods hold it by
    construction and skip the check (see the module docstring).
    """

    scope: tuple[int, ...]
    values: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self) -> None:
        scope = tuple(int(u) for u in self.scope)
        if list(scope) != sorted(set(scope)):
            raise ValueError(f"scope must be strictly ascending, got {scope!r}")
        # not ascontiguousarray: that call promotes 0-d tables to 1-d
        values = np.asarray(self.values, dtype=float)
        if values.ndim != len(scope):
            raise ValueError(
                f"table has {values.ndim} axes but scope lists {len(scope)} variables"
            )
        if not values.flags.c_contiguous:
            values = np.ascontiguousarray(values)
        # ndarray methods: the np.all / np.any wrappers cost more than
        # the scan on the small tables a CPD gives
        if not np.isfinite(values).all():
            raise ValueError("factor values must be finite")
        if (values < 0).any():
            raise ValueError("factor values must be non-negative")
        if not math.isfinite(self.log_scale):
            raise ValueError("log_scale must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "log_scale", float(self.log_scale))

    # -- introspection -------------------------------------------------

    @classmethod
    def unit(cls) -> "Factor":
        """The scalar 1, the identity of multiplication."""
        return cls((), np.array(1.0))

    def card(self, u: int) -> int:
        return self.values.shape[self.scope.index(u)]

    def linear(self) -> np.ndarray:
        """The represented table with the scale folded back in."""
        return self.values * math.exp(self.log_scale)

    def total_log_mass(self) -> float:
        """log of the summed table mass, -inf when the table is all zero."""
        total = float(self.values.sum())
        if total <= 0.0:
            return float("-inf")
        return math.log(total) + self.log_scale

    # -- algebra -------------------------------------------------------

    def multiply(self, other: "Factor") -> "Factor":
        """Pointwise product over the union scope (scales add)."""
        cards = dict(zip(self.scope, self.values.shape))
        for u, d in zip(other.scope, other.values.shape):
            if cards.setdefault(u, d) != d:
                raise ValueError(
                    f"cardinality mismatch for variable {u}: {cards[u]} vs {d}"
                )
        check_table_size(cards.values(), "product table")
        scope = tuple(sorted(cards))
        a = self.values[_alignment_index(self.scope, scope)]
        b = other.values[_alignment_index(other.scope, scope)]
        values = a * b
        log_scale = self.log_scale + other.log_scale
        _require_finite(values, log_scale)
        return _trusted(scope, values, log_scale)

    def __mul__(self, other: "Factor") -> "Factor":
        return self.multiply(other)

    def marginalize_sum(self, drop: Iterable[int]) -> "Factor":
        """Sum out the listed variables."""
        return self._marginalize(drop, np.sum)

    def marginalize_max(self, drop: Iterable[int]) -> "Factor":
        """Maximize out the listed variables."""
        return self._marginalize(drop, np.max)

    def _marginalize(self, drop: Iterable[int], reducer) -> "Factor":
        dropped = set(int(u) for u in drop)
        unknown = dropped - set(self.scope)
        if unknown:
            raise ValueError(f"cannot marginalize variables not in scope: {sorted(unknown)}")
        if not dropped:
            return self
        axes = tuple(i for i, u in enumerate(self.scope) if u in dropped)
        kept = tuple(u for u in self.scope if u not in dropped)
        values = reducer(self.values, axis=axes)
        if reducer is np.sum:
            _require_finite(values)
        return _trusted(kept, values, self.log_scale)

    def restrict(self, allowed: Mapping[int, Iterable[int]]) -> "Factor":
        """Zero out entries whose states fall outside the allowed sets.

        ``allowed`` maps variable id to the kept state indices; variables
        absent from the map are untouched, as are map entries for
        variables outside this factor's scope.  Re-applying the same
        restriction is an exact no-op.
        """
        values = self.values
        touched = False
        for pos, u in enumerate(self.scope):
            if u not in allowed:
                continue
            keep = sorted(int(s) for s in allowed[u])
            card = self.values.shape[pos]
            if any(s < 0 or s >= card for s in keep):
                raise ValueError(f"state index out of range for variable {u}: {keep}")
            mask = np.zeros(card)
            mask[keep] = 1.0
            shape = [1] * self.values.ndim
            shape[pos] = card
            values = values * mask.reshape(shape)
            touched = True
        if not touched:
            return self
        return _trusted(self.scope, values, self.log_scale)

    def expand(self, scope: Iterable[int], cards: Mapping[int, int]) -> "Factor":
        """Broadcast to a superset scope; new variables index uniformly."""
        target = tuple(sorted(int(u) for u in scope))
        if len(set(target)) != len(target):
            raise ValueError(f"scope must be strictly ascending, got {target!r}")
        if not set(self.scope) <= set(target):
            raise ValueError(f"target scope {target} does not contain {self.scope}")
        if target == self.scope:
            return self
        shape = tuple(
            self.card(u) if u in self.scope else int(cards[u]) for u in target
        )
        view = self.values[_alignment_index(self.scope, target)]
        return _trusted(target, np.broadcast_to(view, shape), self.log_scale)

    def rescaled_unit_max(self) -> "Factor":
        """Divide by the largest entry, folding it into the scale.

        A zero factor is returned unchanged; its mass cannot be recovered
        by scaling and downstream code handles the zero case explicitly.
        """
        peak = float(self.values.max()) if self.values.size else 0.0
        if peak <= 0.0 or peak == 1.0:
            return self
        return _trusted(self.scope, self.values / peak, self.log_scale + math.log(peak))


def _require_finite(values: np.ndarray, log_scale: float = 0.0) -> float:
    """Reject a sum or product of valid tables that left double range; return its max."""
    # entries of valid tables are non-negative, so an overflow shows as
    # inf in the largest entry, or as NaN once an inf met a zero
    peak = float(values.max()) if values.size else 0.0
    if not math.isfinite(peak):
        raise ValueError("factor values must be finite")
    if not math.isfinite(log_scale):
        raise ValueError("log_scale must be finite")
    return peak


def _trusted(scope: tuple[int, ...], values, log_scale: float) -> Factor:
    """A factor from an algebra result that holds the invariants by
    construction: lay the table out as the constructor does, without
    scanning its values."""
    # asarray keeps a full reduction a 0-d table
    values = np.asarray(values)
    if not values.flags.c_contiguous:
        values = np.ascontiguousarray(values)
    values.setflags(write=False)
    out = object.__new__(Factor)
    # a frozen dataclass refuses __setattr__; its fields live in the instance dict
    out.__dict__.update(scope=scope, values=values, log_scale=log_scale)
    return out


# the empty product; factors are immutable, so one is shared
_UNIT = Factor.unit()


def product(factors: Iterable[Factor]) -> Factor:
    """Multiply factors left to right from the first; the empty product is 1."""
    factors = iter(factors)
    out = next(factors, _UNIT)
    for f in factors:
        out = out.multiply(f)
    return out
