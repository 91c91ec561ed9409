"""Hidden Markov chains with Poisson count emissions.

The chain S_1..S_n moves between discrete regimes and each day emits a
count Y_i ~ Poisson(rate of the current regime).  Filtering and
smoothing are done with the classic two sweeps:

    forward[i](s)  = P(S_i = s, Y_1..Y_i = y_1..y_i)
    backward[i](s) = P(Y_{i+1}..Y_n = y_{i+1}..y_n | S_i = s)

with backward[n] = 1.  Both sweeps read one table per sequence, the
(n x states) log pmfs from log_emissions; emission() and to_bayes_net's
CPD rows read the same table.  Each step adds its emission row to the
log of the propagated row and rescales to unit maximum, keeping the
removed peak in the step's log scale.  So horizons of thousands of
steps, and counts whose pmf underflows to 0 in every state, stay exact.
The posterior chain's conditionals (forward_transition,
backward_transition) are row normalizations of the same tables.

The chain is also expressible as a Bayesian network (one node per S_i
and Y_i, counts truncated to a finite domain), which lets the generic
tree engine answer the same queries; see to_bayes_net and
chain_junction_tree.  The bundled demo model: regimes L and H, start
pinned to H, P(H -> L) = 0.3, P(L -> H) = 0.1, rates 3.0 and 0.5.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .factor import check_table_size
from .jtree import JunctionTree
from .model import Cpd, DiscreteNetwork, EvidenceSet, Variable

DEFAULT_COUNT_CUTOFF = 40


@dataclass(frozen=True)
class HmmSpec:
    """State space, initial distribution, transition matrix, Poisson
    emission rates, and horizon length.  FactorSizeError when the
    horizon x states tables the sweeps keep would pass the entry cap."""

    states: tuple[str, ...]
    initial: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    rates: tuple[float, ...]
    horizon: int

    def __post_init__(self) -> None:
        k = len(self.states)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "initial", tuple(float(p) for p in self.initial))
        object.__setattr__(
            self, "transition", tuple(tuple(float(p) for p in row) for row in self.transition)
        )
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "horizon", int(self.horizon))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if len(self.initial) != k or len(self.rates) != k or len(self.transition) != k:
            raise ValueError("state-indexed fields must all have one entry per state")
        check_table_size((self.horizon, k), "horizon x states table")
        # NaN fails every comparison, so the range tests also catch it
        for p in (self.initial, *self.transition):
            if len(p) != k or not all(0.0 <= x <= 1.0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
                raise ValueError(
                    "initial and transition rows must be distributions over states"
                )
        if not all(0.0 < r < math.inf for r in self.rates):
            raise ValueError("emission rates must be positive and finite")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, s: int | str) -> int:
        if isinstance(s, str):
            if s not in self.states:
                raise KeyError(f"unknown state label {s!r}")
            return self.states.index(s)
        return int(s)


def precipitation_spec(n: int) -> HmmSpec:
    """The demo chain: low/high pressure regimes driving daily rain counts."""
    return HmmSpec(
        states=("L", "H"),
        initial=(0.0, 1.0),
        transition=((0.9, 0.1), (0.3, 0.7)),
        rates=(3.0, 0.5),
        horizon=n,
    )


def _counts(y: Sequence[int]) -> list[int]:
    counts = []
    for i, k in enumerate(y):
        try:
            counts.append(operator.index(k))
        except TypeError:
            raise ValueError(f"count {k!r} at step {i} is not an integer") from None
    return counts


def log_emissions(spec: HmmSpec, counts: Sequence[int]) -> np.ndarray:
    """(len(counts), states) table of log Poisson pmfs, row i for counts[i].

    Log space keeps counts far past 170 (where rate**k / k! overflows a
    float) finite; a negative count has log pmf -inf.  ValueError naming
    the step when a count is not an integer.
    """
    k = _counts(counts)
    rates = np.asarray(spec.rates)
    table = np.multiply.outer(np.asarray(k, dtype=float), np.log(rates)) - rates
    table -= np.array([math.lgamma(c + 1) if c >= 0 else math.inf for c in k])[:, None]
    return table


def emission(spec: HmmSpec, s: int | str, k: int) -> float:
    """Poisson pmf of count k under the rate of state s: one entry of
    log_emissions, exponentiated (zero when it underflows)."""
    return math.exp(log_emissions(spec, [k])[0, spec.state_index(s)])


@dataclass(frozen=True)
class ForwardBackward:
    """Scaled forward/backward tables: row i times exp(log scale i); and
    the log_emissions table both sweeps read."""

    forward: np.ndarray
    forward_log: np.ndarray
    backward: np.ndarray
    backward_log: np.ndarray
    log_emissions: np.ndarray


def _fold(row: np.ndarray, log_e: np.ndarray) -> tuple[np.ndarray, float]:
    """``row * exp(log_e)`` scaled to a unit maximum, and the log of the
    peak removed; all zeros and -inf when the product is all zero.  The
    caller enters np.errstate(divide="ignore") for zeros in ``row``."""
    logs = np.log(row) + log_e
    peak = float(logs.max())
    if peak == -math.inf:
        return np.zeros_like(row), peak
    return np.exp(logs - peak), peak


def forward_backward(spec: HmmSpec, y: Sequence[int]) -> ForwardBackward:
    """Both sweeps over one log_emissions table.  Each step folds its
    emission row in log space and keeps the removed peak in the step's
    log scale, so a count whose pmf underflows in every state stays
    exact."""
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    log_e = log_emissions(spec, y)
    trans = np.asarray(spec.transition)
    fwd, fwd_log = np.zeros((n, spec.n_states)), np.zeros(n)
    bwd, bwd_log = np.ones((n, spec.n_states)), np.zeros(n)
    with np.errstate(divide="ignore"):
        fwd[0], fwd_log[0] = _fold(np.asarray(spec.initial), log_e[0])
        for i in range(1, n):
            fwd[i], shift = _fold(fwd[i - 1] @ trans, log_e[i])
            fwd_log[i] = fwd_log[i - 1] + shift
        for i in range(n - 2, -1, -1):
            folded, shift = _fold(bwd[i + 1], log_e[i + 1])
            row = trans @ folded
            peak = row.max()
            if peak > 0.0:
                row /= peak
                shift += math.log(peak)
            bwd[i] = row
            bwd_log[i] = bwd_log[i + 1] + shift
    return ForwardBackward(fwd, fwd_log, bwd, bwd_log, log_e)


def log_likelihood(fb: ForwardBackward, i: int = 0) -> float:
    """log P(all observations), readable at any step i."""
    total = float((fb.forward[i] * fb.backward[i]).sum())
    if total <= 0.0:
        return float("-inf")
    return math.log(total) + float(fb.forward_log[i]) + float(fb.backward_log[i])


def posteriors(spec: HmmSpec, y: Sequence[int]) -> np.ndarray:
    """All smoothing posteriors P(S_i | all observations) as an
    (n, states) table, row i for 0-based step i."""
    fb = forward_backward(spec, y)
    rows = fb.forward * fb.backward
    totals = rows.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("posterior undefined: observations have probability zero")
    return rows / totals


def _normalized(rows: np.ndarray) -> np.ndarray:
    sums = rows.sum(axis=1, keepdims=True)
    return np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)


def forward_transition(spec: HmmSpec, fb: ForwardBackward, i: int) -> np.ndarray:
    """P(S_i = s | S_{i-1} = r, all observations) with rows indexed by r,
    for 0 < i < horizon.  Rows sum to one up to rounding; a row whose
    state cannot explain the observations is zero."""
    with np.errstate(divide="ignore"):
        folded, _ = _fold(fb.backward[i], fb.log_emissions[i])
    return _normalized(np.asarray(spec.transition) * folded)


def backward_transition(spec: HmmSpec, fb: ForwardBackward, i: int) -> np.ndarray:
    """P(S_{i-1} = r | S_i = s, all observations) with rows indexed by s,
    for 0 < i < horizon.  Step i's emission is fixed by s, so it cancels."""
    return _normalized((fb.forward[i - 1][:, None] * np.asarray(spec.transition)).T)


def simulate(spec: HmmSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one state path and its observations (PCG64, reproducible)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    trans = np.asarray(spec.transition)
    states = np.zeros(spec.horizon, dtype=int)
    states[0] = rng.choice(spec.n_states, p=np.asarray(spec.initial))
    for i in range(1, spec.horizon):
        states[i] = rng.choice(spec.n_states, p=trans[states[i - 1]])
    y = rng.poisson(np.asarray(spec.rates)[states])
    return states, y.astype(int)


def to_bayes_net(
    spec: HmmSpec, y: Sequence[int], cutoff: int = DEFAULT_COUNT_CUTOFF
) -> tuple[DiscreteNetwork, EvidenceSet]:
    """Express the chain and its observations as a network plus evidence.

    Count domains are truncated to 0..cutoff; with the default cutoff the
    discarded tail mass is far below 1e-12 for the demo rates, so CPD
    rows still sum to one within tolerance.  Node ids interleave as
    S_1, Y_1, S_2, Y_2, ...
    """
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    counts = _counts(y)
    if any(k < 0 or k > cutoff for k in counts):
        raise ValueError(f"observations must lie within the count cutoff 0..{cutoff}")
    count_states = tuple(str(k) for k in range(cutoff + 1))
    variables: list[Variable] = []
    cpds: list[Cpd] = []
    emission_rows = np.exp(log_emissions(spec, range(cutoff + 1)).T, order="C")
    for i in range(n):
        s_id, y_id = 2 * i, 2 * i + 1
        variables.append(Variable(s_id, f"S{i + 1}", spec.states))
        variables.append(Variable(y_id, f"Y{i + 1}", count_states))
        if i == 0:
            cpds.append(Cpd(s_id, (), np.asarray([spec.initial])))
        else:
            cpds.append(Cpd(s_id, (2 * (i - 1),), np.asarray(spec.transition)))
        cpds.append(Cpd(y_id, (s_id,), emission_rows))
    net = DiscreteNetwork(variables, cpds)
    evidence = EvidenceSet({2 * i + 1: {counts[i]} for i in range(n)})
    return net, evidence


def chain_junction_tree(spec: HmmSpec) -> JunctionTree:
    """The natural chain of clusters for the network from to_bayes_net:
    {S_1, Y_1}, then {S_{i-1}, S_i, Y_i} for each later step, with each
    step's pair assigned to its own cluster."""
    n = spec.horizon
    clusters = [frozenset({0, 1})]
    assignment = {0: 0, 1: 0}
    for i in range(1, n):
        clusters.append(frozenset({2 * (i - 1), 2 * i, 2 * i + 1}))
        assignment[2 * i] = i
        assignment[2 * i + 1] = i
    edges = tuple((i - 1, i) for i in range(1, n))
    return JunctionTree(tuple(clusters), edges, assignment)
