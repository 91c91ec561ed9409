"""Hidden Markov chains with Poisson count emissions.

The chain S_1..S_n moves between discrete regimes and each day emits a
count Y_i ~ Poisson(rate of the current regime).  Filtering and
smoothing are done with the classic two sweeps:

    forward[i](s)  = P(S_i = s, Y_1..Y_i = y_1..y_i)
    backward[i](s) = P(Y_{i+1}..Y_n = y_{i+1}..y_n | S_i = s)

with backward[n] = 1.  Both tables are kept renormalized to unit maximum
per step, with the removed mass accumulated in a per-step log scale, so
horizons of thousands of steps stay finite.

The chain is also expressible as a Bayesian network (one node per S_i
and Y_i, counts truncated to a finite domain), which lets the generic
tree engine answer the same queries; see to_bayes_net and
chain_junction_tree.  The bundled demo model: regimes L and H, start
pinned to H, P(H -> L) = 0.3, P(L -> H) = 0.1, rates 3.0 and 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jtree import JunctionTree
from .model import Cpd, DiscreteNetwork, EvidenceSet, Variable

DEFAULT_COUNT_CUTOFF = 40


@dataclass(frozen=True)
class HmmSpec:
    """State space, initial distribution, transition matrix, Poisson
    emission rates, and horizon length."""

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
        if abs(sum(self.initial) - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")
        for row in self.transition:
            if len(row) != k or abs(sum(row) - 1.0) > 1e-12:
                raise ValueError("transition rows must be distributions over states")
        if any(r <= 0 for r in self.rates):
            raise ValueError("emission rates must be positive")

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


def emission(spec: HmmSpec, s: int | str, k: int) -> float:
    """Poisson pmf of count k under the rate of state s.

    Computed in log space, so large counts give a finite (possibly zero)
    probability instead of overflowing.
    """
    if k < 0:
        return 0.0
    rate = spec.rates[spec.state_index(s)]
    return math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))


def _emission_column(spec: HmmSpec, k: int) -> np.ndarray:
    return np.array([emission(spec, s, k) for s in range(spec.n_states)])


@dataclass(frozen=True)
class ForwardBackward:
    """Scaled forward/backward tables: row i times exp(log scale i)."""

    forward: np.ndarray
    forward_log: np.ndarray
    backward: np.ndarray
    backward_log: np.ndarray


def _rescale(row: np.ndarray) -> tuple[np.ndarray, float]:
    peak = float(row.max())
    if peak <= 0.0:
        return row, 0.0
    return row / peak, math.log(peak)


def forward(spec: HmmSpec, y: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Filtering sweep; returns the scaled table and per-step log scales."""
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    trans = np.asarray(spec.transition)
    table = np.zeros((n, spec.n_states))
    logs = np.zeros(n)
    row = np.asarray(spec.initial) * _emission_column(spec, int(y[0]))
    table[0], logs[0] = _rescale(row)
    for i in range(1, n):
        row = (table[i - 1] @ trans) * _emission_column(spec, int(y[i]))
        table[i], shift = _rescale(row)
        logs[i] = logs[i - 1] + shift
    return table, logs


def backward(spec: HmmSpec, y: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Smoothing sweep; returns the scaled table and per-step log scales."""
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    trans = np.asarray(spec.transition)
    table = np.zeros((n, spec.n_states))
    logs = np.zeros(n)
    table[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        row = trans @ (_emission_column(spec, int(y[i + 1])) * table[i + 1])
        table[i], shift = _rescale(row)
        logs[i] = logs[i + 1] + shift
    return table, logs


def forward_backward(spec: HmmSpec, y: Sequence[int]) -> ForwardBackward:
    f, fl = forward(spec, y)
    b, bl = backward(spec, y)
    return ForwardBackward(f, fl, b, bl)


def log_likelihood(fb: ForwardBackward, i: int = 0) -> float:
    """log P(all observations), readable at any step i."""
    total = float((fb.forward[i] * fb.backward[i]).sum())
    if total <= 0.0:
        return float("-inf")
    return math.log(total) + float(fb.forward_log[i]) + float(fb.backward_log[i])


def posterior(
    spec: HmmSpec, y: Sequence[int], i: int, fb: ForwardBackward | None = None
) -> np.ndarray:
    """P(S_i | all observations) for one 0-based step."""
    if fb is None:
        fb = forward_backward(spec, y)
    row = fb.forward[i] * fb.backward[i]
    total = row.sum()
    if total <= 0.0:
        raise ValueError("posterior undefined: observations have probability zero")
    return row / total


def posteriors(spec: HmmSpec, y: Sequence[int]) -> np.ndarray:
    """All smoothing posteriors as an (n, states) table."""
    fb = forward_backward(spec, y)
    rows = fb.forward * fb.backward
    totals = rows.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("posterior undefined: observations have probability zero")
    return rows / totals


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
    if any(int(k) < 0 or int(k) > cutoff for k in y):
        raise ValueError(f"observations must lie within the count cutoff 0..{cutoff}")
    count_states = tuple(str(k) for k in range(cutoff + 1))
    variables: list[Variable] = []
    cpds: list[Cpd] = []
    emission_rows = np.array(
        [[emission(spec, s, k) for k in range(cutoff + 1)] for s in range(spec.n_states)]
    )
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
    evidence = EvidenceSet({2 * i + 1: {int(y[i])} for i in range(n)})
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
