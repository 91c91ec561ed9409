"""Hidden Markov chains with Poisson count emissions.

The chain S_1..S_n moves between discrete regimes and each day emits a
count Y_i ~ Poisson(rate of the current regime).  Filtering and
smoothing are done with the classic two sweeps, kept in log space:

    log_forward[i](s)  = log P(S_i = s, Y_1..Y_i = y_1..y_i)
    log_backward[i](s) = log P(Y_{i+1}..Y_n = y_{i+1}..y_n | S_i = s)

with log_backward[n] = 0.  Both sweeps read one table per sequence, the
(n x states) log pmfs from log_emissions; emission() and to_bayes_net's
CPD rows read the same table.  Each step is one log-sum-exp over the
log transition matrix, and no step rescales, so no mass is rounded
away: horizons of thousands of steps, counts whose pmf underflows to 0
in every state, and zero transition entries all stay exact.
log_likelihood sums a row of the tables with logaddexp; posteriors and
the posterior chain's conditionals (forward_transition,
backward_transition) exponentiate log rows scaled to a unit maximum
(unit_max_exp) and normalize each row.

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

from .factor import _integer, check_table_size
from .jtree import JunctionTree
from .model import Cpd, DiscreteNetwork, EvidenceSet, Variable

COUNT_CUTOFF = 40
# past this magnitude a count's log pmf leaves the float range
MAX_COUNT = 10**305


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
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon"))
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
        return _integer(s, "state")


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
            c = operator.index(k)
        except TypeError:
            raise ValueError(f"count {k!r} at step {i} is not an integer") from None
        if abs(c) > MAX_COUNT:
            raise ValueError(f"count at step {i} is out of range (magnitude above 1e305)")
        counts.append(c)
    return counts


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirlerr(n: int) -> float:
    """log n! - log(sqrt(2 pi n) (n / e)^n) for n >= 1, within 1e-14
    (Loader 2000): directly up to 15, past that by its series."""
    if n <= 15:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x / m) + m - x without cancellation: where x is near m, a
    series in v = (x - m) / (x + m), exact to double precision for
    |v| < 0.1 (Loader 2000)."""
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.log(x / m)
        plain = x * np.where(np.isfinite(ratio), ratio, np.log(x) - np.log(m)) + m - x
        v = (x - m) / (x + m)
    v2 = v * v
    series = (x - m) * v + 2 * x * v * v2 * sum(v2**j / (2 * j + 3) for j in range(9))
    return np.where(np.abs(v) < 0.1, series, plain)


def log_emissions(spec: HmmSpec, counts: Sequence[int]) -> np.ndarray:
    """(len(counts), states) table of log Poisson pmfs, row i for counts[i].

    Every positive count k takes Loader's saddle-point form,
    -stirlerr(k) - bd0(k, rate) - log(2 pi k) / 2, as R's dpois does: no
    two large terms cancel, so the pmf keeps its relative accuracy for
    counts and rates up to 1e20 and beyond.  A zero count has log pmf
    -rate, a negative one -inf.  ValueError naming the step when a count
    is not an integer or its magnitude passes MAX_COUNT.
    """
    k = _counts(counts)
    rates = np.asarray(spec.rates)
    x = np.array([float(c) for c in k]).reshape(-1, 1)
    lead = [_stirlerr(c) + _HALF_LOG_2PI + 0.5 * math.log(c) if c > 0 else 0.0 for c in k]
    saddle = -np.reshape(lead, (-1, 1)) - _bd0(np.maximum(x, 1.0), rates)
    return np.where(x > 0, saddle, np.where(x == 0, -rates, -math.inf))


def emission(spec: HmmSpec, s: int | str, k: int) -> float:
    """Poisson pmf of count k under the rate of state s: one entry of
    log_emissions, exponentiated (zero when it underflows)."""
    return math.exp(log_emissions(spec, [k])[0, spec.state_index(s)])


def unit_max_exp(log_rows: np.ndarray) -> np.ndarray:
    """exp of each row of ``log_rows`` (last axis) scaled to a unit
    maximum; an all -inf row gives zeros."""
    peak = log_rows.max(axis=-1, keepdims=True)
    return np.exp(log_rows - np.where(peak > -math.inf, peak, 0.0))


@dataclass(frozen=True)
class ForwardBackward:
    """The log forward and log backward tables, the log_emissions table
    both sweeps read, and the log transition matrix."""

    log_forward: np.ndarray
    log_backward: np.ndarray
    log_emissions: np.ndarray
    log_transition: np.ndarray

    @property
    def forward(self) -> np.ndarray:
        """Forward rows scaled to a unit maximum."""
        return unit_max_exp(self.log_forward)

    @property
    def backward(self) -> np.ndarray:
        """Backward rows scaled to a unit maximum."""
        return unit_max_exp(self.log_backward)


def forward_backward(spec: HmmSpec, y: Sequence[int]) -> ForwardBackward:
    """Both sweeps over one log_emissions table, each step one log-sum-exp
    over the log transition matrix.  ValueError when log P(y) leaves the
    float range."""
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    log_e = log_emissions(spec, y)
    fwd = np.empty((n, spec.n_states))
    bwd = np.zeros((n, spec.n_states))
    # an entry past -1.8e308 reads -inf, losing nothing unless every path
    # does; then reachability tells an impossible y from a vanishing one
    with np.errstate(divide="ignore", over="ignore"):
        log_init = np.log(spec.initial)
        log_t = np.log(spec.transition)
        fwd[0] = log_init + log_e[0]
        for i in range(1, n):
            fwd[i] = np.logaddexp.reduce(fwd[i - 1][:, None] + log_t, axis=0) + log_e[i]
        for i in range(n - 2, -1, -1):
            bwd[i] = np.logaddexp.reduce(log_t + (log_e[i + 1] + bwd[i + 1]), axis=1)
    if np.all(fwd[-1] == -math.inf):
        reach = (log_init > -math.inf) & (log_e[0] > -math.inf)
        for i in range(1, n):
            reach = (reach @ (log_t > -math.inf)) & (log_e[i] > -math.inf)
        if reach.any():
            raise ValueError("log P(observations) leaves the float range (below -1.8e308)")
    return ForwardBackward(fwd, bwd, log_e, log_t)


def _normalized(log_rows: np.ndarray) -> np.ndarray:
    """Each row of exp(log_rows) divided by its sum; an all -inf row
    stays zero."""
    rows = unit_max_exp(log_rows)
    sums = rows.sum(axis=1, keepdims=True)
    return np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)


def log_likelihood(fb: ForwardBackward, i: int = 0) -> float:
    """log P(all observations), readable at any step i."""
    with np.errstate(over="ignore"):
        return float(np.logaddexp.reduce(fb.log_forward[i] + fb.log_backward[i]))


def posteriors(spec: HmmSpec, y: Sequence[int]) -> np.ndarray:
    """All smoothing posteriors P(S_i | all observations) as an
    (n, states) table, row i for 0-based step i."""
    fb = forward_backward(spec, y)
    if log_likelihood(fb) == -math.inf:
        raise ValueError("posterior undefined: observations have probability zero")
    with np.errstate(over="ignore"):
        return _normalized(fb.log_forward + fb.log_backward)


def forward_transition(fb: ForwardBackward, i: int) -> np.ndarray:
    """P(S_i = s | S_{i-1} = r, all observations) with rows indexed by r,
    for 0 < i < horizon.  Rows sum to one up to rounding; a row whose
    state cannot explain the observations is zero."""
    with np.errstate(over="ignore"):
        return _normalized(fb.log_transition + (fb.log_emissions[i] + fb.log_backward[i]))


def backward_transition(fb: ForwardBackward, i: int) -> np.ndarray:
    """P(S_{i-1} = r | S_i = s, all observations) with rows indexed by s,
    for 0 < i < horizon.  Step i's emission is fixed by s, so it cancels."""
    with np.errstate(over="ignore"):
        return _normalized((fb.log_forward[i - 1][:, None] + fb.log_transition).T)


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


def to_bayes_net(spec: HmmSpec, y: Sequence[int]) -> tuple[DiscreteNetwork, EvidenceSet]:
    """Express the chain and its observations as a network plus evidence.

    Count domains are truncated to 0..COUNT_CUTOFF; for the demo rates the
    discarded tail mass is far below 1e-12 for the demo rates, so CPD
    rows still sum to one within tolerance.  Node ids interleave as
    S_1, Y_1, S_2, Y_2, ...
    """
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    counts = _counts(y)
    if any(k < 0 or k > COUNT_CUTOFF for k in counts):
        raise ValueError(f"observations must lie within the count cutoff 0..{COUNT_CUTOFF}")
    count_states = tuple(str(k) for k in range(COUNT_CUTOFF + 1))
    variables: list[Variable] = []
    cpds: list[Cpd] = []
    emission_rows = np.exp(log_emissions(spec, range(COUNT_CUTOFF + 1)).T, order="C")
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
