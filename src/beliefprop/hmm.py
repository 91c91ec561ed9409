"""Hidden Markov chains with Poisson count emissions.

The chain S_1..S_n moves between discrete regimes and each day emits a
count Y_i ~ Poisson(rate of the current regime).  Filtering and
smoothing are done with the classic two sweeps, kept in log space:

    log_forward[i](s)  = log P(S_i = s, Y_1..Y_i = y_1..y_i)
    log_backward[i](s) = log P(Y_{i+1}..Y_n = y_{i+1}..y_n | S_i = s)

with log_backward[n] = 0.  Both sweeps read one table per sequence, the
(n x states) log pmfs from log_emissions, computed once per distinct
count; emission() and to_bayes_net's CPD rows read the same table.
A spec keeps its last sweep, read-only, for every reader of those counts.
Both sweeps work in the log semiring.  A chain of at most SCAN_STATES
states takes each as a Hillis-Steele scan over its step matrices
log_t[r, s] + log_e[i, s], ceil(log2 n) rounds of batched products in
which each entry is its own log-sum-exp (``_log_scan``, the one scan
the tree engine also sends a run of clusters by); a larger chain takes
one log-sum-exp over the log transition matrix per step.  Neither
rounds an entry away against another: horizons of thousands of steps,
counts whose pmf underflows to 0 in every state, and zero transition
entries all stay exact.
log_likelihood sums a row of the tables with logaddexp; posteriors
(smoothing_posteriors, from a sweep already run) and the posterior
chain's conditionals (stacked over a run of steps, one formula per
direction) exponentiate log rows scaled to a unit maximum (unit_max_exp)
and normalize each row.

The chain is also expressible as a Bayesian network (one node per S_i
and Y_i, counts truncated to a finite domain), which lets the generic
tree engine answer the same queries; see to_bayes_net and
chain_junction_tree.  The bundled demo model: regimes L and H, start
pinned to H, P(H -> L) = 0.3, P(L -> H) = 0.1, rates 3.0 and 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .factor import _integer, check_table_size
from .model import Cpd, DiscreteNetwork, EvidenceSet, Variable, _trusted_evidence

if TYPE_CHECKING:
    from .jtree import JunctionTree

COUNT_CUTOFF = 40
# past this magnitude a count's log pmf leaves the float range
MAX_COUNT = 10**305
# chains of at most this many states sweep by log-depth scans, and
# sample_hmm_path walks them through outcome tables.  A scan does s^3 log n
# work to the loop's s^2 n: on a 2-core host it won 2x or more at s <= 3
# up to n = 2000 (s = 3 breaks even near n = 20000), about even at s = 4
# and n = 2000, and lost at s = 5
SCAN_STATES = 3
# matrices per scan block: a block's products hold 2 s^3 entries per step
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class HmmSpec:
    """State space, initial distribution, transition matrix, Poisson
    emission rates, and horizon length.  FactorSizeError when the
    horizon x states tables the sweeps keep would pass the entry cap.
    Keeps, outside its fields, forward_backward's last sweep."""

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
        object.__setattr__(self, "_sweep", (None, None))  # (counts key, ForwardBackward)

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


def _counts(y: Sequence[int]) -> np.ndarray | list[int]:
    """The counts of y, checked where they enter: an integer ndarray as it
    is, since it holds neither a fraction nor a magnitude past MAX_COUNT,
    anything else one count at a time, as Python ints."""
    if isinstance(y, np.ndarray) and y.ndim == 1 and y.dtype.kind in "iu":
        return y
    counts = []
    for i, k in enumerate(y):
        c = _integer(k, f"count at step {i}:")
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
    -rate, a negative one -inf.  Each distinct count's row is computed
    once.  ValueError naming the step when a count is not an integer or
    its magnitude passes MAX_COUNT.
    """
    return _log_pmfs(spec, _counts(counts))


def _log_pmfs(spec: HmmSpec, k: np.ndarray | Sequence[int]) -> np.ndarray:
    """log_emissions of counts already checked by _counts."""
    if isinstance(k, np.ndarray):
        distinct, inverse = np.unique(k, return_inverse=True)
        distinct = distinct.tolist()
    else:
        first: dict[int, int] = {}
        inverse = np.array([first.setdefault(c, len(first)) for c in k], dtype=np.intp)
        distinct = list(first)
    # one row per distinct count, read out per step
    rates = np.asarray(spec.rates)
    x = np.array([float(c) for c in distinct]).reshape(-1, 1)
    lead = [_stirlerr(c) + _HALF_LOG_2PI + 0.5 * math.log(c) if c > 0 else 0.0 for c in distinct]
    saddle = -np.reshape(lead, (-1, 1)) - _bd0(np.maximum(x, 1.0), rates)
    return np.where(x > 0, saddle, np.where(x == 0, -rates, -math.inf))[inverse]


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


def _log_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """log-sum-exp of ``terms`` along ``axis``, shifted by the maximum of
    each sum; a sum of -inf terms is -inf.  ``terms`` is overwritten."""
    peak = terms.max(axis=axis, keepdims=True)
    peak[peak == -math.inf] = 0.0
    terms -= peak
    return np.log(np.exp(terms, out=terms).sum(axis=axis)) + peak.squeeze(axis)


def _log_scan(logs: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log-semiring products start x M_0 ... M_t for each t, as (shifted log rows,
    ``offsets`` to add back).  ``logs`` (overwritten) stacks the M_t[r, c] along its
    last axis, batch axes between c and t; ``start`` covers the first rows r.  Each M_t
    is shifted by its maximum rounded to a whole number (0 if all -inf), so ``offsets``,
    their running sums, are exact; then Hillis-Steele, ceil(log2 n) rounds of one batched
    product, each entry its own log-sum-exp, so none is rounded away against another."""
    logs[:len(start), :, ..., 0] += start[:, None]
    shifts = np.rint(logs.max(axis=(0, 1)))
    shifts[shifts == -math.inf] = 0.0
    logs -= shifts
    d = 1
    while d < logs.shape[-1]:
        logs[..., d:] = _log_sum(logs[:, :, None, ..., :-d] + logs[None, ..., d:], axis=1)
        d *= 2
    return _log_sum(logs, axis=0), np.cumsum(shifts, axis=-1)


def _scan_sweeps(log_start: np.ndarray, log_t: np.ndarray, log_e: np.ndarray,
                 fwd: np.ndarray, bwd: np.ndarray) -> None:
    """Both sweeps from the step matrices M_i[r, s] = log_t[r, s] + log_e[i, s],
    stacked along the last axis: fwd[i] reduces M_1 ... M_i against fwd[0],
    and bwd[i] reduces M_{i+1} ... M_{n-1} against zeros, the same scan
    over the matrices reversed and transposed.  The two scans run side by
    side on an axis of their own, _SCAN_BLOCK matrices at a time, each
    block started from the rows the one before it ended on."""
    fwd[0] = log_start
    bwd_r, log_e_r = bwd[::-1], log_e[::-1]  # bwd_r[j] = bwd[n - 1 - j]
    for lo in range(0, len(fwd) - 1, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, len(fwd) - 1)
        both = np.stack([log_t[:, :, None] + log_e[lo + 1:hi + 1].T[None],
                         log_t.T[:, :, None] + log_e_r[lo:hi].T[:, None]], axis=2)
        values, offsets = _log_scan(both, np.stack([fwd[lo], bwd_r[lo]], axis=1))
        fwd[lo + 1:hi + 1], bwd_r[lo + 1:hi + 1] = (values + offsets).transpose(1, 2, 0)


def _step_sweeps(log_start: np.ndarray, log_t: np.ndarray, log_e: np.ndarray,
                 fwd: np.ndarray, bwd: np.ndarray) -> None:
    """Both sweeps one step at a time, each step one log-sum-exp over the
    log transition matrix."""
    fwd[0] = log_start
    for i in range(1, len(fwd)):
        fwd[i] = np.logaddexp.reduce(fwd[i - 1][:, None] + log_t, axis=0) + log_e[i]
    for i in range(len(bwd) - 2, -1, -1):
        bwd[i] = np.logaddexp.reduce(log_t + (log_e[i + 1] + bwd[i + 1]), axis=1)


def forward_backward(spec: HmmSpec, y: Sequence[int]) -> ForwardBackward:
    """Both sweeps over one log_emissions table, in the log semiring.  A
    chain of at most SCAN_STATES states takes each sweep as one log-depth
    scan over its step matrices, a longer one step at a time; no entry is
    rescaled either way.  ValueError when log P(y) leaves the float range.
    The spec keeps its last sweep, keyed by the checked counts (an integer
    ndarray's dtype and bytes, else the ints): the same counts get the same
    object back, its arrays read-only.  A refused y leaves it in place."""
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    counts = _counts(y)
    key = (counts.dtype.str, counts.tobytes()) if isinstance(counts, np.ndarray) else tuple(counts)
    if spec._sweep[0] == key:
        return spec._sweep[1]
    log_e = _log_pmfs(spec, counts)
    fwd = np.empty((n, spec.n_states))
    bwd = np.zeros((n, spec.n_states))
    sweeps = _scan_sweeps if spec.n_states <= SCAN_STATES else _step_sweeps
    # an entry past -1.8e308 reads -inf, losing nothing unless every path
    # does; then reachability tells an impossible y from a vanishing one
    with np.errstate(divide="ignore", over="ignore"):
        log_init = np.log(spec.initial)
        log_t = np.log(spec.transition)
        sweeps(log_init + log_e[0], log_t, log_e, fwd, bwd)
    if np.all(fwd[-1] == -math.inf):
        reach = (log_init > -math.inf) & (log_e[0] > -math.inf)
        for i in range(1, n):
            reach = (reach @ (log_t > -math.inf)) & (log_e[i] > -math.inf)
        if reach.any():
            raise ValueError("log P(observations) leaves the float range (below -1.8e308)")
    for table in (fwd, bwd, log_e, log_t):
        table.setflags(write=False)
    object.__setattr__(spec, "_sweep", (key, ForwardBackward(fwd, bwd, log_e, log_t)))
    return spec._sweep[1]


def _normalized(log_rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of exp(log_rows) over its sum; all -inf stays zero."""
    rows = unit_max_exp(log_rows)
    sums = rows.sum(axis=-1, keepdims=True)
    return np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)


def log_likelihood(fb: ForwardBackward, i: int = 0) -> float:
    """log P(all observations), readable at any step i."""
    i = _integer(i, "step")
    with np.errstate(over="ignore"):
        return float(np.logaddexp.reduce(fb.log_forward[i] + fb.log_backward[i]))


def posteriors(spec: HmmSpec, y: Sequence[int]) -> np.ndarray:
    """All smoothing posteriors P(S_i | all observations) as an
    (n, states) table, row i for 0-based step i."""
    return smoothing_posteriors(forward_backward(spec, y))


def smoothing_posteriors(fb: ForwardBackward) -> np.ndarray:
    """posteriors() read from a sweep already run."""
    if log_likelihood(fb) == -math.inf:
        raise ValueError("posterior undefined: observations have probability zero")
    with np.errstate(over="ignore"):
        return _normalized(fb.log_forward + fb.log_backward)


def _transitions(fb: ForwardBackward, direction: str, lo: int, hi: int) -> np.ndarray:
    """Steps lo..hi - 1's posterior conditionals in one direction, stacked
    as (hi - lo, states, states) by one formula for all steps; entry
    i - lo is forward_transition(fb, i) or backward_transition(fb, i)."""
    n = len(fb.log_forward)
    if not 0 < lo <= hi <= n:
        raise IndexError(f"no transition at steps {lo}..{hi - 1} (only 1..{n - 1})")
    with np.errstate(over="ignore"):
        if direction == "forward":
            log_rows = fb.log_emissions[lo:hi] + fb.log_backward[lo:hi]
            return _normalized(fb.log_transition + log_rows[:, None, :])
        log_cols = fb.log_forward[lo - 1:hi - 1, :, None] + fb.log_transition
        return _normalized(log_cols.transpose(0, 2, 1))


def forward_transition(fb: ForwardBackward, i: int) -> np.ndarray:
    """P(S_i = s | S_{i-1} = r, all observations) with rows indexed by r,
    for 0 < i < horizon.  Rows sum to one up to rounding; a row whose
    state cannot explain the observations is zero."""
    i = _integer(i, "step")
    return _transitions(fb, "forward", i, i + 1)[0]


def backward_transition(fb: ForwardBackward, i: int) -> np.ndarray:
    """P(S_{i-1} = r | S_i = s, all observations) with rows indexed by s,
    for 0 < i < horizon.  Step i's emission is fixed by s, so it cancels."""
    i = _integer(i, "step")
    return _transitions(fb, "backward", i, i + 1)[0]


def simulate(spec: HmmSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one state path and its observations (PCG64, reproducible)."""
    rng = np.random.Generator(np.random.PCG64(_integer(seed, "seed")))
    trans = np.asarray(spec.transition)
    states = np.zeros(spec.horizon, dtype=int)
    states[0] = rng.choice(spec.n_states, p=np.asarray(spec.initial))
    for i in range(1, spec.horizon):
        states[i] = rng.choice(spec.n_states, p=trans[states[i - 1]])
    y = rng.poisson(np.asarray(spec.rates)[states])
    return states, y.astype(int)


def to_bayes_net(spec: HmmSpec, y: Sequence[int]) -> tuple[DiscreteNetwork, EvidenceSet]:
    """Express the chain and its observations as a network plus evidence.

    Count domains are truncated to 0..COUNT_CUTOFF; for the demo rates
    the discarded tail mass is far below 1e-12, so CPD rows still sum to
    one within tolerance.  The transition matrix and the emission rows
    are one array each, shared by their CPDs.  Ids go S_1, Y_1, S_2, ...
    The network reads only ``spec``: one object per spec (the last few
    kept) serves every sequence, shared and read-only.
    """
    n = spec.horizon
    if len(y) != n:
        raise ValueError(f"expected {n} observations, got {len(y)}")
    counts = _counts(y)
    if isinstance(counts, np.ndarray):
        low, high, counts = counts.min(), counts.max(), counts.tolist()
    else:
        low, high = min(counts), max(counts)
    if low < 0 or high > COUNT_CUTOFF:
        raise ValueError(f"observations must lie within the count cutoff 0..{COUNT_CUTOFF}")
    pinned = {c: frozenset((c,)) for c in set(counts)}  # checked ints, one set per count
    return _chain_network(spec), _trusted_evidence(dict(zip(range(1, 2 * n, 2), map(pinned.get, counts))))


@functools.lru_cache(maxsize=4)
def _chain_network(spec: HmmSpec) -> DiscreteNetwork:
    count_states = tuple(str(k) for k in range(COUNT_CUTOFF + 1))
    variables: list[Variable] = []
    cpds: list[Cpd] = []
    transition = np.asarray(spec.transition)
    emission_rows = np.exp(log_emissions(spec, np.arange(COUNT_CUTOFF + 1)).T, order="C")
    for i in range(spec.horizon):
        s_id, y_id = 2 * i, 2 * i + 1
        variables.append(Variable(s_id, f"S{i + 1}", spec.states))
        variables.append(Variable(y_id, f"Y{i + 1}", count_states))
        if i == 0:
            cpds.append(Cpd(s_id, (), np.asarray([spec.initial])))
        else:
            cpds.append(Cpd(s_id, (2 * (i - 1),), transition))
        cpds.append(Cpd(y_id, (s_id,), emission_rows))
    return DiscreteNetwork(variables, cpds)


@functools.lru_cache(maxsize=4)
def chain_junction_tree(spec: HmmSpec) -> JunctionTree:
    """The natural chain of clusters for the network from to_bayes_net:
    {S_1, Y_1}, then {S_{i-1}, S_i, Y_i} for each later step, with each
    step's pair assigned to its own cluster.  One tree per spec (the last
    few kept), shared and read-only, so its queries share its plan."""
    from .jtree import JunctionTree  # here, so that hmm-demo compiles no jtree

    n = spec.horizon
    clusters = [frozenset({0, 1})] + [frozenset({2 * i - 2, 2 * i, 2 * i + 1}) for i in range(1, n)]
    edges = tuple((i - 1, i) for i in range(1, n))
    return JunctionTree(tuple(clusters), edges, {u: u // 2 for u in range(2 * n)})
