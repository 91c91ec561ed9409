"""Exact posterior sampling.

Tree-structured models admit exact (non-MCMC) posterior draws: after an
inward pass toward the query's root, the cluster conditionals

    P(cluster | its separator toward the root, evidence)

are available in closed form, so a single sweep from the root assigns
every variable.  Restricting the sweep to a subtree yields draws of any
subset of variables at reduced cost.  The sweep walks the MAP
traceback's root-first order (``CompiledQuery.order``) over the sum
tables laid out as separator rows (``CompiledQuery.cluster_rows``),
building CDFs only for the rows its draws reach.  Targets, separator
states and counts follow the one integer rule (``factor._integer``):
anything but an integer type is a ValueError naming it, never truncated.

Randomness contract: numpy's PCG64 generator seeded with a caller
64-bit seed.  For each visited cluster, in a fixed root-first order
(children by ascending cluster index), one uniform per requested sample
is drawn and inverted through the cluster conditional's CDF laid out in
canonical assignment order (last scope variable fastest).  The draw
stream therefore depends only on (tree, the query's root, targets,
seed, count).

The chain models in the hmm module get a direct implementation of the
same idea (sample_hmm_path) working straight from the log forward/backward
tables, in chronological or reverse order.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factor import Factor, _integer, check_table_size
from .hmm import (
    HmmSpec,
    backward_transition,
    forward_backward,
    forward_transition,
    unit_max_exp,
)
from .propagation import ClusterRows, CompiledQuery, ImpossibleEvidenceError

_CHUNK = 1 << 16


class SamplingConsistencyError(RuntimeError):
    """A conditional came out empty for a separator state that upstream
    messages claim is possible; indicates an engine bug."""


def cluster_conditional(
    cq: CompiledQuery, j: int, sep_assignment: Mapping[int, int]
) -> Factor:
    """P(free cluster variables | separator assignment, evidence).

    The separator is the one toward the query's root; for the root
    cluster it is empty and the result is the normalized root marginal.
    The returned factor is a proper distribution over the free variables,
    one row of ``cluster_rows(j)`` normalized, read with every observation
    masked and none sliced, so that every separator state ``cq.message``
    gives positive mass has one.
    """
    layout = cq._unsliced().cluster_rows(j)
    if set(sep_assignment) != set(layout.sep):
        raise ValueError(
            f"separator assignment must cover exactly {list(layout.sep)}, "
            f"got {sorted(sep_assignment)}"
        )
    states = {u: _integer(s, f"state of variable {u}") for u, s in sep_assignment.items()}
    for u, d in zip(layout.sep, layout.sep_shape):
        # a flattened row index would carry an out-of-range state into
        # a neighbouring row
        if not 0 <= states[u] < d:
            raise ValueError(f"state {states[u]} out of range for variable {u}")
    row = layout.table[layout.row(states)]
    total = float(row.sum())
    if total <= 0.0:
        raise SamplingConsistencyError(
            f"cluster {j} has zero conditional mass at separator "
            f"{dict(sep_assignment)}"
        )
    return Factor(layout.free, (row / total).reshape(layout.free_shape))


def _row_cdfs(rows: np.ndarray) -> np.ndarray:
    """Each row's conditional CDF, in column order.

    The CDF is pinned to exactly 1 from each row's last positive cell on,
    so rounding can neither overflow the index nor leak probability into
    zero cells.  An all-zero row stays all zero.
    """
    sums = rows.sum(axis=1, keepdims=True)
    cond = np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)
    cum = np.cumsum(cond, axis=1)
    positive = cond > 0
    has_mass = positive.any(axis=1)
    last_pos = cond.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    suffix = np.arange(cond.shape[1])[None, :] >= last_pos[:, None]
    cum[has_mass[:, None] & suffix] = 1.0
    return cum


def _invert(cum: np.ndarray, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each draw, the number of cells of CDF row ``pos`` that are <= its
    uniform ``u``, i.e. ``(cum[pos] <= u[:, None]).sum(axis=1)``.

    Every row must end at the pinned 1.0, so ``u < 1`` makes ``cum <= u``
    a prefix of at most W - 1 cells in a row of W.  Padding each row with
    2.0 to a power-of-two width ``span >= W`` keeps the padding outside
    that prefix, and a branchless binary search finds its length in
    log2(span) vectorized steps without gathering whole rows.
    """
    n, width = cum.shape
    span = 1 << (width - 1).bit_length()
    padded = np.full((n, span), 2.0)
    padded[:, :width] = cum
    flat = padded.ravel()
    base = pos * span - 1
    draws = np.zeros(pos.shape[0], dtype=np.int64)
    step = span >> 1
    while step:
        draws += step * (flat[base + draws + step] <= u)
        step >>= 1
    return draws


def _draw(layout: ClusterRows, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Flattened free assignment for each draw, given its separator row
    and uniform.  CDFs are built only for the rows the draws reach."""
    hit = np.zeros(layout.table.shape[0], dtype=bool)
    hit[rows] = True
    reached = np.flatnonzero(hit)
    cum = _row_cdfs(layout.table[reached])
    # a row with mass ends at exactly 1.0; a zero-mass row stays all zero
    if np.any(cum[:, -1] < 1.0):
        raise SamplingConsistencyError(
            f"cluster {layout.cluster} reached with a zero-mass separator"
        )
    return _invert(cum, (np.cumsum(hit) - 1)[rows], u)


class PosteriorSampler:
    """Reusable sampling state: compiled query, visit plan (the needed
    clusters' ``cluster_rows`` layouts in root-first order), and the
    PCG64 generator."""

    def __init__(
        self,
        cq: CompiledQuery,
        seed: int = 0,
        targets: Iterable[int] | None = None,
    ):
        self.cq = cq
        jt = cq.jtree
        if targets is None:
            needed = set(range(jt.q))
            self.variables = tuple(sorted(cq.net.ids))
        else:
            targets = sorted({_integer(u, "target") for u in targets})
            unknown = [u for u in targets if u not in cq.net.cards]
            if unknown:
                raise KeyError(f"unknown variable ids {unknown}")
            # each target's home cluster and its ancestors; a walk stops at
            # the first cluster already needed, so the total is O(q)
            needed = {cq.root}
            for u in targets:
                j = jt.assignment[u]
                while j not in needed:
                    needed.add(j)
                    j = cq.parent[j]
            self.variables = tuple(targets)
        self._plan = [cq.cluster_rows(j) for j in cq.order if j in needed]
        covered = sorted(set().union(*(set(t.sep) | set(t.free) for t in self._plan)))
        self._columns = {u: idx for idx, u in enumerate(covered)}
        self._rng = np.random.Generator(np.random.PCG64(seed))
        if math.isinf(cq.evidence_log_probability()):
            raise ImpossibleEvidenceError("cannot sample: evidence has probability zero")

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` assignments; one row per draw, one column per
        entry of ``self.variables`` (state indices).  FactorSizeError when
        the output would pass the table entry cap."""
        count = _integer(count, "count")
        if count < 0:
            raise ValueError("count must be non-negative")
        check_table_size((count, len(self._columns)), "sample output")
        out = np.zeros((count, len(self._columns)), dtype=np.int64)
        for layout in self._plan:
            uniforms = self._rng.random(count)
            rows = np.zeros(count, dtype=np.int64) + layout.row(
                {u: out[:, self._columns[u]] for u in layout.sep}
            )
            for lo in range(0, count, _CHUNK):
                hi = min(lo + _CHUNK, count)
                draws = _draw(layout, rows[lo:hi], uniforms[lo:hi])
                if layout.free:
                    states = np.unravel_index(draws, layout.free_shape)
                    for u, vals in zip(layout.free, states):
                        out[lo:hi, self._columns[u]] = vals
        keep = [self._columns[u] for u in self.variables]
        return out[:, keep]


def sample_posterior(
    cq: CompiledQuery,
    seed: int = 0,
    count: int = 1,
    targets: Iterable[int] | None = None,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Exact posterior draws; returns (variable ids, count x len array).

    With ``targets`` the tree walk is restricted to the subtree needed to
    cover those variables and only their columns are returned.
    """
    sampler = PosteriorSampler(cq, seed=seed, targets=targets)
    return sampler.variables, sampler.sample(count)


# -- chain models -----------------------------------------------------------


def sample_hmm_path(
    spec: HmmSpec,
    y: Sequence[int],
    direction: str = "forward",
    seed: int = 0,
    count: int = 1,
) -> np.ndarray:
    """Posterior state paths for a chain model, (count, horizon) indices.

    "forward" starts at step 1 and walks ahead through the conditional
    transitions; "backward" starts at the final step and walks back.
    Both target the same smoothing posterior.  One uniform per path per
    step, steps processed in walk order.  FactorSizeError when the
    output would pass the table entry cap.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    n = spec.horizon
    count = _integer(count, "count")
    if count < 0:
        raise ValueError("count must be non-negative")
    check_table_size((count, n), "sample output")
    fb = forward_backward(spec, y)
    rng = np.random.Generator(np.random.PCG64(seed))
    paths = np.zeros((count, n), dtype=np.int64)
    walk = range(n) if direction == "forward" else range(n - 1, -1, -1)
    with np.errstate(over="ignore"):
        start = unit_max_exp(fb.log_forward[walk[0]] + fb.log_backward[walk[0]])
    if start.sum() <= 0:
        raise ValueError("observations have probability zero")
    first = np.zeros(count, dtype=np.int64)
    paths[:, walk[0]] = _invert(_row_cdfs(start[None, :]), first, rng.random(count))
    transition = forward_transition if direction == "forward" else backward_transition
    for prev, i in zip(walk, walk[1:]):
        # either conditional is indexed by the later of its two steps
        cdf = _row_cdfs(transition(fb, max(prev, i)))
        paths[:, i] = _invert(cdf, paths[:, prev], rng.random(count))
    return paths
