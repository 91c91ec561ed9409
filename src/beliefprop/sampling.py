"""Exact posterior sampling.

Tree-structured models admit exact (non-MCMC) posterior draws: after an
inward pass toward the query's root, the cluster conditionals

    P(cluster | its separator toward the root, evidence)

are available in closed form, so a single sweep from the root assigns
every variable.  Restricting the sweep to a subtree yields draws of any
subset of variables at reduced cost.  The sweep walks the MAP
traceback's root-first order (``CompiledQuery.order``) over the sum
tables laid out as ``CompiledQuery.cluster_rows`` lays them out, one row
per state of the separator toward the root, but never forms a whole
table: the root's one row is formed at construction, and each batch of
draws forms, by the query's row kernel (``propagation._rows``), only the
rows at the distinct separator states it reaches, and their CDFs, each
without the variables the evidence pins: a CDF is a running sum over its
total (``_row_cdfs``), on which their zero cells change no bit, and a
gather (``_Visit.back``) puts each draw back in the whole row.
Seeds, targets, separator states and counts follow the one integer rule
(``factor._integer``): anything but an integer type is a ValueError
naming it, never truncated.

Randomness contract: numpy's PCG64 generator seeded with a caller
64-bit seed.  For each visited cluster, in a fixed root-first order
(children by ascending cluster index), one uniform per requested sample
is drawn and inverted through the cluster conditional's CDF laid out in
canonical assignment order (last scope variable fastest).  The draw
stream therefore depends only on (tree, the query's root, targets,
seed, count).

The chain models in the hmm module get a direct implementation of the
same idea (sample_hmm_path) working straight from the log forward/backward
tables the spec keeps, forward or backward in time, a block's CDFs at once.
Its draws follow the same contract: one uniform per path for the first
state, then one per path per step in walk order.  On a chain of at most
``hmm.SCAN_STATES`` states a block's CDFs become outcome tables, each
path's next state from every previous state, and a step is one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factor import Factor, _integer, _trusted, check_table_size
from .hmm import (SCAN_STATES, ForwardBackward, HmmSpec, _transitions, forward_backward,
                  unit_max_exp)
from .propagation import CompiledQuery, ImpossibleEvidenceError, _rows

_CHUNK = 1 << 16


class SamplingConsistencyError(RuntimeError):
    """A conditional came out empty for a separator state that upstream
    messages claim is possible, under possible evidence; an engine bug."""


def cluster_conditional(
    cq: CompiledQuery, j: int, sep_assignment: Mapping[int, int]
) -> Factor:
    """P(free cluster variables | separator assignment, evidence).

    The separator is the one toward the query's root; for the root
    cluster it is empty and the result is the normalized root marginal.
    The returned factor is a proper distribution over the free variables:
    the one row at ``sep_assignment`` (``_rows`` on ``CompiledQuery._unmasked``,
    separator axes first) of the cluster's product over its whole scope,
    every observation masked and none sliced, normalized, so that every separator
    state ``cq.message`` gives positive mass has one; ImpossibleEvidenceError
    for a zero row under evidence of probability zero.
    """
    j = cq._cluster(j)
    operands, _ = cq._unmasked(j, cq.parent.get(j), "sum")
    full, free = cq._layouts[j].full, cq._free(j)[0]
    sep = tuple(u for u in full if u not in free)
    states = {_integer(u, "separator variable id"): s for u, s in sep_assignment.items()}
    if set(states) != set(sep):
        raise ValueError(f"separator assignment must cover exactly {list(sep)}, "
                         f"got {sorted(states)}")
    states = {u: _integer(s, f"state of variable {u}") for u, s in states.items()}
    for u in sep:
        if not 0 <= states[u] < cq.net.cards[u]:
            raise ValueError(f"state {states[u]} out of range for variable {u}")
    perm = [full.index(u) for u in sep + free]
    row = _rows([x.transpose(perm) for x in operands], tuple(map(states.__getitem__, sep)),
                tuple(map(cq.net.cards.__getitem__, free)))
    total = float(row.reshape(-1).sum())
    if total <= 0.0:
        if cq.evidence_log_probability() == -math.inf:
            raise ImpossibleEvidenceError("conditional undefined: evidence has probability zero")
        raise SamplingConsistencyError(
            f"cluster {j} has zero conditional mass at separator "
            f"{dict(sep_assignment)}"
        )
    return _trusted(free, row / total, 0.0)


def _row_cdfs(rows: np.ndarray) -> np.ndarray:
    """Each row's (last axis) conditional CDF, in column order: its running
    sum over its total, the running sum's last cell.

    A zero cell adds exactly 0 to a running sum, so every cell from a row's
    last positive cell on is exactly ``total / total == 1.0``, and a row's
    CDF at its positive cells has the same bits with its zero cells put in
    or left out.  An all-zero row stays all zero.
    """
    cum = np.cumsum(rows, axis=-1)
    total = cum[..., -1:]
    return cum / np.where(total > 0, total, 1.0)


def _padded(cum: np.ndarray) -> np.ndarray:
    """CDF rows (last axis) padded with 2.0 to a power-of-two width for ``_search``."""
    width = cum.shape[-1]
    padded = np.full((*cum.shape[:-1], 1 << (width - 1).bit_length()), 2.0)
    padded[..., :width] = cum
    return padded


def _search(padded: np.ndarray, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each draw, ``(cum[pos] <= u[:, None]).sum(axis=1)``: the cells of
    its CDF row ``pos`` (rows of ``padded`` across its leading axes) <= ``u``.

    Every row must end at exactly 1.0 (``_row_cdfs``), so ``u < 1`` makes
    ``cum <= u`` a prefix of at most W - 1 cells in a row of W.  ``_padded``
    keeps its 2.0s outside that prefix, and a branchless binary search finds
    its length in log2(span) vectorized steps without gathering whole rows.
    """
    span = padded.shape[-1]
    flat = padded.reshape(-1)
    base = pos * span - 1
    draws = np.zeros(pos.shape[0], dtype=np.int64)
    step = span >> 1
    while step:
        draws += step * (flat[base + draws + step] <= u)
        step >>= 1
    return draws


@dataclass(frozen=True)
class _Visit:
    """One cluster of the sampler's walk, laid out as ``ClusterRows`` (its
    ``cluster``, ``sep``, ``free`` and their shapes) without the table: the
    row kernel's ``operands`` (``CompiledQuery._row_operands``) and ``dims``,
    the sliced free axes it forms beside the separator's; ``back``, each
    sliced free entry's flat place among all of ``free``, where a draw is
    put back; and at the root, formed once, ``table``, the one row over the
    sliced scope."""

    cluster: int
    sep: tuple[int, ...]
    sep_shape: tuple[int, ...]
    free: tuple[int, ...]
    free_shape: tuple[int, ...]
    operands: list
    dims: tuple[int, ...]
    table: np.ndarray | None
    back: np.ndarray


class PosteriorSampler:
    """Reusable sampling state: compiled query, visit plan (the needed
    clusters' ``_Visit`` in root-first order), and the PCG64 generator."""

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
        self._plan = [self._visit(j) for j in cq.order if j in needed]
        covered = sorted(set().union(*(set(t.sep) | set(t.free) for t in self._plan)))
        self._columns = {u: idx for idx, u in enumerate(covered)}
        self._rng = np.random.Generator(np.random.PCG64(_integer(seed, "seed")))
        if not self._plan[0].table.any():  # the root's row: P(evidence) = 0
            raise ImpossibleEvidenceError("cannot sample: evidence has probability zero")

    def _visit(self, j: int) -> _Visit:
        """Cluster j's ``_Visit``: what its rows read, and at the root its row."""
        cq = self.cq
        operands, edge = cq._row_operands(j, "sum")
        free, free_shape = cq._free(j)
        at = tuple(cq._observed.get(u, slice(None)) for u in free)
        back = np.arange(math.prod(free_shape)).reshape(free_shape)[at].reshape(-1)
        if edge is None:
            dims = cq._layouts[j].shape
            row = _rows(operands, (), (1, *dims)).reshape(1, -1)
            return _Visit(j, (), (), free, free_shape, [], dims, row, back)
        return _Visit(j, edge.sep, edge.shape, free, free_shape, operands, edge.dims, None, back)

    def _draw(self, visit: _Visit, flat: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Flattened free assignment for each draw, given its separator row
        ``flat`` and uniform: rows and CDFs are formed only for the distinct
        rows the draws reach, in ascending order."""
        hit = np.zeros(math.prod(visit.sep_shape), dtype=bool)
        hit[flat] = True
        reached = np.flatnonzero(hit)
        at = np.empty(hit.size, dtype=np.int64)  # each reached row's place among them
        at[reached] = np.arange(reached.size)
        if visit.table is not None:
            rows = visit.table[reached]
        else:
            states = np.unravel_index(reached, visit.sep_shape) if visit.sep else ()
            rows = _rows(visit.operands, states, (reached.size, *visit.dims)).reshape(reached.size, -1)
        cum = _row_cdfs(rows)
        # a row with mass ends at exactly 1.0; a zero-mass row stays all zero
        if np.any(cum[:, -1] < 1.0):
            raise SamplingConsistencyError(
                f"cluster {visit.cluster} reached with a zero-mass separator"
            )
        return visit.back[_search(_padded(cum), at[flat], u)]

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` assignments; one row per draw, one column per
        entry of ``self.variables`` (state indices).  FactorSizeError when
        the output would pass the table entry cap."""
        count = _integer(count, "count")
        if count < 0:
            raise ValueError("count must be non-negative")
        check_table_size((count, len(self._columns)), "sample output")
        out = np.zeros((count, len(self._columns)), dtype=np.int64)
        for visit in self._plan:
            uniforms = self._rng.random(count)
            flat = np.zeros(count, dtype=np.int64)
            for u, d in zip(visit.sep, visit.sep_shape):
                flat = flat * d + out[:, self._columns[u]]
            for lo in range(0, count, _CHUNK):
                hi = min(lo + _CHUNK, count)
                draws = self._draw(visit, flat[lo:hi], uniforms[lo:hi])
                if visit.free:
                    states = np.unravel_index(draws, visit.free_shape)
                    for u, vals in zip(visit.free, states):
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
    Both target the same smoothing posterior.  One uniform per path for
    the first state, then one per path per step, steps in walk order.
    CDFs are built a block of steps at a time.  A chain of at most
    ``SCAN_STATES`` states turns each block into outcome tables, every
    path's next state from every previous state, so that a step is one
    gather; a larger one searches each step's CDF rows.  Each block
    holds about ``_CHUNK`` entries.  The tables are the sweep the spec
    keeps (``forward_backward``).  FactorSizeError when the output would
    pass the table entry cap.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    n = spec.horizon
    count = _integer(count, "count")
    if count < 0:
        raise ValueError("count must be non-negative")
    check_table_size((count, n), "sample output")
    fb = forward_backward(spec, y)
    rng = np.random.Generator(np.random.PCG64(_integer(seed, "seed")))
    walk = range(n) if direction == "forward" else range(n - 1, -1, -1)
    with np.errstate(over="ignore"):
        start = unit_max_exp(fb.log_forward[walk[0]] + fb.log_backward[walk[0]])
    if start.sum() <= 0:
        raise ValueError("observations have probability zero")
    # row t of walked is the state at walk[t]; row t of uniforms takes
    # walk[t] to walk[t + 1], drawn as PCG64 draws them one step at a time
    walked = np.empty((n, count), dtype=np.int64)
    walked[0] = _search(_padded(_row_cdfs(start)), np.zeros(count, dtype=np.int64),
                        rng.random(count))
    uniforms = rng.random((n - 1, count))
    k = spec.n_states
    if k <= SCAN_STATES:
        _walk_outcomes(fb, direction, uniforms, walked)
    else:
        lo, hi = 0, 0
        block = max(1, _CHUNK // (k * k))
        for t, step in enumerate(max(prev, i) for prev, i in zip(walk, walk[1:])):
            # either conditional is indexed by the later step; steps go in
            # fixed blocks counted from step 1
            if not lo <= step < hi:
                lo = step - (step - 1) % block
                hi = min(lo + block, n)
                padded = _padded(_row_cdfs(_transitions(fb, direction, lo, hi)))
            walked[t + 1] = _search(padded, (step - lo) * k + walked[t], uniforms[t])
    return np.ascontiguousarray(walked[::1 if direction == "forward" else -1].T)


def _walk_outcomes(fb: ForwardBackward, direction: str, uniforms: np.ndarray,
                   walked: np.ndarray) -> None:
    """The walk of sample_hmm_path on a chain of few states.  A step's
    outcome table holds, for each path and each previous state r, the
    next state its uniform u picks, ``(cum[r, :-1] <= u).sum()``, which
    is what ``_search`` counts on the same CDF row; the walk then gathers
    each path's entry at its previous state.  Tables are built for a
    block of steps and paths of about ``_CHUNK`` compared entries."""
    n, count = walked.shape
    k = fb.log_forward.shape[1]
    width = min(max(count, 1), max(1, _CHUNK // (k * k)))
    block = max(1, _CHUNK // (k * k * width))
    forward = direction == "forward"
    starts = range(1, n, block)
    paths = np.arange(count)
    for lo in starts if forward else reversed(starts):
        hi = min(lo + block, n)
        # steps lo..hi - 1 index the CDFs; the walk's rows t take them in
        # walk order, from walked[t] to walked[t + 1]
        rows = range(lo - 1, hi - 1) if forward else range(n - hi, n - lo)
        cum = _row_cdfs(_transitions(fb, direction, lo, hi))[::1 if forward else -1]
        for a in range(0, count, width):
            b = min(a + width, count)
            u = uniforms[rows.start:rows.stop, None, None, a:b]
            outcomes = (cum[:, :, :-1, None] <= u).sum(axis=2)
            for t, table in zip(rows, outcomes):
                walked[t + 1, a:b] = table[walked[t, a:b], paths[:b - a]]
