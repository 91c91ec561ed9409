"""Exact posterior sampling.

Tree-structured models admit exact (non-MCMC) posterior draws: after an
inward pass toward the query's root, the cluster conditionals

    P(cluster | its separator toward the root, evidence)

are available in closed form, so a single sweep from the root assigns
every variable.  Restricting the sweep to a subtree yields draws of any
subset of variables at reduced cost.  Every parent comes from the
query's one rooted schedule (``CompiledQuery.parent``).

Randomness contract: numpy's PCG64 generator seeded with a caller
64-bit seed.  For each visited cluster, in a fixed root-first order
(children by ascending cluster index), one uniform per requested sample
is drawn and inverted through the cluster conditional's CDF laid out in
canonical assignment order (last scope variable fastest).  The draw
stream therefore depends only on (tree, the query's root, targets,
seed, count).

The chain models in the hmm module get a direct implementation of the
same idea (sample_hmm_path) working straight from the forward/backward
tables, in chronological or reverse order.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .factor import Factor
from .hmm import ForwardBackward, HmmSpec, _emission_column, forward_backward
from .propagation import CompiledQuery, ImpossibleEvidenceError

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
    The returned factor is a proper distribution over the free variables.
    """
    parent = cq.parent.get(j)
    sep = cq.jtree.separator(j, parent) if parent is not None else frozenset()
    if set(sep_assignment) != set(sep):
        raise ValueError(
            f"separator assignment must cover exactly {sorted(sep)}, "
            f"got {sorted(sep_assignment)}"
        )
    numer = cq.cluster_table(j, parent)
    index = tuple(
        int(sep_assignment[u]) if u in sep_assignment else slice(None)
        for u in numer.scope
    )
    free = tuple(u for u in numer.scope if u not in sep_assignment)
    sub = np.asarray(numer.values[index], dtype=float)
    total = float(sub.sum())
    if total <= 0.0:
        raise SamplingConsistencyError(
            f"cluster {j} has zero conditional mass at separator "
            f"{dict(sep_assignment)}"
        )
    return Factor(free, sub / total)


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


class _ClusterTable:
    """Precomputed conditional CDFs for one cluster: rows indexed by the
    flattened separator assignment, columns by the flattened free
    assignment (canonical order both ways)."""

    def __init__(self, cq: CompiledQuery, j: int):
        parent = cq.parent.get(j)
        sep = sorted(cq.jtree.separator(j, parent)) if parent is not None else []
        numer = cq.cluster_table(j, parent)
        free = [u for u in numer.scope if u not in sep]
        perm = [numer.scope.index(u) for u in [*sep, *free]]
        sep_shape = tuple(numer.card(u) for u in sep)
        free_shape = tuple(numer.card(u) for u in free)
        table = numer.values.transpose(perm).reshape(
            int(np.prod(sep_shape, dtype=int)), int(np.prod(free_shape, dtype=int))
        )
        self.cum = _row_cdfs(table)
        # a row with mass ends at exactly 1.0; a zero-mass row stays all zero
        self.zero_row = self.cum[:, -1] < 1.0
        self.cluster = j
        self.sep = sep
        self.free = free
        self.free_shape = free_shape


class PosteriorSampler:
    """Reusable sampling state: compiled query, visit plan, CDF tables,
    and the PCG64 generator."""

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
            targets = sorted(set(int(u) for u in targets))
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
        _, order = cq.rooted_children(cq.root)
        self._plan = [_ClusterTable(cq, j) for j in order if j in needed]
        covered = sorted(set().union(*(set(t.sep) | set(t.free) for t in self._plan)))
        self._columns = {u: idx for idx, u in enumerate(covered)}
        self._rng = np.random.Generator(np.random.PCG64(seed))
        if math.isinf(cq.evidence_log_probability()):
            raise ImpossibleEvidenceError("cannot sample: evidence has probability zero")

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` assignments; one row per draw, one column per
        entry of ``self.variables`` (state indices)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        cards = self.cq.net.cards
        out = np.zeros((count, len(self._columns)), dtype=np.int64)
        for table in self._plan:
            uniforms = self._rng.random(count)
            flat = np.zeros(count, dtype=np.int64)
            for u in table.sep:
                flat = flat * cards[u] + out[:, self._columns[u]]
            for lo in range(0, count, _CHUNK):
                hi = min(lo + _CHUNK, count)
                rows = flat[lo:hi]
                if table.zero_row.size and np.any(table.zero_row[rows]):
                    raise SamplingConsistencyError(
                        f"cluster {table.cluster} reached with a zero-mass separator"
                    )
                cum = table.cum[rows]
                draws = (cum <= uniforms[lo:hi, None]).sum(axis=1)
                if table.free:
                    states = np.unravel_index(draws, table.free_shape)
                    for u, vals in zip(table.free, states):
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


def forward_transition(
    spec: HmmSpec, fb: ForwardBackward, y: Sequence[int], i: int
) -> np.ndarray:
    """P(S_i = s | S_{i-1} = r, all observations) with rows indexed by r,
    for 0 < i < horizon.  Rows sum to one up to rounding."""
    e = _emission_column(spec, int(y[i]))
    scale = math.exp(float(fb.backward_log[i] - fb.backward_log[i - 1]))
    numer = np.asarray(spec.transition) * (e * fb.backward[i])[None, :] * scale
    denom = fb.backward[i - 1][:, None]
    return np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)


def backward_transition(
    spec: HmmSpec, fb: ForwardBackward, y: Sequence[int], i: int
) -> np.ndarray:
    """P(S_{i-1} = r | S_i = s, all observations) with rows indexed by s,
    for 0 < i < horizon."""
    e = _emission_column(spec, int(y[i]))
    scale = math.exp(float(fb.forward_log[i - 1] - fb.forward_log[i]))
    numer = (np.asarray(spec.transition) * (e[None, :] * fb.forward[i - 1][:, None])).T * scale
    denom = fb.forward[i][:, None]
    return np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)


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
    step, steps processed in walk order.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    n = spec.horizon
    fb = forward_backward(spec, y)
    rng = np.random.Generator(np.random.PCG64(seed))
    paths = np.zeros((count, n), dtype=np.int64)

    start_row = np.zeros(count, dtype=np.int64)

    def draw_from(cdf_rows: np.ndarray, current: np.ndarray) -> np.ndarray:
        u = rng.random(count)
        return (cdf_rows[current] <= u[:, None]).sum(axis=1)

    if direction == "forward":
        start = fb.forward[0] * fb.backward[0]
        if start.sum() <= 0:
            raise ValueError("observations have probability zero")
        paths[:, 0] = draw_from(_row_cdfs(start[None, :]), start_row)
        for i in range(1, n):
            cdf = _row_cdfs(forward_transition(spec, fb, y, i))
            paths[:, i] = draw_from(cdf, paths[:, i - 1])
    else:
        start = fb.forward[n - 1] * fb.backward[n - 1]
        if start.sum() <= 0:
            raise ValueError("observations have probability zero")
        paths[:, n - 1] = draw_from(_row_cdfs(start[None, :]), start_row)
        for i in range(n - 1, 0, -1):
            cdf = _row_cdfs(backward_transition(spec, fb, y, i))
            paths[:, i - 1] = draw_from(cdf, paths[:, i])
    return paths
