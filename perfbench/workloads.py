"""The four benchmark workloads: seeded inputs, one query each, referees.

Every workload is a closed loop with one caller.  Inputs come only
from the workload seed and the query index, through the program's
public constructors; the referee runs outside the timed span and
raises ``Mismatch`` when an answer is wrong.

Why these four (each layer a later change is likely to optimise does
most of the work in one workload and little in another):

- pedigree: the paper's ten-variable pedigree, one seeded family of
  evidence per query.  Tables have at most 81 entries, so per-call
  overhead and per-query structure work dominate, and every query
  shares one structure (a compile-once cache always hits).
- chain: the precipitation chain at horizon 200, a fresh simulated
  sequence per query, answered by forward/backward (the floor) and by
  the tree engine on the hand-built chain tree.  About 200 small
  clusters, so per-message bookkeeping dominates.
- wide: a fresh banded random DAG per query (30 ternary variables,
  each of the previous 9 a parent with probability 0.7).  Min-fill
  width is about 9, so numpy arithmetic dominates and no two queries
  share a structure (every per-structure cache misses).
- cli: one ``python -m beliefprop`` run per query, cycling through the
  subcommands, so interpreter start, imports, argument parsing, JSON
  loading and output formatting block the result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from beliefprop import hmm
from beliefprop.jtree import build_junction_tree, validate_junction_tree
from beliefprop.model import Cpd, DiscreteNetwork, EvidenceSet, Variable, validate_network
from beliefprop.oracle import oracle_log_probability, oracle_map, oracle_posterior
from beliefprop.propagation import CompiledQuery, compile_query, joint_score
from beliefprop.sampling import PosteriorSampler, sample_hmm_path, sample_posterior
from speed import child_slowdown, in_process_slowdown

TOL = 1e-9
NEG_INF = float("-inf")
WARMUP_STREAM = 1  # rng stream tag for warm-up inputs, disjoint from the timed ones


class Mismatch(AssertionError):
    """An answer disagreed with the referee."""


def rng_for(seed: int, k: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, k])


def close(a: float, b: float, tol: float = TOL) -> bool:
    """Log-scale values: equal infinities, else within tol (relative past 1)."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def rel_close(a: float, b: float, tol: float = TOL) -> bool:
    """Probabilities, which can be far below 1: relative difference."""
    return abs(a - b) <= tol * abs(b)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def load_network(path: Path) -> DiscreteNetwork:
    """Read the model JSON format the CLI reads (ids follow file order)."""
    doc = json.loads(path.read_text())
    variables = [
        Variable(i, v["name"], tuple(v["states"])) for i, v in enumerate(doc["variables"])
    ]
    by_name = {v.name: v.id for v in variables}
    cpds = [
        Cpd(by_name[c["child"]], tuple(by_name[p] for p in c["parents"]),
            np.asarray(c["table"], dtype=float))
        for c in doc["cpds"]
    ]
    return DiscreteNetwork(variables, cpds)


def forward_sample(net: DiscreteNetwork, rng: np.random.Generator) -> dict[int, int]:
    """One joint assignment drawn from the network's own CPDs."""
    out: dict[int, int] = {}
    for u in net.topological_order():
        cpd = net.cpd(u)
        row = 0
        for p in cpd.parents:
            row = row * net.card(p) + out[p]
        probs = cpd.table[row]
        out[u] = int(rng.choice(len(probs), p=probs / probs.sum()))
    return out


def family_evidence(net: DiscreteNetwork, rng: np.random.Generator) -> EvidenceSet:
    """A seeded pedigree family: genotypes of a consistent draw, about
    half of them observed, some as two-state sets; one family in ten
    carries a mis-recorded genotype, which can make it impossible."""
    truth = forward_sample(net, rng)
    allowed: dict[int, set[int]] = {}
    for u in net.ids:
        if rng.random() < 0.5:
            states = {truth[u]}
            if rng.random() < 0.2:
                states.add(int(rng.integers(net.card(u))))
            allowed[u] = states
    if allowed and rng.random() < 0.1:
        u = sorted(allowed)[int(rng.integers(len(allowed)))]
        allowed[u] = {int(rng.integers(net.card(u)))}
    return EvidenceSet(allowed)


def wide_network(
    rng: np.random.Generator, n: int, band: int, p: float = 0.7
) -> tuple[DiscreteNetwork, EvidenceSet]:
    """Banded random DAG of ternary variables with positive CPDs and
    about one variable in six observed."""
    states = ("a", "b", "c")
    variables = [Variable(i, f"W{i}", states) for i in range(n)]
    cpds = []
    for i in range(n):
        parents = tuple(j for j in range(max(0, i - band), i) if rng.random() < p)
        table = rng.random((3 ** len(parents), 3)) + 0.05
        cpds.append(Cpd(i, parents, table / table.sum(axis=1, keepdims=True)))
    observed = rng.choice(n, size=max(1, n // 6), replace=False)
    evidence = EvidenceSet({int(u): {int(rng.integers(3))} for u in observed})
    return DiscreteNetwork(variables, cpds), evidence


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def tree_counts(net: DiscreteNetwork, jt) -> dict[str, int]:
    cl = jt.clusters
    return {
        "jtree.clusters": jt.q,
        "jtree.width": max(len(c) for c in cl) - 1,
        "jtree.cluster_entries": sum(_prod(net.card(u) for u in c) for c in cl),
        "jtree.separator_entries": sum(
            _prod(net.card(u) for u in cl[i] & cl[j]) for i, j in jt.edges
        ),
    }


def sampling_counts(cq: CompiledQuery, draws: int) -> dict[str, int]:
    """CDF entries and gathered bytes of a full-tree PosteriorSampler,
    computed from the tree: each cluster's CDF has one row per state of
    its separator toward the root and one column per free state, and
    each draw gathers one row."""
    net, jt = cq.net, cq.jtree
    children, _ = cq.rooted_children(cq.root)
    sep_size = {cq.root: 1}
    for j, kids in children.items():
        for k in kids:
            sep_size[k] = _prod(net.card(u) for u in jt.clusters[j] & jt.clusters[k])
    sizes = [_prod(net.card(u) for u in c) for c in jt.clusters]
    return {
        "sampling.cdf_entries": sum(sizes),
        "sampling.gather_bytes": 8 * draws * sum(s // sep_size[j] for j, s in enumerate(sizes)),
    }


# -- the engine query shared by pedigree and wide -----------------------------


def engine_query(net, ev, draws: int, seed: int, tr) -> dict:
    with tr.span("model.validate_network"):
        report = validate_network(net)
    require(report.ok, f"network failed validation: {report.lines()}")
    with tr.span("jtree.build_junction_tree"):
        jt = build_junction_tree(net)
    with tr.span("jtree.validate_junction_tree"):
        report = validate_junction_tree(net, jt)
    require(report.ok, f"built tree failed validation: {report.lines()}")
    with tr.span("propagation.compile"):
        cq = CompiledQuery(net, ev, jtree=jt, validate=False)
    with tr.span("propagation.inward"):
        cq.inward()
    with tr.span("propagation.logz"):
        logz = cq.evidence_log_probability()
    out = {"cq": cq, "logz": logz}
    if logz == NEG_INF:
        tr.count("propagation.impossible_queries")
        return out
    with tr.span("propagation.outward"):
        cq.outward()
    with tr.span("propagation.posteriors"):
        out["posteriors"] = cq.posterior_table()
    with tr.span("propagation.map"):
        out["map"] = cq.map_assignment()
    with tr.span("sampling.sampler_init"):
        sampler = PosteriorSampler(cq, seed=seed)
    with tr.span("sampling.draw"):
        out["draws"] = sampler.sample(draws)
    out["draw_vars"] = sampler.variables
    return out


def engine_counts(out: dict, draws: int) -> dict[str, int]:
    counts = tree_counts(out["cq"].net, out["cq"].jtree)
    if "draws" in out:
        counts.update(sampling_counts(out["cq"], draws))
    return counts


def check_draws(net, ev, out: dict, draws: int) -> None:
    d = out["draws"]
    require(d.shape == (draws, len(net.ids)), f"draw array has shape {d.shape}")
    for col, u in enumerate(out["draw_vars"]):
        states = np.unique(d[:, col])
        require(all(ev.permits(u, int(s)) for s in states),
                f"draws of variable {u} leave its allowed states")


# -- workloads ------------------------------------------------------------------


class Pedigree:
    name = "pedigree"
    slowdown = staticmethod(in_process_slowdown)
    # queries take about 11 ms, so a run affords many; 300 steadies p90
    min_queries = 300

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        self.draws = 100 if tiny else 1000
        self.net = load_network(root / "fixtures" / "pedigree.json")
        ev_doc = json.loads((root / "fixtures" / "ped_ev.json").read_text())
        self.fixture_evidence = EvidenceSet.from_labels(self.net, ev_doc)

    def make_input(self, k: int, stream: int = 0):
        if k == 0 and stream == 0:
            return self.fixture_evidence
        return family_evidence(self.net, rng_for(self.seed, k, stream))

    def query(self, ev, k: int, tr) -> dict:
        return engine_query(self.net, ev, self.draws, k, tr)

    def check(self, ev, out: dict) -> None:
        net = self.net
        require(close(out["logz"], oracle_log_probability(net, ev)), "log Z differs from oracle")
        if out["logz"] == NEG_INF:
            return
        for u, post in out["posteriors"].items():
            require(np.allclose(post, oracle_posterior(net, ev, u), rtol=0, atol=TOL),
                    f"posterior of {u} differs from oracle")
        _, log_value = out["map"]
        _, ref_value = oracle_map(net, ev)
        require(rel_close(math.exp(log_value), ref_value), "MAP value differs from oracle")
        check_draws(net, ev, out, self.draws)
        for row in np.unique(out["draws"], axis=0):
            assignment = dict(zip(out["draw_vars"], (int(s) for s in row)))
            require(joint_score(net, ev, assignment) > 0.0, "a draw has probability zero")

    def counts(self, ev, out: dict) -> dict[str, int]:
        return engine_counts(out, self.draws)


class Chain:
    name = "chain"
    slowdown = staticmethod(in_process_slowdown)
    paths = 100

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        self.spec = hmm.precipitation_spec(20 if tiny else 200)

    def make_input(self, k: int, stream: int = 0):
        sim_seed = int(rng_for(self.seed, k, stream).integers(2**62))
        _, y = hmm.simulate(self.spec, sim_seed)
        return y

    def query(self, y, k: int, tr) -> dict:
        spec = self.spec
        with tr.span("hmm.posteriors"):
            floor = hmm.posteriors(spec, y)
        with tr.span("hmm.sample_hmm_path"):
            paths = sample_hmm_path(spec, y, seed=k, count=self.paths)
        with tr.span("hmm.to_bayes_net"):
            net, ev = hmm.to_bayes_net(spec, y)
        with tr.span("hmm.chain_junction_tree"):
            jt = hmm.chain_junction_tree(spec)
        with tr.span("model.validate_network"):
            report = validate_network(net)
        require(report.ok, f"chain network failed validation: {report.lines()}")
        with tr.span("jtree.validate_junction_tree"):
            report = validate_junction_tree(net, jt)
        require(report.ok, f"chain tree failed validation: {report.lines()}")
        with tr.span("propagation.compile"):
            cq = CompiledQuery(net, ev, jtree=jt, validate=False)
        with tr.span("propagation.inward"):
            cq.inward()
        with tr.span("propagation.logz"):
            logz = cq.evidence_log_probability()
        with tr.span("propagation.outward"):
            cq.outward()
        with tr.span("propagation.posteriors"):
            post = np.array([cq.variable_posterior(2 * i) for i in range(spec.horizon)])
        return {"floor": floor, "paths": paths, "cq": cq, "logz": logz, "posteriors": post}

    def check(self, y, out: dict) -> None:
        fb = hmm.forward_backward(self.spec, y)
        rows = fb.forward * fb.backward
        ref = rows / rows.sum(axis=1, keepdims=True)
        require(close(out["logz"], hmm.log_likelihood(fb)), "log Z differs from forward/backward")
        require(np.allclose(out["posteriors"], ref, rtol=0, atol=TOL),
                "engine posteriors differ from forward/backward")
        require(np.allclose(out["floor"], ref, rtol=0, atol=TOL),
                "hmm.posteriors differs from forward/backward")
        paths = out["paths"]
        require(paths.shape == (self.paths, self.spec.horizon), f"paths have shape {paths.shape}")
        require(bool(np.all((paths >= 0) & (paths < self.spec.n_states))), "path state out of range")
        initial = np.asarray(self.spec.initial)
        require(bool(np.all(initial[paths[:, 0]] > 0)), "a path starts in an impossible state")

    def counts(self, y, out: dict) -> dict[str, int]:
        return tree_counts(out["cq"].net, out["cq"].jtree)


class Wide:
    name = "wide"
    slowdown = staticmethod(in_process_slowdown)
    # every query is a fresh network whose width varies, so a run needs
    # more of them than the others for steady medians and tails
    min_queries = 150
    draws = 100

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        self.n, self.band = (12, 4) if tiny else (30, 9)

    def make_input(self, k: int, stream: int = 0):
        return wide_network(rng_for(self.seed, k, stream), self.n, self.band)

    def query(self, inp, k: int, tr) -> dict:
        net, ev = inp
        return engine_query(net, ev, self.draws, k, tr)

    def check(self, inp, out: dict) -> None:
        net, ev = inp
        cq, logz = out["cq"], out["logz"]
        require(logz != NEG_INF, "positive CPDs gave impossible evidence")
        for j in range(cq.jtree.q):
            require(close(cq.cluster_marginal(j).total_log_mass(), logz),
                    f"cluster {j} mass differs from log Z")
        assignment, log_value = out["map"]
        require(rel_close(math.exp(log_value), joint_score(net, ev, assignment)),
                "MAP value differs from its joint score")
        for u, post in out["posteriors"].items():
            require(bool(np.all(post >= 0)) and abs(float(post.sum()) - 1.0) <= TOL,
                    f"posterior of {u} is not a distribution")
        check_draws(net, ev, out, self.draws)

    def counts(self, inp, out: dict) -> dict[str, int]:
        return engine_counts(out, self.draws)


CLI_COMMANDS = ("validate", "jtree", "logz", "marginals", "map", "sample")
CLI_DRAWS = 100
CLI_FAMILIES = 32


def sig10(x: float) -> float:
    """The value as the CLI prints it: 10 significant digits."""
    return float(f"{x:.10g}")


class Cli:
    name = "cli"
    # each query is a new process, so its speed follows process start-up
    slowdown = staticmethod(child_slowdown)

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        self.network = root / "fixtures" / "pedigree.json"
        self.net = load_network(self.network)
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.families: list[tuple[Path, EvidenceSet]] = []
        for f in range(CLI_FAMILIES + 1):
            ev = family_evidence(self.net, rng_for(seed, f))
            path = self.workdir / f"family{f}.json"
            doc = {
                self.net.variable(u).name: [self.net.variable(u).states[s] for s in sorted(states)]
                for u, states in sorted(ev.allowed.items())
            }
            path.write_text(json.dumps(doc))
            self.families.append((path, ev))
        self._expected: dict[int, dict] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def make_input(self, k: int, stream: int = 0):
        cmd = CLI_COMMANDS[k % len(CLI_COMMANDS)]
        # the last family is kept for warm-up runs
        family = CLI_FAMILIES if stream else (k // len(CLI_COMMANDS)) % CLI_FAMILIES
        return cmd, family, k

    def argv(self, cmd: str, family: int, k: int) -> list[str]:
        net = str(self.network.relative_to(self.root))
        ev = str(self.families[family][0])
        return {
            "validate": ["validate", net],
            "jtree": ["jtree", net, "--emit-json"],
            "logz": ["logz", net, "--evidence", ev],
            "marginals": ["marginals", net, "--evidence", ev, "--format", "json"],
            "map": ["map", net, "--evidence", ev],
            "sample": ["sample", net, "--evidence", ev, "-n", str(CLI_DRAWS), "--seed", str(k)],
        }[cmd]

    def query(self, inp, k: int, tr) -> subprocess.CompletedProcess:
        cmd, family, draw_seed = inp
        with tr.span("cli." + cmd):
            return subprocess.run(
                [sys.executable, "-m", "beliefprop", *self.argv(cmd, family, draw_seed)],
                cwd=self.root, capture_output=True, text=True, timeout=60,
            )

    def _answers(self, family: int) -> dict:
        if family not in self._expected:
            net = self.net
            ev = self.families[family][1]
            jt = build_junction_tree(net)
            cq = compile_query(net, ev)
            logz = cq.evidence_log_probability()
            ans = {
                "jtree": {
                    "clusters": [[net.variable(u).name for u in sorted(c)] for c in jt.clusters],
                    "edges": [list(e) for e in jt.edges],
                    "assignment": {net.variable(u).name: j
                                   for u, j in sorted(jt.assignment.items())},
                },
                "cq": cq,
                "logz": logz,
            }
            if logz != NEG_INF:
                ans["marginals"] = {
                    v.name: {s: sig10(float(p)) for s, p in zip(v.states, cq.variable_posterior(v.id))}
                    for v in net.variables
                }
                ans["map"] = cq.map_assignment()
            self._expected[family] = ans
        return self._expected[family]

    def check(self, inp, proc: subprocess.CompletedProcess) -> None:
        cmd, family, draw_seed = inp
        require(proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
        text = proc.stdout
        if cmd == "validate":
            require(text.strip() == "ok", "validate did not print ok")
            return
        ans = self._answers(family)
        if cmd == "jtree":
            require(json.loads(text) == ans["jtree"], "jtree output differs")
            return
        net = self.net
        lines = text.splitlines()
        if ans["logz"] == NEG_INF or cmd == "logz":
            got = dict(line.split("=", 1) for line in lines if line.startswith("log_p_"))
            require(float(got["log_p_evidence"]) == sig10(ans["logz"]), f"{cmd}: log Z differs")
            return
        if cmd == "marginals":
            require(json.loads(text) == ans["marginals"], "marginals output differs")
        elif cmd == "map":
            assignment, log_value = ans["map"]
            require(lines[0] == f"map_log_joint={log_value:.10g}", "map value differs")
            want = [f"{net.variable(u).name}={net.variable(u).states[s]}"
                    for u, s in sorted(assignment.items())]
            require(lines[1:] == want, "map assignment differs")
        elif cmd == "sample":
            ids, draws = sample_posterior(ans["cq"], seed=draw_seed, count=CLI_DRAWS)
            want = [",".join(net.variable(u).name for u in ids)]
            want += [",".join(net.variable(u).states[s] for u, s in zip(ids, row)) for row in draws]
            require(lines == want, "sample output differs")

    def counts(self, inp, out) -> dict[str, int]:
        return {}


WORKLOADS = {w.name: w for w in (Pedigree, Chain, Wide, Cli)}
