"""Command line front end.

Model files are JSON:

    {"variables": [{"name": "X1", "states": ["dd", "dD", "DD"]}, ...],
     "cpds": [{"child": "X3", "parents": ["X1", "X2"],
               "table": [[1.0, 0.0, 0.0], ...]}, ...]}

where each variable's states form a list, and each CPD table holds one
row per joint parent assignment (last listed parent varying fastest) and
one column per child state.
Evidence files map variable names to a state or a list of states:

    {"X7": ["dd", "dD"], "X2": "DD"}

Exit codes: 0 success, 1 the model failed validation, 2 usage errors
(bad flags or flag values, unreadable or malformed files, unknown
names) and any table past the entry cap (``factor.MAX_TABLE_ENTRIES``):
a junction tree cluster, the oracle's joint table under --oracle, the
sample output, or the hmm-demo horizon x states table.  Each is refused
before anything is printed.
Impossible evidence is a result, not an error: commands
report log_p_evidence=-inf and exit 0.
Numeric output is printed with 10 significant digits; all output is
deterministic for a given input (and seed, where one applies).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import hmm as hmm_mod
from .factor import FactorSizeError
from .jtree import JunctionTree, build_junction_tree
from .model import Cpd, DiscreteNetwork, EvidenceSet, Variable, validate_network
from .oracle import oracle_log_probability, oracle_posteriors
from .propagation import CompiledQuery
from .sampling import sample_posterior


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


def format_sig(x: float) -> str:
    """Scientific notation, 10 significant digits, bare exponent."""
    if x == 0.0:
        return "0"
    mantissa, exponent = f"{x:.9e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def format_dec(x: float) -> str:
    """Positional notation, 10 significant digits."""
    return f"{x:.10g}"


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"error: {path}: cannot open ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"error: {path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            f"error: {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def load_network(path: str) -> DiscreteNetwork:
    """Parse a model file; malformed structure is a usage error."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "variables" not in doc or "cpds" not in doc:
        raise CliError(f"error: {path}: expected an object with 'variables' and 'cpds'")
    variables: list[Variable] = []
    try:
        for idx, spec in enumerate(doc["variables"]):
            name = str(spec["name"])
            if not isinstance(spec["states"], list):
                raise CliError(
                    f"error: {path}: states of variable {name!r} must be a list"
                )
            variables.append(Variable(idx, name, tuple(str(s) for s in spec["states"])))
    except (TypeError, KeyError) as exc:
        raise CliError(f"error: {path}: bad variable entry ({exc})") from None
    by_name = {v.name: v for v in variables}
    cpds: list[Cpd] = []
    try:
        for spec in doc["cpds"]:
            child_name = str(spec["child"])
            if child_name not in by_name:
                raise CliError(f"error: {path}: CPD for unknown variable {child_name!r}")
            if not isinstance(spec["parents"], list):
                raise CliError(
                    f"error: {path}: parents of {child_name!r} must be a list"
                )
            parent_ids = []
            for p in spec["parents"]:
                if str(p) not in by_name:
                    raise CliError(
                        f"error: {path}: unknown parent {str(p)!r} of {child_name!r}"
                    )
                parent_ids.append(by_name[str(p)].id)
            cpds.append(Cpd(by_name[child_name].id, tuple(parent_ids), np.asarray(spec["table"], dtype=float)))
    except CliError:
        raise
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise CliError(f"error: {path}: bad CPD entry ({exc})") from None
    return DiscreteNetwork(variables, cpds)


def load_evidence(path: str, net: DiscreteNetwork) -> EvidenceSet:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliError(f"error: {path}: expected an object of variable: state(s)")
    try:
        return EvidenceSet.from_labels(net, doc)
    except KeyError as exc:
        raise CliError(f"error: {path}: {exc.args[0]}") from None
    except TypeError as exc:
        raise CliError(f"error: {path}: bad evidence entry ({exc})") from None


def network_to_json(net: DiscreteNetwork) -> dict:
    return {
        "variables": [
            {"name": v.name, "states": list(v.states)} for v in net.variables
        ],
        "cpds": [
            {
                "child": net.variable(c.child).name,
                "parents": [net.variable(p).name for p in c.parents],
                "table": c.table.tolist(),
            }
            for c in net.cpds
        ],
    }


def jtree_to_json(net: DiscreteNetwork, jt: JunctionTree) -> dict:
    return {
        "clusters": [
            [net.variable(u).name for u in sorted(c)] for c in jt.clusters
        ],
        "edges": [list(e) for e in jt.edges],
        "assignment": {
            net.variable(u).name: j for u, j in sorted((jt.assignment or {}).items())
        },
    }


def _validated_network(path: str) -> DiscreteNetwork:
    net = load_network(path)
    report = validate_network(net)
    if not report.ok:
        for line in report.lines():
            print(line, file=sys.stderr)
        raise CliError(f"error: {path}: model failed validation", exit_code=1)
    return net


def _evidence(args, net: DiscreteNetwork) -> EvidenceSet:
    if args.evidence is None:
        return EvidenceSet.none()
    return load_evidence(args.evidence, net)


def _print_logp(prefix: str, log_p: float) -> None:
    p = 0.0 if log_p == float("-inf") else float(np.exp(log_p))
    print(f"{prefix}p_evidence={format_sig(p)}")
    print(f"{prefix}log_p_evidence={format_dec(log_p)}")


def cmd_validate(args) -> int:
    net = load_network(args.network)
    report = validate_network(net)
    if report.ok:
        print("ok")
        return 0
    for line in report.lines():
        print(line)
    return 1


def cmd_jtree(args) -> int:
    net = _validated_network(args.network)
    jt = build_junction_tree(net)
    if args.emit_json:
        print(json.dumps(jtree_to_json(net, jt), indent=2))
        return 0
    for j, cluster in enumerate(jt.clusters):
        names = ", ".join(net.variable(u).name for u in sorted(cluster))
        print(f"cluster {j}: {names}")
    for i, j in jt.edges:
        sep = ", ".join(net.variable(u).name for u in sorted(jt.separator(i, j)))
        print(f"edge {i} -- {j} [{sep}]")
    return 0


def _inward_query(args) -> tuple[CompiledQuery, float]:
    """The validated network and evidence of ``args``, compiled and
    passed inward, with log P(evidence)."""
    net = _validated_network(args.network)
    cq = CompiledQuery(net, _evidence(args, net))
    cq.inward()
    return cq, cq.evidence_log_probability()


def cmd_logz(args) -> int:
    cq, log_p = _inward_query(args)
    # the oracle may refuse an over-cap joint table: fail before printing
    reference = oracle_log_probability(cq.net, cq.evidence) if args.oracle else None
    _print_logp("", log_p)
    if reference is not None:
        _print_logp("oracle_", reference)
    return 0


def cmd_marginals(args) -> int:
    cq, log_p = _inward_query(args)
    chosen = list(cq.net.variables)
    if args.var:
        chosen = []
        for name in args.var:
            try:
                chosen.append(cq.net.by_name(name))
            except KeyError:
                raise CliError(f"error: unknown variable {name!r}") from None
    if log_p == float("-inf"):
        _print_logp("", log_p)
        return 0
    cq.outward()
    references = (oracle_posteriors(cq.net, cq.evidence, [var.id for var in chosen])
                  if args.oracle else [None] * len(chosen))
    rows = []
    for var, reference in zip(chosen, references):
        post = cq.variable_posterior(var.id)
        for s, label in enumerate(var.states):
            row = [var.name, label, format_dec(float(post[s]))]
            if reference is not None:
                row.append(format_dec(float(reference[s])))
            rows.append(row)
    if args.format == "csv":
        header = ["variable", "state", "probability"]
        if args.oracle:
            header.append("oracle_probability")
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        doc: dict[str, dict[str, float]] = {}
        for row in rows:
            doc.setdefault(row[0], {})[row[1]] = float(row[2])
        print(json.dumps(doc, indent=2))
    return 0


def cmd_map(args) -> int:
    cq, log_p = _inward_query(args)
    if log_p == float("-inf"):
        _print_logp("", log_p)
        return 0
    assignment, log_value = cq.map_assignment()
    print(f"map_log_joint={format_dec(log_value)}")
    for u in sorted(assignment):
        var = cq.net.variable(u)
        print(f"{var.name}={var.states[assignment[u]]}")
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise CliError("error: --count must be non-negative")
    if args.seed < 0:
        raise CliError("error: --seed must be non-negative")
    cq, log_p = _inward_query(args)
    if log_p == float("-inf"):
        _print_logp("", log_p)
        return 0
    ids, draws = sample_posterior(cq, seed=args.seed, count=args.count)
    variables = [cq.net.variable(u) for u in ids]
    print(",".join(v.name for v in variables))
    for row in draws:
        print(",".join(v.states[s] for v, s in zip(variables, row)))
    return 0


def cmd_hmm_demo(args) -> int:
    if args.days < 1:
        raise CliError("error: --days must be at least 1")
    if args.seed < 0:
        raise CliError("error: --seed must be non-negative")
    spec = hmm_mod.precipitation_spec(args.days)
    states, y = hmm_mod.simulate(spec, args.seed)
    table = hmm_mod.posteriors(spec, y)
    low = spec.states.index("L")
    print("day,y,true_state,posterior_L")
    for i in range(spec.horizon):
        print(
            f"{i + 1},{int(y[i])},{spec.states[states[i]]},{format_dec(float(table[i, low]))}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefprop",
        description="Exact inference on discrete Bayesian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("network")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("jtree", help="build and print the cluster tree")
    p.add_argument("network")
    p.add_argument("--emit-json", action="store_true")
    p.set_defaults(fn=cmd_jtree)

    p = sub.add_parser("logz", help="evidence probability")
    p.add_argument("network")
    p.add_argument("--evidence")
    p.add_argument("--oracle", action="store_true",
                   help="also print brute-force enumeration values")
    p.set_defaults(fn=cmd_logz)

    p = sub.add_parser("marginals", help="posterior marginals")
    p.add_argument("network")
    p.add_argument("--evidence")
    p.add_argument("--var", action="append", metavar="NAME",
                   help="restrict output to this variable (repeatable)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--oracle", action="store_true",
                   help="also print brute-force enumeration values")
    p.set_defaults(fn=cmd_marginals)

    p = sub.add_parser("map", help="most probable assignment")
    p.add_argument("network")
    p.add_argument("--evidence")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("sample", help="exact posterior samples")
    p.add_argument("network")
    p.add_argument("--evidence")
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("hmm-demo", help="simulate the precipitation chain "
                                        "and print smoothing posteriors")
    p.add_argument("--days", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_hmm_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        if str(exc):
            print(str(exc), file=sys.stderr)
        return exc.exit_code
    except FactorSizeError as exc:
        # hmm-demo reads no model file, so it has no path to name
        where = f"{args.network}: " if hasattr(args, "network") else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
