"""Regenerate the JSON fixtures under fixtures/.

The model is a three-generation pedigree over a biallelic locus.
Genotype states are dd, dD, DD.  Founders draw from the Hardy-Weinberg
prior with allele frequency P(d) = 0.8; each child receives one allele
from each parent, chosen uniformly from that parent's pair.

fixtures/pedigree_jtree.json is not written here: it pins the tree that
`beliefprop jtree fixtures/pedigree.json --emit-json` prints, and the
tests and CI compare the built tree against it byte for byte.
"""

import json
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

STATES = ["dd", "dD", "DD"]
FOUNDER = [0.64, 0.32, 0.04]

# chance a given genotype transmits allele d
PASS_D = {"dd": 1.0, "dD": 0.5, "DD": 0.0}


def child_row(g1: str, g2: str) -> list[float]:
    p, q = PASS_D[g1], PASS_D[g2]
    return [p * q, p * (1 - q) + (1 - p) * q, (1 - p) * (1 - q)]


def mendel_table() -> list[list[float]]:
    # row order: second parent varies fastest
    return [child_row(g1, g2) for g1 in STATES for g2 in STATES]


def pedigree() -> dict:
    founders = ["X1", "X2", "X5", "X6"]
    parentage = {
        "X3": ["X1", "X2"],
        "X4": ["X1", "X2"],
        "X7": ["X3", "X5"],
        "X8": ["X3", "X5"],
        "X9": ["X4", "X6"],
        "X10": ["X7", "X9"],
    }
    variables = [{"name": f"X{i}", "states": STATES} for i in range(1, 11)]
    cpds = []
    for name in (f"X{i}" for i in range(1, 11)):
        if name in founders:
            cpds.append({"child": name, "parents": [], "table": [FOUNDER]})
        else:
            cpds.append(
                {"child": name, "parents": parentage[name], "table": mendel_table()}
            )
    return {"variables": variables, "cpds": cpds}


def evidence() -> dict:
    # carrier screen: X7 shows the recessive phenotype is still possible,
    # the rest are confirmed DD homozygotes
    return {"X7": ["dd", "dD"], "X2": "DD", "X4": "DD", "X8": "DD", "X10": "DD"}


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / "pedigree.json").write_text(json.dumps(pedigree(), indent=2) + "\n")
    (FIXTURES / "ped_ev.json").write_text(json.dumps(evidence(), indent=2) + "\n")
    print(f"wrote {FIXTURES / 'pedigree.json'}")
    print(f"wrote {FIXTURES / 'ped_ev.json'}")


if __name__ == "__main__":
    main()
