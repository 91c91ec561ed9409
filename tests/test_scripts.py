"""Smoke runs of the scripts under scripts/, as real subprocesses."""

import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


@pytest.mark.parametrize("args", [(), ("--root", "3")])
def test_pedigree_tables(args):
    r = run_script("pedigree_tables.py", *args)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0].startswith("P(evidence) = 1.632000000e-04 ")


def test_hmm_posterior_demo():
    r = run_script("hmm_posterior_demo.py", "--days", "20", "--samples", "2000")
    assert r.returncode == 0, r.stderr
    gap = re.search(r"^max \|fwd/bwd - tree\| += (\S+)$", r.stdout, re.MULTILINE)
    assert gap is not None, r.stdout
    assert float(gap.group(1)) <= 1e-12
