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


@pytest.mark.parametrize("args", [(), ("--root", "3", "--scale-outward")])
def test_pedigree_tables(args):
    # every printed message and posterior is pinned byte for byte
    pinned = "pedigree_tables_root3.txt" if args else "pedigree_tables.txt"
    r = run_script("pedigree_tables.py", *args)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0].startswith("P(evidence) = 1.632000000e-04 ")
    assert r.stdout == (REPO / "fixtures" / pinned).read_text()


def _posterior_demo_gaps(*args):
    r = run_script("hmm_posterior_demo.py", "--days", "20", "--samples", "2000", *args)
    assert r.returncode == 0, r.stderr
    gaps = dict(re.findall(r"^max \|fwd/bwd - (\w+)\| += (\S+)$", r.stdout, re.MULTILINE))
    assert set(gaps) == {"tree", "sampled"}, r.stdout
    return {name: float(gap) for name, gap in gaps.items()}


def test_hmm_posterior_demo():
    assert _posterior_demo_gaps()["tree"] <= 1e-12


def test_hmm_posterior_demo_backward():
    # backward path draws target the same smoothing posterior: 2000 draws
    # put every day's frequency within a few standard errors (<= 0.012)
    gaps = _posterior_demo_gaps("--direction", "backward")
    assert gaps["tree"] <= 1e-12
    assert gaps["sampled"] <= 0.06
