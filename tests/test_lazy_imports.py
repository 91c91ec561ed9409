"""The package loads its modules on demand: ``import beliefprop`` loads
none, and each CLI subcommand loads only the modules it runs, so a run
without a bytecode cache compiles no others."""

import subprocess
import sys

import pytest

import beliefprop

# runs ``python -m beliefprop`` with the given arguments, then prints the
# beliefprop modules it loaded as the last stderr line
WRAPPER = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules
                                      if m.startswith("beliefprop.")), file=sys.stderr))
runpy.run_module("beliefprop", run_name="__main__", alter_sys=True)
"""

BASE = {"cli", "model", "factor"}
QUERY = BASE | {"jtree", "propagation"}


def loaded(*args, code=WRAPPER):
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = r.stderr.splitlines()[-1].split() if r.stderr else []
    return {name.removeprefix("beliefprop.") for name in names} - {"__main__"}


@pytest.mark.parametrize("args, modules", [
    pytest.param(["validate", "{net}"], BASE, id="validate"),
    pytest.param(["jtree", "{net}", "--emit-json"], BASE | {"jtree"}, id="jtree"),
    pytest.param(["logz", "{net}", "--evidence", "{ev}"], QUERY, id="logz"),
    pytest.param(["marginals", "{net}", "--evidence", "{ev}"], QUERY, id="marginals"),
    pytest.param(["map", "{net}", "--evidence", "{ev}"], QUERY, id="map"),
    pytest.param(["sample", "{net}", "--evidence", "{ev}", "-n", "5"], QUERY | {"sampling"},
                 id="sample"),
    pytest.param(["logz", "{net}", "--oracle"], QUERY | {"oracle"}, id="logz-oracle"),
    pytest.param(["marginals", "{net}", "--evidence", "{ev}", "--oracle"], QUERY | {"oracle"},
                 id="marginals-oracle"),
    pytest.param(["hmm-demo", "--days", "5"], BASE | {"hmm"}, id="hmm-demo"),
])
def test_each_subcommand_loads_only_its_modules(fixtures_dir, args, modules):
    paths = {"net": fixtures_dir / "pedigree.json", "ev": fixtures_dir / "ped_ev.json"}
    assert loaded(*(a.format(**paths) for a in args)) == modules


PRINT_LOADED = ("; print(*[m for m in sys.modules if m.startswith('beliefprop.')], "
                "file=sys.stderr)")


def test_import_loads_no_module():
    assert loaded(code="import sys, beliefprop" + PRINT_LOADED) == set()


def test_star_import_and_module_attributes_resolve():
    code = "import sys, beliefprop; from beliefprop import *; beliefprop.hmm.HmmSpec"
    assert loaded(code=code + PRINT_LOADED) == {
        "factor", "hmm", "jtree", "model", "oracle", "propagation", "sampling"}


@pytest.mark.parametrize("name", beliefprop.__all__)
def test_each_public_name_is_its_home_module_object(name):
    obj = getattr(beliefprop, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("beliefprop.")
    assert getattr(home, name) is obj


def test_dir_lists_public_names_and_modules():
    listed = dir(beliefprop)
    assert set(beliefprop.__all__) <= set(listed)
    assert {"cli", "hmm", "sampling", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        beliefprop.no_such_name
