"""End-to-end checks of the command line, run as real subprocesses."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from beliefprop import cli, oracle
from beliefprop.cli import load_network, network_to_json
from beliefprop.oracle import joint_table
from beliefprop.jtree import build_junction_tree

NET = "pedigree.json"
EV = "ped_ev.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "beliefprop", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def net_path(fixtures_dir):
    return str(fixtures_dir / NET)


@pytest.fixture()
def ev_path(fixtures_dir):
    return str(fixtures_dir / EV)


class TestValidate:
    def test_ok(self, net_path):
        r = run_cli("validate", net_path)
        assert r.returncode == 0
        assert r.stdout.strip() == "ok"

    def test_broken_network_exits_one(self, tmp_path, net_path):
        with open(net_path) as fh:
            doc = json.load(fh)
        doc["cpds"][0]["table"][0] = [0.5, 0.5, 0.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("validate", str(bad))
        assert r.returncode == 1
        assert "sum" in r.stdout

    def test_missing_file(self):
        r = run_cli("validate", "no_such_file.json")
        assert r.returncode == 2
        assert "cannot open" in r.stderr

    def test_directory_is_usage_error(self, tmp_path, net_path):
        r = run_cli("logz", net_path, "--evidence", str(tmp_path))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [f"error: {tmp_path}: cannot open (Is a directory)"]

    def test_non_utf8_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe{}")
        r = run_cli("validate", str(bad))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [f"error: {bad}: not UTF-8 text (byte 0)"]

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "mangled.json"
        bad.write_text('{"variables": [,]}')
        r = run_cli("validate", str(bad))
        assert r.returncode == 2
        assert "line 1" in r.stderr
        assert "column" in r.stderr


class TestJtree:
    def test_text_listing(self, net_path):
        r = run_cli("jtree", net_path)
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        clusters = [ln for ln in lines if ln.startswith("cluster ")]
        edges = [ln for ln in lines if ln.startswith("edge ")]
        assert len(edges) == len(clusters) - 1

    def test_emit_json(self, net_path):
        r = run_cli("jtree", net_path, "--emit-json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert set(doc) == {"clusters", "edges", "assignment"}
        assert len(doc["edges"]) == len(doc["clusters"]) - 1
        # every assigned cluster covers the variable it owns
        for name, j in doc["assignment"].items():
            assert name in doc["clusters"][j]


class TestLogz:
    def test_value(self, net_path, ev_path):
        r = run_cli("logz", net_path, "--evidence", ev_path)
        assert r.returncode == 0
        lines = dict(ln.split("=", 1) for ln in r.stdout.strip().splitlines())
        assert lines["p_evidence"] == "1.632000000e-4"
        assert float(lines["log_p_evidence"]) == pytest.approx(
            math.log(1.632e-4), rel=1e-9
        )

    def test_oracle_flag_agrees(self, net_path, ev_path):
        r = run_cli("logz", net_path, "--evidence", ev_path, "--oracle")
        assert r.returncode == 0
        lines = dict(ln.split("=", 1) for ln in r.stdout.strip().splitlines())
        assert lines["oracle_p_evidence"] == lines["p_evidence"]

    def test_no_evidence_is_certain(self, net_path):
        r = run_cli("logz", net_path)
        lines = dict(ln.split("=", 1) for ln in r.stdout.strip().splitlines())
        assert lines["p_evidence"] == "1.000000000e0"
        assert lines["log_p_evidence"] == "0"

    def test_impossible_evidence(self, net_path, tmp_path):
        ev = tmp_path / "impossible.json"
        ev.write_text(json.dumps({"X2": "DD", "X3": "dd"}))
        r = run_cli("logz", net_path, "--evidence", str(ev))
        assert r.returncode == 0
        lines = dict(ln.split("=", 1) for ln in r.stdout.strip().splitlines())
        assert lines["p_evidence"] == "0"
        assert lines["log_p_evidence"] == "-inf"

    def test_unknown_evidence_variable(self, net_path, tmp_path):
        ev = tmp_path / "ev.json"
        ev.write_text(json.dumps({"X99": "dd"}))
        r = run_cli("logz", net_path, "--evidence", str(ev))
        assert r.returncode == 2
        assert "X99" in r.stderr

    def test_unknown_evidence_state(self, net_path, tmp_path):
        ev = tmp_path / "ev.json"
        ev.write_text(json.dumps({"X2": "Dd"}))
        r = run_cli("logz", net_path, "--evidence", str(ev))
        assert r.returncode == 2
        assert "Dd" in r.stderr

    @pytest.mark.parametrize("value", [{"dd": 5, "DD": 1}, 5, None])
    def test_evidence_value_not_labels_is_usage_error(self, net_path, tmp_path, value):
        ev = tmp_path / "ev.json"
        ev.write_text(json.dumps({"X1": value}))
        r = run_cli("logz", net_path, "--evidence", str(ev))
        assert r.returncode == 2
        assert r.stdout == ""
        [line] = r.stderr.splitlines()
        assert line.startswith(f"error: {ev}: bad evidence entry (")
        assert "'X1'" in line


class TestMarginals:
    def test_csv_single_variable(self, net_path, ev_path):
        r = run_cli("marginals", net_path, "--evidence", ev_path, "--var", "X6")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "variable,state,probability"
        assert lines[1] == "X6,dd,0.5333333333"
        assert lines[2] == "X6,dD,0.4"
        assert lines[3] == "X6,DD,0.06666666667"

    def test_csv_all_variables(self, net_path, ev_path):
        r = run_cli("marginals", net_path, "--evidence", ev_path)
        rows = r.stdout.strip().splitlines()[1:]
        assert len(rows) == 30  # ten variables, three states each
        assert all(row.count(",") == 2 for row in rows)

    def test_oracle_column(self, net_path, ev_path):
        r = run_cli(
            "marginals", net_path, "--evidence", ev_path, "--var", "X1", "--oracle"
        )
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "variable,state,probability,oracle_probability"
        for row in lines[1:]:
            _, _, a, b = row.split(",")
            assert a == b

    def test_json_format(self, net_path, ev_path):
        r = run_cli(
            "marginals", net_path, "--evidence", ev_path,
            "--var", "X7", "--format", "json",
        )
        doc = json.loads(r.stdout)
        assert set(doc) == {"X7"}
        assert doc["X7"]["dD"] == pytest.approx(1.0)
        assert doc["X7"]["dd"] == 0.0

    def test_oracle_builds_one_joint_table(self, net_path, ev_path, monkeypatch, capsys):
        # every printed variable reads the same joint table, and the output
        # is the one a joint table per variable printed (its SHA-256)
        calls = []

        def counted(*args):
            calls.append(args)
            return joint_table(*args)

        monkeypatch.setattr(oracle, "joint_table", counted)
        assert cli.main(["marginals", net_path, "--evidence", ev_path, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 1
        assert len(out.splitlines()) == 31
        want = "582ff59f2de8ba1d42f21ad8317ef4846cb209998aead0c0a7fde1424346a1e6"
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_unknown_var(self, net_path, ev_path):
        r = run_cli("marginals", net_path, "--evidence", ev_path, "--var", "X42")
        assert r.returncode == 2
        assert "X42" in r.stderr

    def test_impossible_evidence_reports_and_exits_zero(self, net_path, tmp_path):
        ev = tmp_path / "impossible.json"
        ev.write_text(json.dumps({"X2": "DD", "X3": "dd"}))
        r = run_cli("marginals", net_path, "--evidence", str(ev))
        assert r.returncode == 0
        assert "log_p_evidence=-inf" in r.stdout
        assert "variable,state" not in r.stdout


class TestMap:
    def test_output_lines(self, net_path, ev_path):
        r = run_cli("map", net_path, "--evidence", ev_path)
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0].startswith("map_log_joint=")
        assignment = dict(ln.split("=", 1) for ln in lines[1:])
        assert len(assignment) == 10
        # the evidence states must appear verbatim
        for name in ("X2", "X4", "X8", "X10"):
            assert assignment[name] == "DD"
        assert assignment["X7"] in ("dd", "dD")
        # the whole output, which pins the traceback's tie order
        assert lines == [
            "map_log_joint=-10.10291458", "X1=dD", "X2=DD", "X3=DD", "X4=DD",
            "X5=dD", "X6=dd", "X7=dD", "X8=DD", "X9=dD", "X10=DD",
        ]


class TestSample:
    def test_header_and_rows(self, net_path, ev_path):
        r = run_cli(
            "sample", net_path, "--evidence", ev_path, "-n", "5", "--seed", "42"
        )
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "X1,X2,X3,X4,X5,X6,X7,X8,X9,X10"
        assert len(lines) == 6
        col = lines[0].split(",")
        for row in lines[1:]:
            states = dict(zip(col, row.split(",")))
            for name in ("X2", "X4", "X8", "X10"):
                assert states[name] == "DD"
            assert states["X7"] in ("dd", "dD")

    def test_seed_determinism(self, net_path, ev_path):
        a = run_cli("sample", net_path, "--evidence", ev_path, "-n", "20", "--seed", "7")
        b = run_cli("sample", net_path, "--evidence", ev_path, "-n", "20", "--seed", "7")
        c = run_cli("sample", net_path, "--evidence", ev_path, "-n", "20", "--seed", "8")
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout


    def test_negative_count_is_usage_error(self, net_path):
        r = run_cli("sample", net_path, "-n", "-3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["error: --count must be non-negative"]

    def test_negative_seed_is_usage_error(self, net_path):
        r = run_cli("sample", net_path, "--seed", "-1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["error: --seed must be non-negative"]


class TestHmmDemo:
    def test_csv_shape(self):
        r = run_cli("hmm-demo", "--days", "14", "--seed", "3")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "day,y,true_state,posterior_L"
        assert len(lines) == 15
        for ln in lines[1:]:
            day, y, state, post = ln.split(",")
            assert state in ("L", "H")
            assert 0.0 <= float(post) <= 1.0

    def test_deterministic(self):
        a = run_cli("hmm-demo", "--days", "10", "--seed", "1")
        b = run_cli("hmm-demo", "--days", "10", "--seed", "1")
        assert a.stdout == b.stdout


    def test_zero_days_is_usage_error(self):
        r = run_cli("hmm-demo", "--days", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["error: --days must be at least 1"]

    def test_negative_seed_is_usage_error(self):
        r = run_cli("hmm-demo", "--seed", "-5")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["error: --seed must be non-negative"]

    def test_over_cap_days_is_one_usage_error(self):
        # the horizon x states table is refused before any is allocated
        r = run_cli("hmm-demo", "--days", "1000000000000")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.splitlines() == [
            f"error: horizon x states table has {2 * 10 ** 12} entries, "
            f"cap is {1 << 25}"
        ]


class TestLoader:
    def test_string_states_are_usage_error(self, tmp_path, net_path):
        with open(net_path) as fh:
            doc = json.load(fh)
        doc["variables"][4]["states"] = "ab"
        bad = tmp_path / "string_states.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("validate", str(bad))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"error: {bad}: states of variable 'X5' must be a list"
        ]

    def test_string_parents_are_usage_error(self, tmp_path):
        # one-letter names: read character by character, "AB" would pass
        # as the parents A and B
        doc = {
            "variables": [{"name": n, "states": ["0", "1"]} for n in "ABC"],
            "cpds": [
                {"child": "A", "parents": [], "table": [[0.5, 0.5]]},
                {"child": "B", "parents": [], "table": [[0.5, 0.5]]},
                {"child": "C", "parents": "AB", "table": [[0.5, 0.5]] * 4},
            ],
        }
        bad = tmp_path / "string_parents.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("validate", str(bad))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"error: {bad}: parents of 'C' must be a list"
        ]

    @pytest.mark.parametrize("command", ["validate", "jtree", "logz", "marginals", "map", "sample"])
    def test_integer_past_the_float_range_is_usage_error(self, tmp_path, capsys, command):
        # JSON reads 10**400 as an exact integer, which no float holds
        doc = {"variables": [{"name": "A", "states": ["0", "1"]}],
               "cpds": [{"child": "A", "parents": [], "table": [[10 ** 400, 0]]}]}
        bad = tmp_path / "huge_entry.json"
        bad.write_text(json.dumps(doc))
        assert cli.main([command, str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: {bad}: bad CPD entry (int too large to convert to float)"
        ]


def _write_model(path, variables, cpds):
    path.write_text(json.dumps({"variables": variables, "cpds": cpds}))
    return str(path)


def all_pairs_model(path, n, card):
    """Roots X0..X{n-1} with ``card`` states and one binary child per pair
    of roots: moralizing joins every pair of roots, so the tree has one
    cluster of all n roots."""
    roots = [f"X{i}" for i in range(n)]
    states = [str(s) for s in range(card)]
    variables = [{"name": r, "states": states} for r in roots]
    cpds = [{"child": r, "parents": [], "table": [[1 / card] * card]} for r in roots]
    for i in range(n):
        for j in range(i + 1, n):
            child = f"Y{i}_{j}"
            variables.append({"name": child, "states": ["0", "1"]})
            cpds.append({"child": child, "parents": [roots[i], roots[j]],
                         "table": [[0.5, 0.5]] * card ** 2})
    return _write_model(path, variables, cpds)


def independent_model(path, n, card):
    """n independent roots with ``card`` states each."""
    states = [str(s) for s in range(card)]
    variables = [{"name": f"X{i}", "states": states} for i in range(n)]
    cpds = [{"child": f"X{i}", "parents": [], "table": [[1 / card] * card]}
            for i in range(n)]
    return _write_model(path, variables, cpds)


def assert_one_usage_error(r, path, message):
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [f"error: {path}: {message}"]


class TestWidth:
    @pytest.mark.parametrize("n, card", [
        pytest.param(27, 2, id="binary27"),
        # under 25 variables, over 2^25 entries
        pytest.param(16, 3, id="ternary16"),
    ])
    def test_over_cap_width_is_usage_error(self, tmp_path, n, card):
        wide = all_pairs_model(tmp_path / "all_pairs.json", n, card)
        net = load_network(wide)
        roots = frozenset(net.by_name(f"X{i}").id for i in range(n))
        cluster = build_junction_tree(net).clusters.index(roots)
        r = run_cli("logz", wide)
        assert_one_usage_error(
            r, wide, f"cluster {cluster} has {card ** n} entries, cap is {1 << 25}"
        )


class TestSizeCap:
    """Over-cap tables outside the engine's clusters are usage errors too,
    refused before anything is printed or allocated.  The model has 16
    independent ternary variables: tiny clusters, but a joint table of
    3^16 > 2^25 entries."""

    @pytest.mark.parametrize("args, message", [
        pytest.param(["logz", "--oracle"],
                     f"joint table over 16 variables has {3 ** 16} entries", id="logz-oracle"),
        pytest.param(["marginals", "--oracle"],
                     f"joint table over 16 variables has {3 ** 16} entries",
                     id="marginals-oracle"),
        pytest.param(["sample", "-n", "1000000000000000"],
                     f"sample output has {16 * 10 ** 15} entries", id="sample-count"),
    ])
    def test_over_cap_is_one_usage_error(self, tmp_path, args, message):
        model = independent_model(tmp_path / "indep16.json", 16, 3)
        r = run_cli(args[0], model, *args[1:])
        assert_one_usage_error(r, model, f"{message}, cap is {1 << 25}")


class TestRoundTrip:
    def test_network_json_round_trip(self, net_path):
        with open(net_path) as fh:
            doc = json.load(fh)
        again = network_to_json(load_network(net_path))
        assert again == doc


def test_no_command_prints_usage():
    r = run_cli()
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()
