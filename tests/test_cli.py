import json
import subprocess
import sys

import pytest

from isoschub import cli
from isoschub.cohomology import multiply
from isoschub.formal import sum_from_json
from isoschub.weyl import bh_expand, grassmannian_element, length, stanley_F


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_partition():
    assert cli.parse_partition("3,2,1") == (3, 2, 1)
    assert cli.parse_partition("") == ()
    assert cli.parse_partition("0") == ()
    assert cli.parse_partition("3,2,0,0") == (3, 2)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_partition("1,3")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_partition("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_perm("2,2")


def test_giambelli_intro_json(capsys):
    code, out = run(["giambelli", "--type", "C", "--n", "5", "--k", "1",
                     "--lambda", "3,2,1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert sum_from_json(payload["terms"]) == {
        (3, 2, 1): 1, (3, 3): -1, (4, 1, 1): -2, (4, 2): 1, (5, 1): 2}
    assert sum_from_json(payload["reduces_to"]) == {(3, 2, 1): 1}


def test_pieri_example_both_formats(capsys):
    args = ["pieri", "--type", "B", "--n", "7", "--k", "1",
            "--lambda", "2,1,1", "--p", "1"]
    code, text = run(args, capsys)
    assert code == 0
    assert text.splitlines() == ["2,1,1,1 -> 1", "3,1,1 -> 2", "5 -> 1"]
    code, out = run(args + ["--format", "json"], capsys)
    assert code == 0
    terms = sum_from_json(json.loads(out)["terms"])
    assert terms == {(2, 1, 1, 1): 1, (3, 1, 1): 2, (5,): 1}
    # same content in both encodings
    from_text = {tuple(int(x) for x in line.split(" -> ")[0].split(",")):
                 int(line.split(" -> ")[1]) for line in text.splitlines()}
    assert from_text == terms


def test_product_matches_library(capsys):
    code, out = run(["product", "--type", "C", "--n", "4", "--k", "1",
                     "--lambda", "2,1", "--mu", "2", "--format", "json"],
                    capsys)
    assert code == 0
    want = multiply({(2, 1): 1}, {(2,): 1}, 1, 4, "C")
    assert sum_from_json(json.loads(out)["terms"]) == want


def test_wlambda(capsys):
    code, out = run(["wlambda", "--k", "1", "--lambda", "4,2,1",
                     "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    w = grassmannian_element((4, 2, 1), 1)
    assert tuple(payload["window"]) == w
    assert payload["length"] == length(w) == 7
    code, text = run(["wlambda", "--k", "1", "--lambda", "4,2,1"], capsys)
    assert text.splitlines() == [",".join(str(x) for x in w), "length 7"]


def test_stanley_and_ktableaux(capsys):
    code, out = run(["stanley", "--perm", "4,-2,-1,3", "--format", "json"],
                    capsys)
    assert code == 0
    terms = sum_from_json(json.loads(out)["terms"])
    assert terms == stanley_F((4, -2, -1, 3))
    code, out = run(["ktableaux", "--perm", "4,-2,-1,3", "--format", "json"],
                    capsys)
    payload = json.loads(out)
    assert payload["count"] == sum(terms.values())
    shapes = [tuple(len(row) for row in t) for t in payload["tableaux"]]
    assert {s: shapes.count(s) for s in set(shapes)} == terms
    biggest = max(terms)
    code, out = run(["ktableaux", "--perm", "4,-2,-1,3", "--shape",
                     ",".join(str(x) for x in biggest), "--format", "json"],
                    capsys)
    assert json.loads(out)["count"] == terms[biggest]


def test_bh_pair_keys(capsys):
    code, out = run(["bh", "--k", "1", "--lambda", "3,2,1",
                     "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["terms"]
    got = {(tuple(r["key"][0]), tuple(r["key"][1])): int(r["num"])
           for r in rows}
    assert all(r["den"] == "1" for r in rows)
    assert got == bh_expand((3, 2, 1), 1)
    code, text = run(["bh", "--k", "1", "--lambda", "3,2,1"], capsys)
    assert "3,2,1 | - -> 1" in text.splitlines()
    assert "2,1 | 1,1,1 -> 1" in text.splitlines()


def test_forest_text_and_dump(capsys):
    code, text = run(["forest", "--k", "1", "--lambda", "2,1,1", "--p", "1",
                      "--stats"], capsys)
    assert code == 0
    lines = text.splitlines()
    assert "roots 4" in lines and "psi0 4" in lines and "psi1 3" in lines
    assert "5 -> 1" in lines
    nodes_line = [x for x in lines if x.startswith("nodes ")]
    assert len(nodes_line) == 1
    code, out = run(["forest", "--k", "1", "--lambda", "2,1,1", "--p", "1",
                     "--dump-json"], capsys)
    dump = json.loads(out)
    assert len(dump) == int(nodes_line[0].split()[1])
    assert all(set(node) == {"D", "mu", "S", "h", "rule"} for node in dump)
    roots = [node for node in dump if node["mu"] == [2, 1, 2, 0]]
    assert roots and all(node["D"] == [[1, 1]] for node in roots)
    assert {node["rule"] for node in dump} >= {"descend", "bottom",
                                               "grow-col", "stop-col"}


def test_count_bases(capsys):
    code, out = run(["count-bases", "--d", "12", "--k", "2",
                     "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["strict"] == payload["odd"] == 58
    assert payload["equal"] is True


def test_usage_errors(capsys):
    code, _ = run(["pieri", "--type", "B", "--n", "3", "--k", "1",
                   "--lambda", "9,1", "--p", "1"], capsys)
    assert code == 2
    code, _ = run(["pieri", "--type", "B", "--n", "7", "--k", "1",
                   "--lambda", "2,1,1", "--p", "99"], capsys)
    assert code == 2
    code, _ = run(["theta", "--k", "1", "--lambda", "2,2"], capsys)
    assert code == 2
    code, _ = run(["pieri", "--type", "C", "--n", "7", "--k", "1",
                   "--lambda", "2,1,1", "--p", "0"], capsys)
    assert code == 2
    for argv in (["bh", "--lambda", "3,2,1"], ["wlambda", "--lambda", "2,1"],
                 ["forest", "--lambda", "2,1", "--p", "1"],
                 ["theta", "--lambda", "2,1"], ["skews", "--lambda", "2,1"],
                 ["pieri", "--n", "5", "--lambda", "1", "--p", "1"],
                 ["count-bases", "--d", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--k", "-1"])
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        cli.main(["count-bases", "--d", "-1", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["giambelli", "--n", "5", "--k", "1", "--lambda", "1,3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuchcommand"])
    assert exc.value.code == 2


def test_verify_single_suites(capsys):
    for suite in ("intro-giambelli", "pieri-example", "forest-example",
                  "theta-identity", "bh-example", "count-bases",
                  "modified-remark"):
        code, out = run(["verify", "--suite", suite], capsys)
        assert code == 0, (suite, out)
        assert "pass" in out and "FAIL" not in out


def test_verify_scaled_sweeps(capsys):
    code, out = run(["verify", "--suite", "claims", "--max-weight", "3"],
                    capsys)
    assert code == 0 and "pass" in out
    code, out = run(["verify", "--suite", "stanley-corollary",
                     "--max-weight", "2"], capsys)
    assert code == 0 and "pass" in out
    code, out = run(["verify", "--suite", "routes", "--max-weight", "1"],
                    capsys)
    assert code == 0 and "pass" in out
    code, out = run(["verify", "--suite", "giambelli-sweep",
                     "--max-weight", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "giambelli-sweep"


def test_verify_reports_failure(capsys, monkeypatch):
    patched = cli.SUITES + [("always-fails",
                             lambda mw: (False, "demo counterexample"))]
    monkeypatch.setattr(cli, "SUITES", patched)
    code, out = run(["verify", "--suite", "always-fails"], capsys)
    assert code == 1
    assert "FAIL demo counterexample" in out
    code, out = run(["verify", "--suite", "always-fails",
                     "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_console_entry_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "isoschub.cli", "pieri", "--type", "B",
         "--n", "7", "--k", "1", "--lambda", "2,1,1", "--p", "1"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["2,1,1,1 -> 1", "3,1,1 -> 2",
                                       "5 -> 1"]
    res = subprocess.run(
        [sys.executable, "-m", "isoschub.cli", "stanley", "--perm", "2,2"],
        capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stderr.strip() != ""
