import hashlib
import importlib.util
import json
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from isoschub import cli, cohomology, substitution
from isoschub import theta as theta_ring
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


def test_barred_window_after_perm_both_spellings(capsys):
    # argparse reads a separate -2,1 as an option; main joins it to --perm
    for perm in ("-2,1", "-1,-2", "-3,1,-2"):
        for argv in (["stanley"], ["ktableaux"],
                     ["ktableaux", "--shape", "1"]):
            for fmt in ([], ["--format", "json"]):
                spaced = run(argv + ["--perm", perm] + fmt, capsys)
                joined = run(argv + ["--perm=" + perm] + fmt, capsys)
                assert spaced == joined and spaced[0] == 0, (perm, argv)
    # a window that is no signed permutation still exits 2 with its reason
    with pytest.raises(SystemExit) as exc:
        cli.main(["stanley", "--perm", "-2,2"])
    assert exc.value.code == 2
    assert "expected one argument" not in capsys.readouterr().err


def test_point_class_times_unit_is_fast(capsys):
    # multiply walks the unit's formula, not the point class's, which
    # takes seconds to expand
    start = time.perf_counter()
    code, out = run(["product", "--type", "C", "--n", "8", "--k", "1",
                     "--lambda", "9,8,7,6,5,4,3", "--mu", "-"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "9,8,7,6,5,4,3 -> 1\n")


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
    # the library raises ValueError and main turns it into exit 2
    for argv in (["giambelli", "--n", "3", "--k", "4", "--lambda", "1"],
                 ["giambelli", "--n", "5", "--k", "1", "--lambda", "2,2"],
                 ["product", "--n", "3", "--k", "1", "--lambda", "1",
                  "--mu", "9"],
                 ["wlambda", "--k", "1", "--lambda", "5,1", "--n", "3"],
                 ["bh", "--k", "1", "--lambda", "2,2"],
                 ["forest", "--k", "1", "--lambda", "2,1", "--p", "0"],
                 ["forest", "--k", "1", "--lambda", "2,2", "--p", "1"],
                 ["verify", "--suite", "claims", "--max-weight", "0"],
                 ["count-bases", "--d", "51", "--k", "2"],
                 # past weyl.MAX_REDUCED_WORDS, rejected before listing
                 ["stanley", "--perm=-1,-2,-3,-4,-5"],
                 ["ktableaux", "--perm=-1,-2,-3,-4,-5"],
                 # past theta.MAX_SKEW_ROWS, rejected before expanding
                 ["skews", "--k", "1", "--lambda", "9,8,7,6,5,4,3,2,1",
                  "--mu", "1"]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
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
                  "theta-identity", "theta-hat", "bh-example", "count-bases",
                  "modified-remark"):
        code, out = run(["verify", "--suite", suite], capsys)
        assert code == 0, (suite, out)
        assert "pass" in out and "FAIL" not in out


def test_one_forest_per_claim_pair(capsys, monkeypatch):
    # verify builds each forest once and checks both claims on it, and
    # the forest command certifies the forest it renders
    calls = []
    build = cli.build_forest

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for mod in (cli, substitution):
        monkeypatch.setattr(mod, "build_forest", counted)
    assert run(["verify"], capsys)[0] == 0
    assert len(calls) == 262
    for flags in ([], ["--modified"], ["--stats"], ["--dump-json"]):
        calls.clear()
        assert run(["forest", "--k", "1", "--lambda", "2,1,1", "--p", "2"]
                   + flags, capsys)[0] == 0
        assert len(calls) == 1, flags


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
    patched = cli.SUITES + [("always-fails", lambda mw: "demo counterexample")]
    monkeypatch.setattr(cli, "SUITES", patched)
    code, out = run(["verify", "--suite", "always-fails"], capsys)
    assert code == 1
    assert "FAIL demo counterexample" in out
    code, out = run(["verify", "--suite", "always-fails",
                     "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["ok"] is False


# each worked example, the library name its row calls in cli, a wrong
# value for it, and the detail the row must then report
WRONG_EXAMPLES = [
    ("intro-giambelli", "giambelli", {}, "giambelli((3,2,1),1,5,C) = {}"),
    ("pieri-example", "pieri", {(5,): 1},
     "pieri((2,1,1),1,k=1,n=7,B) = {(5,): 1}"),
    ("forest-example", "build_forest", {"psi0": [], "psi1": []},
     "(psi0, size of psi1) of build_forest((2,1,1),1,1) = (set(), 0)"),
    ("modified-remark", "modified_forest", (1119, 544),
     "modified_forest((4,3,1,1),6,1) = (1119, 544)"),
    ("theta-identity", "to_hat_basis", {(4,): 2},
     "3*theta((3,1)) in the hat basis = {(4,): 2}"),
    ("bh-example", "mixed_expand", {},
     "(bh_expand, mixed_expand) of (3,2,1) at k=1 = (%r, {})"
     % (bh_expand((3, 2, 1), 1),)),
]


@pytest.mark.parametrize("suite, name, wrong, detail", WRONG_EXAMPLES,
                         ids=[row[0] for row in WRONG_EXAMPLES])
def test_worked_example_reports_what_it_got(capsys, monkeypatch, suite, name,
                                            wrong, detail):
    # the row looks its library function up in cli at call time, and a
    # wrong value fails it with "<what> = <got>"
    monkeypatch.setattr(cli, name, lambda *args: wrong)
    code, out = run(["verify", "--suite", suite, "--format", "json"], capsys)
    assert code == 1
    row = json.loads(out)["suites"][0]
    assert (row["name"], row["ok"], row["detail"]) == (suite, False, detail)


def test_verify_reports_a_raising_suite(capsys, monkeypatch):
    # an exception inside a suite fails that suite alone, names its type
    # and the function that raised it, and the other suites still run
    def singular(e, k):
        return theta_ring._solve([[0]], [1])

    def bad_input(mw):
        return theta_ring.theta((2, 2), 1)

    monkeypatch.setattr(cli, "to_hat_basis", singular)
    keep = ("theta-identity", "pieri-example")
    monkeypatch.setattr(cli, "SUITES", [("bad-input", bad_input)] + [
        s for s in cli.SUITES if s[0] in keep])
    code, out = run(["verify", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    rows = {row["name"]: (row["ok"], row["detail"])
            for row in payload["suites"]}
    assert rows == {
        "bad-input": (False, "ValueError in isoschub.partitions.check_rect: "
                             "lambda must be 1-strict (parts above 1 "
                             "distinct): 2,2"),
        "theta-identity": (False, "RuntimeError in isoschub.theta._solve: "
                                  "transition matrix is singular"),
        "pieri-example": (True, "")}
    code, out = run(["verify", "--suite", "theta-identity"], capsys)
    assert code == 1
    assert "FAIL RuntimeError in isoschub.theta._solve" in out


# the JSON keys of each subcommand: the arguments it echoes plus its own
PAYLOAD_KEYS = [
    (["giambelli", "--n", "5", "--k", "1", "--lambda", "3,2,1"],
     {"family", "n", "k", "lam", "terms", "reduces_to"}),
    (["pieri", "--n", "5", "--k", "1", "--lambda", "2,1", "--p", "1"],
     {"family", "n", "k", "lam", "p", "terms"}),
    (["product", "--n", "4", "--k", "1", "--lambda", "2,1", "--mu", "2"],
     {"family", "n", "k", "lam", "mu", "terms"}),
    (["theta", "--k", "1", "--lambda", "3,1"], {"k", "lam", "terms"}),
    (["skews", "--k", "1", "--lambda", "3,1"], {"k", "lam", "mu", "terms"}),
    (["wlambda", "--k", "1", "--lambda", "4,2,1", "--n", "5"],
     {"k", "lam", "window", "length"}),
    (["stanley", "--perm", "4,-2,-1,3"], {"perm", "terms"}),
    (["ktableaux", "--perm", "2,-1"], {"perm", "count", "tableaux"}),
    (["ktableaux", "--perm", "2,-1", "--shape", "2,1"],
     {"perm", "shape", "count", "tableaux"}),
    (["bh", "--k", "1", "--lambda", "3,2,1"], {"k", "lam", "terms"}),
    (["forest", "--k", "1", "--lambda", "2,1", "--p", "1"],
     {"k", "lam", "p", "modified", "roots", "psi0", "psi1", "product"}),
    (["forest", "--k", "1", "--lambda", "2,1", "--p", "1", "--stats",
      "--dump-json"],
     {"k", "lam", "p", "modified", "roots", "psi0", "psi1", "product",
      "nodes", "rules", "node_dump"}),
    (["verify", "--suite", "pieri-example"], {"max_weight", "suites", "ok"}),
    (["count-bases", "--d", "4", "--k", "1"],
     {"d", "k", "strict", "odd", "equal"}),
]


def test_payload_keys(capsys):
    assert {argv[0] for argv, _ in PAYLOAD_KEYS} == set(cli.COMMANDS)
    for argv, keys in PAYLOAD_KEYS:
        code, out = run(argv + ["--format", "json"], capsys)
        assert code == 0, argv
        assert set(json.loads(out)) == keys | {"command"}, argv
        assert json.loads(out)["command"] == argv[0]


def _readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = []
    for section in readme.read_text().split("\n## ")[1:]:
        title, _, body = section.partition("\n")
        if title in ("Command line", "Verification"):
            for block in body.split("```")[1::2]:
                lines += [line for line in block.splitlines()
                          if line.startswith("isoschub ")]
    return lines


def test_readme_examples_run(capsys):
    # the README shows every subcommand; each line exits 0 and its JSON
    # lines parse
    lines = _readme_commands()
    assert {line.split()[1] for line in lines} == set(cli.COMMANDS)
    for line in lines:
        line = re.sub(r"--max-weight \d+", "--max-weight 1", line)
        argv = shlex.split(line)[1:]
        code, out = run(argv, capsys)
        assert code == 0, line
        if "--format json" in line:
            json.loads(out)


def _session_commands():
    # the benchmark's seeded one-shot sessions; workloads.py imports
    # nothing from the package
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for seed in (1, 2, 3) for argv in workloads.session(seed)]


# argv the flag table reads that no session or README line has
TABLE_ARGV = [
    ["theta", "--lambda=", "--k=1"],
    ["skews", "--k", "1", "--lambda", "2,1", "--mu", "-"],
    ["pieri", "--p", "1", "--lambda", "2,1", "--k", "1", "--n", "5",
     "--type", "B", "--n", "6"],
    ["forest", "--k", "1", "--lambda", "2,1", "--p", "1", "--modified",
     "--stats", "--modified"],
    ["wlambda", "--k", "1", "--lambda", "2,1", "--n", "4", "--format=text"],
    ["ktableaux", "--perm", "-2,1", "--shape=1,1"],
    ["verify", "--suite", "claims", "--max-weight=2"],
]


def test_flag_table_reads_what_argparse_reads():
    _, table = cli._build_parser(tuple(name for name, _ in cli.SUITES))
    readme = [shlex.split(line)[1:] for line in _readme_commands()]
    for argv in _session_commands() + readme + TABLE_ARGV:
        argv = cli._join_windows(argv)
        got = cli._read(argv, table)
        assert got is not None, argv
        assert got == cli._parser().parse_args(argv), argv


# argv the flag table leaves to argparse, or reads as argparse does:
# argparse accepts an abbreviation, a negative n and a repeated flag,
# and prints help or a usage error for the rest
ARGPARSE_ARGV = [
    [], ["--help"], ["nosuchcommand"],
    *([name, "--help"] for name in cli.COMMANDS),
    ["pieri", "--n", "5", "--k", "1", "--lamb", "2,1", "--p", "1"],
    ["forest", "--k", "1", "--lambda", "2,1", "--p", "1", "--stats=1"],
    ["theta", "--k", "1", "--lambda"],
    ["theta", "--k", "0", "--lambda", "2,1", "--k", "1"],
    ["theta", "--k", "1", "--lambda", "2,1", "--bogus", "1"],
    ["theta", "--k", "1", "--lambda", "2,1", "extra"],
    ["theta", "--k", "1"],
    ["theta", "--k", "-1", "--lambda", "1"],
    ["pieri", "--n", "-1", "--k", "0", "--lambda", "1", "--p", "1"],
    ["pieri", "--type", "X", "--n", "5", "--k", "1", "--lambda", "1",
     "--p", "1"],
    ["verify", "--suite", "bogus"],
    # literals the library's checks reject, through both readers
    ["theta", "--k", "1", "--lambda", "1,2"],
    ["skews", "--k", "1", "--lambda", "3,2", "--mu", "2,3"],
    ["stanley", "--perm", "1,1"],
    ["stanley", "--perm", "0,1"],
]


def _outcome(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a wrong Namespace can crash a handler
        code = repr(exc)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_prints_what_argparse_alone_prints(capsys, monkeypatch):
    # the same main, once with the flag table and once with argparse
    # reading every argv
    monkeypatch.setenv("COLUMNS", "100")
    for argv in ARGPARSE_ARGV:
        got = _outcome(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read", lambda argv, table: None)
            want = _outcome(argv, capsys)
        assert got == want, argv


def test_routes_suite_counts_the_basis(monkeypatch):
    # a basis that loses one class together with its Poincare dual still
    # pairs as a permutation matrix; only the count of the classes sees it
    full = cli.rect_partitions

    def short(k, n):
        classes = full(k, n)
        point = max(classes, key=sum)
        dual = next(mu for mu in classes if multiply(
            {(1,): 1}, {mu: 1}, k, n, "C") == {point: 1})
        return [lam for lam in classes if lam not in ((1,), dual)]

    monkeypatch.setattr(cli, "rect_partitions", short)
    for family in ("B", "C"):
        for k, n in ((1, 3), (2, 4)):
            assert cli._duality_fault(k, n, family) == \
                "%d classes, not 2^(n-k) C(n,k)" % (len(full(k, n)) - 2)
    detail = dict(cli.SUITES)["routes"](1)
    assert detail.startswith("duality family C k=0 n=1: 0 classes"), detail


def test_verification_survives_python_O(child_env):
    # a Pieri rule that drops its largest term must fail both suites even
    # when python -O strips every assert statement
    script = """
import json, sys
from isoschub import cli, cohomology
rule = cohomology._pieri
def broken(*args):
    out = dict(rule(*args))
    if out:
        del out[max(out)]
    return out
cohomology._pieri = broken
suites = dict(cli.SUITES)
print(json.dumps([sys.flags.optimize, suites["giambelli-sweep"](3),
                  suites["claims"](2)]))
"""
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=child_env)
    assert res.returncode == 0, res.stderr
    optimize, sweep, claims = json.loads(res.stdout)
    assert optimize == 1
    assert isinstance(sweep, str) and sweep, sweep
    assert isinstance(claims, str) and claims, claims


def test_seven_row_skew_is_fast(child_env):
    # the 1,368 terms of the row expansion pass through far more
    # intermediate monomials on their way to 10,399 basis terms
    res = subprocess.run(
        [sys.executable, "-m", "isoschub.cli", "skews", "--k", "1", "--lambda",
         "12,11,10,9,8,7,6", "--mu", "3,2,1", "--format", "json"],
        capture_output=True, env=child_env, timeout=10)
    assert res.returncode == 0, res.stderr
    assert len(json.loads(res.stdout)["terms"]) == 10399
    assert hashlib.sha256(res.stdout).hexdigest() == (
        "dbc349d3dd956652954910401d98e9ba94b32494f59aa1051f5fa9441b19a97d")


def test_console_entry_subprocess(child_env):
    res = subprocess.run(
        [sys.executable, "-m", "isoschub.cli", "pieri", "--type", "B",
         "--n", "7", "--k", "1", "--lambda", "2,1,1", "--p", "1"],
        capture_output=True, text=True, env=child_env)
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["2,1,1,1 -> 1", "3,1,1 -> 2",
                                       "5 -> 1"]
    res = subprocess.run(
        [sys.executable, "-m", "isoschub.cli", "stanley", "--perm", "2,2"],
        capture_output=True, text=True, env=child_env)
    assert res.returncode == 2
    assert res.stderr.strip() != ""
    # main reads sys.argv when it is given no argv
    res = subprocess.run(
        [sys.executable, "-m", "isoschub.cli", "stanley", "--perm", "-2,1"],
        capture_output=True, text=True, env=child_env)
    assert (res.returncode, res.stdout) == (0, "2 -> 1\n")
