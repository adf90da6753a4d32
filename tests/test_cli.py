"""Command-line interface tests, driven in process through main()."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import perfloc
from perfloc import __version__
from perfloc.cli import main
from perfloc.corpus import CORPUS_VERSION
from perfloc.runtime import ENGINE_NAME

from conftest import CORPUS_DIR, REPORT_DIGESTS

BUBBLE = os.path.join(CORPUS_DIR, "bubble_loops", "original.mini")
SUITE = os.path.join(CORPUS_DIR, "bubble_loops", "suite.json")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# -- profile ------------------------------------------------------------

def test_profile_writes_one_row_per_node(tmp_path):
    assert main(["profile", BUBBLE, "--tests", SUITE,
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "profile.csv")
    assert rows[0] == ["node_id", "kind", "count", "score"]
    assert len(rows) == 1 + 58
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(58)]
    scores = [float(r[3]) for r in rows[1:]]
    assert all(0 <= s <= 1 for s in scores)
    # node 0, the function, counts its body's (node 1's) 30 entries
    assert rows[1][:3] == ["0", "FunctionDecl", "30"]
    assert rows[2][:3] == ["1", "Block", "30"]


def test_a_literal_of_5000_digits_profiles_as_its_value_mod_2_32(tmp_path):
    # 10^5000 - 1 is 2^32 - 1 modulo 2^32, which lowers to the int32 -1
    with open(BUBBLE, encoding="utf-8") as fh:
        source = fh.read()
    with open(SUITE, encoding="utf-8") as fh:
        cases = [case for case in json.load(fh) if case["input"]]
    for case in cases:
        case["expected"] = sorted([-1] + case["input"][1:])
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(cases))
    reports = []
    for literal in ("9" * 5000, str(2 ** 32 - 1)):
        program = tmp_path / f"p{len(literal)}.mini"
        program.write_text(source.replace("{", f"{{ a[0] = {literal};", 1))
        out = tmp_path / f"out{len(literal)}"
        assert main(["profile", str(program), "--tests", str(suite),
                     "--out", str(out)]) == 0
        reports.append((out / "profile.csv").read_bytes())
    assert reports[0] == reports[1]
    # the Assign, the Index, `a`, `0` and the literal
    assert len(read_csv(tmp_path / "out5000" / "profile.csv")) == 1 + 58 + 5


def test_profile_unreadable_program_exits_one(tmp_path, capsys):
    code = main(["profile", str(tmp_path / "nope.mini"),
                 "--tests", SUITE, "--out", str(tmp_path)])
    assert code == 1
    assert "nope.mini" in capsys.readouterr().err


def test_profile_syntax_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.mini"
    bad.write_text("void sort(int[] a, int length) { if }")
    code = main(["profile", str(bad), "--tests", SUITE,
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.strip()


def test_profile_type_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.mini"
    bad.write_text("void sort(int[] a, int length) { x = 1; }")
    assert main(["profile", str(bad), "--tests", SUITE,
                 "--out", str(tmp_path)]) == 1


# -- localize -----------------------------------------------------------

@pytest.mark.parametrize("body, position, code, message", [
    ("a[0] = y;", "2:12", "UndeclaredIdentifier", "'y' is not declared"),
    ("if (length) {\n    }", "2:9", "TypeMismatch", "expected bool, got int"),
    ("int length = 2;", "2:5", "DuplicateDeclaration",
     "'length' is already declared"),
    ("sort(a);", "2:5", "ArityMismatch", "'sort' takes 2 arguments, got 1"),
    ("length + 1 = 2;", "2:5", "BadAssignTarget",
     "cannot assign to a Binary"),
    ("}\n\nint pick(int x) {\n    x = 1;", "4:1", "MissingReturn",
     "'pick' can finish without returning int"),
])
def test_compile_error_names_its_position(tmp_path, capsys, body, position,
                                          code, message):
    bad = tmp_path / "bad.mini"
    bad.write_text(f"void sort(int[] a, int length) {{\n    {body}\n}}\n")
    assert main(["profile", str(bad), "--tests", SUITE,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() \
        == [f"invalid: {bad}: {position}: {code}: {message}"]


def test_localize_headers_and_variant_log(tmp_path):
    out = tmp_path / "deletion"
    assert main(["localize", BUBBLE, "--tests", SUITE,
                 "--technique", "deletion", "--out", str(out)]) == 0
    nodes = read_csv(out / "nodes.csv")
    variants = read_csv(out / "variants.csv")
    assert nodes[0] == ["node_id", "kind", "source", "value",
                       "n_reduced", "n_compiled", "gap_filled"]
    assert variants[0] == ["target", "donor", "class", "cost",
                          "correctness"]
    assert len(nodes) == 1 + 58
    assert all(r[1] == "<delete>" for r in variants[1:])
    # deletion rows leave the counting columns blank
    assert all(r[4] == "" and r[5] == "" for r in nodes[1:])


def test_localize_exhaustive_counts_are_integers(tmp_path):
    out = tmp_path / "x"
    assert main(["localize", BUBBLE, "--tests", SUITE,
                 "--technique", "exhaustive", "--out", str(out)]) == 0
    nodes = read_csv(out / "nodes.csv")
    reduced = sum(int(r[4]) for r in nodes[1:])
    compiled = sum(int(r[5]) for r in nodes[1:])
    assert compiled > reduced > 0
    assert all(r[6] == "0" for r in nodes[1:])
    variants = read_csv(out / "variants.csv")
    assert "<delete>" not in {r[1] for r in variants[1:]}


def test_localize_combined_marks_gap_fills(tmp_path):
    out = tmp_path / "c"
    assert main(["localize", BUBBLE, "--tests", SUITE,
                 "--technique", "combined", "--out", str(out)]) == 0
    nodes = read_csv(out / "nodes.csv")
    flags = {r[0]: r[6] for r in nodes[1:]}
    assert set(flags.values()) == {"0", "1"}
    variants = read_csv(out / "variants.csv")
    donors = {r[1] for r in variants[1:]}
    assert "<delete>" in donors and len(donors) > 1


def test_localize_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["localize", BUBBLE, "--tests", SUITE,
                     "--technique", "combined", "--out", str(out)]) == 0
    for name in ("nodes.csv", "variants.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # The digests every report is pinned to: any change to a report byte
    # must be deliberate.
    with open(REPORT_DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    for name in ("nodes.csv", "variants.csv"):
        assert hashlib.sha256((a / name).read_bytes()).hexdigest() \
            == pinned[f"localize/bubble_loops/{name}"], name


def test_localize_unknown_technique_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["localize", BUBBLE, "--tests", SUITE,
              "--technique", "psychic", "--out", str(tmp_path)])
    assert err.value.code == 2
    capsys.readouterr()


def test_bad_timeout_factor_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["localize", BUBBLE, "--tests", SUITE,
              "--technique", "deletion", "--out", str(tmp_path),
              "--timeout-factor", "1.0"])
    assert err.value.code == 2
    assert "timeout" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("command", ["localize", "evaluate"])
@pytest.mark.parametrize("factor", ["nan", "inf", "1e20"])
def test_unusable_timeout_factor_is_a_usage_error(command, factor, tmp_path,
                                                  capsys):
    # NaN and infinity have no step limit, and 1e20 x BOOTSTRAP_LIMIT steps
    # do not fit an int64 step counter.
    argv = {"localize": ["localize", BUBBLE, "--tests", SUITE,
                         "--technique", "exhaustive"],
            "evaluate": ["evaluate", "--corpus", CORPUS_DIR]}[command]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path), "--timeout-factor", factor])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if "error" in line] == [lines[-1]]
    assert lines[-1].startswith(f"perfloc {command}: error: argument "
                                "--timeout-factor: ")
    assert not os.listdir(tmp_path)


def test_bad_jobs_is_a_usage_error(tmp_path, capsys):
    # localize has no --jobs; evaluate accepts one, but only N >= 1
    for argv in (["localize", BUBBLE, "--tests", SUITE,
                  "--technique", "exhaustive", "--jobs", "2"],
                 ["evaluate", "--corpus", CORPUS_DIR, "--jobs", "0"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path)])
        assert err.value.code == 2, argv[0]
        assert "--jobs" in capsys.readouterr().err, argv[0]
        assert not os.listdir(tmp_path), argv[0]


# -- evaluate -----------------------------------------------------------

@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    """Two-problem corpus so evaluate tests stay fast."""
    import shutil
    root = tmp_path_factory.mktemp("corpus")
    for name in ("insertion", "bubble"):
        shutil.copytree(os.path.join(CORPUS_DIR, name), root / name)
    return str(root)


def test_evaluate_outputs(mini_corpus, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--corpus", mini_corpus, "--out", str(out),
                 "--jobs", "2", "--seed", "5"]) == 0
    techniques = ["Profiler", "Deletion", "Exhaustive", "Combined"]

    ranks = read_csv(out / "rank_errors.csv")
    assert ranks[0] == ["problem", "technique", "node_id", "rank",
                        "ideal_rank", "error", "accuracy", "upper_half"]
    assert {r[0] for r in ranks[1:]} == {"Insertion Sort", "Bubblesort"}
    assert {r[1] for r in ranks[1:]} == set(techniques)
    assert {r[7] for r in ranks[1:]} <= {"0", "1"}

    accuracy = read_csv(out / "accuracy.csv")
    assert accuracy[0] == ["band"] + techniques
    assert accuracy[1][0] == "99-100" and accuracy[-1][0] == "0-10"
    # each technique's band counts sum to the improvement-node total
    per_node_rows = len(ranks) - 1
    for col in range(1, 5):
        assert sum(int(r[col]) for r in accuracy[1:]) * 4 == per_node_rows

    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["metric"] + techniques
    assert [r[0] for r in summary[1:]] == [
        "most_accurate_nodes", "least_accurate_nodes", "upper_half_nodes",
        "lower_half_nodes", "problems_all_upper", "problems_majority_lower",
        "problems_best_technique"]

    bootstrap = read_csv(out / "bootstrap.csv")
    assert bootstrap[0] == ["technique_a", "technique_b", "mean_diff",
                            "ci_low", "ci_high", "resamples", "sample_size",
                            "seed"]
    assert [(r[0], r[1]) for r in bootstrap[1:]] == [
        ("Profiler", "Deletion"), ("Deletion", "Exhaustive"),
        ("Exhaustive", "Combined")]
    assert all(r[7] == "5" for r in bootstrap[1:])

    cost = read_csv(out / "cost.csv")
    assert cost[0] == ["problem", "technique", "variants_generated",
                       "compiled", "executed", "evaluations"]
    profiler_rows = [r for r in cost[1:] if r[1] == "Profiler"]
    assert len(profiler_rows) == 2
    assert all(r[5] == "1" for r in profiler_rows)


def test_evaluate_never_forks(mini_corpus, tmp_path, monkeypatch):
    # --jobs is accepted, but every analysis runs in this process
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert main(["evaluate", "--corpus", mini_corpus, "--out", str(out),
                     "--jobs", str(jobs)]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and len(names) == 5
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_evaluate_seed_env_var(mini_corpus, tmp_path, monkeypatch):
    out = tmp_path / "e"
    monkeypatch.setenv("PERFLOC_SEED", "99")
    assert main(["evaluate", "--corpus", mini_corpus,
                 "--out", str(out)]) == 0
    rows = read_csv(out / "bootstrap.csv")
    assert all(r[7] == "99" for r in rows[1:])


def test_evaluate_bad_env_seed_is_a_usage_error(mini_corpus, tmp_path,
                                                monkeypatch, capsys):
    for raw in ("eleven", "abc", "1.5"):
        monkeypatch.setenv("PERFLOC_SEED", raw)
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--corpus", mini_corpus,
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert "PERFLOC_SEED" in capsys.readouterr().err


def test_evaluate_env_seed_minus_one_is_a_seed(mini_corpus, tmp_path,
                                               monkeypatch):
    # -1 is an integer like any other: the variable and the flag agree.
    assert main(["evaluate", "--corpus", mini_corpus,
                 "--out", str(tmp_path / "flag"), "--seed", "-1"]) == 0
    monkeypatch.setenv("PERFLOC_SEED", "-1")
    assert main(["evaluate", "--corpus", mini_corpus,
                 "--out", str(tmp_path / "env")]) == 0
    flag = read_csv(tmp_path / "flag" / "bootstrap.csv")
    assert flag == read_csv(tmp_path / "env" / "bootstrap.csv")
    assert all(r[7] == "-1" for r in flag[1:])


def test_evaluate_bad_quantiles_is_a_usage_error(mini_corpus, tmp_path,
                                                 capsys):
    for spec in ("0.9,0.1", "0.5", "a,b", "-0.1,0.5"):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--corpus", mini_corpus,
                  "--out", str(tmp_path / "q"), "--ci-quantiles", spec])
        assert err.value.code == 2
        capsys.readouterr()


def test_evaluate_invalid_corpus_exits_one(tmp_path, capsys):
    import shutil
    bad = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), bad / "bubble")
    shutil.copyfile(bad / "bubble" / "original.mini",
                    bad / "bubble" / "improved-1.mini")
    code = main(["evaluate", "--corpus", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "invalid" in capsys.readouterr().err


# -- validate -----------------------------------------------------------

def test_validate_reports_ok_per_problem(capsys):
    assert main(["validate", "--corpus", CORPUS_DIR]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.endswith(": ok") for line in lines)
    assert any(line.startswith("bubble_loops") for line in lines)


def test_validate_failure_exits_one(tmp_path, capsys):
    import shutil
    bad = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), bad / "bubble")
    os.remove(bad / "bubble" / "improved-1.mini")
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err

# -- unusable paths -----------------------------------------------------

@pytest.mark.parametrize("command, path", [
    ("evaluate", "missing corpus"),
    ("validate", "missing corpus"),
    ("validate", "file corpus"),
    ("profile", "file out"),
    ("profile", "out below a file"),
    ("localize", "file out"),
    ("localize", "out below a file"),
    ("evaluate", "file out"),
    ("evaluate", "out below a file"),
])
def test_unusable_path_exits_one_with_one_line(tmp_path, capsys, command,
                                               path):
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = {"file out": a_file,
           "out below a file": a_file / "out"}.get(path, tmp_path / "out")
    if path == "missing corpus":
        corpus = tmp_path / "missing"
    elif path == "file corpus":
        corpus = a_file
    argv = {"profile": ["profile", BUBBLE, "--tests", SUITE,
                        "--out", str(out)],
            "localize": ["localize", BUBBLE, "--tests", SUITE,
                         "--technique", "deletion", "--out", str(out)],
            "evaluate": ["evaluate", "--corpus", str(corpus),
                         "--out", str(out)],
            "validate": ["validate", "--corpus", str(corpus)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    name = str(corpus) if "corpus" in path else str(a_file)
    assert len(err) == 1 and name in err[0], err


# -- an original that fails its suite -----------------------------------

@pytest.mark.parametrize("body, line", [
    ("while (true) { }", "ends in Timeout on case 0"),
    ("a[0] = 0;", "is incorrect on case 1"),
])
def test_diverging_original_exits_one_with_one_line(tmp_path, capsys, body,
                                                    line):
    program = tmp_path / "p.mini"
    program.write_text(f"void sort(int[] a, int length) {{ {body} }}\n")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"input": [0], "args": [1], "expected": [0]},
        {"input": [2, 1], "args": [2], "expected": [1, 2]}]))
    for technique in ("profile", "deletion"):
        assert main(["localize", str(program), "--tests", str(suite),
                     "--technique", technique,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() \
            == [f"error: original program {line}"], technique


def test_evaluate_names_the_problem_whose_original_diverges(mini_corpus,
                                                            tmp_path, capsys):
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(mini_corpus, corpus)
    (corpus / "insertion" / "original.mini").write_text(
        "void sort(int[] a, int length) { a[0] = 0; }\n")
    out = tmp_path / "out"
    assert main(["evaluate", "--corpus", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("evaluating ")     # bubble, which is sound
    assert err[-1].startswith(f"error: {corpus / 'insertion'}: original "
                              f"program is incorrect on case "), err
    assert not list(out.glob("*"))   # no report written


# -- malformed suites ---------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("input", 2147483653),  # outside int32
    ("input", True),
    ("input", 1.5),
    ("args", None),         # None: the key is missing
    # a list replaces the whole value; sort takes one value after the array
    ("args", []),
    ("args", [5, 6]),
    # a program replaces the original; the line names the entry function
    ("program", "void sort(int length, int[] a) { }"),
    ("program", "void sort() { }"),
    ("program", "void sort(int[] a, int[] b) { }"),
    # ...or the first case whose arg is neither 0 nor 1 for a bool
    ("program", "void sort(int[] a, bool flip) { if (flip) { } }"),
])
def test_malformed_suite_exits_one_with_one_line(tmp_path, capsys, key,
                                                 value):
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    program = corpus / "bubble" / "original.mini"
    suite = corpus / "bubble" / "suite.json"
    cases = json.loads(suite.read_text())
    where = "case 3"
    if key == "program":
        program.write_text(value)
        if "bool" not in value:
            where = "entry function 'sort'"
    elif value is None:
        del cases[3][key]
    elif isinstance(value, list):
        cases[3][key] = value
    else:
        cases[3][key][0] = value
    suite.write_text(json.dumps(cases))
    out = str(tmp_path / "out")
    for argv in (["profile", str(program), "--tests", str(suite),
                  "--out", out],
                 ["localize", str(program), "--tests", str(suite),
                  "--technique", "deletion", "--out", out],
                 ["evaluate", "--corpus", str(corpus), "--out", out],
                 ["validate", "--corpus", str(corpus)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and where in err[0], (argv[0], err)


def test_empty_suite_exits_one_with_one_line(tmp_path, capsys):
    import shutil
    # with no case to run, every variant would cost 0 and every node tie
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    program = corpus / "bubble" / "original.mini"
    suite = corpus / "bubble" / "suite.json"
    suite.write_text("[]")
    out = str(tmp_path / "out")
    for argv in (["profile", str(program), "--tests", str(suite),
                  "--out", out],
                 ["localize", str(program), "--tests", str(suite),
                  "--technique", "exhaustive", "--out", out],
                 ["evaluate", "--corpus", str(corpus), "--out", out],
                 ["validate", "--corpus", str(corpus)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 \
            and "a suite needs at least one case" in err[0], (argv[0], err)
    assert not list((tmp_path / "out").glob("*"))   # no report written


def _drop_name(path):
    meta = json.loads(path.read_text())
    del meta["name"]
    path.write_text(json.dumps(meta))


def _latin1(path):
    path.write_bytes(path.read_bytes().replace(b"{", b"{ /* \xe9 */", 1))


def _undeclared(path):
    path.write_text(path.read_text().replace("a[j]", "b[j]", 1))


def _duplicate(path):
    """A second problem, ``bubble_loops``, under this problem's name; the
    line names both directories and the name."""
    import shutil
    other = path.parent.parent / "bubble_loops"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble_loops"), other)
    name = json.loads(path.read_text())["name"]
    meta = json.loads((other / "problem.json").read_text())
    (other / "problem.json").write_text(json.dumps({**meta, "name": name}))
    return str(path.parent), str(other), repr(name)


@pytest.mark.parametrize("name, breakage", [
    ("problem.json", _drop_name),
    ("problem.json", _duplicate),
    ("original.mini", _latin1),
    ("improved-1.mini", _latin1),
    ("original.mini", _undeclared),
    ("improved-1.mini", _undeclared),
])
def test_malformed_problem_exits_one_with_one_line(tmp_path, capsys, name,
                                                   breakage):
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    parts = (name, *(breakage(corpus / "bubble" / name) or ()))
    for argv in (["evaluate", "--corpus", str(corpus),
                  "--out", str(tmp_path / "out")],
                 ["validate", "--corpus", str(corpus)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and all(p in err[0] for p in parts), \
            (argv[0], err)
    assert not list((tmp_path / "out").glob("*"))   # no report written
    if name == "original.mini":
        assert main(["profile", str(corpus / "bubble" / name),
                     "--tests", SUITE, "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and name in err[0], err


def test_improved_entry_must_take_the_original_parameters(tmp_path, capsys):
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    improved = corpus / "bubble" / "improved-1.mini"
    improved.write_text("void sort(int[] a) { }\n")
    for argv in (["evaluate", "--corpus", str(corpus),
                  "--out", str(tmp_path / "out")],
                 ["validate", "--corpus", str(corpus)]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err.splitlines() == [
            f"invalid: {improved}: entry function takes (int[]), not the "
            f"original's (int[], int)"], argv[0]


def test_deep_nesting_exits_one_with_one_line(tmp_path, capsys):
    import shutil
    # the parser recurses at every parenthesis, past Python's stack limit
    deep = ("void sort(int[] a, int length) { int x = "
            + "(" * 400 + "1" + ")" * 400 + "; }\n")
    program = tmp_path / "deep.mini"
    program.write_text(deep)
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    (corpus / "bubble" / "original.mini").write_text(deep)
    out = str(tmp_path / "out")
    for argv in (["profile", str(program), "--tests", SUITE, "--out", out],
                 ["localize", str(program), "--tests", SUITE,
                  "--technique", "deletion", "--out", out],
                 ["evaluate", "--corpus", str(corpus), "--out", out],
                 ["validate", "--corpus", str(corpus)]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err.splitlines() \
            == ["error: program nested too deeply"], argv[0]


def test_a_flat_1000_statement_problem_validates(tmp_path, capsys):
    # bubble's loops with 999 more statements in the function's block:
    # the diff walks a block without recursing once per statement, so a
    # long block must not exhaust the stack as deep nesting does
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    for name in ("original.mini", "improved-1.mini"):
        path = corpus / "bubble" / name
        text = path.read_text()
        path.write_text(text[:text.rindex("}")]
                        + "    length = length;\n" * 999 + "}\n")
    assert main(["validate", "--corpus", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert "nested too deeply" not in captured.err
    assert captured.out.splitlines() == ["bubble: ok"]


def test_the_reference_engine_keeps_the_recursion_limit(tmp_path, capsys):
    # engine_py raises Python's recursion limit for its own runs only, so
    # how deep a program may nest does not depend on what ran before
    from perfloc.lang.parser import parse_program
    from perfloc.runtime import engine_py
    from perfloc.runtime.exec import TestCase, compile_program
    limit = sys.getrecursionlimit()
    ir = compile_program(parse_program(
        "void sort(int[] a, int length) { a[0] = 1; }"))
    engine_py.run_tests(ir, [TestCase((2,), (1,), (1,))], [100])
    assert sys.getrecursionlimit() == limit
    program = tmp_path / "deep.mini"
    program.write_text("void sort(int[] a, int length) { int x = "
                       + "(" * 400 + "1" + ")" * 400 + "; }\n")
    assert main(["profile", str(program), "--tests", SUITE,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() \
        == ["error: program nested too deeply"]


# -- failures inside a run ----------------------------------------------

class _Exhausted:
    """An engine whose every allocation fails."""

    @staticmethod
    def run_tests(ir, tests, limits, counts=None):
        raise MemoryError

    @staticmethod
    def prepare(ir, tests, limits):
        raise MemoryError

    @staticmethod
    def run_patch(handle, patch, tests):
        raise MemoryError


def test_out_of_memory_exits_one_with_one_line(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr("perfloc.runtime.exec._ENGINE", _Exhausted)
    for technique in ("deletion", "exhaustive"):
        assert main(["localize", BUBBLE, "--tests", SUITE, "--technique",
                     technique, "--out", str(tmp_path)]) == 1, technique
        assert capsys.readouterr().err.splitlines() \
            == ["error: out of memory"], technique


@pytest.mark.parametrize("call", ["prepare", "run_patch"])
def test_out_of_memory_in_a_patch_run_exits_one_with_one_line(
        tmp_path, capsys, monkeypatch, call):
    # the original's own runs succeed; preparing it, or the first
    # variant's run, fails
    from perfloc.runtime import exec as execution
    engine = types.SimpleNamespace(
        run_tests=execution._ENGINE.run_tests,
        prepare=execution._ENGINE.prepare,
        run_patch=execution._ENGINE.run_patch)
    setattr(engine, call, getattr(_Exhausted, call))
    monkeypatch.setattr(execution, "_ENGINE", engine)
    assert main(["localize", BUBBLE, "--tests", SUITE, "--technique",
                 "exhaustive", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


# -- global flags -------------------------------------------------------

def test_version_banner(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == (
        f"perfloc {__version__} (corpus {CORPUS_VERSION}, "
        f"engine {ENGINE_NAME})")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every record is a NamedTuple: start-up pays for neither module. The
    # child runs without ``site``, so only perfloc's own imports count.
    script = ("import sys, perfloc.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(perfloc.__file__)))
    run = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-500:]
    assert run.stdout == "[]\n"


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()
