"""Command-line interface tests, driven in process through main()."""

import csv
import hashlib
import json
import os

import pytest

from perfloc import __version__
from perfloc.cli import main
from perfloc.corpus import CORPUS_VERSION
from perfloc.runtime import ENGINE_NAME

from conftest import CORPUS_DIR

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
                 "--technique", "exhaustive", "--out", str(out),
                 "--jobs", "2"]) == 0
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
                 "--technique", "combined", "--out", str(out),
                 "--jobs", "2"]) == 0
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
    # Pinned digests: any change to a report byte must be deliberate.
    assert {name: hashlib.sha256((a / name).read_bytes()).hexdigest()
            for name in ("nodes.csv", "variants.csv")} == {
        "nodes.csv":
            "5d58d43dde22dffcdc90fa238f979ca30e0d1fd5d23bf0d9acb52542543f4636",
        "variants.csv":
            "0fa526af057221eb18d9d022e4be611f035bbfbbe3d6ffa809db9411062ebc42",
    }


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


def test_bad_jobs_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["localize", BUBBLE, "--tests", SUITE,
              "--technique", "exhaustive", "--out", str(tmp_path),
              "--jobs", "0"])
    assert err.value.code == 2
    capsys.readouterr()


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


def test_evaluate_seed_env_var(mini_corpus, tmp_path, monkeypatch):
    out = tmp_path / "e"
    monkeypatch.setenv("PERFLOC_SEED", "99")
    assert main(["evaluate", "--corpus", mini_corpus,
                 "--out", str(out)]) == 0
    rows = read_csv(out / "bootstrap.csv")
    assert all(r[7] == "99" for r in rows[1:])


def test_evaluate_bad_env_seed_is_a_usage_error(mini_corpus, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.setenv("PERFLOC_SEED", "eleven")
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--corpus", mini_corpus,
              "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    capsys.readouterr()


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


# -- malformed suites ---------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("input", 2147483653),  # outside int32
    ("input", True),
    ("input", 1.5),
    ("args", None),         # None: the key is missing
    # a list replaces the whole value; sort takes one value after the array
    ("args", []),
    ("args", [5, 6]),
])
def test_malformed_suite_exits_one_with_one_line(tmp_path, capsys, key,
                                                 value):
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
    program = corpus / "bubble" / "original.mini"
    suite = corpus / "bubble" / "suite.json"
    cases = json.loads(suite.read_text())
    if value is None:
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
        assert len(err) == 1 and "case 3" in err[0], (argv[0], err)


def _drop_name(path):
    meta = json.loads(path.read_text())
    del meta["name"]
    path.write_text(json.dumps(meta))


def _latin1(path):
    path.write_bytes(path.read_bytes().replace(b"{", b"{ /* \xe9 */", 1))


def _undeclared(path):
    path.write_text(path.read_text().replace("a[j]", "b[j]", 1))


@pytest.mark.parametrize("name, breakage", [
    ("problem.json", _drop_name),
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
    breakage(corpus / "bubble" / name)
    for argv in (["evaluate", "--corpus", str(corpus),
                  "--out", str(tmp_path / "out")],
                 ["validate", "--corpus", str(corpus)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and name in err[0], (argv[0], err)
    if name == "original.mini":
        assert main(["profile", str(corpus / "bubble" / name),
                     "--tests", SUITE, "--out", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and name in err[0], err


# -- failures inside a run ----------------------------------------------

class _Exhausted:
    """An engine whose every allocation fails."""

    @staticmethod
    def run_tests(ir, tests, limits):
        raise MemoryError


def test_out_of_memory_exits_one_with_one_line(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr("perfloc.runtime.exec._ENGINE", _Exhausted)
    assert main(["localize", BUBBLE, "--tests", SUITE, "--technique",
                 "deletion", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


def _die(*args, **kwargs):
    os._exit(1)


@pytest.mark.parametrize("command", ["localize", "evaluate"])
def test_crashed_worker_exits_one_with_one_line(tmp_path, capsys,
                                                monkeypatch, command):
    import shutil
    # Forked workers inherit the patch; the parent never calls it before
    # the pool breaks.
    monkeypatch.setattr("perfloc.mutation.run_suite", _die)
    out = str(tmp_path / "out")
    if command == "localize":
        argv = ["localize", BUBBLE, "--tests", SUITE, "--technique",
                "combined", "--out", out]
        where = f"{BUBBLE}: combined"
    else:
        corpus = tmp_path / "corpus"
        shutil.copytree(os.path.join(CORPUS_DIR, "bubble"), corpus / "bubble")
        argv = ["evaluate", "--corpus", str(corpus), "--out", out]
        meta = json.loads((corpus / "bubble" / "problem.json").read_text())
        where = f"{meta['name']}: exhaustive"
    assert main(argv + ["--jobs", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {where}: a worker process died"
    # evaluate names the problem it starts before any failure
    assert len(err) == (1 if command == "localize" else 2), err


# -- global flags -------------------------------------------------------

def test_version_banner(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == (
        f"perfloc {__version__} (corpus {CORPUS_VERSION}, "
        f"engine {ENGINE_NAME})")


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()
