import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cwwkit.cli
import cwwkit.codebook
from cwwkit.cli import CODEBOOK_ENV, main
from cwwkit.codebook import default_feedback_path
from cwwkit import DiscretizationGrid, build_default_schema, lwa_exact, lwa_paper
from cwwkit.it2 import CentroidInterval, membership_samples
from strategies import random_fou


@pytest.fixture()
def sample_feedback(tmp_path):
    path = tmp_path / "feedback.csv"
    path.write_text(default_feedback_path().read_text("utf-8"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """The CLI in a child process, so that an uncaught exception shows as
    the interpreter's traceback and exit status."""
    return subprocess.run(
        [sys.executable, "-m", "cwwkit.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


@pytest.mark.parametrize("command", [("evaluate", "--feedback"),
                                     ("codebook", "validate", "--codebook")])
def test_oversized_cell_is_data_error(tmp_path, codebook_text, command):
    # one cell beyond the csv module's default field limit of 131 072
    path = tmp_path / "big.csv"
    if command[0] == "evaluate":
        path.write_text("student_id,time_taken,subject_knowledge,liking,preparation\n"
                        f"1,{'S' * 200_000},SLA,AM,PM\n")
    else:
        path.write_text(codebook_text + "x" * 200_000 + "\n")
    result = run_child(*command, str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"cwwkit: error: {path}:")
    assert "field larger than field limit" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [("evaluate", "--lwa-mode", "exact"),
                                     ("evaluate", "--lwa-mode", "paper"),
                                     ("codebook", "validate")])
def test_word_off_the_scale_fails_at_load(tmp_path, codebook_text, command):
    # the Very Large time word reaching 50 on the 0..10 scale
    path = tmp_path / "wide.csv"
    path.write_text(codebook_text.replace("VLA,6.05,9.72,10.00,10.00,",
                                          "VLA,6.05,9.72,10.00,50,"))
    result = run_child(*command, "--codebook", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    # the word's own row fails, as every other malformed row does
    assert result.stderr == (
        f"cwwkit: error: {path}:6: word 'Very Large': "
        "FOU support [6.05, 50.0] exceeds grid domain [0.0, 10.0]\n")


class TestCodebookValidate:
    def test_default_codebook_passes(self, capsys):
        code, out, _ = run(capsys, "codebook", "validate")
        assert code == 0
        assert "all entries pass" in out

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "codebook", "validate", "--tolerance", "0")
        assert code == 2
        assert "FAIL" in out

    def test_bad_height_reported(self, capsys, tmp_path, codebook_text):
        lines = codebook_text.splitlines()
        cells = lines[2].split(",")
        cells[11] = "1.5"  # lower-bound height of the second word
        lines[2] = ",".join(cells)
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "codebook", "validate", "--codebook", str(path))
        assert code == 2
        assert "height exceeds 1" in err

    def test_non_finite_stored_centroid_reported(self, capsys, tmp_path, codebook_text):
        lines = codebook_text.splitlines()
        cells = lines[2].split(",")
        cells[12:15] = ["nan"] * 3  # stored c_l, c_r, mean of the second word
        lines[2] = ",".join(cells)
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "codebook", "validate", "--codebook", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:3: word 'Small': non-finite stored centroid" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "codebook", "validate", "--codebook", "/no/such.csv")
        assert code == 1
        assert "not found" in err

    def test_one_sample_word_verifies(self, capsys, tmp_path, codebook_text):
        # the Moderate time word replaced by a word whose upper support holds
        # one grid sample, 5.0, and whose lower support holds none
        moderate = "M,1.98,3.75,5.00,6.41,4.29,4.59,4.59,5.21,0.42,3.38,5.38,4.38"
        assert moderate in codebook_text
        path = tmp_path / "one_sample.csv"
        path.write_text(codebook_text.replace(
            moderate, "M,4.995,5.0,5.0,5.005,4.996,4.997,4.997,4.998,0.05,5.00,5.00,5.00"))
        code, out, err = run(capsys, "codebook", "validate", "--codebook", str(path))
        assert code == 0, err
        assert "all entries pass" in out

    def test_scan_cross_check(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "codebook", "validate")
        assert code == 0
        assert float(out.split("worst delta: ")[1].split()[0]) <= 1e-9
        scan = cwwkit.codebook.centroid_brute_force

        def shifted_scan(fou, grid):
            interval = scan(fou, grid)
            return CentroidInterval(interval.c_l, interval.c_r + 1e-8,
                                    interval.switch_left, interval.switch_right)

        monkeypatch.setattr(cwwkit.codebook, "centroid_brute_force", shifted_scan)
        code, out, _ = run(capsys, "codebook", "validate")
        assert code == 2
        assert "worst delta: 1.000e-08" in out
        assert "FAILED" in out

    @pytest.mark.parametrize("sample_count, status", [(51, 2), (101, 2), (201, 0)])
    def test_stored_centroids_verify_on_fine_grids(self, capsys, sample_count, status):
        # the stored centroids were computed on a fine grid: coarse grids
        # drift past the default tolerance on the shoulder words
        code, out, _ = run(capsys, "codebook", "validate", "--grid", str(sample_count))
        assert code == status
        assert ("FAIL" in out) == (status == 2)

    @pytest.mark.parametrize("argv", [
        ("--grid", "2"), ("--grid", "1000000000"), ("--grid", "many"),
        ("--tolerance", "nan"), ("--tolerance", "-0.1"), ("--tolerance", "inf"),
        ("--tolerance", "abc"), ("--grid", "2.5"),
    ])
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "codebook", "validate", *argv)
        assert code == 1
        assert out == ""
        assert argv[0] in err
        # the message is the option's own, not a parser function's
        assert not any(name in err for name in ("_tolerance", "_grid", "int()"))

    @pytest.mark.parametrize("sample_count, word", [
        (4, "word 'Average' (SSA) of 'Strategy of student'"),
        # the first of the five words without mass at 3 samples
        (3, "word 'Small' (S) of 'Time taken to solve the question'"),
    ])
    def test_word_without_mass_on_a_coarse_grid_is_named(self, capsys, sample_count, word):
        code, out, err = run(capsys, "codebook", "validate", "--grid", str(sample_count))
        assert code == 2
        assert out == ""
        assert err == f"cwwkit: error: {word}: FOU carries no membership mass on the grid\n"


class TestEvaluate:
    def test_default_run(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "evaluate", "--feedback", sample_feedback)
        assert code == 0
        assert out.splitlines()[0].startswith("student")
        assert len(out.splitlines()) == 26

    def test_builtin_sample_is_default(self, capsys):
        code, out, _ = run(capsys, "evaluate")
        assert code == 0
        assert len(out.splitlines()) == 26

    def test_single_method_columns(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                           "--methods", "perceptual", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "perceptual_numeric" in header
        assert "symbolic_numeric" not in header

    def test_unknown_method_is_usage_error(self, capsys, sample_feedback):
        code, _, err = run(capsys, "evaluate", "--feedback", sample_feedback,
                           "--methods", "bogus")
        assert code == 1
        assert "unknown method" in err

    def test_byte_identical_runs(self, capsys, sample_feedback):
        _, first, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                          "--format", "json")
        _, second, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                           "--format", "json")
        assert first == second

    def test_coarse_grid_is_not_an_error(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                           "--grid", "11")
        assert code == 0
        assert len(out.splitlines()) == 26

    def test_bad_word_sets_data_exit(self, capsys, tmp_path):
        path = tmp_path / "feedback.csv"
        lines = default_feedback_path().read_text("utf-8").splitlines()
        lines[1] = "1,Tiny,SLA,AM,PM"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "evaluate", "--feedback", str(path))
        assert code == 2
        assert "failed" in out
        # rank leaves the row out of the ranking, names it below the ranking
        # and flags the batch alike
        code, out, _ = run(capsys, "rank", "--feedback", str(path),
                           "--method", "symbolic")
        assert code == 2
        assert len(out.splitlines()) == 26
        assert out.splitlines()[-1].startswith("# 1: unknown word 'Tiny'")
        assert "student 1 " not in out

    def test_duplicate_student_id_sets_data_exit(self, capsys, tmp_path):
        path = tmp_path / "feedback.csv"
        path.write_text("student_id,time_taken,subject_knowledge,liking,preparation\n"
                        "1,S,SLA,AM,PM\n1,M,SM,AH,PH\n")
        for command in ("evaluate", "compare"):
            code, out, _ = run(capsys, command, "--feedback", str(path))
            assert code == 2
            assert "# 1: duplicate student id '1', first used by row 1" in out
        code, out, _ = run(capsys, "rank", "--feedback", str(path),
                           "--method", "symbolic")
        assert code == 2
        assert out.count("student 1 ") == 1

    def test_an_unprintable_student_id_stays_on_its_line(self, capsys, tmp_path):
        # quoted ids with a line feed, a carriage return and a tab: the line
        # formats print each as its repr, while CSV and JSON write it as before
        path = tmp_path / "feedback.csv"
        path.write_text('student_id,time_taken,subject_knowledge,liking,preparation\n'
                        '"a\nb",S,SL,AM,PM\n"c\rd",Tiny,SL,AH,PL\n"a\nb",L,SL,AH,PL\n'
                        '"x\ty",M,SL,AL,PM\n', newline="")
        flags = ["# 'c\\rd': unknown word 'Tiny' for parameter "
                 "'Time taken to solve the question'",
                 "# 'a\\nb': duplicate student id 'a\\nb', first used by row 1"]
        code, out, _ = run(capsys, "compare", "--methods", "symbolic", "--feedback", str(path))
        assert code == 2 and "\r" not in out and "\t" not in out
        lines = out.split("\n")
        assert [line.split()[0] for line in lines[1:5]] == [
            "'a\\nb'", "'c\\rd'", "'a\\nb'", "'x\\ty'"]
        assert lines[5:8] == [*flags, ""]
        assert "shared by 2 students ['a\\nb', 'x\\ty']" in out
        code, out, _ = run(capsys, "rank", "--method", "symbolic", "--feedback", str(path))
        assert code == 2
        assert out.split("\n")[1:] == ["  1. student 'a\\nb'   score 1.0000",
                                      "  2. student 'x\\ty'   score 1.0000", *flags, ""]
        code, out, _ = run(capsys, "evaluate", "--methods", "symbolic", "--format", "csv",
                           "--feedback", str(path))
        assert out.split("\n")[1:3] == ['"a', 'b",S,SL,AM,PM,1,SSBA,']
        code, out, _ = run(capsys, "evaluate", "--methods", "symbolic", "--format", "json",
                           "--feedback", str(path))
        assert [row["student_id"] for row in json.loads(out)["rows"]] == [
            "a\nb", "c\rd", "a\nb", "x\ty"]

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, sample_feedback,
                                        codebook_text):
        plain_cb = tmp_path / "cb.csv"
        plain_cb.write_text(codebook_text, encoding="utf-8")
        bom_cb = tmp_path / "cb_bom.csv"
        bom_cb.write_text(codebook_text, encoding="utf-8-sig")
        bom_feedback = tmp_path / "feedback_bom.csv"
        bom_feedback.write_text(default_feedback_path().read_text("utf-8"),
                                encoding="utf-8-sig")
        assert bom_feedback.read_bytes().startswith(b"\xef\xbb\xbf")
        _, plain, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                          "--codebook", str(plain_cb))
        code, bom, _ = run(capsys, "evaluate", "--feedback", str(bom_feedback),
                           "--codebook", str(bom_cb))
        assert code == 0
        assert bom == plain

    def test_out_file(self, capsys, tmp_path, sample_feedback):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                           "--format", "json", "--out", str(out_path))
        assert code == 0
        assert out == ""
        data = json.loads(out_path.read_text())
        assert len(data["rows"]) == 25

    def test_verbose_precision(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "evaluate", "--feedback", sample_feedback,
                           "--verbose-precision")
        assert code == 0
        assert "4.963" in out

    def test_repeated_method_is_usage_error(self, capsys, sample_feedback):
        code, out, err = run(capsys, "evaluate", "--feedback", sample_feedback,
                             "--methods", "symbolic, two_tuple,symbolic")
        assert code == 1
        assert out == ""
        assert "'symbolic' is given twice" in err

    @pytest.mark.parametrize("flag", ["--feedback", "--codebook", "--out"])
    def test_directory_path_is_usage_error(self, tmp_path, flag):
        result = run_child("evaluate", flag, str(tmp_path))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("cwwkit: error: ")
        assert "Traceback" not in result.stderr

    def test_missing_feedback_file(self, capsys):
        code, _, err = run(capsys, "evaluate", "--feedback", "/no/such.csv")
        assert code == 1
        assert "not found" in err

    def test_env_var_codebook(self, capsys, sample_feedback, tmp_path, monkeypatch,
                              codebook_text):
        path = tmp_path / "cb.csv"
        path.write_text(codebook_text)
        monkeypatch.setenv("CWWKIT_CODEBOOK", str(path))
        code, out, _ = run(capsys, "evaluate", "--feedback", sample_feedback)
        assert code == 0
        monkeypatch.setenv("CWWKIT_CODEBOOK", "/no/such.csv")
        code, _, err = run(capsys, "evaluate", "--feedback", sample_feedback)
        assert code == 1
        assert "not found" in err


# An explicit codebook is loaded and validated whatever the methods, so
# each command that can skip the perceptual method meets every bad one.
@pytest.mark.parametrize("command", [("evaluate", "--methods", "symbolic"),
                                     ("compare", "--methods", "two_tuple"),
                                     ("rank", "--method", "symbolic")],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("kind, status", [("missing", 1), ("directory", 1),
                                          ("bad-header", 2), ("off-scale", 2),
                                          ("missing-env", 1)])
def test_explicit_codebook_is_checked_without_perceptual(
        capsys, tmp_path, monkeypatch, codebook_text, command, kind, status):
    monkeypatch.delenv(CODEBOOK_ENV, raising=False)
    path = tmp_path / "cb.csv"
    if kind == "directory":
        path = tmp_path
    elif kind == "bad-header":
        path.write_text("nope\n1,2,3\n")
    elif kind == "off-scale":
        path.write_text(codebook_text.replace("VLA,6.05,9.72,10.00,10.00,",
                                              "VLA,6.05,9.72,10.00,50,"))
    if kind == "missing-env":
        monkeypatch.setenv(CODEBOOK_ENV, str(path))
        code, out, err = run(capsys, *command)
    else:
        code, out, err = run(capsys, *command, "--codebook", str(path))
    assert code == status
    assert out == ""
    assert err.count("cwwkit: error:") == 1
    assert "Traceback" not in err


# Any valid codebook, not only the shipped one, meets the contract: its
# words are drawn by `random_fou`, without stored centroids, and the
# bundled class is evaluated against it in both LWA modes.
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_codebook_contract(tmp_path_factory, codebook_text, seed):
    rng = np.random.default_rng(seed)
    lines = codebook_text.splitlines()
    for index in range(1, len(lines)):
        numbers = [repr(float(x)) for x in random_fou(rng).params]
        lines[index] = ",".join(lines[index].split(",")[:3] + numbers + ["", "", ""])
    path = tmp_path_factory.mktemp("codebook") / "codebook.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for mode in ("exact", "paper"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--codebook", str(path), "--grid", "51",
                         "--lwa-mode", mode])
        assert code in (0, 2)
        assert err.getvalue().count("cwwkit: error:") <= 1
        assert "Traceback" not in err.getvalue()


FEEDBACK_HEAD = "student_id,time_taken,subject_knowledge,liking,preparation\n"
FEEDBACK_COMMANDS = [("evaluate",), ("compare",), ("rank", "--method", "symbolic")]


def _write_feedback(tmp_path, kind, codebook_text):
    """A feedback path of one input class, and a fragment of its error."""
    path = tmp_path / "feedback.csv"
    if kind == "missing":
        return path, "feedback file not found"
    if kind == "directory":
        return tmp_path, "Is a directory"
    if kind == "not-utf8":
        path.write_bytes((FEEDBACK_HEAD + "1,Tr\xe9s,SLA,AM,PM\n").encode("latin-1"))
        return path, f"{path}: 'utf-8' codec can't decode byte 0xe9"
    text, fragment = {
        "empty": ("", f"{path}: empty file"),
        "header-only": (FEEDBACK_HEAD, f"{path}: no feedback rows"),
        "codebook": (codebook_text, f"{path}: expected header"),
        # the quoted id spans lines 2 and 3, so the short record starts on line 4
        "short-row": (FEEDBACK_HEAD + '"a\nb",S,SLA,AM,PM\n2,S,SLA,AM\n',
                      f"{path}:4: expected 5 cells, got 4"),
        "long-cell": (FEEDBACK_HEAD + f"1,{'S' * 200_000},SLA,AM,PM\n",
                      "field larger than field limit"),
    }[kind]
    path.write_text(text, encoding="utf-8")
    return path, fragment


# The feedback half of the exit-code contract: each command meets every
# class of unreadable feedback file with one error line and no output.
@pytest.mark.parametrize("command", FEEDBACK_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("kind, status", [
    ("missing", 1), ("directory", 1), ("empty", 2), ("header-only", 2),
    ("not-utf8", 2), ("codebook", 2), ("short-row", 2), ("long-cell", 2)])
def test_unreadable_feedback_file_contract(capsys, tmp_path, codebook_text, command,
                                           kind, status):
    path, fragment = _write_feedback(tmp_path, kind, codebook_text)
    code, out, err = run(capsys, *command, "--feedback", str(path))
    assert code == status
    assert out == ""
    assert err.count("cwwkit: error:") == 1
    assert fragment in err
    assert "Traceback" not in err


# ...and with every class of bad row: the batch runs, the row is flagged
# (`rank` leaves it out of the ranking and names it below), and the data
# exit code reports it.
@pytest.mark.parametrize("command", FEEDBACK_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("row, flag", [
    ("2,Tiny,SLA,AM,PM", "# 2: unknown word 'Tiny'"),
    ("1,M,SM,AH,PH", "# 1: duplicate student id '1', first used by row 1"),
    ("2,S\0,SLA,AM,PM", "# 2: unknown word 'S\\x00'")])
def test_bad_feedback_row_contract(capsys, tmp_path, command, row, flag):
    path = tmp_path / "feedback.csv"
    path.write_text(FEEDBACK_HEAD + "1,S,SLA,AM,PM\n" + row + "\n", encoding="utf-8")
    code, out, err = run(capsys, *command, "--feedback", str(path))
    assert code == 2
    assert "cwwkit: error:" not in err
    assert flag in out
    if command[0] == "rank":
        ranked, footer = out.splitlines()[1:]
        assert ranked == "  1. student 1        score 2.0000"
        assert footer.startswith(flag)


def test_builtin_codebook_is_loaded_only_for_perceptual(capsys, monkeypatch):
    def refuse():
        raise AssertionError("the built-in codebook was loaded")

    monkeypatch.delenv(CODEBOOK_ENV, raising=False)
    monkeypatch.setattr(cwwkit.cli, "default_codebook", refuse)
    code, out, _ = run(capsys, "evaluate", "--methods", "symbolic")
    assert code == 0
    assert out


class TestRank:
    def test_perceptual_ranking(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "rank", "--feedback", sample_feedback,
                           "--method", "perceptual")
        assert code == 0
        assert out.splitlines()[1].startswith("  1. student 3")

    def test_single_student(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        lines = default_feedback_path().read_text("utf-8").splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        code, out, _ = run(capsys, "rank", "--feedback", str(path),
                           "--method", "symbolic")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_bogus_method(self, capsys, sample_feedback):
        code, _, err = run(capsys, "rank", "--feedback", sample_feedback,
                           "--method", "bogus")
        assert code == 1
        assert "unknown method" in err

    @pytest.mark.parametrize("methods", ["symbolic,two_tuple", "symbolic,symbolic"])
    def test_more_than_one_method(self, capsys, sample_feedback, methods):
        code, out, err = run(capsys, "rank", "--feedback", sample_feedback,
                             "--method", methods)
        assert code == 1
        assert out == ""
        assert err == "cwwkit: error: rank takes exactly one method\n"


class TestCompare:
    def test_appends_uniqueness(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "compare", "--feedback", sample_feedback)
        assert code == 0
        assert "uniqueness summary" in out
        assert "shared by 17 students" in out

    def test_json_compare(self, capsys, sample_feedback):
        code, out, _ = run(capsys, "compare", "--feedback", sample_feedback,
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert "uniqueness" in data


    @pytest.mark.parametrize("lwa_mode, sample_count, fmt",
                             [("exact", 3, "table"), ("paper", 4, "json")])
    def test_grid_too_coarse_for_an_aggregate_flags_its_cell(self, codebook, sample_rows,
                                                              lwa_mode, sample_count, fmt):
        grid = DiscretizationGrid(sample_count=sample_count)
        massless = set()
        for record in sample_rows:
            fous = [codebook.lookup(param.name, term.code)
                    for param, term in zip(build_default_schema().parameters, record.choices)]
            aggregate = lwa_paper(fous) if lwa_mode == "paper" else lwa_exact(fous, grid=grid)
            if not membership_samples(aggregate, grid)[0].any():
                massless.add(record.student_id)
        assert massless
        result = run_child("compare", "--grid", str(sample_count), "--lwa-mode", lwa_mode,
                           "--format", fmt)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        if fmt == "json":
            flagged = {row["student_id"] for row in json.loads(result.stdout)["rows"]
                       if "error" in row["methods"]["perceptual"]}
        else:
            rows = result.stdout.split("\n\n")[0].splitlines()[1:]
            flagged = {row.split()[0] for row in rows if row.split()[-2:] == ["!", "failed"]}
        assert flagged == massless

    def test_grid_too_coarse_names_the_failed_cell_and_why(self, capsys):
        # at 3 samples student 22's perceptual aggregate has no mass
        flag = "# 22: perceptual: FOU carries no membership mass on the grid"
        code, out, _ = run(capsys, "compare", "--grid", "3")
        assert code == 2
        table, _ = out.split("\n\n", 1)
        assert table.splitlines()[-1] == flag
        code, out, _ = run(capsys, "compare", "--grid", "3", "--format", "csv")
        assert code == 2
        rows, _ = out.split("\n\n", 1)
        errors = {row["student_id"]: row["error"] for row in csv.DictReader(io.StringIO(rows))}
        assert errors["22"] == flag.split(": ", 1)[1]
        assert {errors[student] for student in errors if student != "22"} == {""}
        code, out, _ = run(capsys, "rank", "--method", "perceptual", "--grid", "3")
        assert code == 2
        assert out.splitlines()[-1] == flag

    def test_invalid_paper_average_fails_one_cell(self, capsys, tmp_path, codebook_text):
        # two valid words whose parameter-wise average is not a footprint
        lines = codebook_text.splitlines()
        for index, params in ((1, "0,1,9,10,0,1,9,10,1.0"), (6, "0,10,10,10,0,1,1,1,0.1")):
            cells = lines[index].split(",")
            assert cells[2] in ("VL", "SVL")
            lines[index] = ",".join(cells[:3]) + "," + params + ",,,"
        codebook = tmp_path / "codebook.csv"
        codebook.write_text("\n".join(lines) + "\n")
        feedback = tmp_path / "feedback.csv"
        feedback.write_text("student_id,time_taken,subject_knowledge,liking,preparation\n"
                            "1,VL,SVL,AM,PM\n2,S,SL,AM,PM\n")
        argv = ("compare", "--lwa-mode", "paper", "--codebook", str(codebook),
                "--feedback", str(feedback))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == ""
        rows = out.splitlines()
        # the perceptual columns come last
        assert rows[1].split()[0] == "1" and rows[1].split()[-2:] == ["!", "failed"]
        assert rows[2].split()[0] == "2" and "failed" not in rows[2]
        assert "uniqueness summary" in out
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2
        first, second = json.loads(out)["rows"]
        assert "parameter-wise average is not a footprint" in (
            first["methods"]["perceptual"]["error"])
        assert all("error" not in first["methods"][m] for m in
                   ("extension_principle", "symbolic", "two_tuple"))
        assert all("error" not in cell for cell in second["methods"].values())
        # `rank` leaves the failed cell's row out and names it below the ranking
        code, out, err = run(capsys, "rank", "--method", "perceptual", *argv[1:])
        assert code == 2
        assert err == ""
        lines = out.splitlines()
        assert [line.split()[2] for line in lines[1:-1]] == ["2"]
        assert lines[-1].startswith("# 1: ")
        assert "parameter-wise average is not a footprint" in lines[-1]


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1
