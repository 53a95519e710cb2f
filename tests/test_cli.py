import dataclasses
import json
import os
import subprocess
import sys

import pytest

import cwwkit.codebook
from cwwkit.cli import main
from cwwkit.codebook import default_feedback_path


@pytest.fixture()
def sample_feedback(tmp_path):
    path = tmp_path / "feedback.csv"
    path.write_text(default_feedback_path().read_text("utf-8"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_scan_cross_check(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "codebook", "validate")
        assert code == 0
        assert float(out.split("worst delta: ")[1].split()[0]) <= 1e-9
        scan = cwwkit.codebook.centroid_brute_force

        def shifted_scan(fou, grid):
            interval = scan(fou, grid)
            return dataclasses.replace(interval, c_r=interval.c_r + 1e-8)

        monkeypatch.setattr(cwwkit.codebook, "centroid_brute_force", shifted_scan)
        code, out, _ = run(capsys, "codebook", "validate")
        assert code == 2
        assert "worst delta: 1.000e-08" in out
        assert "FAILED" in out

    @pytest.mark.parametrize("argv", [
        ("--grid", "2"), ("--grid", "1000000000"), ("--grid", "many"),
        ("--tolerance", "nan"), ("--tolerance", "-0.1"), ("--tolerance", "inf"),
    ])
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "codebook", "validate", *argv)
        assert code == 1
        assert out == ""
        assert argv[0] in err


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
        # rank leaves the row out of the ranking but flags the batch alike
        code, out, _ = run(capsys, "rank", "--feedback", str(path),
                           "--method", "symbolic")
        assert code == 2
        assert len(out.splitlines()) == 25
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
        # in a child process, so that an uncaught exception shows as the
        # interpreter's traceback and exit status
        result = subprocess.run(
            [sys.executable, "-m", "cwwkit.cli", "evaluate", flag, str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
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


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1
