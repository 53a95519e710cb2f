"""Self-tests of the benchmark: generator, output checks, tracer, runner.

    PYTHONPATH=src python -m pytest benchmarks/selftest.py -q

No test asserts an absolute time. The file is not named test_*.py, so that
the repository's own `pytest` run does not import the benchmark modules:
Hypothesis draws floats from the constants of every imported local module,
and the benchmark's constants change what the it2 property tests generate.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cwwkit.cli
import cwwkit.pipeline
from cwwkit import build_default_schema, resolve_feedback

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
BUNDLED_CSV = cwwkit.default_feedback_path().read_text("utf-8")


def _district(seed):
    return workloads.district_repeats(seed, BUNDLED_CSV)


def _subset(workload, rows):
    """The first `rows` rows of a generated workload, as its own workload."""
    lines = workload.csv_text.splitlines(keepends=True)
    return workloads.Workload(workload.name, workload.seed,
                              "".join(lines[:rows + 1]),
                              workload.student_ids[:rows], workload.indices[:rows])


def _compare(tmp_path, workload, fmt, lwa_mode):
    feedback, out = tmp_path / "in.csv", tmp_path / "out.txt"
    feedback.write_text(workload.csv_text, encoding="utf-8")
    code = cwwkit.cli.main(["compare", "--feedback", str(feedback), "--out", str(out),
                            "--format", fmt, "--lwa-mode", lwa_mode])
    return code, out.read_text(encoding="utf-8")


@pytest.mark.parametrize("make", [workloads.cohort_distinct, _district])
def test_generator_is_byte_deterministic_per_seed(make):
    assert make(7).csv_text == make(7).csv_text
    assert make(7).indices == make(7).indices
    assert make(7).csv_text != make(8).csv_text


def test_generated_ground_truth_matches_word_resolution():
    schema = build_default_schema()
    cohort = workloads.cohort_distinct(3)
    assert sorted(cohort.indices) == sorted(set(cohort.indices))
    assert cohort.rows == 625 and cohort.distinct_ratio == 1.0
    district = _district(3)
    assert district.rows == workloads.DISTRICT_ROWS
    assert district.bad_rows == workloads.DISTRICT_BAD_ROWS
    # about 516 distinct vectors are expected in 1990 valid rows
    assert 0.2 < district.distinct_ratio < 0.32
    for line, vec in zip(district.csv_text.splitlines()[1:], district.indices):
        words = dict(zip((p.name for p in schema.parameters), line.split(",")[1:]))
        if vec is None:
            with pytest.raises(cwwkit.CwwError):
                resolve_feedback(schema, words)
        else:
            assert resolve_feedback(schema, words).indices == vec


def test_district_words_follow_the_bundled_sample():
    counts = workloads.word_counts(BUNDLED_CSV)
    assert all(sum(row) == workloads.BUNDLED_SAMPLE_ROWS for row in counts)
    assert counts[0] == (4, 7, 3, 8, 3)  # time_taken: VL S M L VLA
    valid = [vec for vec in _district(5).indices if vec is not None]
    for p, row in enumerate(counts):
        for i, count in enumerate(row):
            share = sum(vec[p] == i for vec in valid) / len(valid)
            assert abs(share - count / workloads.BUNDLED_SAMPLE_ROWS) < 0.04


def test_json_checker_accepts_output_and_rejects_corruption(tmp_path):
    workload = _subset(workloads.cohort_distinct(1), 30)
    code, text = _compare(tmp_path, workload, "json", "exact")
    assert code == 0
    assert checks.check_json(workload, text, "exact") == (0, [])

    document = json.loads(text)
    perceptual = document["rows"][4]["methods"]["perceptual"]
    perceptual["centroid"][0] += 1e-6
    pair = document["rows"][9]["methods"]["two_tuple"]["two_tuple"]
    pair[1] += 0.25
    document["rows"][12]["words"]["liking"] = "AVL" if pair[0] else "AVH"
    unexpected, messages = checks.check_json(workload, json.dumps(document), "exact")
    assert unexpected >= 2
    assert any("centroid" in m for m in messages)
    assert any("2-tuple" in m for m in messages)


def test_csv_checker_accepts_output_and_rejects_corruption(tmp_path):
    district = _district(1)
    last_bad = max(k for k, vec in enumerate(district.indices) if vec is None)
    workload = _subset(district, last_bad + 1)
    code, text = _compare(tmp_path, workload, "csv", "paper")
    assert code == 2
    assert checks.check_csv(workload, text, "paper") == (0, [])

    table, summary = text.split("\nuniqueness summary\n")
    rows = list(csv.reader(io.StringIO(table)))
    assert rows[last_bad + 1][-1].startswith("unknown word")
    rows[last_bad + 1][-1] = ""  # the bad row is no longer flagged
    score = rows[0].index("perceptual_numeric")
    rows[1][score] = f"{float(rows[1][score]) + 0.01:.2f}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    corrupted = buf.getvalue() + "\nuniqueness summary\n" + summary
    unexpected, messages = checks.check_csv(workload, corrupted, "paper")
    assert unexpected == 2
    assert any("not flagged" in m for m in messages)
    assert any("perceptual score" in m for m in messages)


def test_table_checker_rejects_a_wrong_two_tuple(capsys):
    workload = workloads.cli_class(1, BUNDLED_CSV)
    assert cwwkit.cli.main(["compare", "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert checks.check_table(workload, text, "exact") == (0, [])
    lines = text.split("\n")
    cells = lines[3].split()
    cells[9] = f"{float(cells[9]) + 0.25:g}"  # the 2-tuple's beta
    lines[3] = "  ".join(cells)
    unexpected, messages = checks.check_table(workload, "\n".join(lines), "exact")
    assert unexpected == 1 and "beta" in messages[0]


def test_tracer_restores_originals_and_reports_missing_spans(tmp_path):
    original = cwwkit.pipeline.lwa_exact
    targets = tracing.TARGETS + (
        tracing.Target("it2.removed", "cwwkit.it2", "no_such_function"),)
    tracer = tracing.Tracer(targets)
    workload = _subset(workloads.cohort_distinct(1), 10)
    with tracer.installed():
        assert cwwkit.pipeline.lwa_exact is not original
        tracer.batch += 1
        _compare(tmp_path, workload, "json", "exact")
    assert cwwkit.pipeline.lwa_exact is original
    assert tracer.missing == ("it2.removed",)

    stats = tracing.batch_stats(tracer.spans)
    values, lost = tracing.layer_metrics(stats, tracer.missing)
    assert values["pipeline.evaluate_student.distinct_ratio"][0] == 1.0
    assert values["pipeline.evaluate_student.perceptual.calls"][0] == 10
    assert values["it2.lwa.calls"][0] == 10
    assert lost == []
    values, lost = tracing.layer_metrics(stats, ("it2.lwa_exact",))
    assert "it2.lwa.busy_s" not in values and "it2.self_s" not in values
    assert any(line.startswith("it2.lwa.busy_s") for line in lost)


def test_a_failing_note_changes_no_result_and_is_reported_missing(tmp_path):
    def broken(args, kwargs, result):
        raise RuntimeError("note failed")

    targets = tuple(
        tracing.Target(t.name, t.module, t.attribute, broken, t.kind) if t.note else t
        for t in tracing.TARGETS)
    workload = _subset(workloads.cohort_distinct(1), 5)
    expected = _compare(tmp_path, workload, "json", "exact")
    tracer = tracing.Tracer(targets)
    with tracer.installed():
        tracer.batch += 1
        assert _compare(tmp_path, workload, "json", "exact") == expected

    values, lost = tracing.layer_metrics(tracing.batch_stats(tracer.spans, targets))
    noted = {"pipeline.evaluate_student.distinct_ratio",
             "it2.membership_samples.distinct_ratio",
             "vocabulary.read_feedback_file.rows",
             *(f"pipeline.evaluate_student.{m}.{k}" for m in workloads.METHODS
               for k in ("calls", "busy_s"))}
    assert noted.isdisjoint(values)
    assert {line.split(" ")[0] for line in lost} == noted
    assert values["it2.lwa.calls"][0] == 5


def test_benchmark_json_lists_every_per_layer_metric(tmp_path):
    import run

    tracer = tracing.Tracer()
    workload = _subset(workloads.cohort_distinct(1), 5)
    with tracer.installed():
        tracer.batch += 1
        _compare(tmp_path, workload, "json", "exact")
    call = run.Call(1.0, 1.0, 0, "", 1)
    setup = {"setup_s": 1.0, "import_s": 1.0, "import_numpy_s": 1.0}
    values, _ = run.per_layer_metrics(tracing.batch_stats(tracer.spans), (), setup,
                                      [call], [call])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(values)
    assert all(m["unit"] == values[m["name"]][1] for m in spec["per_layer"])


def test_runner_refuses_a_tree_without_cwwkit_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli-class",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
