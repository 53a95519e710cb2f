#!/usr/bin/env python3
"""cwwkit benchmark runner: one workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; cwwkit is imported from the
checkout's `src/`, never from an installed copy. The run

1. generates the workload's input from the seed (see workloads.py);
2. times the set-up (`import cwwkit`, default codebook and schema) in
   fresh interpreters, several times;
3. makes one untimed `compare` call on the default-seed input, whose
   output must match the golden digest in golden.json;
4. repeats `compare` on the seeded input for S seconds, one call at a
   time: a fresh `python -m cwwkit.cli` process per call on `cli-class`,
   `cwwkit.cli.main` in this process on the other workloads. Each call
   is timed in CPU seconds of the process that did the work (wall time is
   printed too). With `--trace 1` traced and untraced calls alternate;
5. checks the outputs (checks.py) and prints a human-readable report,
   then, as its last line, one JSON object with the keys `correct`,
   `attempted`, `failed` and `metrics`: the end-to-end metrics with
   `--trace 0`, the per-layer metrics with `--trace 1`.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the run could not start (bad arguments, no cwwkit sources).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
SETUP_PROBES = 11  # fresh interpreters per run, spread over it; setup_s is their median
MIN_CALLS = 3
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Spec:
    """How a workload calls `compare`."""

    fmt: str
    lwa_mode: str
    exit_code: int  # expected: 2 when rows are flagged
    cold: bool  # a fresh process per call instead of in-process calls

    def argv(self, feedback=None, out=None) -> list[str]:
        args = ["compare", "--grid", "1001", "--lwa-mode", self.lwa_mode,
                "--format", self.fmt]
        if feedback is not None:
            args += ["--feedback", str(feedback), "--out", str(out)]
        return args


SPECS = {
    "cli-class": Spec("table", "exact", 0, cold=True),
    "cohort-distinct": Spec("json", "exact", 0, cold=False),
    "district-repeats": Spec("csv", "paper", 2, cold=False),
}


@dataclass(frozen=True)
class Call:
    wall_s: float
    cpu_s: float
    exit_code: int
    digest: str  # sha256 of the output
    size: int  # bytes of output


def _cpu_s() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, env=_child_env(), cwd=cwd,
                          timeout=CHILD_TIMEOUT_S)


def setup_probe(cwd) -> dict[str, float]:
    """Set-up times of one fresh interpreter (see probe.py)."""
    proc = _run_child([sys.executable, str(BENCH / "probe.py")], cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


class Caller:
    """Makes one `compare` call and returns its wall time and output digest.

    Each distinct output is kept once, in `outputs`, for the checks; keeping
    every call's bytes would make peak memory depend on the call count.
    """

    def __init__(self, spec: Spec, work: Path):
        self.spec = spec
        self.work = work
        self.out = work / "out.txt"
        self.cold_calls = 0
        self.outputs: dict[str, bytes] = {}

    def _record(self, wall: float, cpu: float, code: int, data: bytes) -> Call:
        digest = _digest(data)
        self.outputs.setdefault(digest, data)
        return Call(wall, cpu, code, digest, len(data))

    def call(self, feedback, tracer=None) -> Call:
        if self.spec.cold:
            return self._cold(tracer)
        argv = self.spec.argv(feedback, self.out)
        if tracer is None:
            return self._warm(argv)
        with tracer.installed():
            tracer.batch += 1
            return self._warm(argv)

    def _warm(self, argv) -> Call:
        import cwwkit.cli

        start, cpu = perf_counter(), _cpu_s()
        code = cwwkit.cli.main(argv)
        wall, cpu = perf_counter() - start, _cpu_s() - cpu
        return self._record(wall, cpu, code, self.out.read_bytes())

    def _cold(self, tracer) -> Call:
        self.cold_calls += 1
        if tracer is None:
            cmd = [sys.executable, "-m", "cwwkit.cli"]
        else:
            spans = self.work / f"spans-{self.cold_calls}.jsonl"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans)]
        start, cpu = perf_counter(), _cpu_s()
        proc = _run_child(cmd + self.spec.argv(), self.work)
        wall, cpu = perf_counter() - start, _cpu_s() - cpu
        if proc.stderr:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if tracer is not None:
            from tracing import read_spans

            tracer.batch += 1
            tracer.spans.extend(read_spans(spans, tracer.batch))
        return self._record(wall, cpu, proc.returncode, proc.stdout)


def generate(name: str, seed: int):
    from cwwkit import default_feedback_path

    bundled_csv = default_feedback_path().read_text("utf-8")
    if name == "cli-class":
        return workloads.cli_class(seed, bundled_csv)
    if name == "cohort-distinct":
        return workloads.cohort_distinct(seed)
    return workloads.district_repeats(seed, bundled_csv)


def input_digest(workload) -> str:
    if workload.csv_text is None:
        from cwwkit import default_feedback_path

        return _digest(default_feedback_path().read_bytes())
    return _digest(workload.csv_text.encode("utf-8"))


def write_input(workload, work: Path):
    if workload.csv_text is None:
        return None  # the program reads its bundled sample
    path = work / f"{workload.name}-{workload.seed}.csv"
    path.write_text(workload.csv_text, encoding="utf-8")
    return path


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def check_run(name, spec, workload, calls, outputs, golden_call,
              golden_input) -> tuple[int, list[str]]:
    """Unexpected outcomes over all calls, and what they were."""
    import checks

    problems = []
    golden = json.loads(GOLDEN.read_text("utf-8")).get(name, {})
    if golden_input != golden.get("input_sha256"):
        problems.append(f"default-seed input digest {golden_input} is not the golden "
                        f"{golden.get('input_sha256')}")
    if golden_call.digest != golden.get("output_sha256"):
        problems.append(f"default-seed output digest {golden_call.digest} is not the "
                        f"golden {golden.get('output_sha256')}")
    digests = {c.digest for c in calls}
    if len(digests) != 1:
        problems.append(f"{len(calls)} calls gave {len(digests)} different outputs")
    wrong_exit = [c.exit_code for c in [golden_call, *calls] if c.exit_code != spec.exit_code]
    if wrong_exit:
        problems.append(f"exit codes {sorted(set(wrong_exit))}, expected {spec.exit_code}")
    try:
        unexpected, messages = checks.CHECKERS[spec.fmt](
            workload, outputs[calls[0].digest].decode("utf-8"), spec.lwa_mode)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        unexpected, messages = workload.rows, [f"unparsable output: {exc!r}"]
    problems += messages
    failed = len(wrong_exit) + sum(
        unexpected if c.digest == calls[0].digest else workload.rows for c in calls)
    return failed, problems


def end_to_end_metrics(spec, calls, setup) -> dict:
    """Timings are CPU seconds of the process that did the work. On a shared
    virtual machine, wall time also counts the time other tenants hold the
    core, which moved medians by up to half between runs; see README.md."""
    cpu = [c.cpu_s for c in calls]
    if spec.cold:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup["setup_s"], "s"),
        "call_cpu_s.p50": (statistics.median(cpu), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def timing_lines(workload, calls, setup) -> list[str]:
    """Wall and CPU percentiles with their sample counts, and the rows per
    CPU second that the median call gives, for the report."""
    lines = []
    for label, values in (("wall", [c.wall_s for c in calls]),
                          ("cpu", [c.cpu_s for c in calls])):
        lines.append(f"  call {label:4s} p50 {statistics.median(values):.4f} s, "
                     f"p90 {quantile(values, 0.9):.4f} s over {len(values)} calls")
    per_cpu_s = workload.rows / statistics.median(c.cpu_s for c in calls)
    lines.append(f"  students_per_cpu_s {per_cpu_s:.6g} 1/s "
                 "(rows / call_cpu_s.p50, not gated)")
    lines.append(f"  setup wall {setup['setup_wall_s']:.4f} s, import wall "
                 f"{setup['import_wall_s']:.4f} s (numpy {setup['import_numpy_wall_s']:.4f} s)")
    return lines


def per_layer_metrics(stats, missing, setup, untraced, traced) -> tuple[dict, list[str]]:
    """Span-derived layer metrics plus the run-level ones; and the metrics
    left out because a wrapped function is missing."""
    from tracing import layer_metrics

    values, lost = layer_metrics(stats, missing)
    values["cli.import_s"] = (setup["import_s"], "s")
    values["cli.import_numpy_s"] = (setup["import_numpy_s"], "s")
    values["reporting.output_bytes"] = (untraced[0].size, "bytes")
    values["trace.overhead_ratio"] = (statistics.median(c.cpu_s for c in traced)
                                      / statistics.median(c.cpu_s for c in untraced),
                                      "ratio")
    return values, lost


# Baseline recorded in ROADMAP.md (single runs, evaluate_batch on 2 000
# random students, exact LWA), shown beside the traced figures:
# (label, microseconds, span, divided per perceptual student or per call).
BASELINE = (
    ("perceptual per student", 867, "pipeline.evaluate_student.perceptual", False),
    ("jaccard_similarity x5 per student", 280, "it2.jaccard_similarity", True),
    ("lwa_exact per call", 116, "it2.lwa_exact", False),
    ("centroid (EKM) per call", 73, "it2.centroid", False),
)


def baseline_lines(table, setup) -> list[str]:
    per_call = {name: (calls, busy) for name, calls, busy, _ in table}
    students = per_call.get("pipeline.evaluate_student.perceptual", (0, 0.0))[0]
    lines = ["baseline (ROADMAP.md) vs this traced run:",
             f"  {'':36s} {'baseline':>10s} {'traced':>10s}"]
    for label, base_us, span, per_student in BASELINE:
        calls, busy = per_call.get(span, (0, 0.0))
        if per_student:
            calls = students
        traced = f"{busy / calls * 1e6:8.0f}us" if calls else "not called"
        lines.append(f"  {label:36s} {base_us:8d}us {traced:>10s}")
    lines.append(f"  {'import cwwkit (wall)':36s} {0.18:9.2f}s {setup['import_wall_s']:9.3f}s")
    lines.append("  traced times include the wrappers' cost on every nested span; "
                 "trace.overhead_ratio gives its total share")
    return lines


def format_metrics(values: dict) -> list[str]:
    return [f"  {name:52s} {value:.6g} {unit}" for name, (value, unit) in values.items()]


def run(args) -> int:
    spec = SPECS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, work) -> int:
    from tracing import Tracer

    workload = generate(args.workload, args.seed)
    golden_workload = generate(args.workload, DEFAULT_SEED)
    print(f"workload {workload.name} seed {workload.seed}: rows={workload.rows} "
          f"distinct_vectors={workload.distinct_vectors} "
          f"distinct_ratio={workload.distinct_ratio:.4f} bad_rows={workload.bad_rows}")

    setup_probe(work)  # untimed: may compile bytecode caches
    caller = Caller(spec, work)
    golden_call = caller.call(write_input(golden_workload, work))  # also the warm-up
    feedback = write_input(workload, work)

    # Set-up probes are spread evenly over the window, so that setup_s
    # samples the machine's slow and fast phases like the calls do.
    tracer = Tracer() if args.trace else None
    probes, untraced, traced = [], [], []
    start = perf_counter()
    while len(untraced) < MIN_CALLS or perf_counter() < start + args.seconds:
        if (len(probes) < SETUP_PROBES
                and perf_counter() >= start + len(probes) * args.seconds / SETUP_PROBES):
            probes.append(setup_probe(work))
        untraced.append(caller.call(feedback))
        if tracer is not None:
            traced.append(caller.call(feedback, tracer))
    probes += [setup_probe(work) for _ in range(SETUP_PROBES - len(probes))]
    setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    e2e = end_to_end_metrics(spec, untraced, setup)

    failed, problems = check_run(args.workload, spec, workload, untraced + traced,
                                 caller.outputs, golden_call,
                                 input_digest(golden_workload))
    attempted = workload.rows * len(untraced + traced)

    print(f"calls: {len(untraced)} untraced" +
          (f", {len(traced)} traced" if traced else "") +
          f"; error_ratio = {failed / attempted:.6g} ({failed} unexpected outcomes "
          f"in {attempted} rows)")
    print("end-to-end:")
    print("\n".join(format_metrics(e2e) + timing_lines(workload, untraced, setup)))
    if tracer is not None:
        from tracing import batch_stats, function_table

        stats = batch_stats(tracer.spans)
        values, lost = per_layer_metrics(stats, tracer.missing, setup, untraced, traced)
        table = function_table(stats)
        print("per wrapped function, per call of compare (median over traced calls):")
        print(f"  {'span':44s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s}")
        for name, calls, busy, self_s in table:
            self_text = "" if self_s is None else f"{self_s:10.6f}"
            print(f"  {name:44s} {calls:8.0f} {busy:10.6f} {self_text:>10s}")
        print("per-layer:")
        print("\n".join(format_metrics(values)))
        for line in lost:
            print(f"  MISSING {line}")
        print("\n".join(baseline_lines(table, setup)))
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
        metrics = values
    else:
        metrics = e2e

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS/OpenMP thread here and in every child, before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CWWKIT_CODEBOOK", None)
    if not (SRC / "cwwkit" / "__init__.py").is_file():
        print(f"run.py: no cwwkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cwwkit

    if Path(cwwkit.__file__).resolve().parent != (SRC / "cwwkit").resolve():
        print(f"run.py: imported cwwkit from {cwwkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
