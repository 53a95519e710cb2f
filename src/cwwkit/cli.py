"""Command-line interface.

Subcommands: `codebook validate`, `evaluate`, `rank`, `compare`.
Exit codes: 0 success, 1 usage or configuration error, 2 data or
validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from .codebook import (default_codebook, default_feedback_path, load_codebook,
                       verify_stored_centroids)
from .errors import ConfigurationError, CwwError
from .it2 import DEFAULT_GRID, MAX_SAMPLE_COUNT, DiscretizationGrid
from .pipeline import (ALL_METHODS, LWA_MODES, EvalOptions, Method,
                       evaluate_batch, rank_students, uniqueness_report)
from .reporting import (render_csv, render_flags, render_json, render_ranking,
                        render_table, render_uniqueness)
from .vocabulary import read_feedback_file

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2

CODEBOOK_ENV = "CWWKIT_CODEBOOK"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors honor the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _grid(text: str) -> DiscretizationGrid:
    """argparse type for --grid: a sample count, checked by the grid itself."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be a whole number of samples, got {text!r}") from None
    try:
        return DiscretizationGrid(sample_count=count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance(text: str) -> float:
    """argparse type for --tolerance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number: the message below
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="cwwkit",
                     description="Linguistic evaluation of examination strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    codebook_args = argparse.ArgumentParser(add_help=False)
    codebook_args.add_argument("--codebook",
                               help="codebook file (default: built-in)")
    codebook_args.add_argument(
        "--grid", type=_grid, default=DEFAULT_GRID, metavar="N",
        help=f"grid sample count, 3 to {MAX_SAMPLE_COUNT} (default: 1001)")

    codebook = sub.add_parser("codebook", help="codebook maintenance")
    codebook_sub = codebook.add_subparsers(dest="codebook_command", required=True)
    validate = codebook_sub.add_parser(
        "validate", parents=[codebook_args],
        help="check FOU invariants, stored centroids and the scan cross-check")
    validate.add_argument("--tolerance", type=_tolerance, default=0.05,
                          help="allowed |recomputed - stored| per centroid end")

    common = argparse.ArgumentParser(add_help=False, parents=[codebook_args])
    common.add_argument("--feedback",
                        help="feedback batch file (default: built-in sample)")
    common.add_argument("--lwa-mode", choices=LWA_MODES, default="exact",
                        help="aggregation mode for the perceptual method")
    common.add_argument("--out", help="write output to this file instead of stdout")

    report_args = argparse.ArgumentParser(add_help=False)
    report_args.add_argument("--methods", default="all",
                             help="comma-separated method names, or 'all'")
    report_args.add_argument("--format", choices=("table", "csv", "json"),
                             default="table")
    report_args.add_argument("--verbose-precision", action="store_true",
                             help="print perceptual scores at full precision")

    sub.add_parser("evaluate", parents=[common, report_args],
                   help="evaluate a feedback batch")
    sub.add_parser("compare", parents=[common, report_args],
                   help="evaluate plus a uniqueness summary")
    rank = sub.add_parser("rank", parents=[common],
                          help="rank the batch by one method's score")
    rank.add_argument("--method", required=True,
                      help="method providing the ranking score")
    return parser


def _parse_methods(text: str) -> tuple[Method, ...]:
    if text.strip().lower() == "all":
        return ALL_METHODS
    methods = []
    for name in text.split(","):
        name = name.strip()
        try:
            method = Method(name)
        except ValueError:
            valid = ", ".join(m.value for m in ALL_METHODS)
            raise ConfigurationError(
                f"unknown method {name!r}; valid methods: {valid}, all"
            ) from None
        methods.append(method)
    return tuple(methods)


def _existing(path: str, kind: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"{kind} file not found: {path}")
    return path


def _load_codebook(path: str | None):
    return default_codebook() if path is None else load_codebook(_existing(path, "codebook"))


def _load_feedback(path: str | None):
    return read_feedback_file(default_feedback_path() if path is None
                              else _existing(path, "feedback"))


def _destination(path: str | None):
    """The output stream as a context manager: stdout, left open, or the
    `--out` file, closed on exit."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _evaluate(args, methods):
    # an explicit codebook is validated whatever the methods; the built-in
    # one is loaded only when the perceptual method needs it
    needed = args.codebook is not None or Method.PERCEPTUAL in methods
    cb = _load_codebook(args.codebook) if needed else None
    feedback = _load_feedback(args.feedback)
    options = EvalOptions(grid=args.grid, lwa_mode=args.lwa_mode)
    return evaluate_batch(feedback, methods, cb, options=options)


def _exit_status(report) -> int:
    """EXIT_DATA if any row of the report was flagged or has a failed cell."""
    flagged = any(entry.reasons(report.methods) for entry in report.entries)
    return EXIT_DATA if flagged else EXIT_OK


def _cmd_codebook_validate(args) -> int:
    cb = _load_codebook(args.codebook)
    verification = verify_stored_centroids(cb, args.grid, args.tolerance)
    print(verification.format_text())
    return EXIT_OK if verification.passed else EXIT_DATA


def _render_report(report, args, out, uniqueness=None) -> None:
    verbose = args.verbose_precision
    if args.format == "json":
        render_json(report, out, verbose, uniqueness)
        return
    render = render_csv if args.format == "csv" else render_table
    render(report, out, verbose)
    if uniqueness is not None:
        out.write("\n")
        render_uniqueness(uniqueness, out)


def _cmd_evaluate(args, with_uniqueness: bool) -> int:
    report = _evaluate(args, _parse_methods(args.methods))
    uniqueness = uniqueness_report(report) if with_uniqueness else None
    with _destination(args.out) as out:
        _render_report(report, args, out, uniqueness)
    return _exit_status(report)


def _cmd_rank(args) -> int:
    methods = _parse_methods(args.method)
    if len(methods) != 1:
        raise ConfigurationError("rank takes exactly one method")
    report = _evaluate(args, methods)
    ranking = rank_students(report, methods[0])
    with _destination(args.out) as out:
        render_ranking(ranking, methods[0], out)
        # the rows left out of the ranking, and why
        render_flags(report, out)
    return _exit_status(report)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # the one place the environment's codebook is read
        args.codebook = args.codebook or os.environ.get(CODEBOOK_ENV)
        if args.command == "codebook":
            return _cmd_codebook_validate(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args, with_uniqueness=False)
        if args.command == "compare":
            return _cmd_evaluate(args, with_uniqueness=True)
        return _cmd_rank(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CwwError, ValueError, OSError) as exc:  # OSError: a missing file, a directory
        print(f"cwwkit: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ConfigurationError, OSError)) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
