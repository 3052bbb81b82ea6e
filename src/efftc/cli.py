"""Command line entry point.

    efftc run <scenario.json|builtin> [--grid N] [--epsilon E] [--delta D]
              [--modulus L] [--samples S] [--out report.json] [--csv rows.csv]
    efftc table <dir> [--csv table.csv]
    efftc list-builtins

Exit codes: 0 all reports consistent and expectations met; 1 contradiction,
refutation or expectation miss; 2 a scenario that cannot be loaded (among
them a path that is a directory or cannot be read, and one with a key
nothing reads in its space, a pipeline step or an expectation),
verification parameters no certification can run on, an --out or --csv
path that cannot be written (a directory, or in a directory that does not
exist; checked before the run), or a report directory or report file that
cannot be read; 3 a run that failed (reported with the exception's type
and message, and the index, op, and method or planner of the pipeline step
that raised it); 4 an internal error, an exception none of these expects,
with its traceback on stderr.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
import traceback

from .errors import RUN_ERRORS, ContradictionError, PipelineStepError
from .scenarios import (
    BUILTINS,
    check_params,
    emit_table,
    format_table,
    load_scenario,
    run_scenario,
    table_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="efftc")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit its reports")
    run.add_argument("scenario", help="path to a scenario JSON or a builtin name")
    run.add_argument("--grid", type=int, default=None)
    run.add_argument("--epsilon", type=float, default=None)
    run.add_argument("--delta", type=float, default=None)
    run.add_argument("--modulus", type=float, default=None)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--out", default=None, help="write the JSON report here")
    run.add_argument("--csv", default=None, help="write report rows as CSV")

    table = sub.add_parser("table", help="assemble the sphere table from reports")
    table.add_argument("dir", help="directory holding scenario report JSONs")
    table.add_argument("--csv", default=None)

    sub.add_parser("list-builtins", help="list builtin scenario names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _command(args)
    except Exception:
        # a bug, not a verdict: exit 1 would read as a refutation
        print("error: internal error", file=sys.stderr)
        traceback.print_exc()
        return 4


def _command(args) -> int:
    if args.command == "list-builtins":
        for name in sorted(BUILTINS):
            print(name)
        return 0

    if args.command == "run":
        overrides = {}
        for key in ("grid", "epsilon", "delta", "modulus", "samples"):
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        try:
            scenario = load_scenario(args.scenario)
            check_params(overrides)
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: cannot load scenario: {exc}", file=sys.stderr)
            return 2
        try:
            for path in (args.out, args.csv):
                if path:
                    _check_writable(path)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
        try:
            result = run_scenario(scenario, overrides)
        except ContradictionError as exc:
            print(f"contradiction: {exc}", file=sys.stderr)
            return 1
        except RUN_ERRORS as exc:
            detail = exc if isinstance(exc, PipelineStepError) else (
                f"{type(exc).__name__}: {exc}")
            print(f"error: scenario run failed: {detail}", file=sys.stderr)
            return 3
        payload = result.to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            print(payload, end="")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("\n".join(result.csv_rows()) + "\n")
        if not result.ok:
            for check in result.checks:
                if not check["ok"]:
                    print(f"failed check: {check}", file=sys.stderr)
            for exp in result.expected_results:
                if not exp["ok"]:
                    print(f"missed expectation: {exp}", file=sys.stderr)
            return 1
        return 0

    if args.command == "table":
        try:
            rows, missing = emit_table(args.dir)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read reports: {exc}", file=sys.stderr)
            return 2
        if missing:
            print(f"missing scenario reports: {sorted(set(missing))}",
                  file=sys.stderr)
            return 1
        print(format_table(rows))
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(table_csv(rows))
        return 0 if all(r["match"] for r in rows) else 1

    return 2


def _check_writable(path):
    """Raise OSError when `path` cannot take a report file: it is a
    directory, or its directory does not exist."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such directory", parent)


if __name__ == "__main__":
    raise SystemExit(main())
