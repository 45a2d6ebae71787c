"""The ``qpiad lint`` command.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error — the same
contract as the rest of the ``qpiad`` CLI, so CI scripts can chain it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import LintConfigError
from repro.analysis.reporting import (
    render_rule_list,
    render_rule_reference,
    render_sarif,
    render_text,
)
from repro.analysis.runner import lint_paths

__all__ = ["run_lint", "add_lint_arguments"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to the ``qpiad lint`` *parser*."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src/repro")],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif", "markdown"),
        default="text",
        help=(
            "report format (sarif output is sorted and byte-stable; markdown "
            "is only valid with --list-rules and emits the docs rule-reference "
            "table)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed *args*."""
    if args.list_rules:
        if args.format == "markdown":
            print(render_rule_reference())
        else:
            print(render_rule_list())
        return 0
    if args.format == "markdown":
        print("error: --format markdown is only valid with --list-rules", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    try:
        report = lint_paths(args.paths)
    except LintConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_sarif(report) if args.format == "sarif" else render_text(report))
    return report.exit_code
