"""``python -m tools.reprolint [paths]``: lint files or directories
(default ``./src``) and exit 0 when clean, 1 on any finding, 2 on a
usage error (a missing path, an unknown check, no Python file to lint).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.reprolint import checker_catalogue, lint_paths, render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        # No prefix matching: a bare --json would silently mean --json-out.
        allow_abbrev=False,
        description="reprolint, the invariant-aware static analysis pass "
        "(lock discipline, blocking-under-lock, store-VFS boundary, "
        "metrics hygiene)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: ./src)",
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--select",
        metavar="CHECKS",
        default=None,
        help="comma-separated checker names to run (default: all)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list the checkers and exit",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_checks:
        for name, description in checker_catalogue():
            print(f"{name}: {description}")
        return 0

    paths = [Path(p) for p in args.paths] or [Path("src")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        return _usage_error(f"no such path: {missing[0]}")
    checks = None
    if args.select:
        checks = [c.strip() for c in args.select.split(",") if c.strip()]
    try:
        result = lint_paths(paths, checks=checks)
    except KeyError as error:
        return _usage_error(str(error.args[0]))
    if not result.files_checked:
        return _usage_error(
            "no Python files to lint in " + ", ".join(map(str, paths))
        )

    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(render_json(result), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(render_text(result))
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
