"""Entry point the driver calls: ``python3 benchmarks/spine/run.py ...``.

Puts the checkout (for ``benchmarks.spine``) and its ``src`` (for
``repro``, the program under test) on ``sys.path`` and hands over to
:mod:`benchmarks.spine.cli`.  The program must come from this checkout:
an installed copy from somewhere else would be measured instead without
anyone noticing, so that is an error, not a fallback.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    source = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, source]
    try:
        import repro
    except ImportError as error:
        print(f"spine: cannot import the program under test from {source}: "
              f"{error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"spine: 'repro' resolved to {repro.__file__}, outside this "
              "checkout", file=sys.stderr)
        return 2
    from benchmarks.spine import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
