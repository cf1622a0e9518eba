#!/usr/bin/env python
"""Run the public-API doctests (the docs CI job).

``python -m doctest src/repro/lang/context.py`` would import the file
with its *directory* prepended to ``sys.path``, where ``lang/array.py``
shadows the stdlib ``array`` module and breaks unrelated imports.  This
runner imports each module through the package instead (requires
``PYTHONPATH=src``) and applies :func:`doctest.testmod` -- the same
checker, minus the path hazard.

Usage: PYTHONPATH=src python tools/run_doctests.py [module ...]
"""

from __future__ import annotations

import doctest
import importlib
import sys

#: Modules whose docstrings carry runnable ``>>>`` examples.
DEFAULT_MODULES = [
    "repro.baselines.doall",
    "repro.compiler.commsched",
    "repro.compiler.estimate",
    "repro.compiler.inspector",
    "repro.compiler.schedule",
    "repro.faults",
    "repro.lang.context",
    "repro.lang.expr",
    "repro.machine.costmodel",
    "repro.machine.trace",
    "repro.serve",
    "repro.session",
    "repro.supervise",
    "repro.util.indexing",
]


def main(argv: list[str]) -> int:
    modules = argv or DEFAULT_MODULES
    failed = attempted = 0
    for name in modules:
        mod = importlib.import_module(name)
        result = doctest.testmod(mod, verbose=False)
        print(f"{name}: {result.attempted} examples, {result.failed} failures")
        failed += result.failed
        attempted += result.attempted
    if attempted == 0:
        print("error: no doctest examples found", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
