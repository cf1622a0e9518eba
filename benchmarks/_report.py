"""Shared reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or claims; the
rows it produces are printed and also written under
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can reference
stable artifacts.  Machine-readable results go through
:func:`write_json`, which pins the shared ``BENCH_*.json`` envelope so
the files stop drifting in shape between benchmarks.
"""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: where ``mode: "smoke"`` artifacts land (git-ignored): a smoke run --
#: CI's, or a developer's pre-push check -- must never overwrite the
#: committed full-mode ``BENCH_*.json`` / ``*.txt`` beside it
SMOKE_DIR = os.path.join(RESULTS_DIR, "smoke")

#: Version of the shared BENCH_*.json envelope written by
#: :func:`write_json`.  Every payload carries it as ``schema_version``.
#: The envelope contract (bump this when it changes incompatibly):
#:
#: * ``schema_version`` (int)  -- this constant;
#: * ``experiment`` (str)      -- the benchmark's experiment tag;
#: * ``mode`` (str)            -- ``"smoke"`` or ``"full"``;
#: * ``host`` (dict)           -- ``cpus``/``platform``/``python``;
#: * ``gates`` (dict)          -- gate name -> bool (CI pass/fail);
#: * ``notes`` (str)           -- how to read the numbers;
#:
#: plus benchmark-specific measurement fields alongside.
BENCH_SCHEMA_VERSION = 1


def host_info() -> dict:
    """The ``host`` block of the shared BENCH_*.json envelope."""
    import platform

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _results_dir(mode: str) -> str:
    path = SMOKE_DIR if mode == "smoke" else RESULTS_DIR
    os.makedirs(path, exist_ok=True)
    return path


def write_json(name: str, payload: dict) -> str:
    """Write ``benchmarks/results/BENCH_<name>.json`` (shared envelope).

    Stamps ``schema_version`` (:data:`BENCH_SCHEMA_VERSION`) and fills
    in ``host`` when the payload lacks one, so every benchmark's JSON
    carries the same envelope; the payload's own fields are otherwise
    written as given.  A ``mode: "smoke"`` payload goes under
    :data:`SMOKE_DIR` instead.  Returns the path.
    """
    payload = dict(payload)
    payload.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    payload.setdefault("host", host_info())
    path = os.path.join(_results_dir(payload.get("mode")), f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def report(experiment: str, title: str, lines: list[str], mode: str = "full") -> str:
    """Print and persist one experiment's regenerated rows (the ``.txt``
    twin of :func:`write_json`; same ``mode`` routing)."""
    text = "\n".join([f"# {experiment}: {title}"] + lines) + "\n"
    path = os.path.join(_results_dir(mode), f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print("\n" + text)
    return path


def dominant_system(n: int, seed: int = 0):
    """Random diagonally dominant tridiagonal system (shared workload)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    b = rng.uniform(-1, 1, n)
    c = rng.uniform(-1, 1, n)
    a = np.abs(b) + np.abs(c) + rng.uniform(1.0, 2.0, n)
    f = rng.uniform(-5, 5, n)
    return b, a, c, f


def dominant_systems(m: int, n: int, seed: int = 0):
    import numpy as np

    rng = np.random.default_rng(seed)
    B = rng.uniform(-1, 1, (m, n))
    C = rng.uniform(-1, 1, (m, n))
    A = np.abs(B) + np.abs(C) + rng.uniform(1.0, 2.0, (m, n))
    F = rng.uniform(-5, 5, (m, n))
    return B, A, C, F
