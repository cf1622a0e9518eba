"""Shared test harness: a hang guard and a leak audit for the
concurrency-heavy suites.

The machine / elastic / serve / supervise suites exercise forked worker
pools, shared-memory segments, barriers, and thread pools, and the
compiler / lang / tune suites fork workers for their multiprocessing
cases -- the failure modes of a bug there are a *hang* and a *silent
leak*, not a traceback.
``pytest-timeout`` is not in the toolchain, so this conftest arms
:func:`faulthandler.dump_traceback_later` around each test in those
directories: a test exceeding the budget dumps every thread's stack to
stderr and hard-exits the process instead of wedging CI until the
job-level timeout.  Around the same tests it checks that the set of
``/dev/shm/psm_*`` segments and of live child processes, and the count
of this process's open file descriptors, are the same after the test as
before, so a leak names the test that caused it.  (The descriptors
``multiprocessing`` opens once per process on first use -- its heap
arena and the resource-tracker pipe -- are opened by a session fixture
before the first guarded test, so they count as no test's leak.)

``REPRO_TEST_TIMEOUT`` overrides the per-test budget in seconds
(``0`` disables the watchdog; the leak audit always runs).
"""

import faulthandler
import multiprocessing
import os

import pytest

#: directories whose tests get the guard (suites that fork workers or
#: run thread pools -- arming faulthandler around every fast unit test
#: elsewhere is pointless churn)
_GUARDED = (
    "elastic", "serve", "supervise", "machine", "compiler", "lang", "tune",
)

_DEFAULT_TIMEOUT = 180.0


def _budget() -> float:
    raw = os.environ.get("REPRO_TEST_TIMEOUT", "").strip()
    if not raw:
        return _DEFAULT_TIMEOUT
    try:
        return float(raw)
    except ValueError:
        return _DEFAULT_TIMEOUT


def _live_resources() -> tuple[set, set, int | None]:
    """What a test can leak silently: the ``multiprocessing.shared_memory``
    segments on the host, this process's live children
    (``active_children`` reaps finished ones and never lists the stdlib
    resource tracker, which is not a ``multiprocessing.Process``), and
    the count of its open file descriptors (``None`` without
    ``/proc``)."""
    try:
        segments = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:  # platform without /dev/shm
        segments = set()
    try:
        fds = len(os.listdir("/proc/self/fd"))
    except OSError:  # platform without /proc
        fds = None
    return segments, {p.pid for p in multiprocessing.active_children()}, fds


@pytest.fixture(scope="session")
def _mp_warm():
    """Open the once-per-process ``multiprocessing`` descriptors (the
    ``pym-*`` heap arena behind a fork-context ``Barrier`` and the
    resource-tracker pipe) before any test is audited."""
    from multiprocessing import resource_tracker

    multiprocessing.get_context("fork").Barrier(1)
    resource_tracker.ensure_running()


@pytest.fixture(autouse=True)
def hang_guard(request, _mp_warm):
    """Per-test watchdog (dump all stacks and exit on a hang) plus the
    silent-failure audit: no shm segment, child process or file
    descriptor outlives the test that created it."""
    path = getattr(request.node, "path", None)
    if path is None or path.parent.name not in _GUARDED:
        yield
        return
    segments, children, fds = _live_resources()
    timeout = _budget()
    if timeout > 0:
        faulthandler.dump_traceback_later(timeout, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
    segments_after, children_after, fds_after = _live_resources()
    leaked = sorted(segments_after - segments)
    zombies = sorted(children_after - children)
    assert not leaked and not zombies and fds_after == fds, (
        f"{request.node.nodeid} leaked shm segments {leaked}, "
        f"child pids {zombies} and {(fds_after or 0) - (fds or 0)} open fds"
    )


@pytest.fixture
def simulations(monkeypatch):
    """Counts entries into the event simulator (``Machine.run``): what a
    frozen loop run may make once per run shape, for its trace oracle."""
    from repro import Machine

    calls = []
    real = Machine.run
    monkeypatch.setattr(
        Machine, "run", lambda self, *a, **kw: calls.append(1) or real(self, *a, **kw)
    )
    return calls
