"""Collective divergence is always a named deadlock.

Every collective opens with a grid rendezvous whose tag names its kind.
Ranks that diverge into different collectives at the same per-grid tag
therefore never meet: each parks at its own rendezvous, the run fails
with a ``DeadlockError`` naming both, and no collective's action runs,
so no array changes.
"""

import itertools

import numpy as np
import pytest

from repro.compiler.inspector import inspector_gather
from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.machine import Machine
from repro.session import Session
from repro.tensor.adi import _solve_lines
from repro.util.errors import DeadlockError


def _arrays():
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    B = DistArray((8,), g, dist=("block",), name="B")
    M = DistArray((8, 3), g, dist=("block", "*"), name="M")
    out = DistArray((8, 3), g, dist=("block", "*"), name="out")
    A.from_global(np.arange(8.0))
    M.from_global(np.arange(24.0).reshape(8, 3))
    return g, A, B, M, out


def _kinds(g, A, B, M, out):
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 7)], Owner(B, (i,)), [Assign(B[i], A[i] + 1.0)], g)
    diag = (np.zeros(8), 4.0 * np.ones(8), np.zeros(8))

    def lines(ctx):
        rows = M.owned_lists(ctx.rank)[0]
        diags = [np.broadcast_to(d[rows, None], (len(rows), 3)) for d in diag]
        yield from _solve_lines(
            ctx, M, 0, M.local(ctx.rank), out.local(ctx.rank), diags, range(3), False
        )

    return {
        "doall": (lambda ctx: ctx.doall(loop), "'doall'"),
        "redistribute": (lambda ctx: ctx.redistribute(A, ("cyclic",)), "'repartition'"),
        "cached gather": (
            lambda ctx: ctx.cached_gather(g, A, np.array([[7 - ctx.rank]])),
            "'gather', True",
        ),
        "uncached gather": (
            lambda ctx: inspector_gather(ctx, g, A, np.array([[ctx.rank]])),
            "'gather', False",
        ),
        "lines": (lines, "'lines'"),
    }


KINDS = ["doall", "redistribute", "cached gather", "uncached gather", "lines"]


@pytest.mark.parametrize(
    "first, second",
    list(itertools.permutations(KINDS, 2)),
    ids=lambda kind: kind.replace(" ", "-"),
)
def test_diverging_ranks_deadlock_naming_both(first, second):
    g, A, B, M, out = _arrays()
    kinds = _kinds(g, A, B, M, out)
    before = {arr.name: arr.to_global().copy() for arr in (A, B, M, out)}
    layout = A.layout_key()

    def prog(ctx):
        run, _ = kinds[first if ctx.rank == 0 else second]
        yield from run(ctx)

    with pytest.raises(DeadlockError) as err:
        Session(Machine(n_procs=2), g).run(prog)
    message = str(err.value)
    assert message.count("rendezvous") == 2
    assert kinds[first][1] in message and kinds[second][1] in message
    assert A.layout_key() == layout
    for arr in (A, B, M, out):
        assert arr.to_global().tobytes() == before[arr.name].tobytes(), arr.name


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.replace(" ", "-"))
def test_every_kind_runs_when_the_ranks_agree(kind):
    """The same harness with no divergence completes: the deadlocks above
    come from the divergence alone."""
    g, A, B, M, out = _arrays()
    run, _ = _kinds(g, A, B, M, out)[kind]

    def prog(ctx):
        yield from run(ctx)

    Session(Machine(n_procs=2), g).run(prog)
