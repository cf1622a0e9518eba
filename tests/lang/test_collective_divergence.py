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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import doall_reference
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


def _loop(g, A, B):
    (i,) = loopvars("i")
    return Doall((i,), [(0, 7)], Owner(B, (i,)), [Assign(B[i], A[i] + 1.0)], g)


def _kinds(g, A, B, M, out):
    loop = _loop(g, A, B)
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
        "allreduce": (lambda ctx: ctx.allreduce(g, np.full(2, ctx.rank + 1.0)), "'allreduce'"),
        "bcast": (lambda ctx: ctx.bcast(g, np.arange(3.0), root=1), "'bcast'"),
        "gather": (lambda ctx: ctx.gather(g, np.full(2, float(ctx.rank)), root=0), "'gather')"),
    }


KINDS = ["doall", "redistribute", "cached gather", "uncached gather", "lines",
         "allreduce", "bcast", "gather"]


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


def _run_sequences(seqs):
    """Run ``seqs[rank]`` (kind names) on each rank of a fresh harness;
    returns the arrays, each rank's results and the deadlock, if any."""
    g, A, B, M, out = _arrays()
    kinds = _kinds(g, A, B, M, out)
    got = {0: [], 1: []}

    def prog(ctx):
        for kind in seqs[ctx.rank]:
            got[ctx.rank].append((yield from kinds[kind][0](ctx)))

    try:
        Session(Machine(n_procs=2), g).run(prog)
    except DeadlockError as err:
        return (g, A, B, M, out), got, err
    return (g, A, B, M, out), got, None


def _check_values(seq, arrays, got):
    """Every result and array against ``doall_reference`` or numpy."""
    g, A, B, M, out = arrays
    a = np.arange(8.0)
    state = {A: a.copy(), B: np.zeros(8)}
    for step, kind in enumerate(seq):
        if kind == "doall":
            doall_reference([_loop(g, A, B)], state)
        for rank in (0, 1):
            value = got[rank][step]
            if kind == "cached gather":
                assert np.asarray(value).tobytes() == a[[7 - rank]].tobytes()
            elif kind == "uncached gather":
                assert np.asarray(value).tobytes() == a[[rank]].tobytes()
            elif kind == "allreduce":
                assert value.tobytes() == np.full(2, 3.0).tobytes()
            elif kind == "bcast":
                assert value.tobytes() == np.arange(3.0).tobytes()
            elif kind == "gather" and rank == 0:
                assert [v.tobytes() for v in value] == [
                    np.full(2, 0.0).tobytes(), np.full(2, 1.0).tobytes()
                ]
            elif kind == "gather":
                assert value is None
    assert A.to_global().tobytes() == state[A].tobytes()
    assert B.to_global().tobytes() == state[B].tobytes()
    m = np.arange(24.0).reshape(8, 3)
    want = m / 4.0 if "lines" in seq else np.zeros((8, 3))
    assert out.to_global().tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(seq=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4), data=st.data())
def test_property_sequences_agree_or_deadlock_naming_both(seq, data):
    """Per-rank collective sequences over every kind.  Agreeing ranks get
    the reference values; a rank that diverges at a random step leaves a
    ``DeadlockError`` naming both rendezvous, and every array as the
    steps before the divergence left it."""
    at = data.draw(st.none() | st.integers(0, len(seq) - 1), label="diverge at")
    if at is None:
        arrays, got, err = _run_sequences({0: seq, 1: seq})
        assert err is None
        _check_values(seq, arrays, got)
        return
    other = data.draw(st.sampled_from([k for k in KINDS if k != seq[at]]), label="into")
    arrays, _, err = _run_sequences({0: seq, 1: seq[:at] + [other] + seq[at + 1:]})
    assert err is not None
    message = str(err)
    assert message.count("rendezvous") == 2
    kinds = _kinds(*_arrays())
    assert kinds[seq[at]][1] in message and kinds[other][1] in message
    before, _, _ = _run_sequences({0: seq[:at], 1: seq[:at]})
    for arr, ref in zip(arrays[1:], before[1:]):
        assert arr.layout_key()[1:] == ref.layout_key()[1:], arr.name
        assert arr.to_global().tobytes() == ref.to_global().tobytes(), arr.name
