"""The morph drill: elastic shrink/re-grow with bit-identical resumption.

The headline scenario of ``repro.elastic``: a Jacobi program loses k
worker ranks mid-sweep, the run fails loudly, state is restored from a
checkpoint, the session *shrinks* onto the surviving ranks, continues,
later *re-grows* onto the full rank set -- and the final results and
the final-grid run trace are bit-identical to a run that was never
interrupted.  Exercised on the simulator and the multiprocessing
backend (whose worker pool must die and respawn across the morphs), and
on the serving layer.
"""

import numpy as np
import pytest

import repro
from repro import Machine, ProcessorGrid, Session
from repro.machine import mpbackend
from repro.serve import Server
from repro.util.errors import MachineError, ValidationError

N = 18
SRC = f"""
processors procs(4)
real X(0:{N - 1}, 0:{N - 1}) dist (block, *)
real F(0:{N - 1}, 0:{N - 1}) dist (block, *)
doall (i, j) = [1, {N - 2}] * [1, {N - 2}] on owner(X(i, j))
  X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - F(i, j)
end doall
"""


def trace_sig(trace):
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


def forcing():
    return np.random.default_rng(11).standard_normal((N, N))


def numpy_sweeps(k):
    """``k`` sweeps of SRC's loop from X = 0, in plain numpy."""
    want, f = np.zeros((N, N)), forcing()
    for _ in range(k):
        old = want.copy()
        want[1:-1, 1:-1] = 0.25 * (
            old[2:, 1:-1] + old[:-2, 1:-1] + old[1:-1, 2:] + old[1:-1, :-2]
        ) - f[1:-1, 1:-1]
    return want


def fresh(backend=None):
    sess = Session(Machine(n_procs=4), backend=backend)
    prog = repro.compile(SRC, session=sess)
    return sess, prog


# ----------------------------------------------------------------------
# The drill
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", [None, "multiprocessing"])
def test_morph_drill_bit_identical_to_uninterrupted(backend):
    """Kill k ranks mid-sweep (mp) / checkpoint-cut (simulator), shrink
    to the survivors, re-grow, and match an uninterrupted reference."""
    g4, g2 = ProcessorGrid((4,)), ProcessorGrid((2,))
    sess, prog = fresh(backend=backend)
    try:
        prog.run(X=np.zeros((N, N)), F=forcing(), iters=2)
        ck = sess.checkpoint()

        if backend == "multiprocessing":
            # ranks 2 and 3 die mid-sweep: the run must fail loudly
            # with per-rank sections, never hang.  Workers inherit the
            # fault spec at fork time, so respawn the pool armed.
            mpbackend._FAULT_INJECTION = {
                "rank": (2, 3), "sweep": 1, "action": "exit"
            }
            sess.close_backend()
            try:
                with pytest.raises(MachineError, match="-- rank "):
                    prog.run(iters=4)
            finally:
                mpbackend._FAULT_INJECTION = None

        # recover pre-fault state, shrink onto the survivors, continue
        sess.restore(ck)
        sess.morph(g2)
        assert prog.grid.key() == g2.key()
        prog.run(iters=2)

        # capacity returns: re-grow and finish
        sess.morph(g4)
        assert prog.grid.key() == g4.key()
        t_final = prog.run(iters=2)
        got = prog.arrays["X"].to_global().copy()
    finally:
        sess.close_backend()

    # the uninterrupted reference: same sweep totals, never morphed
    ref_sess, ref_prog = fresh(backend=backend)
    try:
        ref_prog.run(X=np.zeros((N, N)), F=forcing(), iters=2)
        ref_prog.run(iters=2)
        t_ref = ref_prog.run(iters=2)
        want = ref_prog.arrays["X"].to_global()
    finally:
        ref_sess.close_backend()

    np.testing.assert_array_equal(got, want)
    assert trace_sig(t_final) == trace_sig(t_ref)


def test_drill_sweeps_morph_points():
    """Bit-identity holds wherever the morph lands in the sweep
    sequence (total sweep count is all that matters)."""
    g4, g2 = ProcessorGrid((4,)), ProcessorGrid((2,))
    total = 6
    ref_sess, ref_prog = fresh()
    ref_prog.run(X=np.zeros((N, N)), F=forcing(), iters=total)
    want = ref_prog.arrays["X"].to_global()

    for cut in (1, 3, 5):
        sess, prog = fresh()
        prog.run(X=np.zeros((N, N)), F=forcing(), iters=cut)
        sess.morph(g2)
        prog.run(iters=total - cut)
        sess.morph(g4)
        np.testing.assert_array_equal(prog.arrays["X"].to_global(), want)


def test_morph_replays_repartitions_on_second_cycle():
    g4, g2 = ProcessorGrid((4,)), ProcessorGrid((2,))
    sess, prog = fresh()
    prog.run(X=np.zeros((N, N)), F=forcing(), iters=1)
    sess.morph(g2)
    sess.morph(g4)
    before = dict(sess.plans.kind_stats()["repartition"])
    sess.morph(g2)
    sess.morph(g4)
    after = sess.plans.kind_stats()["repartition"]
    assert after["misses"] == before["misses"], "morph cycle recompiled"
    assert after["hits"] > before["hits"]


def test_morph_back_replays_plans_and_oracle():
    """Plans and oracle templates key on layouts by value: shrinking
    compiles the 2-rank plan once, and every later visit to either grid
    -- the first re-grow included -- adds no doall miss and no oracle
    entry.  The sweeps stay numpy's throughout."""
    g4, g2 = ProcessorGrid((4,)), ProcessorGrid((2,))
    sess, prog = fresh()
    prog.run(X=np.zeros((N, N)), F=forcing(), iters=2)
    sess.morph(g2)
    prog.run(iters=2)
    misses = sess.plans.kind_stats()["doall"]["misses"]
    assert misses == len(sess.oracle) == 2  # one per grid
    for grid in (g4, g2, g4):
        sess.morph(grid)
        prog.run(iters=2)
        assert sess.plans.kind_stats()["doall"]["misses"] == misses
        assert len(sess.oracle) == 2

    np.testing.assert_array_equal(prog.arrays["X"].to_global(), numpy_sweeps(10))


def test_morph_there_and_back_over_the_same_ranks():
    """(2,2) -> (4,1) -> (2,2) keeps ranks and specs and changes only
    the grid shape: the return trip must build its own repartition
    schedules, not replay the outbound ones, and a second round trip
    replays both directions."""
    g22, g41 = ProcessorGrid((2, 2)), ProcessorGrid((4, 1))
    sess = Session(Machine(n_procs=4))
    prog = repro.compile(
        SRC.replace("procs(4)", "procs(2, 2)").replace("(block, *)", "(block, block)"),
        session=sess,
    )
    prog.run(X=np.zeros((N, N)), F=forcing(), iters=1)
    for grid in (g41, g22):
        sess.morph(grid)
        prog.run(iters=1)
    before = dict(sess.plans.kind_stats()["repartition"])
    for grid in (g41, g22):
        sess.morph(grid)
        prog.run(iters=1)
    after = sess.plans.kind_stats()["repartition"]
    assert after["misses"] == before["misses"], "second round trip rebuilt"
    assert after["hits"] > before["hits"]

    np.testing.assert_array_equal(prog.arrays["X"].to_global(), numpy_sweeps(5))


def test_morph_noop_when_already_on_grid():
    g4 = ProcessorGrid((4,))
    sess, prog = fresh()
    prog.run(X=np.zeros((N, N)), F=forcing(), iters=1)
    assert sess.morph(g4) is None


def test_morph_respawns_mp_pool_on_new_rank_set():
    g4, g2 = ProcessorGrid((4,)), ProcessorGrid((2,))
    sess, prog = fresh(backend="multiprocessing")
    try:
        prog.run(X=np.zeros((N, N)), F=forcing(), iters=2)
        pool4 = sess._mp_backend._pool
        assert pool4 is not None and pool4.alive()
        sess.morph(g2)
        assert sess._mp_backend is None, "morph must quiesce worker pools"
        prog.run(iters=2)
        pool2 = sess._mp_backend._pool
        assert pool2 is not None and pool2 is not pool4
        assert set(pool2.ranks) == set(g2.linear)
    finally:
        sess.close_backend()


def test_morph_updates_session_default_grid():
    g2, g4 = ProcessorGrid((2,)), ProcessorGrid((4,))
    sess = Session(Machine(n_procs=4), g2)
    src2 = SRC.replace("procs(4)", "procs(2)")
    prog = repro.compile(src2, session=sess)
    prog.run(X=np.zeros((N, N)), F=forcing())
    sess.morph(g4)
    assert sess.grid.key() == g4.key()


def test_morph_refuses_section_programs():
    from repro.lang import Assign, DistArray, Doall, Owner, loopvars

    g = ProcessorGrid((2,))
    A = DistArray((6, 8), g, dist=("*", "block"), name="A")
    row = A[0, :]
    (j,) = loopvars("j")
    loop = Doall(vars=(j,), ranges=[(1, 6)], on=Owner(row, (j,)),
                 body=[Assign(row[j], row[j - 1] + 1.0)], grid=g)
    sess = Session(Machine(n_procs=4), g)
    prog = repro.compile(loop, session=sess)
    with pytest.raises(ValidationError, match="Section"):
        sess.morph(ProcessorGrid((4,)))
    assert prog.grid.key() == g.key(), "failed morph must not retarget"


# ----------------------------------------------------------------------
# Serving survives a morph
# ----------------------------------------------------------------------


def test_server_pool_survives_morph():
    g4 = ProcessorGrid((4,))
    with Server(machine=Machine(n_procs=4), threads=3) as srv:
        prog = srv.compile(SRC.replace("procs(4)", "procs(2)"))
        futs = [srv.submit(prog, X=np.zeros((N, N)), F=forcing())
                for _ in range(6)]
        for f in futs:
            f.result()
        srv.morph(prog, g4)
        assert prog.grid.key() == g4.key()
        futs = [srv.submit(prog, iters=2) for _ in range(6)]
        for f in futs:
            f.result()
        st = srv.stats()
        assert st["requests"] == 12 and st["failures"] == 0

        # the post-morph state matches a never-served equivalent
        sess = Session(Machine(n_procs=4))
        ref = repro.compile(SRC.replace("procs(4)", "procs(2)"), session=sess)
        for _ in range(6):
            ref.run(X=np.zeros((N, N)), F=forcing())
        sess.morph(g4)
        for _ in range(6):
            ref.run(iters=2)
        np.testing.assert_array_equal(
            srv.fetch(prog, "X")["X"], ref.arrays["X"].to_global()
        )
