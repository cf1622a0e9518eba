"""Checkpoint/restore: durable session state, bit-identical resumption.

The contract pinned here: a restore that lands on the live layout is a
pure value write (caches stay warm, epochs untouched), so the run after
a restore is bit-identical -- results, full trace, plan accounting
deltas, run counter -- to the run the checkpoint preceded.  A restore
onto a *different* layout re-lays the arrays out first and re-freezes
the plans, same contract as any recompile.
"""

import numpy as np
import pytest

import repro
from repro import Checkpoint, Machine, ProcessorGrid, Session
from repro.util.errors import ValidationError

SRC = """
processors procs(2)
real x(0:15) dist (block)
real y(0:15) dist (block)
doall (i) = [1, 14] on owner(y(i))
  y(i) = 0.5*(x(i-1) + x(i+1))
end doall
doall (i) = [1, 14] on owner(x(i))
  x(i) = y(i)
end doall
"""


def trace_sig(trace):
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


def plan_delta(before, after):
    return {
        k: after["plans"]["doall"][k] - before["plans"]["doall"][k]
        for k in ("hits", "misses")
    }


def fresh(n_procs=4):
    sess = Session(Machine(n_procs=n_procs))
    prog = repro.compile(SRC, session=sess)
    return sess, prog


# ----------------------------------------------------------------------
# Round trip on the live layout
# ----------------------------------------------------------------------


def test_round_trip_bit_identical_run():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=3)
    ck = sess.checkpoint()
    s0 = sess.stats()
    t_ref = prog.run(iters=2)
    ref = {n: a.to_global().copy() for n, a in prog.arrays.items()}
    d_ref = plan_delta(s0, sess.stats())
    runs_ref = sess.stats()["runs"]

    sess.restore(ck)
    s1 = sess.stats()
    t2 = prog.run(iters=2)
    for n, want in ref.items():
        np.testing.assert_array_equal(prog.arrays[n].to_global(), want)
    assert trace_sig(t2) == trace_sig(t_ref)
    assert plan_delta(s1, sess.stats()) == d_ref
    assert sess.stats()["runs"] == runs_ref


def test_round_trip_through_bytes():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=2)
    blob = sess.checkpoint().to_bytes()
    assert isinstance(blob, bytes)
    want = prog.arrays["y"].to_global().copy()
    prog.run(iters=5)  # diverge
    ck = Checkpoint.from_bytes(blob)
    sess.restore(ck)
    np.testing.assert_array_equal(prog.arrays["y"].to_global(), want)


def test_restore_into_fresh_process_twin():
    """A checkpoint restores into a *different* session that compiled
    the same program (the fresh-process scenario; pairing is
    structural, names and shapes verified)."""
    sess_a, prog_a = fresh()
    prog_a.run(x=np.arange(16.0), iters=4)
    blob = sess_a.checkpoint().to_bytes()
    t_ref = prog_a.run(iters=2)

    sess_b, prog_b = fresh()
    sess_b.restore(Checkpoint.from_bytes(blob))
    assert sess_b.runs == 1
    t_b = prog_b.run(iters=2)
    np.testing.assert_array_equal(
        prog_b.arrays["x"].to_global(), prog_a.arrays["x"].to_global()
    )
    assert trace_sig(t_b) == trace_sig(t_ref)


def test_history_and_runs_restored():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0))
    prog.run()
    ck = sess.checkpoint()
    prog.run()
    prog.run()
    sess.restore(ck)
    assert sess.runs == 2
    assert len(sess.history) == 2
    assert trace_sig(sess.history[-1]) == trace_sig(ck.history[-1])


def test_describe_counts():
    sess, prog = fresh()
    prog.run(x=np.zeros(16))
    d = sess.checkpoint().describe()
    assert d["programs"] == 1 and d["arrays"] == 2
    assert d["grids"] == [(2,)]
    assert d["nbytes"] == 2 * 16 * 8
    assert d["version"] == 1


# ----------------------------------------------------------------------
# Cross-layout restore
# ----------------------------------------------------------------------


def test_restore_undoes_a_redistribution():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=2)
    ck = sess.checkpoint()
    t_ref = prog.run()
    ref = prog.arrays["y"].to_global().copy()

    prog.arrays["x"].redistribute(("cyclic",))
    sess.restore(ck)
    assert prog.arrays["x"].dist.spec_key() == ck.programs[0]["arrays"][0]["spec_key"] \
        or prog.arrays["x"].dist.spec_key() == ck.programs[0]["arrays"][1]["spec_key"]
    t2 = prog.run()
    np.testing.assert_array_equal(prog.arrays["y"].to_global(), ref)
    assert trace_sig(t2) == trace_sig(t_ref)


def test_restore_undoes_a_morph():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=2)
    ck = sess.checkpoint()
    t_ref = prog.run()
    ref = prog.arrays["y"].to_global().copy()

    sess.morph(ProcessorGrid((4,)))
    prog.run()
    sess.restore(ck)
    assert prog.grid.shape == (2,)
    assert prog.arrays["x"].grid.key() == ProcessorGrid((2,)).key()
    t2 = prog.run()
    np.testing.assert_array_equal(prog.arrays["y"].to_global(), ref)
    assert trace_sig(t2) == trace_sig(t_ref)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_restore_rejects_non_checkpoint_and_bad_bytes():
    sess, _ = fresh()
    with pytest.raises(ValidationError, match="needs a Checkpoint"):
        sess.restore({"not": "a checkpoint"})
    import pickle

    with pytest.raises(ValidationError, match="not a checkpoint.*envelope"):
        Checkpoint.from_bytes(pickle.dumps([1, 2, 3]))


def test_restore_rejects_version_skew():
    sess, prog = fresh()
    prog.run(x=np.zeros(16))
    ck = sess.checkpoint()
    ck.version = 99
    with pytest.raises(ValidationError, match="version 99"):
        Checkpoint.from_bytes(ck.to_bytes())


def test_restore_rejects_structural_mismatch():
    sess_a, prog_a = fresh()
    prog_a.run(x=np.zeros(16))
    ck = sess_a.checkpoint()

    other = Session(Machine(n_procs=4))
    repro.compile(SRC, session=other)
    repro.compile(SRC, session=other)  # two programs vs one
    with pytest.raises(ValidationError, match="live one"):
        other.restore(ck)

    shifted = Session(Machine(n_procs=4))
    prog_s = repro.compile(
        SRC.replace("real x(0:15)", "real x(0:13)").replace(
            "real y(0:15)", "real y(0:13)").replace("[1, 14]", "[1, 12]"),
        session=shifted,
    )
    prog_s.run(x=np.zeros(14))
    with pytest.raises(ValidationError, match="does not match live array"):
        shifted.restore(ck)


def test_checkpoint_rejects_parsub_programs():
    sess = Session(Machine(n_procs=2), ProcessorGrid((2,)))

    def routine(ctx):
        yield from iter(())

    prog = repro.compile(routine, session=sess)
    assert prog.routine is routine
    with pytest.raises(ValidationError, match="parsub"):
        sess.checkpoint()
    with pytest.raises(ValidationError, match="parsub"):
        sess.morph(ProcessorGrid((1,)))


def test_dead_programs_drop_out_of_scope():
    sess = Session(Machine(n_procs=4))
    prog = repro.compile(SRC, session=sess)
    extinct = repro.compile(SRC, session=sess)
    assert len(sess.live_programs()) == 2
    del extinct
    import gc

    gc.collect()
    assert sess.live_programs() == [prog]
    prog.run(x=np.zeros(16))
    assert sess.checkpoint().describe()["programs"] == 1
