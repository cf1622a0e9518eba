"""Checkpoint integrity and incremental checkpoints (PR 10).

The serialized envelope (magic + CRC-32 + length) must catch what the
wire and the disk do to bytes: any single bit flip and any truncation
raise :class:`ValidationError` with a message saying *what* is wrong --
never an unpickling crash, never a silently wrong restore.  Incremental
checkpoints (per-array dirty deltas against a prior full snapshot --
chained boundary-to-boundary by the checkpointed-run drivers -- with a
sweep cursor) must hydrate via ``merged()`` to exactly the full
snapshot they elide.
"""

import pickle

import numpy as np
import pytest

import repro
from repro import Checkpoint, Machine, Session, faults
from repro.elastic import checkpoint, restore
from repro.util.errors import ValidationError

SRC = """
processors procs(2)
real x(0:15) dist (block)
real y(0:15) dist (block)
doall (i) = [1, 14] on owner(y(i))
  y(i) = 0.5*(x(i-1) + x(i+1))
end doall
doall (i) = [1, 14] on owner(x(i))
  x(i) = y(i) + 1.0
end doall
"""


def fresh(n_procs=4):
    sess = Session(Machine(n_procs=n_procs))
    return sess, repro.compile(SRC, session=sess)


def _blob():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=2)
    return sess.checkpoint().to_bytes()


# ----------------------------------------------------------------------
# Envelope: checksum and truncation
# ----------------------------------------------------------------------


def test_bit_flip_anywhere_in_payload_is_detected():
    blob = _blob()
    for offset in (None, len(blob) // 2, len(blob) - 1):
        for bit in (0, 3, 7):
            damaged = faults.corrupt_checkpoint_bytes(
                blob, offset=offset, bit=bit
            )
            assert damaged != blob
            with pytest.raises(ValidationError, match="CRC-32 mismatch"):
                Checkpoint.from_bytes(damaged)
    # the pristine blob still restores: corruption never mutates input
    assert isinstance(Checkpoint.from_bytes(blob), Checkpoint)


def test_bit_flip_in_magic_reads_as_foreign_bytes():
    blob = _blob()
    damaged = faults.corrupt_checkpoint_bytes(blob, offset=0)
    with pytest.raises(ValidationError):
        Checkpoint.from_bytes(damaged)


def test_truncation_is_detected_with_clear_message():
    blob = _blob()
    with pytest.raises(ValidationError, match="truncated checkpoint"):
        Checkpoint.from_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValidationError, match="shorter than the envelope"):
        Checkpoint.from_bytes(blob[:10])   # inside the header itself
    with pytest.raises(ValidationError, match="truncated checkpoint"):
        Checkpoint.from_bytes(blob[:-1])


def test_envelope_roundtrip_and_legacy_pickle_still_rejected():
    blob = _blob()
    ck = Checkpoint.from_bytes(blob)
    assert ck.to_bytes() == blob           # stable re-serialization
    # bytes without the envelope never reach pickle.loads -- not even a
    # well-formed Checkpoint pickle, which would skip the checksum
    for raw in (pickle.dumps([1, 2, 3]), pickle.dumps(ck)):
        with pytest.raises(ValidationError, match="not a checkpoint.*envelope"):
            Checkpoint.from_bytes(raw)


def test_corrupt_helper_validates_its_arguments():
    with pytest.raises(ValidationError):
        faults.corrupt_checkpoint_bytes(b"")
    with pytest.raises(ValidationError, match="out of range"):
        faults.corrupt_checkpoint_bytes(b"abc", offset=99)
    with pytest.raises(ValidationError, match="bit"):
        faults.corrupt_checkpoint_bytes(b"abc", offset=0, bit=8)


# ----------------------------------------------------------------------
# Incremental checkpoints: sweep cursor, deltas, hydration
# ----------------------------------------------------------------------


def test_incremental_elides_clean_arrays_and_merges_back():
    # f is read, never written: it stays clean across sweeps, so the
    # incremental delta must elide it (data=None) while x/y carry data
    src = """
    processors procs(2)
    real x(0:15) dist (block)
    real y(0:15) dist (block)
    real f(0:15) dist (block)
    doall (i) = [1, 14] on owner(y(i))
      y(i) = 0.5*(x(i-1) + x(i+1)) + f(i)
    end doall
    doall (i) = [1, 14] on owner(x(i))
      x(i) = y(i) + 1.0
    end doall
    """
    sess = Session(Machine(n_procs=4))
    prog = repro.compile(src, session=sess)
    prog.run(x=np.arange(16.0), f=np.full(16, 0.25), iters=1)
    base = checkpoint(sess, sweep=0)
    assert base.kind == "full" and base.sweep == 0

    prog.run(iters=2)
    inc = checkpoint(sess, sweep=2, base=base)
    assert inc.kind == "incremental" and inc.sweep == 2
    assert inc.base_id == base.ckpt_id
    # the delta is smaller than the base: clean arrays carry no data
    assert inc.describe()["nbytes"] < base.describe()["nbytes"]

    full = inc.merged(base)
    assert full.kind == "full" and full.sweep == 2
    want = {n: a.to_global().copy() for n, a in prog.arrays.items()}
    prog.run(iters=3)                      # drift away
    restore(sess, full)
    for n, a in prog.arrays.items():
        np.testing.assert_array_equal(a.to_global(), want[n])


def test_restore_incremental_via_base_kwarg_bit_identical():
    sess, prog = fresh()
    prog.run(x=np.linspace(0, 1, 16), iters=2)
    base = checkpoint(sess, sweep=0)
    prog.run(iters=1)
    inc = checkpoint(sess, sweep=1, base=base)
    t_ref = prog.run(iters=2)
    want = prog.arrays["x"].to_global().copy()

    restore(sess, inc, base=base)
    t_again = prog.run(iters=2)
    np.testing.assert_array_equal(prog.arrays["x"].to_global(), want)
    assert t_again.makespan() == t_ref.makespan()


def test_incremental_round_trips_through_bytes_with_identity():
    sess, prog = fresh()
    prog.run(x=np.arange(16.0))
    base = checkpoint(sess, sweep=0)
    prog.run(iters=1)
    inc = checkpoint(sess, sweep=1, base=base)

    inc2 = Checkpoint.from_bytes(inc.to_bytes())
    base2 = Checkpoint.from_bytes(base.to_bytes())
    assert inc2.base_id == base2.ckpt_id   # identity survives the wire
    merged = inc2.merged(base2)
    assert merged.describe()["sweep"] == 1
    want = prog.arrays["x"].to_global().copy()
    prog.run(iters=2)
    restore(sess, merged)
    np.testing.assert_array_equal(prog.arrays["x"].to_global(), want)


def test_incremental_guards_misuse():
    sess, prog = fresh()
    prog.run(x=np.zeros(16))
    base = checkpoint(sess, sweep=0)
    inc = checkpoint(sess, sweep=1, base=base)

    with pytest.raises(ValidationError, match="needs base="):
        restore(sess, inc)                 # incremental without its base
    with pytest.raises(ValidationError, match="full.*base snapshot"):
        checkpoint(sess, sweep=2, base=inc)  # delta against a delta
    with pytest.raises(ValidationError, match="base must be a full"):
        inc.merged(inc)
    with pytest.raises(ValidationError, match="incremental checkpoints"):
        base.merged(base)                  # merged() on a full snapshot
    other = checkpoint(sess, sweep=0)      # a different full snapshot
    with pytest.raises(ValidationError, match="wrong base"):
        inc.merged(other)


def test_checkpoint_every_runs_restorable_mid_run():
    """Program.run(checkpoint_every=) leaves a resumable cursor: restore
    the latest checkpoint, re-run the tail, get the same answer."""
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=6, checkpoint_every=2)
    want = prog.arrays["x"].to_global().copy()
    latest = prog.latest_checkpoint()
    assert latest.sweep == 6

    # the latest delta chains from the previous boundary, not sweep 0
    mid = prog.ckpt_latest                 # incremental at sweep 6
    assert mid.kind == "incremental"
    assert prog.ckpt_base.sweep == 4
    assert mid.base_id == prog.ckpt_base.ckpt_id
    # rewind to the sweep-4 chain base and replay the final leg
    restore(sess, prog.ckpt_base)
    prog.run(iters=2)
    np.testing.assert_array_equal(prog.arrays["x"].to_global(), want)
    prog.run(iters=3)                      # drift away
    restore(sess, latest)                  # jump straight to sweep 6
    np.testing.assert_array_equal(prog.arrays["x"].to_global(), want)


def test_incremental_deltas_chain_and_re_elide_quiescent_arrays():
    """Chained deltas diff against the *previous* boundary: an array
    that changed once and then went quiescent elides its data again at
    later boundaries (diffing every delta against the sweep-0 base
    would keep paying full copies forever)."""
    sess, prog = fresh()
    prog.run(x=np.arange(16.0), iters=1)
    base = checkpoint(sess, sweep=0)
    prog.run(iters=1)                      # x and y both change
    inc1 = checkpoint(sess, sweep=1, base=base)
    assert all(
        snap["data"] is not None for snap in inc1.programs[0]["arrays"]
    )
    full1 = inc1.merged(base)

    # no sweeps between the boundaries: against full1 everything is
    # clean again, even though it all differs from the sweep-0 base
    inc2 = checkpoint(sess, sweep=2, base=full1)
    assert inc2.base_id == full1.ckpt_id
    assert all(
        snap["data"] is None for snap in inc2.programs[0]["arrays"]
    )
    full2 = inc2.merged(full1)
    want = {n: a.to_global().copy() for n, a in prog.arrays.items()}
    prog.run(iters=2)                      # drift away
    restore(sess, full2)
    for n, a in prog.arrays.items():
        np.testing.assert_array_equal(a.to_global(), want[n])
