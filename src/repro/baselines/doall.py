"""The reference semantics of a ``doall``: one sequential numpy sweep.

The paper defines a ``doall`` by copy-in/copy-out over *global*
indices: every right-hand side reads the values the arrays held before
the loop, then the statements store, in order.  Distribution clauses
decide where an iteration runs, never what it computes.  This module
evaluates loops exactly that way, over plain global ndarrays, and
imports nothing from the compiler, the machine or the session -- so a
distributed executor checked against it is checked against something
that shares none of its analyses, schedules or workspaces.

>>> from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
>>> g = ProcessorGrid((2,))
>>> u = DistArray((6,), g, dist=("block",), name="u")
>>> (i,) = loopvars("i")
>>> loop = Doall(vars=(i,), ranges=[(1, 4)], on=Owner(u, (i,)),
...              body=[Assign(u[i], u[i - 1] + u[i + 1])], grid=g)
>>> state = {u: np.arange(6.0)}
>>> doall_reference([loop], state)
>>> state[u]
array([0., 2., 4., 6., 8., 5.])
"""

from __future__ import annotations

import operator

import numpy as np

from repro.lang.array import storage_of
from repro.lang.expr import BinOp, Const, Ref
from repro.util.errors import CompileError

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def doall_reference(loops, state: dict, iters: int = 1) -> None:
    """Run ``iters`` sweeps of ``loops``, in order, over ``state`` in place.

    ``state`` maps each storage array (a ``DistArray``; sections resolve
    to their base) to its global ndarray.  Ranges are inclusive and
    strided; the loop variables form an ``ij`` mesh in declaration
    order.  The ``on`` clause is ignored.  A subscript outside
    ``[0, extent)`` raises :class:`~repro.util.errors.CompileError`
    instead of letting numpy wrap it.
    """
    for _ in range(iters):
        for loop in loops:
            _sweep(loop, state)


def eval_rhs(expr, read):
    """Evaluate a value expression: constants stay Python floats,
    ``read(ref)`` supplies each reference's values, and the operators
    apply in tree order."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return read(expr)
    if isinstance(expr, BinOp):
        return _OPS[expr.op](eval_rhs(expr.left, read), eval_rhs(expr.right, read))
    raise CompileError(f"cannot evaluate expression {expr!r}")


def _sweep(loop, state: dict) -> None:
    axes = [np.arange(lo, hi + 1, step, dtype=np.int64) for lo, hi, step in loop.ranges]
    env = dict(zip((v.name for v in loop.vars),
                   np.meshgrid(*axes, indexing="ij", sparse=True)))
    shape = tuple(a.size for a in axes)

    def read(ref):
        storage, idx = _address(ref, env)
        return state[storage][idx]

    # copy-in: every rhs is read (fancy indexing copies) before any store
    values = [eval_rhs(st.rhs, read) for st in loop.body]
    for st, value in zip(loop.body, values):
        storage, idx = _address(st.lhs, env)
        idx = tuple(np.broadcast_to(k, shape) for k in idx)
        state[storage][idx] = np.asarray(value, dtype=st.lhs.array.dtype)


def _address(ref: Ref, env: dict) -> tuple:
    """``(storage array, global index tuple)`` of ``ref`` over the mesh."""
    array = ref.array
    idx = [np.asarray(e.evaluate(env)) for e in ref.idx]
    for k, sub in enumerate(idx):
        if sub.size and (sub.min() < 0 or sub.max() >= array.shape[k]):
            raise CompileError(
                f"subscript {k} of {array.name!r} leaves [0, {array.shape[k]})"
            )
    storage = storage_of(array)
    while array is not storage:
        kept = iter(idx)
        idx = [array.fixed[k] if k in array.fixed else next(kept)
               for k in range(array.base.ndim)]
        array = array.base
    return storage, tuple(idx)
