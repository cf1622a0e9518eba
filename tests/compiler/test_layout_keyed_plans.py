"""Layout-keyed plans: a flip back to a layout you have seen is a hit.

Every cached plan -- gather plans included -- names its arrays by
``layout_key()`` -- uid plus the layout *by value* -- so a redistribution
leaves the old layout's entries valid for a return.  These tests pin the
two halves of that: the reuse (misses follow the distinct layouts
visited, never the number of flips) and the hazard the monotone epoch
used to guard (no sweep may ever compute through a plan, a section or a
block of a layout the array is not in) -- always against a plain
sequential numpy evaluation, never against another of our executors.
The last test keeps ``comm_epoch`` out of every cache key.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Machine, ProcessorGrid, Session
from repro.lang import Assign, BlockCyclic, DistArray, Doall, OnProc, Owner, loopvars
from repro.util.errors import ValidationError

LAYOUTS = ("block", "cyclic", BlockCyclic(2), BlockCyclic(3))


def smooth_numpy(u0, f, sweeps):
    """The loop below, evaluated sequentially (copy-in/copy-out)."""
    u = u0.copy()
    for _ in range(sweeps):
        old = u.copy()
        u[1:-1] = 0.5 * (old[:-2] + old[2:]) - f[1:-1]
    return u


def smoother(p, n, seed):
    g = ProcessorGrid((p,))
    u = DistArray((n,), g, dist=(LAYOUTS[0],), name="u")
    f = DistArray((n,), g, dist=(LAYOUTS[0],), name="f")
    rng = np.random.default_rng(seed)
    u0, f0 = rng.standard_normal(n), rng.standard_normal(n)
    u.from_global(u0)
    f.from_global(f0)
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, n - 2)], on=Owner(u, (i,)),
                 body=[Assign(u[i], 0.5 * (u[i - 1] + u[i + 1]) - f[i])], grid=g)
    return g, u, f, loop, u0, f0


def doall_misses(sess):
    return sess.plans.kind_stats()["doall"]["misses"]


def doall_entries(sess):
    """Plan-cache entries that are doall plans: ``ctx.redistribute``
    adds one repartition plan per transition it built."""
    built = sess.plans.kind_stats().get("repartition", {"misses": 0})["misses"]
    return len(sess.plans) - built


# ----------------------------------------------------------------------
# Random flips among layouts, interleaved with sweeps
# ----------------------------------------------------------------------


@st.composite
def flip_walks(draw):
    p = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=max(8, 2 * p), max_value=20))
    layout = st.integers(min_value=0, max_value=len(LAYOUTS) - 1)
    steps = draw(st.lists(
        st.tuples(layout, layout, st.integers(min_value=1, max_value=2)),
        min_size=3, max_size=8,
    ))
    where = draw(st.sampled_from(["parsub", "host"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return p, n, steps, where, seed


@given(flip_walks())
@settings(max_examples=40, deadline=None)
def test_random_flips_match_numpy_and_miss_once_per_layout(case):
    """``u`` and ``f`` walk independently through four layouts -- by
    ``ctx.redistribute`` inside one parsub, or by host-side
    ``DistArray.redistribute`` between ``Program.run`` calls -- with
    sweeps in every layout pair.  The values are numpy's, and the loop
    compiles exactly once per distinct layout pair it ran in."""
    p, n, steps, where, seed = case
    g, u, f, loop, u0, f0 = smoother(p, n, seed)
    sess = Session(Machine(n_procs=p), g)

    if where == "parsub":
        def routine(ctx):
            for lu, lf, sweeps in steps:
                yield from ctx.redistribute(u, (LAYOUTS[lu],))
                yield from ctx.redistribute(f, (LAYOUTS[lf],))
                for _ in range(sweeps):
                    yield from ctx.doall(loop)

        sess.run(routine)
        visited = {(lu, lf) for lu, lf, _ in steps}
    else:
        prog = repro.compile(loop, session=sess)  # freezes the (0, 0) plan
        for lu, lf, sweeps in steps:
            u.redistribute((LAYOUTS[lu],))
            f.redistribute((LAYOUTS[lf],))
            prog.run(iters=sweeps)
        visited = {(0, 0)} | {(lu, lf) for lu, lf, _ in steps}

    np.testing.assert_array_equal(
        u.to_global(), smooth_numpy(u0, f0, sum(s for _, _, s in steps))
    )
    np.testing.assert_array_equal(f.to_global(), f0)
    assert doall_misses(sess) == len(visited)
    assert doall_entries(sess) == len(visited)


# ----------------------------------------------------------------------
# What the epoch used to guard
# ----------------------------------------------------------------------


def test_stale_section_still_refused_after_a_return_to_its_layout():
    """A section sliced in layout A is stale after A -> B -> A: the
    base's blocks are not the ones it was cut from.  The loop's key is
    back to A's, so the plan probe *hits* -- and the replay must still
    refuse, because sections check the base's blocks, not its key."""
    p, n = 2, 12
    g = ProcessorGrid((p,))
    U = DistArray((3, n), g, dist=("*", "block"), name="U")
    V = DistArray((3, n), g, dist=("*", "block"), name="V")
    ref = np.arange(3.0 * n).reshape(3, n)
    U.from_global(ref)
    u, v = U[1, :], V[1, :]
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, n - 2)], on=Owner(v, (i,)),
                 body=[Assign(v[i], u[i - 1] + u[i + 1])], grid=g)

    def prog(ctx):
        yield from ctx.doall(loop)

    sess = Session(Machine(n_procs=p), g)
    sess.run(prog)
    np.testing.assert_array_equal(V.to_global()[1, 1:-1], ref[1, :-2] + ref[1, 2:])
    key, stats = loop.key(), sess.plans.kind_stats()["doall"]

    U.redistribute(("*", "cyclic"))
    assert loop.key() != key
    U.redistribute(("*", "block"))
    assert loop.key() == key
    with pytest.raises(ValidationError, match="stale section"):
        sess.run(prog)
    after = sess.plans.kind_stats()["doall"]
    assert after["misses"] == stats["misses"] and after["hits"] > stats["hits"]


@pytest.mark.parametrize("parsub", [True, False])
def test_manual_invalidation_forces_a_rebuild(parsub):
    """``invalidate_schedules()`` is for layout edits the key cannot
    see: it purges the array's plans and moves its layout key, so the
    next sweep recompiles even though dist and grid read the same --
    whether the sweeps come from ``ctx.doall`` or ``Program.run``."""
    p, n = 2, 12
    g, u, f, loop, u0, f0 = smoother(p, n, seed=5)
    sess = Session(Machine(n_procs=p), g)
    prog = repro.compile(loop, session=sess)

    def run(iters):
        if not parsub:
            return prog.run(iters=iters)

        def routine(ctx):
            for _ in range(iters):
                yield from ctx.doall(loop)

        return sess.run(routine)

    run(2)
    assert doall_misses(sess) == 1 and len(sess.plans) == 1
    key, epoch = u.layout_key(), u.comm_epoch

    u.invalidate_schedules()
    assert len(sess.plans) == 0
    assert u.layout_key() != key and u.comm_epoch == epoch + 1
    assert u.layout_key()[:4] == key[:4]  # same uid, spec, grid: only the count moved
    run(1)
    assert doall_misses(sess) == 2 and len(sess.plans) == 1
    np.testing.assert_array_equal(u.to_global(), smooth_numpy(u0, f0, 3))


def test_layout_key_separates_grid_shapes_over_the_same_ranks():
    """``ProcessorGrid.key()`` is the rank tuple: a ``(2, 2)`` and a
    ``(4, 1)`` grid share it.  The layout key must not."""
    g22, g41 = ProcessorGrid((2, 2)), ProcessorGrid((4, 1))
    assert g22.key() == g41.key()
    A = DistArray((8, 8), g22, dist=("block", "block"), name="A")
    ref = np.arange(64.0).reshape(8, 8)
    A.from_global(ref)
    on22 = A.layout_key()
    A.redistribute(("block", "block"), grid=g41)
    assert A.layout_key() != on22
    A.redistribute(("block", "block"), grid=ProcessorGrid((2, 2)))
    assert A.layout_key() == on22  # by value: an equal grid, not the same object
    np.testing.assert_array_equal(A.to_global(), ref)

    # the same holds for what a loop adds to the key on its own account
    i, j = loopvars("i j")
    assert OnProc(g22, (i, j)).key() != OnProc(g41, (i, j)).key()


def test_section_layout_key_follows_its_base():
    g = ProcessorGrid((2,))
    U = DistArray((3, 8), g, dist=("*", "block"), name="U")
    a, b = U[0, :], U[1, :]
    assert a.layout_key() == (a.uid, U.layout_key())
    assert a.layout_key() != b.layout_key()  # two sections never alias
    before = a.layout_key()
    U.redistribute(("*", "cyclic"))
    assert a.layout_key() != before
    U.redistribute(("*", "block"))
    assert a.layout_key() == before


# ----------------------------------------------------------------------
# The flip_churn shape: steady-state ops never compile
# ----------------------------------------------------------------------

FLIP_SRC = """
processors procs(4)
real u(0:{n}, 0:{n}) dist (*, block)
real f(0:{n}, 0:{n}) dist (*, block)
doall (i, j) = [1, {m}] * [1, {m}] on owner(u(i, j))
  u(i, j) = 0.5*(u(i, j-1) + u(i, j+1)) - f(i, j)
end doall
"""


def test_flip_churn_parsub_has_no_steady_state_misses():
    """Six block <-> cyclic flips with sweeps in each layout, op after
    op: the first op compiles each layout once, every later op compiles
    nothing -- and still computes numpy's answer."""
    n, flips, sweeps = 16, 6, 2
    listing = repro.parse_program(FLIP_SRC.format(n=n, m=n - 1))
    u, f, loop = listing.arrays["u"], listing.arrays["f"], listing.loops[0]
    sess = Session(Machine(n_procs=4), listing.grid)

    def routine(ctx):
        for flip in range(flips):
            layout = ("*", "cyclic") if flip % 2 == 0 else ("*", "block")
            yield from ctx.redistribute(u, layout)
            yield from ctx.redistribute(f, layout)
            for _ in range(sweeps):
                yield from ctx.doall(loop)

    rng = np.random.default_rng(23)
    for op in range(3):
        u0, f0 = rng.standard_normal((2, n + 1, n + 1))
        u.from_global(u0)
        f.from_global(f0)
        trace = sess.run(routine)
        want = u0.copy()
        for _ in range(flips * sweeps):
            old = want.copy()
            want[1:-1, 1:-1] = 0.5 * (old[1:-1, :-2] + old[1:-1, 2:]) - f0[1:-1, 1:-1]
        np.testing.assert_array_equal(u.to_global(), want)
        assert doall_misses(sess) == 2  # one per layout, all in the first op
        if op:
            assert trace.schedule_counts("doall").get("build", 0) == 0
            assert trace.schedule_counts("repartition").get("miss", 0) == 0
    assert doall_entries(sess) == 2


# ----------------------------------------------------------------------
# Tooling guard: the epoch names blocks, never plans
# ----------------------------------------------------------------------

#: The only functions under ``src/repro`` that may mention ``comm_epoch``:
#: each one identifies the current *blocks* of an array, none builds a
#: cache key for a plan.
BLOCK_IDENTITY_SITES = {
    # the counter itself: defined, bumped where blocks are swapped or
    # declared stale, shared by sections
    "lang/array.py::DistArray.__init__",
    "lang/array.py::DistArray.comm_epoch",
    "lang/array.py::DistArray.invalidate_schedules",
    "lang/array.py::DistArray._install",
    "lang/array.py::Section.comm_epoch",
    # per-rank owned-box selections follow the blocks they select from
    "lang/array.py::BaseDistArray._owned_meshes",
    # which blocks a worker pool adopted into shared memory
    "machine/mpbackend.py::_pool_key",
    # checkpoint snapshots record it to tell a clean array from a moved one
    "elastic.py::_snap_clean",
    "elastic.py::checkpoint",
}

#: ... and never these, allow-listed or not (``_line_plan_key`` keys the
#: one line-solve plan every tensor line sweep shares)
KEY_BUILDERS = {"key", "layout_key", "_line_plan_key", "gather_key", "repartition_key"}


def _epoch_sites(root):
    """``file::qualname`` of every function whose code (docstrings and
    comments aside) names ``comm_epoch`` as an attribute or a string."""
    names = {"comm_epoch", "_comm_epoch"}
    sites = set()

    def visit(node, path, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, qual + [child.name])
                continue
            docstring = (
                isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Constant)
                and isinstance(child.value.value, str)
            )
            if docstring:
                continue
            for sub in ast.walk(child):
                hit = (
                    (isinstance(sub, ast.Attribute) and sub.attr in names)
                    or (isinstance(sub, ast.Constant) and sub.value in names)
                )
                if hit:
                    sites.add(f"{path}::{'.'.join(qual) or '<module>'}")

    for file in sorted(root.rglob("*.py")):
        visit(ast.parse(file.read_text()), file.relative_to(root).as_posix(), [])
    return sites


def test_comm_epoch_appears_only_at_block_identity_sites():
    """Tier-1 guard: no plan or gather-schedule key may go back to the
    monotone epoch (a second keying path beside ``layout_key``)."""
    sites = _epoch_sites(pathlib.Path(repro.__file__).parent)
    assert sites, "the scan found nothing: it is broken, not the code clean"
    in_keys = {
        s for s in sites
        if s.rsplit("::", 1)[-1].rsplit(".", 1)[-1] in KEY_BUILDERS
    }
    assert not in_keys, f"comm_epoch inside a key builder: {sorted(in_keys)}"
    stray = sites - BLOCK_IDENTITY_SITES
    assert not stray, (
        "comm_epoch outside the block-identity allow-list (key plans on "
        f"layout_key() instead): {sorted(stray)}"
    )
    gone = BLOCK_IDENTITY_SITES - sites
    assert not gone, f"allow-listed sites no longer use comm_epoch: {sorted(gone)}"


def test_key_builders_are_all_defined():
    """A renamed key builder would silently drop out of the guard above:
    every listed name must still be a function defined under src/repro."""
    root = pathlib.Path(repro.__file__).parent
    defined = {
        node.name
        for file in root.rglob("*.py")
        for node in ast.walk(ast.parse(file.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    missing = KEY_BUILDERS - defined
    assert not missing, f"KEY_BUILDERS names no function in src/repro: {sorted(missing)}"
