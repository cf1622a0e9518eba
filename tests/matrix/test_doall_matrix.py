"""The differential matrix, first cut: whole generated programs, every
launch form, one sequential reference.

Each example draws a doall program -- 1-D or 2-D arrays; block, cyclic,
block-cyclic and ``*`` dimensions; one or two loops per sweep, the
second free to read what the first wrote; reads at offsets -2..2 over
ranges of stride 1 or 2; one or two statements per loop, whose targets
sit at offsets -1..1 and may be laid out differently from the ``on``
array (remote writes), or be one array written twice -- and runs it on
the simulator as ``Program.run``, as a parsub calling ``ctx.doall``, and
as a two-member ``run_batch``.  The parsub's ranks compute for a drawn,
rank-dependent time before each doall, so they reach its grid
rendezvous at different clocks.  An optional drawn relayout of one
array follows the first sweep: ``ctx.redistribute`` in the parsub
(after another lagged compute), ``DistArray.redistribute`` between two
``Program.run`` calls.  Every result must equal
:func:`repro.baselines.doall_reference` run from the same starting
globals, bit for bit.  The reference shares no analysis, schedule or
workspace with the executors, so agreement here is not agreement of the
system with itself.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Compute, Machine, ProcessorGrid, Session
from repro.baselines import doall_reference
from repro.lang import Assign, BlockCyclic, DistArray, Doall, Owner, loopvars

KINDS = ("block", "cyclic", BlockCyclic(2))
NAMES = ("A", "B", "C", "D")


@st.composite
def layouts(draw, ndim, grid_ndim):
    """One array's dist tuple: ``grid_ndim`` distributed dims, rest ``*``."""
    spread = draw(st.sampled_from(
        [dims for dims in ((0,), (1,), (0, 1)) if len(dims) == grid_ndim
         and max(dims) < ndim]
    ))
    return tuple(draw(st.sampled_from(KINDS)) if k in spread else "*"
                 for k in range(ndim))


@st.composite
def loop_bodies(draw, shape):
    ndim = len(shape)
    ranges = [(draw(st.integers(2, 3)), n - 3, draw(st.integers(1, 2)))
              for n in shape]
    offsets = st.tuples(*[st.integers(-2, 2)] * ndim)
    terms = st.lists(st.tuples(st.sampled_from(NAMES), offsets,
                               st.sampled_from([0.5, -1.25, 2.0])),
                     min_size=1, max_size=3)
    # "A" owns the iterations, "C"/"D" may live elsewhere; a target at
    # another offset, or written by both statements, is a remote write
    targets = st.tuples(st.sampled_from(("A", "C", "D")),
                        st.tuples(*[st.integers(-1, 1)] * ndim))
    body = [(lhs, lhs_off, draw(terms))
            for lhs, lhs_off in draw(st.lists(targets, min_size=1, max_size=2))]
    return ranges, body


@st.composite
def programs(draw):
    ndim = draw(st.integers(1, 2))
    grid_ndim = draw(st.integers(1, ndim))
    grid = (draw(st.integers(1, 4)),) if grid_ndim == 1 else \
        (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    shape = tuple(draw(st.integers(6, 11)) for _ in range(ndim))
    dists = {name: draw(layouts(ndim, grid_ndim)) for name in NAMES}
    loops = [draw(loop_bodies(shape)) for _ in range(draw(st.integers(1, 2)))]
    lags = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    iters = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**16))
    relayout = draw(st.none() | st.tuples(st.sampled_from(NAMES),
                                          layouts(ndim, grid_ndim)))
    return grid, shape, dists, loops, lags, iters, seed, relayout


def build(grid_shape, shape, dists, loop_specs):
    grid = ProcessorGrid(grid_shape)
    arrays = {name: DistArray(shape, grid, dist=dists[name], name=name)
              for name in NAMES}
    loops = []
    for ranges, body in loop_specs:
        loopv = loopvars(" ".join("ij"[:len(shape)]))
        stmts = []
        def at(name, off):
            return arrays[name][tuple(v + o for v, o in zip(loopv, off))]

        for lhs, lhs_off, terms in body:
            rhs = 0.25
            for name, off, coeff in terms:
                rhs = rhs + coeff * at(name, off)
            stmts.append(Assign(at(lhs, lhs_off), rhs))
        loops.append(Doall(vars=loopv, ranges=ranges,
                           on=Owner(arrays["A"], loopv), body=stmts, grid=grid))
    return loops, arrays


def starts(shape, seed, members):
    rng = np.random.default_rng(seed)
    return [{name: rng.standard_normal(shape) for name in NAMES}
            for _ in range(members)]


def reference(loops, arrays, start, iters):
    state = {arrays[name]: value.copy() for name, value in start.items()}
    doall_reference(loops, state, iters)
    return {name: state[arrays[name]] for name in NAMES}


def assert_equal(got, want, form):
    for name, value in got.items():
        assert value.tobytes() == want[name].tobytes(), (form, name)


@given(programs())
@settings(max_examples=100, deadline=None)
def test_every_launch_form_matches_the_sequential_reference(case):
    grid_shape, shape, dists, loop_specs, lags, iters, seed, relayout = case
    members = starts(shape, seed, 2)

    for form in ("program", "parsub"):
        loops, arrays = build(grid_shape, shape, dists, loop_specs)
        for name, value in members[0].items():
            arrays[name].from_global(value)
        want = reference(loops, arrays, members[0], iters)
        grid = loops[0].grid
        sess = Session(Machine(n_procs=grid.size), grid)
        prog = repro.compile(loops, session=sess)
        if form == "program" and relayout is None:
            prog.run(iters=iters)
        elif form == "program":
            # a relayout moves no values: the sweeps around it are numpy's
            prog.run(iters=1)
            arrays[relayout[0]].redistribute(relayout[1])
            if iters > 1:
                prog.run(iters=iters - 1)
        else:
            def parsub(ctx):
                for sweep in range(iters):
                    for loop in loops:
                        yield Compute(seconds=1e-5 * lags[ctx.rank])
                        yield from ctx.doall(loop)
                    if sweep == 0 and relayout is not None:
                        yield Compute(seconds=1e-5 * lags[ctx.rank])
                        yield from ctx.redistribute(arrays[relayout[0]], relayout[1])

            sess.run(parsub)
        assert_equal({n: a.to_global() for n, a in arrays.items()}, want, form)

    loops, arrays = build(grid_shape, shape, dists, loop_specs)
    grid = loops[0].grid
    prog = repro.compile(loops, session=Session(Machine(n_procs=grid.size), grid))
    batch = prog.run_batch(
        [{n: v for n, v in m.items() if n in prog.arrays} for m in members],
        iters=iters,
    )
    for b, member in enumerate(members):
        assert_equal({n: batch[n][b] for n in prog.arrays},
                     reference(loops, arrays, member, iters), f"batch[{b}]")
