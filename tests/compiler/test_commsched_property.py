"""Property tests: every gathered vector -- uncached inspection, cached
build, cached replay -- equals plain numpy indexing of the global array,
for arbitrary distributions, 1-D and 2-D arrays, sections, empty request
sets, rank-skewed arrival, and a rank that changes its pattern alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import inspector_gather
from repro.lang import BlockCyclic, DistArray, ProcessorGrid
from repro.machine import Compute, Machine
from repro.session import Session


def _dist_of(kind: str):
    if kind.startswith("blockcyclic"):
        return BlockCyclic(int(kind.rsplit("-", 1)[1]))
    return kind


def _rows(draw, shape, max_size=8):
    """One rank's request rows inside ``shape`` (possibly none)."""
    rows = draw(
        st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in shape)),
            min_size=0, max_size=max_size,
        )
    )
    return np.asarray(rows, dtype=np.int64).reshape(-1, len(shape))


@st.composite
def gather_cases(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    kind = _dist_of(
        draw(st.sampled_from(["block", "cyclic", "blockcyclic-2", "blockcyclic-3"]))
    )
    ndim = draw(st.sampled_from([1, 2]))
    if ndim == 1:
        shape, dist = (draw(st.integers(min_value=p, max_value=24)),), (kind,)
    else:
        split = draw(st.integers(0, 1))  # which dim the grid distributes
        shape = tuple(
            draw(st.integers(min_value=p if k == split else 1, max_value=8))
            for k in range(2)
        )
        dist = tuple(kind if k == split else "*" for k in range(2))
    # a section fixes dim 0 of a 2-D array: the gather reads a 1-D slice
    section = ndim == 2 and draw(st.booleans())
    row = draw(st.integers(0, shape[0] - 1)) if section else None
    view_shape = shape[1:] if section else shape
    patterns = [_rows(draw, view_shape) for _ in range(p)]
    # rank-skewed arrival: a rank-dependent Compute before every call
    skew = [draw(st.sampled_from([0.0, 1e-5, 3e-4])) for _ in range(p)]
    # one rank may bring another pattern alone on the middle sweep
    changer = draw(st.one_of(st.none(), st.integers(0, p - 1)))
    changed = _rows(draw, view_shape) if changer is not None else None
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return p, shape, dist, row, patterns, skew, changer, changed, seed


def _setup(case):
    p, shape, dist, row, patterns, skew, changer, changed, seed = case
    g = ProcessorGrid((p,))
    A = DistArray(shape, g, dist=dist, name="A")
    A.from_global(np.random.default_rng(seed).standard_normal(shape))
    view = A if row is None else A[(row,) + (slice(None),) * (len(shape) - 1)]

    def pattern(rank, sweep):
        if sweep == 1 and rank == changer:
            return changed
        return patterns[rank]

    return g, view, pattern, skew


@given(gather_cases())
@settings(max_examples=40, deadline=None)
def test_cached_replay_bit_identical(case):
    p = case[0]
    sweeps = 3
    g, view, pattern, skew = _setup(case)
    want = view.to_global()

    def reference(rank, sweep):
        return want[tuple(pattern(rank, sweep).T)]

    # -- uncached inspection ---------------------------------------------
    fresh = {}

    def prog_uncached(ctx):
        yield Compute(seconds=skew[ctx.rank])
        fresh[ctx.rank] = yield from inspector_gather(ctx, g, view, pattern(ctx.rank, 0))

    Session(Machine(n_procs=p), g).run(prog_uncached)
    for r in range(p):
        assert fresh[r].dtype == want.dtype
        np.testing.assert_array_equal(fresh[r], reference(r, 0))

    # -- cached: build sweep, replays, a lone pattern change ---------------
    session = Session(Machine(n_procs=p), g)
    got = {r: [] for r in range(p)}

    def prog_cached(ctx):
        for sweep in range(sweeps):
            yield Compute(seconds=skew[ctx.rank] * (sweep + 1))
            vals = yield from ctx.cached_gather(g, view, pattern(ctx.rank, sweep))
            got[ctx.rank].append(vals)

    trace = session.run(prog_cached)
    for r in range(p):
        for sweep, vals in enumerate(got[r]):
            assert vals.dtype == want.dtype
            np.testing.assert_array_equal(vals, reference(r, sweep))

    # one probe per collective call; a call misses exactly when the
    # grid's tuple of patterns is new
    seen, expect = set(), {"hits": 0, "misses": 0}
    for sweep in range(sweeps):
        key = tuple(
            (pattern(r, sweep).shape, pattern(r, sweep).tobytes()) for r in range(p)
        )
        expect["hits" if key in seen else "misses"] += 1
        seen.add(key)
    assert session.stats()["schedules"] == expect
    assert trace.schedule_counts() == {
        k: p * n for k, n in (("miss", expect["misses"]), ("hit", expect["hits"])) if n
    }


@given(gather_cases())
@settings(max_examples=15, deadline=None)
def test_replay_never_sends_more_messages(case):
    """Replay sweeps never exceed half the message count of a fresh
    inspection (they drop the request round and the empty replies)."""
    p = case[0]
    sweeps = 3
    g, view, pattern, _ = _setup(case)

    def prog_uncached(ctx):
        yield from inspector_gather(ctx, g, view, pattern(ctx.rank, 0))

    per_sweep = Session(Machine(n_procs=p), g).run(prog_uncached).message_count()

    def prog_cached(ctx):
        for _ in range(sweeps):
            yield from ctx.cached_gather(g, view, pattern(ctx.rank, 0))

    t_ca = Session(Machine(n_procs=p), g).run(prog_cached)
    # the build sweep equals the uncached sweep
    replay_msgs = t_ca.message_count() - per_sweep
    assert replay_msgs <= (sweeps - 1) * per_sweep // 2
