"""``open_mesh`` / ``mesh_shape``: the one box-to-selection helper.

Every frozen box in the compiler (ghost messages, local moves, box
stores, repartition pieces, ``to_global``/``from_global``) becomes a
numpy selection through ``repro.util.indexing.open_mesh``.  It may hand
back basic slices or the ``np.ix_`` mesh; either way it must select
exactly what ``np.ix_`` selects.  The last test keeps ``np.ix_`` from
creeping back in anywhere else under ``src/repro``.
"""

import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.util.indexing import mesh_shape, open_mesh


@st.composite
def index_list(draw, extent):
    """One per-dimension index list into an axis of length ``extent``."""
    kind = draw(st.sampled_from(
        ["contiguous", "stride", "irregular", "singleton", "empty",
         "descending", "duplicated"]
    ))
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "singleton":
        return np.array([draw(st.integers(0, extent - 1))])
    if kind in ("contiguous", "stride", "descending"):
        step = 1 if kind == "contiguous" else draw(st.integers(1, 4))
        start = draw(st.integers(0, extent - 1))
        count = draw(st.integers(1, (extent - 1 - start) // step + 1))
        run = start + step * np.arange(count)
        return run[::-1].copy() if kind == "descending" else run
    if kind == "irregular":
        count = draw(st.integers(1, extent))
        return np.array(draw(st.permutations(range(extent)))[:count])
    values = draw(st.lists(st.integers(0, extent - 1), min_size=1, max_size=8))
    return np.array(sorted(values + values[:1]))


@st.composite
def box(draw):
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    return shape, [draw(index_list(n)) for n in shape]


@settings(max_examples=300, deadline=None)
@given(box())
def test_open_mesh_selects_what_ix_selects(case):
    shape, lists = case
    a = np.arange(float(np.prod(shape))).reshape(shape)
    mesh, ref = open_mesh(lists), np.ix_(*lists)
    want = a[ref]
    np.testing.assert_array_equal(a[mesh], want)
    assert mesh_shape(mesh) == want.shape == mesh_shape(ref)
    # writes land on the same elements (distinct values; with duplicated
    # indices both forms keep the last write, the mesh form by definition)
    values = -1.0 - np.arange(float(want.size)).reshape(want.shape)
    got, expect = a.copy(), a.copy()
    got[mesh] = values
    expect[ref] = values
    np.testing.assert_array_equal(got, expect)


def test_arithmetic_runs_become_slices_everything_else_stays_a_mesh():
    assert open_mesh([np.arange(3, 9)]) == (slice(3, 9),)
    assert open_mesh([np.array([4])]) == (slice(4, 5),)
    assert open_mesh([np.arange(1, 12, 5), np.arange(2)]) == (
        slice(1, 12, 5), slice(0, 2),
    )
    for irregular in ([0, 2, 1, 3], [3, 2, 1], [1, 1, 2], [0, 1, 3], [], [-1, 0]):
        mesh = open_mesh([np.array(irregular, dtype=np.int64), np.arange(2)])
        assert all(isinstance(m, np.ndarray) for m in mesh), irregular


def test_np_ix_lives_only_in_the_helper():
    """Tier-1 guard: no frozen box may go back to a fancy-index mesh."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() == "util/indexing.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0].strip()
            if "np.ix_(" in code and not code.startswith((">>>", "...")):
                offenders.append(f"{path.relative_to(root)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "np.ix_ outside util/indexing.py (use open_mesh):\n" + "\n".join(offenders)
    )
