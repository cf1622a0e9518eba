"""Tests for the KF1 surface-syntax front end."""

import numpy as np
import pytest

from repro.lang.kf1 import parse_program
from repro.machine import Machine
from repro.tensor.jacobi import jacobi_reference
from repro.util.errors import CompileError
from repro.session import Session

JACOBI = """
processors procs(2, 2)
real X(0:12, 0:12) dist (block, block)
real f(0:12, 0:12) dist (block, block)

doall (i, j) = [1, 11] * [1, 11] on owner(X(i, j))
  X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - f(i, j)
end doall
"""


def test_parse_jacobi_listing():
    prog = parse_program(JACOBI)
    assert prog.grid.shape == (2, 2)
    assert set(prog.arrays) == {"X", "f"}
    assert prog.arrays["X"].shape == (13, 13)
    assert len(prog.loops) == 1
    loop = prog.loops[0]
    assert [v.name for v in loop.vars] == ["i", "j"]
    assert loop.ranges == ((1, 11, 1), (1, 11, 1))


def test_parsed_jacobi_runs_and_matches_reference():
    prog = parse_program(JACOBI)
    rng = np.random.default_rng(0)
    f = 1e-3 * rng.standard_normal((13, 13))
    f[0] = f[-1] = 0.0
    f[:, 0] = f[:, -1] = 0.0
    prog.arrays["f"].from_global(f)
    m = Machine(n_procs=4)

    def spmd(ctx):
        for _ in range(5):
            yield from ctx.doall(prog.loops[0])

    Session(m, prog.grid).run(spmd)
    np.testing.assert_allclose(
        prog.arrays["X"].to_global(), jacobi_reference(f, 5), rtol=1e-12
    )


def test_star_dist_and_owner_star():
    text = """
processors procs(2)
real u(0:8, 0:8) dist (*, block)
real t(0:8, 0:8) dist (*, block)
doall (i, j) = [1, 7] * [2, 6, 2] on owner(u(*, j))
  t(i, j) = u(i, j-1) + u(i, j+1)
end doall
"""
    prog = parse_program(text)
    loop = prog.loops[0]
    assert loop.ranges[1] == (2, 6, 2)
    u = prog.arrays["u"]
    assert u.grid_dim_of(0) is None
    assert prog.loops[0].on.idx[0] is None


def test_rational_subscript_parses():
    text = """
processors procs(2)
real u(0:8) dist (block)
real v(0:4) dist (block)
doall (k) = [2, 6, 2] on owner(u(k))
  u(k) = u(k) + v(k/2)
end doall
"""
    prog = parse_program(text)
    u = prog.arrays["u"]
    v = prog.arrays["v"]
    v.from_global(np.array([0.0, 10.0, 20.0, 30.0, 40.0]))
    m = Machine(n_procs=2)

    def spmd(ctx):
        yield from ctx.doall(prog.loops[0])

    Session(m, prog.grid).run(spmd)
    out = u.to_global()
    np.testing.assert_array_equal(out[2:8:2], [10.0, 20.0, 30.0])
    assert out[8] == 0.0  # k=8 outside the inclusive range [2, 6]


def test_onproc_clause():
    text = """
processors procs(4)
real T(0:15) dist (block)
doall (ip) = [0, 3] on procs(ip)
  T(4*ip) = T(4*ip+1) + 1
end doall
"""
    prog = parse_program(text)
    T = prog.arrays["T"]
    T.from_global(np.arange(16.0))
    m = Machine(n_procs=4)

    def spmd(ctx):
        yield from ctx.doall(prog.loops[0])

    Session(m, prog.grid).run(spmd)
    out = T.to_global()
    np.testing.assert_array_equal(out[0::4], np.arange(16.0)[1::4] + 1.0)


def test_replicated_default_declaration():
    text = """
processors procs(2)
real s(0:3)
"""
    prog = parse_program(text)
    assert prog.arrays["s"].replicated


def test_comments_ignored():
    text = """
! header comment
processors procs(2)
real A(0:7) dist (block)   ! trailing comment
doall (i) = [1, 6] on owner(A(i))
  A(i) = A(i) * 2
end doall
"""
    prog = parse_program(text)
    assert len(prog.loops) == 1


def test_errors():
    with pytest.raises(CompileError):
        parse_program("real A(0:3) dist (block)")  # no processors
    with pytest.raises(CompileError):
        parse_program("processors p(2)\nprocessors q(2)")
    with pytest.raises(CompileError):
        parse_program(
            "processors procs(2)\nreal A(0:7) dist (block)\n"
            "doall (i) = [0, 7] on owner(B(i))\n  A(i) = A(i)\nend doall"
        )
    with pytest.raises(CompileError):
        parse_program(
            "processors procs(2)\nreal A(0:7) dist (block)\n"
            "doall (i) = [0, 7] on owner(A(i))\n  A(i) = A(i)"
        )  # missing end doall
    with pytest.raises(CompileError):
        parse_program("processors procs(2)\nreal A(1:7) dist (block)")


def test_loop_var_outside_subscript_rejected():
    text = """
processors procs(2)
real A(0:7) dist (block)
doall (i) = [0, 7] on owner(A(i))
  A(i) = i
end doall
"""
    with pytest.raises(CompileError):
        parse_program(text)
