"""Tests for the sequential and message-passing baselines, the doall
reference evaluator, and LoC counts."""

import ast
import pathlib

import numpy as np
import pytest

import repro.baselines.doall
from repro.baselines import (
    count_loc,
    doall_reference,
    jacobi_message_passing,
    jacobi_sequential,
    loc_report,
    mp_jacobi_node,
)
from repro.lang import Assign, DistArray, Doall, OnProc, Owner, ProcessorGrid, loopvars
from repro.machine import Machine
from repro.tensor.jacobi import build_jacobi_loop, jacobi_reference
from repro.util.errors import CompileError, ValidationError


def poisson_f(n, seed=0):
    rng = np.random.default_rng(seed)
    f = 0.01 * rng.standard_normal((n + 1, n + 1))
    f[0] = f[-1] = 0.0
    f[:, 0] = f[:, -1] = 0.0
    return f


def test_sequential_matches_reference():
    f = poisson_f(10)
    np.testing.assert_allclose(jacobi_sequential(f, 6), jacobi_reference(f, 6))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_message_passing_matches_sequential(p):
    f = poisson_f(12, seed=p)
    m = Machine(n_procs=p * p)
    X, trace = jacobi_message_passing(m, p, f, iters=5)
    np.testing.assert_allclose(X, jacobi_sequential(f, 5), rtol=1e-13, atol=1e-15)


def test_message_passing_neighbor_messages_only():
    f = poisson_f(12, seed=9)
    m = Machine(n_procs=9)
    _, trace = jacobi_message_passing(m, 3, f, iters=1)
    # 3x3 grid: 12 interior edges, 2 messages each
    assert trace.message_count() == 24
    for msg in trace.messages:
        si, sj = divmod(msg.src, 3)
        di, dj = divmod(msg.dst, 3)
        assert abs(si - di) + abs(sj - dj) == 1  # strict 4-neighbor pattern


def test_message_passing_validates():
    f = poisson_f(4)
    with pytest.raises(ValidationError):
        jacobi_message_passing(Machine(n_procs=4), 4, f, 1)  # machine too small
    with pytest.raises(ValidationError):
        jacobi_message_passing(Machine(n_procs=100), 4, f[:3, :], 1)


def test_count_loc_ignores_docs_comments_blanks():
    def tiny(x):
        """Docstring should not count."""
        # comment
        y = x + 1

        return y

    assert count_loc(tiny) == 3  # def, assign, return


def test_loc_report_ratio_shape():
    """The paper's claim: MP version is several times the sequential one."""
    from repro.tensor.jacobi import build_jacobi_loop, jacobi_kf1

    report = loc_report(
        {
            "sequential": jacobi_sequential,
            "message_passing": [mp_jacobi_node, jacobi_message_passing],
            "kf1": [build_jacobi_loop, jacobi_kf1],
        }
    )
    assert report["message_passing"] > 3 * report["sequential"]
    assert report["kf1"] < report["message_passing"]


# ----------------------------------------------------------------------
# The doall reference evaluator
# ----------------------------------------------------------------------


def test_doall_reference_imports_no_executor_layer():
    """The reference must share nothing with what it checks: no import
    from the compiler, the machine or the session, at any depth of the
    module's own code."""
    tree = ast.parse(pathlib.Path(repro.baselines.doall.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "repro.lang.expr" in imported  # the scan sees the imports
    banned = ("repro.compiler", "repro.machine", "repro.session")
    assert not [m for m in imported if m.startswith(banned)], sorted(imported)


def test_doall_reference_is_listing_one():
    """The paper's Jacobi doall, evaluated sequentially, is Listing 1."""
    n = 10
    f = poisson_f(n, seed=4)
    grid = ProcessorGrid((2, 2))
    X = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="X")
    F = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="F")
    state = {X: np.zeros_like(f), F: f}
    doall_reference([build_jacobi_loop(X, F, n, grid)], state, iters=6)
    np.testing.assert_array_equal(state[X], jacobi_sequential(f, 6))


def test_doall_reference_strided_section_and_on_clause():
    """A stride-2 range over a plane section; the ``on`` clause -- here
    one processor for every point -- changes where, not what."""
    grid = ProcessorGrid((2,))
    U = DistArray((3, 9), grid, dist=("*", "block"), name="U")
    V = DistArray((3, 9), grid, dist=("*", "block"), name="V")
    (i,) = loopvars("i")
    u, v = U[2, :], V[0, :]
    loop = Doall(vars=(i,), ranges=[(1, 7, 2)], on=OnProc(grid, (0,)),
                 body=[Assign(v[i], u[i - 1] * 2.0 - u[i + 1])], grid=grid)
    ref = np.arange(27.0).reshape(3, 9)
    state = {U: ref.copy(), V: np.zeros((3, 9))}
    doall_reference([loop], state)
    want = np.zeros((3, 9))
    want[0, 1:8:2] = ref[2, 0:7:2] * 2.0 - ref[2, 2:9:2]
    np.testing.assert_array_equal(state[V], want)
    np.testing.assert_array_equal(state[U], ref)


def test_doall_reference_refuses_out_of_range_subscripts():
    """numpy would wrap A[i - 1] at i = 0 to the last element."""
    grid = ProcessorGrid((1,))
    A = DistArray((4,), grid, dist=("block",), name="A")
    (i,) = loopvars("i")
    for rhs in (A[i - 1], A[i + 1]):
        loop = Doall(vars=(i,), ranges=[(0, 3)], on=Owner(A, (i,)),
                     body=[Assign(A[i], rhs)], grid=grid)
        with pytest.raises(CompileError, match="leaves"):
            doall_reference([loop], {A: np.zeros(4)})
