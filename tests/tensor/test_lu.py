"""Tests for distributed LU (the cyclic-distribution use case)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ProcessorGrid
from repro.machine import Machine
from repro.tensor.lu import lu_distributed, lu_reference, lu_unpack
from repro.util.errors import ValidationError


def dominant_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (n, n))
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


def test_reference_factors():
    A = dominant_matrix(12)
    LU = lu_reference(A)
    L, U = lu_unpack(LU)
    np.testing.assert_allclose(L @ U, A, rtol=1e-10)


def test_reference_zero_pivot():
    with pytest.raises(ValidationError):
        lu_reference(np.zeros((3, 3)))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("dist", ["block", "cyclic"])
def test_distributed_matches_reference(p, dist):
    A = dominant_matrix(12, seed=p)
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    LU, trace = lu_distributed(m, g, A, dist=dist)
    np.testing.assert_allclose(LU, lu_reference(A), rtol=1e-10, atol=1e-12)


def test_cyclic_balances_load():
    """The paper's point: cyclic keeps processors busy through elimination."""
    A = dominant_matrix(24, seed=9)
    m1 = Machine(n_procs=4)
    _, t_blk = lu_distributed(m1, ProcessorGrid((4,)), A, dist="block")
    m2 = Machine(n_procs=4)
    _, t_cyc = lu_distributed(m2, ProcessorGrid((4,)), A, dist="cyclic")
    busy_blk = [t_blk.busy_time(r) for r in range(4)]
    busy_cyc = [t_cyc.busy_time(r) for r in range(4)]
    imb_blk = max(busy_blk) / (sum(busy_blk) / 4)
    imb_cyc = max(busy_cyc) / (sum(busy_cyc) / 4)
    assert imb_cyc < imb_blk


def test_validation():
    m = Machine(n_procs=4)
    with pytest.raises(ValidationError):
        lu_distributed(m, ProcessorGrid((2, 2)), dominant_matrix(8), dist="cyclic")
    with pytest.raises(ValidationError):
        lu_distributed(m, ProcessorGrid((2,)), np.ones((3, 4)))


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=14),
    p=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 2**31),
)
def test_property_lu_solves_systems(n, p, seed):
    A = dominant_matrix(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x_true = rng.standard_normal(n)
    b = A @ x_true
    m = Machine(n_procs=p)
    LU, _ = lu_distributed(m, ProcessorGrid((p,)), A, dist="cyclic")
    L, U = lu_unpack(LU)
    y = np.linalg.solve(L, b)
    x = np.linalg.solve(U, y)
    np.testing.assert_allclose(x, x_true, rtol=1e-8)
