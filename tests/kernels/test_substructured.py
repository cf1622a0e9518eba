"""Tests for the substructured parallel tridiagonal solver (Figures 1-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.substructured import (
    ContiguousMapping,
    ShuffleMapping,
    local_reduce,
    reduce_four_rows,
    solve_reduced_pairs,
    substructured_tri_solve,
)
from repro.kernels.thomas import thomas_solve
from repro.machine import CostModel, Machine
from repro.util.errors import ValidationError


def dominant_system(n, rng):
    b = rng.uniform(-1, 1, n)
    c = rng.uniform(-1, 1, n)
    a = np.abs(b) + np.abs(c) + rng.uniform(1.0, 2.0, n)
    f = rng.uniform(-5, 5, n)
    return b, a, c, f


# ----------------------------------------------------------------------
# Local reduction (Figure 1)
# ----------------------------------------------------------------------


def test_local_reduce_block_structure():
    """After reduction, interior rows couple only (first, self, last)."""
    rng = np.random.default_rng(3)
    n = 8
    b, a, c, f = dominant_system(n, rng)
    red = local_reduce(b, a, c, f)
    x = thomas_solve(b, a, c, f)  # true solution of the isolated block
    # boundary rows must be consistent: first row couples x[-1(ext)], x0, x[n-1]
    # with no external neighbors, first = (b0, a0, g0 | f0) means
    # a0*x0 + g0*x[n-1] = f0 (b0 multiplies a nonexistent row)
    lhs_first = red.first[1] * x[0] + red.first[2] * x[-1]
    np.testing.assert_allclose(lhs_first, red.first[3], rtol=1e-9)
    lhs_last = red.last[0] * x[0] + red.last[1] * x[-1]
    np.testing.assert_allclose(lhs_last, red.last[3], rtol=1e-9)
    # interior identity: e_i x0 + a_i x_i + g_i x_last = f_i
    for i in range(1, n - 1):
        lhs = red.e[i] * x[0] + red.a[i] * x[i] + red.g[i] * x[-1]
        np.testing.assert_allclose(lhs, red.f[i], rtol=1e-9)


def test_local_reduce_interior_solve_roundtrip():
    rng = np.random.default_rng(4)
    b, a, c, f = dominant_system(10, rng)
    x = thomas_solve(b, a, c, f)
    red = local_reduce(b, a, c, f)
    recovered = red.interior_solve(x[0], x[-1])
    np.testing.assert_allclose(recovered, x, rtol=1e-9)


def test_local_reduce_minimum_block():
    rng = np.random.default_rng(5)
    b, a, c, f = dominant_system(2, rng)
    red = local_reduce(b, a, c, f)
    assert red.m == 2
    x = thomas_solve(b, a, c, f)
    np.testing.assert_allclose(red.interior_solve(x[0], x[1]), x)


def test_local_reduce_rejects_tiny_block():
    with pytest.raises(ValidationError):
        local_reduce([0.0], [1.0], [0.0], [1.0])


def test_reduced_pairs_form_tridiagonal_of_2p():
    """Figure 1's claim: boundary rows form a 2p tridiagonal system."""
    rng = np.random.default_rng(6)
    n, p = 16, 4
    b, a, c, f = dominant_system(n, rng)
    x_true = thomas_solve(b, a, c, f)
    m = n // p
    pairs = []
    for q in range(p):
        sl = slice(q * m, (q + 1) * m)
        red = local_reduce(b[sl], a[sl], c[sl], f[sl])
        pairs.append((red.first, red.last))
    x_red = solve_reduced_pairs(pairs)
    # reduced solution = true solution at block boundary rows
    expected = np.concatenate([[x_true[q * m], x_true[(q + 1) * m - 1]] for q in range(p)])
    np.testing.assert_allclose(x_red, expected, rtol=1e-8)


def test_reduce_four_rows_matches_direct(use_p=2):
    """Figure 2: four rows reduce to two preserving the solution."""
    rng = np.random.default_rng(7)
    n, p = 8, 2
    b, a, c, f = dominant_system(n, rng)
    x_true = thomas_solve(b, a, c, f)
    m = n // p
    reds = [
        local_reduce(b[q * m : (q + 1) * m], a[q * m : (q + 1) * m],
                     c[q * m : (q + 1) * m], f[q * m : (q + 1) * m])
        for q in range(p)
    ]
    first, last, saved = reduce_four_rows(
        (reds[0].first, reds[0].last), (reds[1].first, reds[1].last)
    )
    # new pair rows must be satisfied by (x[0], x[n-1]) with no externals
    np.testing.assert_allclose(first[1] * x_true[0] + first[2] * x_true[-1], first[3], rtol=1e-8)
    np.testing.assert_allclose(last[0] * x_true[0] + last[1] * x_true[-1], last[3], rtol=1e-8)
    # saved interior recovers the two middle boundary values
    x4 = saved.interior_solve(x_true[0], x_true[-1])
    np.testing.assert_allclose(x4, [x_true[0], x_true[m - 1], x_true[m], x_true[-1]], rtol=1e-8)


# ----------------------------------------------------------------------
# Mappings (Figure 5)
# ----------------------------------------------------------------------


def test_contiguous_mapping_layout():
    m = ContiguousMapping(8)
    assert [m.pair_rank(0, j) for j in range(8)] == list(range(8))
    assert [m.pair_rank(1, j) for j in range(4)] == [0, 2, 4, 6]
    assert [m.pair_rank(2, j) for j in range(2)] == [0, 4]
    assert m.pair_rank(3, 0) == 0


def test_shuffle_mapping_disjoint_levels():
    m = ShuffleMapping(8)
    level1 = {m.pair_rank(1, j) for j in range(4)}
    level2 = {m.pair_rank(2, j) for j in range(2)}
    level3 = {m.pair_rank(3, 0)}
    assert level1 == {4, 5, 6, 7}
    assert level2 == {2, 3}
    assert level3 == {1}
    assert level1 & level2 == set()
    assert level2 & level3 == set()


def test_mapping_requires_power_of_two():
    with pytest.raises(ValidationError):
        ShuffleMapping(6)


# ----------------------------------------------------------------------
# Full parallel solve
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("mapping", [ContiguousMapping, ShuffleMapping])
def test_parallel_solve_matches_thomas(p, mapping):
    rng = np.random.default_rng(p * 10 + 1)
    n = 32
    b, a, c, f = dominant_system(n, rng)
    x, trace = substructured_tri_solve(b, a, c, f, p, mapping_cls=mapping)
    np.testing.assert_allclose(x, thomas_solve(b, a, c, f), rtol=1e-8)


def test_uneven_blocks():
    rng = np.random.default_rng(11)
    n, p = 37, 4  # non-divisible
    b, a, c, f = dominant_system(n, rng)
    x, _ = substructured_tri_solve(b, a, c, f, p)
    np.testing.assert_allclose(x, thomas_solve(b, a, c, f), rtol=1e-8)


def test_n_too_small_raises():
    with pytest.raises(ValidationError):
        substructured_tri_solve(np.ones(6), np.ones(6) * 3, np.ones(6), np.ones(6), 4)


def test_active_processor_counts_halve():
    """Figure 3: active processors halve at each reduction step."""
    rng = np.random.default_rng(12)
    n, p = 64, 8
    b, a, c, f = dominant_system(n, rng)
    _, trace = substructured_tri_solve(b, a, c, f, p)
    by_step = trace.active_procs_by_payload("tri/reduce")
    counts = {level: len(procs) for (sys, level), procs in by_step.items()}
    assert counts[0] == 8
    assert counts[1] == 4
    assert counts[2] == 2
    apex = trace.active_procs_by_payload("tri/apex")
    assert len(apex[(0, 3)]) == 1


def test_substitution_counts_double():
    rng = np.random.default_rng(13)
    n, p = 64, 8
    b, a, c, f = dominant_system(n, rng)
    _, trace = substructured_tri_solve(b, a, c, f, p)
    by_step = trace.active_procs_by_payload("tri/subst")
    counts = {level: len(procs) for (sys, level), procs in by_step.items()}
    assert counts[2] == 2
    assert counts[1] == 4
    assert counts[0] == 8


def test_deterministic_trace():
    rng = np.random.default_rng(14)
    n, p = 32, 4
    b, a, c, f = dominant_system(n, rng)
    _, t1 = substructured_tri_solve(b, a, c, f, p)
    _, t2 = substructured_tri_solve(b, a, c, f, p)
    assert t1.makespan() == t2.makespan()
    assert t1.message_count() == t2.message_count()


def test_each_launch_records_the_same_routing_marks():
    """The routing memo belongs to one launch: a second solve in the
    same process records the marks a fresh process records (one build by
    the first rank, a hit on every other), not the first solve's leftovers."""
    from repro.kernels.pipelined import sequential_multi_tri_solve

    rng = np.random.default_rng(3)
    b, a, c, f = dominant_system(16, rng)
    marks = [
        [(m.proc, m.label, m.payload) for m in substructured_tri_solve(b, a, c, f, 4)[1].marks]
        for _ in range(2)
    ]
    assert marks[0] == marks[1]
    labels = [label for _, label, _ in marks[0] if label.startswith("commsched/")]
    assert sorted(labels) == ["commsched/build"] + ["commsched/hit"] * 3
    stacked = [np.stack([v] * 3) for v in (b, a, c, f)]
    _, trace = sequential_multi_tri_solve(*stacked, 4)
    labels = [m.label for m in trace.marks if m.label.startswith("commsched/")]
    assert sorted(labels) == ["commsched/build"] + ["commsched/hit"] * 11


def test_parallel_faster_than_sequential_for_large_n():
    """Simulated speedup: parallel time < sequential Thomas time at large n."""
    rng = np.random.default_rng(15)
    n, p = 4096, 16
    b, a, c, f = dominant_system(n, rng)
    cost = CostModel.balanced()
    x, trace = substructured_tri_solve(b, a, c, f, p, machine=Machine(n_procs=p, cost=cost))
    seq_time = cost.compute_time(8 * n)  # Thomas ~ 8n flops
    assert trace.makespan() < seq_time
    np.testing.assert_allclose(x, thomas_solve(b, a, c, f), rtol=1e-7)


@settings(max_examples=20, deadline=None)
@given(
    logp=st.integers(min_value=0, max_value=4),
    extra=st.integers(min_value=0, max_value=30),
    seed=st.integers(0, 2**31),
)
def test_property_parallel_equals_sequential(logp, extra, seed):
    p = 1 << logp
    n = 2 * p + extra
    rng = np.random.default_rng(seed)
    b, a, c, f = dominant_system(n, rng)
    x, _ = substructured_tri_solve(b, a, c, f, p)
    np.testing.assert_allclose(x, thomas_solve(b, a, c, f), rtol=1e-6, atol=1e-8)
